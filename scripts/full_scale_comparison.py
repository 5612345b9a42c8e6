#!/usr/bin/env python3
"""Full-scale policy comparison: practical reward and risk for the
risk-neutral policy, a spread of risk-averse policies, and the
continuous-charging default, on the large price grid with 10^5 paths.

All six policies are scored on one Scenario of tau and price paths, so they
see the same draws.  Writes policy_comparison.csv to the output directory.
With the default 10^5 paths a run took 0.58-0.66 s wall on a shared 2-core
Intel Xeon box (Python 3.11, numpy 2.4, one BLAS thread; 0.72-0.80 s before
the price paths were stored time-major); there a full-scale
solve_family takes about 0.03 s once the grid holds its tables (median of 10
calls in one process, 30-37 ms), and 0.07-0.08 s for the first family on a
fresh grid.
"""

import argparse
import os
import sys
import time

from evcharge.beta_search import solve_family
from evcharge.cli import _write_csv
from evcharge.config import preset
from evcharge.policy_eval import ContinuousChargePolicy, Scenario


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-paths", type=int, default=None,
                        help="override the preset's 10^5 paths")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out-dir", default="out")
    args = parser.parse_args(argv)

    cfg = preset("full_scale")
    n_paths = args.n_paths or cfg.n_paths
    seed = args.seed if args.seed is not None else cfg.seed
    grid = cfg.build_grid()
    print(f"price grid: {len(grid)} points; horizons {cfg.tau.horizons[0]}"
          f"..{cfg.tau.horizons[-1]}; {n_paths} paths")

    # one draw of tau and price paths, on which every policy is scored
    scenario = Scenario.sample(cfg.tau, cfg.pm, cfg.p0, n_paths, seed)

    def measure(policy):
        return scenario.score(policy, cfg.mdp, risk_kind=cfg.risk_kind, delta=cfg.delta)

    betas = [(0.0, 0.5), (0.25, 0.5), (0.5, 0.5), (0.75, 0.75), (1.0, 0.95)]
    rows = []
    for lam, alpha in betas:
        t0 = time.time()
        family = solve_family(lam, alpha, cfg.mdp, cfg.pm, grid, cfg.tau.horizons)
        m = measure(family)
        label = "RN" if lam == 0.0 else f"lam={lam} alpha={alpha}"
        rows.append((label, lam, alpha, m.reward, m.reward_se, m.risk, m.risk_se))
        print(f"{label}: reward {m.reward:.2f} (+-{m.reward_se:.2f}) "
              f"risk {m.risk:.3f} (+-{m.risk_se:.3f}) [{time.time() - t0:.0f}s]")

    m = measure(ContinuousChargePolicy(cfg.mdp))
    rows.append(("Default", "-", "-", m.reward, m.reward_se, m.risk, m.risk_se))
    print(f"Default: reward {m.reward:.2f} risk {m.risk:.3f}")

    _write_csv(os.path.join(args.out_dir, "policy_comparison.csv"),
               ["policy", "lambda", "alpha", "reward", "reward_se", "risk", "risk_se"],
               rows)
    print(f"wrote {args.out_dir}/policy_comparison.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
