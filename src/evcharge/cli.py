"""Command-line harness: solve, verify, simulate, pipeline, price-check.

All numeric output uses explicit fixed formatting and a single --seed, so
repeated runs with the same config produce byte-identical CSVs.

Exit codes: 0 success, 1 config error, 2 runtime numeric error,
3 structure-check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import beta_search, mdp, policy_eval, price_model
from .config import ConfigError, ExperimentConfig, load_config, preset
from .risk import RiskSchedule

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_STRUCTURE = 3


def _fmt(x) -> str:
    return f"{float(x):.6f}"


def _write_csv(path: str, header: list[str], rows) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) if isinstance(c, (str, int)) else _fmt(c)
                              for c in row) + "\n")


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else preset(args.preset)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.out_dir is not None:
        cfg = dataclasses.replace(cfg, output_dir=args.out_dir)
    return cfg


def cmd_solve(args) -> int:
    cfg = _load(args)
    horizon = args.horizon or cfg.mdp.horizon
    grid = cfg.build_grid()
    beta = RiskSchedule.homogeneous(args.lam, args.alpha, horizon)
    sol = mdp.solve(dataclasses.replace(cfg.mdp, horizon=horizon), beta, cfg.pm, grid)

    out = cfg.output_dir
    _write_csv(os.path.join(out, "thresholds.csv"), ["t", "p", "threshold"],
               ((t, _fmt(p), int(sol.thresholds[t, ip]))
                for t in range(horizon) for ip, p in enumerate(grid.points)))
    _write_csv(os.path.join(out, "values_t0.csv"), ["r", "p", "value"],
               ((r, _fmt(p), sol.values[0, r, ip])
                for r in range(cfg.mdp.r_max + 1) for ip, p in enumerate(grid.points)))
    print(f"solved horizon {horizon} on {len(grid)} prices; wrote {out}/thresholds.csv")
    return EXIT_OK


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def cmd_verify(args) -> int:
    cfg = _load(args)
    lambdas = _parse_floats(args.lambdas)
    alphas = _parse_floats(args.alphas)
    if not lambdas or not alphas:
        print("usage: verify needs nonempty --lambdas and --alphas", file=sys.stderr)
        return EXIT_CONFIG
    horizon = args.horizon or cfg.mdp.horizon
    grid = cfg.build_grid()
    mcfg = dataclasses.replace(cfg.mdp, horizon=horizon)

    rows = []
    failed = False
    sols = {}
    for lam in lambdas:
        for alpha in alphas:
            beta = RiskSchedule.homogeneous(lam, alpha, horizon)
            sol = mdp.solve(mcfg, beta, cfg.pm, grid)
            sols[(lam, alpha)] = sol
            report = mdp.verify_structure(sol, tolerance=args.tolerance)
            for c in report.checks:
                rows.append((c.name, lam, alpha, horizon,
                             "pass" if c.passed else "fail", c.worst_violation))
                failed = failed or not c.passed

    # cross-beta threshold monotonicity; only binding in the fast regime
    informational = not mcfg.fast_regime
    worst = 0
    for (lam, alpha), sol in sols.items():
        for (lam2, alpha2), sol2 in sols.items():
            if lam2 >= lam and alpha2 >= alpha and (lam2, alpha2) != (lam, alpha):
                worst = max(worst, int((sol.thresholds - sol2.thresholds).max(initial=0)))
    ok = worst == 0
    name = "threshold_nondecreasing_in_beta" + ("_info" if informational else "")
    rows.append((name, "-", "-", horizon, "pass" if ok else "fail", float(worst)))
    if not ok and not informational:
        failed = True

    _write_csv(os.path.join(cfg.output_dir, "structure_report.csv"),
               ["check", "lambda", "alpha", "T", "status", "worst_violation"], rows)
    for row in rows:
        print(f"{row[0]} lam={row[1]} alpha={row[2]}: {row[4]}")
    return EXIT_STRUCTURE if failed else EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load(args)
    grid = cfg.build_grid()
    family = beta_search.solve_family(args.lam, args.alpha, cfg.mdp, cfg.pm,
                                      grid, cfg.tau.horizons)
    policies = {
        "threshold": family,
        "default": policy_eval.ContinuousChargePolicy(cfg.mdp),
        "never": policy_eval.NeverChargePolicy(),
    }
    scenario = policy_eval.Scenario.sample(cfg.tau, cfg.pm, cfg.p0, cfg.n_paths, cfg.seed)
    rows = []
    for name, pol in policies.items():
        m = scenario.score(pol, cfg.mdp, risk_kind=cfg.risk_kind, delta=cfg.delta)
        lam, alpha = (args.lam, args.alpha) if name == "threshold" else ("-", "-")
        rows.append((name, lam, alpha, m.reward, m.reward_se, m.risk, m.risk_se))
    _write_csv(os.path.join(cfg.output_dir, "metrics.csv"),
               ["policy", "beta_lambda", "beta_alpha", "reward", "reward_se",
                "risk", "risk_se"], rows)

    if args.dump_paths:
        paths = scenario.simulate(family, cfg.mdp)
        _write_csv(os.path.join(cfg.output_dir, "trajectories.csv"),
                   ["path_id", "t", "p", "r", "x"],
                   ((i, t, paths.prices[i, t], int(paths.charges[i, t]),
                     int(paths.actions[i, t]) if t < tau else 0)
                    for i, tau in enumerate(paths.tau[:args.dump_paths])
                    for t in range(tau + 1)))
    for row in rows:
        print(f"{row[0]}: reward={_fmt(row[3])} risk={_fmt(row[5])}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    cfg = _load(args)
    grid = cfg.build_grid()
    cg = beta_search.default_constraint_grid(cfg.constraint_grid_n)
    result = beta_search.pipeline(
        cfg.sample_grid(), cfg.mdp, cfg.pm, grid, cfg.tau, cfg.epsilons,
        cfg.n_paths, cfg.seed, cfg.p0, degree=cfg.degree, constraint_grid=cg,
        risk_kind=cfg.risk_kind, delta=cfg.delta)

    def pct(x, ref):
        return f"{100.0 * x / ref:.1f}" if ref != 0 else "-"

    def line(label, lam, alpha, feasible, m):
        return (label, lam, alpha, feasible, m.reward, pct(m.reward, result.rn.reward),
                m.risk, pct(m.risk, result.rn.risk))

    # bracketed by the anchor policies: continuous-charging default and the risk-neutral MDP
    out = cfg.output_dir
    table = ([line("Default", "-", "-", "-", result.default)]
             + [line(_fmt(r.epsilon), r.lam, r.alpha, str(r.feasible).lower(), r)
                for r in result.rows]
             + [line("RN", "-", "-", "-", result.rn)])
    _write_csv(os.path.join(out, "selection_table.csv"),
               ["epsilon", "lambda_hat", "alpha_hat", "feasible", "reward",
                "reward_pct_of_RN", "risk", "risk_pct_of_RN"], table)
    _write_csv(os.path.join(out, "metrics_samples.csv"),
               ["beta_lambda", "beta_alpha", "reward", "reward_se", "risk", "risk_se"],
               ((s.lam, s.alpha, s.reward, s.reward_se, s.risk, s.risk_se)
                for s in result.samples))
    _write_csv(os.path.join(out, "beta_path.csv"),
               ["epsilon", "lambda_hat", "alpha_hat"],
               ((r.epsilon, r.lam, r.alpha) for r in result.rows))

    ll, aa = beta_search.beta_grid(41, 41)
    _write_csv(os.path.join(out, "fitted_surfaces.csv"),
               ["lambda", "alpha", "reward_fit", "risk_fit"],
               zip(ll.ravel(), aa.ravel(), result.reward_fit(ll, aa).ravel(),
                   result.risk_fit(ll, aa).ravel()))
    print(f"wrote {out}/selection_table.csv ({len(table)} rows)")
    return EXIT_OK


def cmd_price_check(args) -> int:
    cfg = _load(args)
    grid = cfg.build_grid()
    _write_csv(os.path.join(cfg.output_dir, "price_grid.csv"), ["p"],
               ((p,) for p in grid.points))
    dist = price_model.noise_dist(0, cfg.pm)
    _write_csv(os.path.join(cfg.output_dir, "noise_t0.csv"),
               ["value", "probability"], zip(dist.support, dist.probs))

    failed = False
    for t in range(cfg.pm.seas_period):
        d = price_model.noise_dist(t, cfg.pm)
        if abs(d.probs.sum() - 1.0) > 1e-12 or d.probs.min() < price_model.TRIM:
            failed = True
    # conditional mean drift must shrink with the price level
    means = np.array([
        price_model.next_price_dist(p, 0, cfg.pm, grid).mean() - p
        for p in grid.points[1:-1]
    ])
    if np.any(np.diff(means) >= 1e-9):
        failed = True
    print(f"grid: {len(grid)} points [{grid.points[0]:.0f}, {grid.points[-1]:.0f}]; "
          f"noise checks {'FAILED' if failed else 'passed'}")
    return EXIT_STRUCTURE if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evcharge",
                                     description="Risk-averse dynamic EV charging toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML config path")
        p.add_argument("--preset", default="desk_scale",
                       help="built-in preset (full_scale | desk_scale)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", default=None)

    p = sub.add_parser("solve", help="solve one MDP and export thresholds/values")
    common(p)
    p.add_argument("--lam", "--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=0.9)
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run structural checks across a beta grid")
    common(p)
    p.add_argument("--lambdas", default="0,0.5,1")
    p.add_argument("--alphas", default="0.1,0.5,0.9")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="Monte Carlo metrics for one beta plus baselines")
    common(p)
    p.add_argument("--lam", "--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=0.9)
    p.add_argument("--dump-paths", type=int, default=0,
                   help="also dump this many trajectories as CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pipeline", help="run the three-step beta selection pipeline")
    common(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("price-check", help="export and sanity-check the price model")
    common(p)
    p.set_defaults(func=cmd_price_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FloatingPointError, RuntimeError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
