#!/usr/bin/env python3
"""Fingerprints of the solver's tables and of every desk CLI output, for
checking that a change leaves every result bit-identical.

Each line is ``<kind> <name> <sha256>``, except ``cvar`` and ``fit`` lines.  A
``family`` line hashes the ``values``, ``post_values``, ``thresholds`` and
``fallback_rows`` of every horizon of one ``solve_family``: both presets at
five betas, one family with x_max < r_max per preset, and one linear-capped
family per preset; the ``thresholds`` line beside it hashes the thresholds
alone, so a change that keeps every threshold and moves values by rounding
shows in ``family`` lines only.  A ``schedule`` line hashes the same four
fields of one ``mdp.solve`` per preset under a fixed risk schedule whose
lambda and alpha change every period.  A ``score`` line hashes the simulated
charges and the four ``Scenario.score`` floats of one policy (every digested
family under its own MDP config, the default and the never-charging policy)
on a 2*10^4-path Scenario of its preset, from the preset's start price and
from a price at which solved families wait (desk 30, full 57).  A ``cvar``
line per preset holds, in place of a hash, the four ``Scenario.score`` floats
(reward, its SE, risk, its SE) of the lam=0.7:alpha=0.9 family and then of
the never-charging policy on the start-price Scenario, comma-separated, with
the risk the CVaR_0.9 of the compensation: a CVaR that sums in another order
moves these by rounding only, so compare them by value.  Both presets'
sampled metrics are flat, so their fits are exact constants.  The ``fit``
line holds the reward and risk ``l1_error`` and then the 10 selected
(lambda, alpha) of one pipeline on the desk preset with the full-scale
beta_search block from p0 = 30 at seed 7 (the benchmark's pipeline-desk
config), whose degree-8 fits are real l1 LPs, comma-separated: the same LP
posed or solved another way moves the errors within the solver's
tolerance, so compare them by value too.  A ``csv`` line hashes one file
written by ``solve``, ``verify``, ``simulate --dump-paths 20``, ``pipeline``
or ``price-check`` on the desk preset.

The package is imported from PYTHONPATH, so one copy of this script digests
any checkout; diff the two outputs.  Digest both trees under the same
OPENBLAS_NUM_THREADS (1 below): the bootstrap SE on a ``cvar`` line is a BLAS
dot product whose summation order follows the thread count, so its last
digits differ between thread settings on one tree.

    export OPENBLAS_NUM_THREADS=1
    PYTHONPATH=src python3 scripts/identity_digest.py > after.txt
    PYTHONPATH=../parent/src python3 scripts/identity_digest.py > before.txt
    diff before.txt after.txt

A moved ``family`` or ``schedule`` line says only that its tables changed.
``--save DIR`` also writes the tables of each such line to ``DIR/<line>.npz``
(about 250 MB in all); ``--compare BEFORE AFTER`` reads two such directories
and prints, per line saved in both, the largest |change| of the values and of
the post-decision values over every horizon, and whether the thresholds and
``fallback_rows`` are equal:

    PYTHONPATH=../parent/src python3 scripts/identity_digest.py --save before > before.txt
    PYTHONPATH=src python3 scripts/identity_digest.py --save after > after.txt
    PYTHONPATH=src python3 scripts/identity_digest.py --compare before after
"""

import argparse
import contextlib
import copy
import dataclasses
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

from evcharge import mdp
from evcharge.beta_search import pipeline, solve_family
from evcharge.cli import main as cli_main
from evcharge.config import DESK_SCALE, FULL_SCALE, from_dict, preset
from evcharge.policy_eval import ContinuousChargePolicy, NeverChargePolicy, Scenario
from evcharge.risk import RiskParams, RiskSchedule

BETAS = [(0.0, 0.5), (0.3, 0.7), (0.7, 0.9), (1.0, 0.98), (0.5, 0.05)]
SCORE_PATHS = 20_000
WAITING_P0 = {"desk_scale": 30.0, "full_scale": 57.0}
CVAR_POLICIES = ("lam=0.7:alpha=0.9", "never")
FIT_P0, FIT_SEED = 30.0, 7
TABLE_FIELDS = ("values", "post_values", "thresholds", "fallback_rows")
CLI_STEPS = [["solve"], ["verify"], ["simulate", "--dump-paths", "20"], ["pipeline"],
             ["price-check"]]


def solutions_digest(solutions) -> str:
    h = hashlib.sha256()
    for sol in solutions:
        for table in (sol.values, sol.post_values, sol.thresholds):
            h.update(np.ascontiguousarray(table).tobytes())
        h.update(str(sol.fallback_rows).encode())
    return h.hexdigest()


def family_solutions(family) -> list:
    return [family.solutions[T] for T in sorted(family.solutions)]


def save_tables(directory, line: str, solutions) -> None:
    """The fields solutions_digest hashes, as <field>_<horizon>, to directory/<line>.npz."""
    if directory:
        np.savez(os.path.join(directory, f"{line}.npz"), **{
            f"{field}_{sol.cfg.horizon}": np.asarray(getattr(sol, field))
            for sol in solutions for field in TABLE_FIELDS})


def compare(before: str, after: str) -> None:
    """Per line saved in both directories: max |dV|, max |dpost| and whether the
    thresholds and fallback_rows are equal at every horizon."""
    for file in sorted(set(os.listdir(before)) & set(os.listdir(after))):
        with np.load(os.path.join(before, file)) as a, np.load(os.path.join(after, file)) as b:
            if sorted(a.files) != sorted(b.files):
                print(f"{file[:-4]} horizons differ")
                continue
            keys = {field: [k for k in a.files if k.rsplit("_", 1)[0] == field]
                    for field in TABLE_FIELDS}
            drift = [max(float(np.abs(a[k] - b[k]).max()) for k in keys[field])
                     for field in ("values", "post_values")]
            same = ["equal" if all(np.array_equal(a[k], b[k]) for k in keys[field]) else "differ"
                    for field in ("thresholds", "fallback_rows")]
        print(f"{file[:-4]} max|dV|={drift[0]:.3g} max|dpost|={drift[1]:.3g} "
              f"thresholds={same[0]} fallback_rows={same[1]}")


def thresholds_digest(family) -> str:
    h = hashlib.sha256()
    for T in sorted(family.solutions):
        h.update(np.ascontiguousarray(family.solutions[T].thresholds).tobytes())
    return h.hexdigest()


def score_digest(scenario, policy, mcfg, cfg) -> str:
    h = hashlib.sha256(np.ascontiguousarray(scenario.simulate(policy, mcfg).charges).tobytes())
    m = scenario.score(policy, mcfg, risk_kind=cfg.risk_kind, delta=cfg.delta)
    h.update(repr((m.reward, m.reward_se, m.risk, m.risk_se)).encode())
    return h.hexdigest()


def cvar_floats(scenario, policies) -> str:
    """reward, reward_se, risk, risk_se of each CVAR_POLICIES policy scored with
    the CVaR_0.9 of its compensation, as comma-separated reprs."""
    floats = []
    for label, policy, mcfg in policies:
        if label in CVAR_POLICIES:
            m = scenario.score(policy, mcfg, risk_kind="compensation", risk_agg="cvar",
                               agg_alpha=0.9)
            floats += [m.reward, m.reward_se, m.risk, m.risk_se]
    return ",".join(map(repr, floats))


def fit_floats(cfg) -> str:
    """reward and risk l1_error, then lambda and alpha of each selected row, of
    one pipeline run on cfg, as comma-separated reprs."""
    result = pipeline(cfg.sample_grid(), cfg.mdp, cfg.pm, cfg.build_grid(), cfg.tau,
                      cfg.epsilons, cfg.n_paths, cfg.seed, cfg.p0, degree=cfg.degree,
                      risk_kind=cfg.risk_kind, delta=cfg.delta)
    floats = [result.reward_fit.l1_error, result.risk_fit.l1_error]
    for _, sel, _ in result.rows:
        floats += [sel.lam, sel.alpha]
    return ",".join(map(repr, floats))


def families(cfg):
    """(label, mdp config, lam, alpha) of every family digested on one preset."""
    for lam, alpha in BETAS:
        yield f"lam={lam}:alpha={alpha}", cfg.mdp, lam, alpha
    yield "x_max=3:lam=0.7:alpha=0.9", dataclasses.replace(cfg.mdp, x_max=3), 0.7, 0.9
    capped = dataclasses.replace(cfg.mdp, gamma_y_kind="linear-capped", gamma_y_cap=0.05)
    yield "linear-capped:cap=0.05:lam=0.5:alpha=0.9", capped, 0.5, 0.9


def schedule(horizon: int) -> RiskSchedule:
    """lambda cycles through 0, 1/4, .., 1 and alpha through 0.05..0.95, out of step."""
    return RiskSchedule(tuple(RiskParams((t % 5) / 4, 0.05 + 0.15 * (3 * t % 7))
                              for t in range(horizon + 1)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--save", metavar="DIR",
                        help="also save the tables of every family and schedule line to DIR")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare the tables two --save runs saved, and do nothing else")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.save:
        os.makedirs(args.save, exist_ok=True)

    for name in ("desk_scale", "full_scale"):
        cfg = preset(name)
        grid = cfg.build_grid()
        policies = []
        for label, mcfg, lam, alpha in families(cfg):
            family = solve_family(lam, alpha, mcfg, cfg.pm, grid, cfg.tau.horizons)
            print(f"family {name}:{label} {solutions_digest(family_solutions(family))}")
            save_tables(args.save, f"family {name}:{label}", family_solutions(family))
            print(f"thresholds {name}:{label} {thresholds_digest(family)}")
            policies.append((label, family, mcfg))
        sol = mdp.solve(cfg.mdp, schedule(cfg.mdp.horizon), cfg.pm, grid)
        print(f"schedule {name} {solutions_digest([sol])}")
        save_tables(args.save, f"schedule {name}", [sol])
        policies += [("default", ContinuousChargePolicy(cfg.mdp), cfg.mdp),
                     ("never", NeverChargePolicy(), cfg.mdp)]
        for p0 in (cfg.p0, WAITING_P0[name]):
            scenario = Scenario.sample(cfg.tau, cfg.pm, p0, SCORE_PATHS, cfg.seed)
            for label, policy, mcfg in policies:
                digest = score_digest(scenario, policy, mcfg, cfg)
                print(f"score {name}:p0={p0:g}:{label} {digest}")
            if p0 == cfg.p0:
                print(f"cvar {name}:p0={p0:g} {cvar_floats(scenario, policies)}")

    raw = copy.deepcopy(DESK_SCALE)
    raw["beta_search"] = copy.deepcopy(FULL_SCALE["beta_search"])
    raw["simulation"].update(p0=FIT_P0, seed=FIT_SEED)
    cfg = from_dict(raw)
    print(f"fit pipeline-desk:seed={cfg.seed}:degree={cfg.degree} {fit_floats(cfg)}")

    with tempfile.TemporaryDirectory() as tmp:
        for step in CLI_STEPS:
            out = os.path.join(tmp, step[0])
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(step + ["--preset", "desk_scale", "--out-dir", out])
            if code != 0:
                print(f"evcharge {' '.join(step)} exited with {code}", file=sys.stderr)
                return code
            for csv_name in sorted(os.listdir(out)):
                with open(os.path.join(out, csv_name), "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                print(f"csv {step[0]}/{csv_name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
