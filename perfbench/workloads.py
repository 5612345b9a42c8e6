"""The three workloads: their inputs (made from the seed), one round of timed
operations through evcharge's public functions, and the checks on the outputs.

``prepare(seed)`` makes the inputs, the config and the grid; it is what the
set-up probe (``probe.py``) repeats in a fresh interpreter.  ``setup(seed)``
prepares and does any further untimed work, returning the seconds that set-up
time must also count.  A workload's ``round(op)`` passes every timed call
through ``op(kind, fn, work)``, which times it, counts it as attempted, and
returns None when it raised.  ``check(outputs)`` judges one round's outputs
against the oracles in ``oracles.py``; ``digest(outputs)`` fingerprints them so
that runs with the same seed can be compared.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import os
import time

import numpy as np
import yaml

from evcharge import beta_search, cli, config, mdp, policy_eval
from evcharge.risk import RiskParams, RiskSchedule

import oracles


def _hash_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Workload:
    def setup(self, seed: int) -> float:
        self.prepare(seed)
        return 0.0


class SolveFull(Workload):
    """Full-scale solver work: solve_family over all 13 horizons for a lambda=0
    beta, two interior betas and a lambda=1 beta with alpha near 1, one
    non-homogeneous schedule at T=16, and verify_structure on every solution."""

    def prepare(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        self.cfg = config.preset("full_scale")
        self.grid = self.cfg.build_grid()
        # ordered componentwise, so thresholds must be nondecreasing along the list
        self.betas = [
            (0.0, 0.5),
            (float(rng.choice([0.2, 0.3, 0.4])), float(rng.choice([0.6, 0.7, 0.8]))),
            (float(rng.choice([0.6, 0.7, 0.8])), float(rng.choice([0.85, 0.9, 0.95]))),
            (1.0, float(rng.choice([0.97, 0.98, 0.99]))),
        ]
        T = self.cfg.mdp.horizon
        lams = np.round(rng.uniform(0.0, 1.0, T + 1), 3)
        lams[rng.integers(0, T + 1, 3)] = 0.0  # some periods take the mean-only path
        alphas = np.round(rng.uniform(0.5, 0.99, T + 1), 3)
        self.schedule = RiskSchedule(tuple(RiskParams(float(lam), float(a))
                                           for lam, a in zip(lams, alphas)))
        self.check_rng = np.random.default_rng([seed, 2])

    def _states(self) -> int:
        n = (self.cfg.mdp.r_max + 1) * len(self.grid)
        return sum(self.cfg.tau.horizons) * n

    def round(self, op) -> dict:
        cfg, grid = self.cfg, self.grid
        families = {}
        for lam, alpha in self.betas:
            families[(lam, alpha)] = op(
                "solve_family",
                lambda lam=lam, alpha=alpha: beta_search.solve_family(
                    lam, alpha, cfg.mdp, cfg.pm, grid, cfg.tau.horizons),
                self._states())
        sched = op("solve", lambda: mdp.solve(cfg.mdp, self.schedule, cfg.pm, grid))
        sols = [s for fam in families.values() if fam is not None
                for s in fam.solutions.values()]
        if sched is not None:
            sols.append(sched)
        reports = [op("verify_structure", lambda s=s: mdp.verify_structure(s)) for s in sols]
        return {"families": families, "schedule": sched, "reports": reports}

    def digest(self, out) -> str:
        arrays = []
        for fam in out["families"].values():
            if fam is not None:
                for T in sorted(fam.solutions):
                    s = fam.solutions[T]
                    arrays += [s.values, s.post_values, s.thresholds]
        if out["schedule"] is not None:
            arrays += [out["schedule"].values, out["schedule"].thresholds]
        return _hash_arrays(arrays)

    def check(self, out) -> list:
        cfg, pm, grid = self.cfg.mdp, self.cfg.pm, self.grid
        kernels = oracles.Kernels(pm, grid)
        p_kwh = grid.points * oracles.KWH
        results = []
        fams = {b: f for b, f in out["families"].items() if f is not None}
        if len(fams) < len(self.betas):
            results.append(("all_families_solved", False, f"{len(fams)} of {len(self.betas)}"))
            return results

        # risk-neutral family against the expected-value backward induction
        worst_v = worst_post = 0.0
        thr_ok = True
        for T, sol in fams[self.betas[0]].solutions.items():
            values, post = oracles.expected_value_dp(sol.cfg, pm, grid, kernels)
            worst_v = max(worst_v, float(np.abs(values - sol.values).max()))
            worst_post = max(worst_post, float(np.abs(post - sol.post_values).max()))
            target = np.arange(cfg.r_max + 1)[None, :, None] * p_kwh[None, None, :] + post
            chosen = np.take_along_axis(target, sol.thresholds[:, None, :], axis=1)[:, 0, :]
            # the solver's threshold is the smallest minimizer, ties within 1e-10
            thr_ok &= bool(np.all(chosen <= target.min(axis=1) + 1e-10))
            below = np.arange(cfg.r_max + 1)[None, :, None] < sol.thresholds[:, None, :]
            thr_ok &= bool(np.all(np.where(below, target > chosen[:, None, :] - 1e-10, True)))
        results.append(("ev_dp_lambda0", worst_v <= 1e-10 and worst_post <= 1e-10 and thr_ok,
                        f"max|dV|={worst_v:.2e} max|dpost|={worst_post:.2e} thresholds={thr_ok}"))

        # post-decision values at sampled states against a grid-search mean-CVaR
        solutions = [(s, lambda t, b=b: RiskParams(*b)) for b, f in fams.items() if b[0] > 0
                     for s in f.solutions.values()]
        if out["schedule"] is not None:
            solutions.append((out["schedule"], lambda t: self.schedule[t]))
        rng = self.check_rng
        worst = 0.0
        n_checked = 0
        for sol, beta_at in solutions:
            T = sol.cfg.horizon
            term = oracles.terminal_values(sol.cfg, beta_at(T).lam, beta_at(T).alpha, pm, grid)
            worst = max(worst, float(np.abs(term - sol.values[T]).max()))
            for _ in range(8):
                t = int(rng.integers(0, T))
                r = int(rng.integers(0, cfg.r_max + 1))
                ip = int(rng.integers(0, len(grid)))
                row = kernels(t)[ip]
                keep = row > 0
                b = beta_at(t)
                ref = oracles.mean_cvar_ru(sol.values[t + 1, r, keep], row[keep], b.lam, b.alpha)
                worst = max(worst, abs(ref - float(sol.post_values[t, r, ip])))
                n_checked += 1
        results.append(("ru_mean_cvar_post", worst <= 1e-9,
                        f"{n_checked} states + terminal tables, max|d|={worst:.2e}"))

        # Bellman identity V = min_x x p - c_f + post(r + x)
        all_sols = [s for f in fams.values() for s in f.solutions.values()]
        if out["schedule"] is not None:
            all_sols.append(out["schedule"])
        worst = 0.0
        for sol in all_sols:
            for t in range(sol.cfg.horizon):
                v = oracles.bellman_min(sol.post_values[t], p_kwh, sol.cfg)
                worst = max(worst, float(np.abs(v - sol.values[t]).max()))
        results.append(("bellman_identity", worst <= 1e-12, f"max|d|={worst:.2e}"))

        # structure by the benchmark's own differences, and ordering across beta
        bad = []
        for sol in all_sols:
            for v in oracles.structure_violations(sol.values, sol.thresholds):
                bad.append(f"T={sol.cfg.horizon}: {v}")
        ordered = [fams[b] for b in self.betas]
        for lo, hi in zip(ordered, ordered[1:]):
            for T, s in lo.solutions.items():
                if np.any(hi.solutions[T].thresholds < s.thresholds):
                    bad.append(f"T={T}: thresholds decrease with beta")
        results.append(("structure_np_diff", not bad,
                        "; ".join(bad[:3]) or f"{len(all_sols)} solutions"))

        reports = [r for r in out["reports"] if r is not None]
        results.append(("verify_structure_reports_pass",
                        bool(reports) and all(r.all_passed for r in reports),
                        f"{len(reports)} reports"))
        return results


class SimulateFull(Workload):
    """Full-scale Monte Carlo scoring of one solved threshold family, the
    Default policy and the Never policy from the preset's p0 and from a higher
    start price, plus one CVaR-aggregated call that runs the bootstrap."""

    N_PATHS = 4000
    ORACLE_PATHS = 50_000
    FAMILY_BETA = (0.5, 0.9)

    def prepare(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        self.cfg = config.preset("full_scale")
        self.grid = self.cfg.build_grid()
        self.p_high = float(rng.integers(55, 71))
        self.seed = int(seed)
        self.oracle_seed = [seed, 3]

    def setup(self, seed: int) -> float:
        """Returns the wall seconds of the family solve, which set-up time counts."""
        self.prepare(seed)
        start = time.perf_counter()
        self.family = beta_search.solve_family(*self.FAMILY_BETA, self.cfg.mdp, self.cfg.pm,
                                               self.grid, self.cfg.tau.horizons)
        return time.perf_counter() - start

    def _policies(self):
        return {"threshold": self.family,
                "default": policy_eval.ContinuousChargePolicy(self.cfg.mdp),
                "never": policy_eval.NeverChargePolicy()}

    def round(self, op) -> dict:
        c = self.cfg
        out = {}
        for p0 in (c.p0, self.p_high):
            for name, pol in self._policies().items():
                out[(name, p0, "mean")] = op(
                    "estimate",
                    lambda pol=pol, p0=p0: policy_eval.estimate(
                        pol, c.tau, c.mdp, c.pm, p0, self.N_PATHS, self.seed,
                        risk_kind="indicator", delta=c.delta),
                    self.N_PATHS)
        out[("never", c.p0, "cvar")] = op(
            "estimate",
            lambda: policy_eval.estimate(
                policy_eval.NeverChargePolicy(), c.tau, c.mdp, c.pm, c.p0, self.N_PATHS,
                self.seed, risk_kind="compensation", risk_agg="cvar", agg_alpha=0.9),
            self.N_PATHS)
        return out

    def digest(self, out) -> str:
        return hashlib.sha256(repr(sorted(
            (k, None if m is None else (m.reward, m.reward_se, m.risk, m.risk_se))
            for k, m in out.items())).encode()).hexdigest()

    def check(self, out) -> list:
        c = self.cfg
        results = []
        ok = all(out[("default", p0, "mean")] is None or out[("default", p0, "mean")].risk == 0.0
                 for p0 in (c.p0, self.p_high))
        ok &= all(out[("never", p0, "mean")] is None or out[("never", p0, "mean")].risk == 1.0
                  for p0 in (c.p0, self.p_high))
        results.append(("default_risk_0_never_risk_1", ok, "exact"))

        ip_low, ip_high = self.grid.nearest_index(c.p0), self.grid.nearest_index(self.p_high)
        t0 = [(int(s.thresholds[0, ip_low]), int(s.thresholds[0, ip_high]))
              for s in self.family.solutions.values()]
        both = all(lo == c.mdp.r_max for lo, _ in t0) and all(hi < c.mdp.r_max for _, hi in t0)
        results.append(("start_prices_take_both_branches", both,
                        f"t=0 thresholds at p={c.p0:g}/{self.p_high:g}: {sorted(set(t0))}"))

        rng = np.random.default_rng(self.oracle_seed)
        thresholds = {T: s.thresholds for T, s in self.family.solutions.items()}
        worst = 0.0
        ok = True
        never_comp = None
        for p0 in (c.p0, self.p_high):
            for name in ("threshold", "default", "never"):
                ref = oracles.monte_carlo(name, c.mdp, c.pm, c.tau, p0, self.ORACLE_PATHS, rng,
                                          grid=self.grid, thresholds=thresholds, delta=c.delta)
                if name == "never" and p0 == c.p0:
                    never_comp = ref["compensation"]
                m = out[(name, p0, "mean")]
                if m is None:
                    continue
                mu, se = oracles.mean_se(ref["reward"])
                ok &= oracles.within(m.reward, m.reward_se, mu, se)
                worst = max(worst, abs(m.reward - mu) / np.hypot(m.reward_se, se))
        results.append(("rewards_match_own_monte_carlo", ok, f"worst {worst:.2f} combined SE"))

        m_cvar, m_mean = out[("never", c.p0, "cvar")], out[("never", c.p0, "mean")]
        ok = m_cvar is not None and m_mean is not None and m_cvar.reward == m_mean.reward
        if m_cvar is not None:
            mu, se = oracles.cvar_se(never_comp, 0.9)
            ok &= oracles.within(m_cvar.risk, m_cvar.risk_se, mu, se)
            detail = f"CVaR0.9 compensation {m_cvar.risk:.4f} vs own {mu:.4f}"
        else:
            detail = "cvar call failed"
        results.append(("cvar_bootstrap_call", ok, detail))
        return results


CSV_FILES = ("selection_table.csv", "metrics_samples.csv", "beta_path.csv", "fitted_surfaces.csv")


class PipelineDesk(Workload):
    """`evcharge pipeline` through cli.main on the desk preset with the
    full-scale beta_search block (110 sampled betas, degree 10, 50x50
    constraint grid, 10 epsilons)."""

    P0 = 30.0  # start price at which the sampled policies differ in reward
    ORACLE_PATHS = 200_000

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def prepare(self, seed: int) -> None:
        raw = copy.deepcopy(config.DESK_SCALE)
        raw["beta_search"] = copy.deepcopy(config.FULL_SCALE["beta_search"])
        raw["simulation"]["p0"] = self.P0
        raw["simulation"]["seed"] = int(seed)
        os.makedirs(self.out_dir, exist_ok=True)
        self.config_path = os.path.join(self.out_dir, "config.yaml")
        with open(self.config_path, "w") as fh:
            yaml.safe_dump(raw, fh)
        self.csv_dir = os.path.join(self.out_dir, "csv")
        self.cfg = config.load_config(self.config_path)
        self.oracle_seed = [seed, 3]

    def round(self, op) -> dict:
        for fn in CSV_FILES:
            path = os.path.join(self.csv_dir, fn)
            if os.path.exists(path):
                os.remove(path)
        code = op("pipeline", lambda: cli.main(
            ["pipeline", "--config", self.config_path, "--out-dir", self.csv_dir]))
        if code not in (None, cli.EXIT_OK):
            op.fail()
        out = {}
        for fn in CSV_FILES:
            path = os.path.join(self.csv_dir, fn)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    out[fn] = fh.read()
        return out

    def digest(self, out) -> str:
        return hashlib.sha256(repr(self.csv_hashes(out)).encode()).hexdigest()

    @staticmethod
    def csv_hashes(out) -> dict:
        return {fn: hashlib.sha256(blob).hexdigest() for fn, blob in sorted(out.items())}

    def check(self, out) -> list:
        c = self.cfg
        results = []
        missing = [fn for fn in CSV_FILES if fn not in out]
        if missing:
            return [("csv_files_written", False, f"missing {missing}")]
        table = {name: list(csv.DictReader(io.StringIO(out[name].decode())))
                 for name in CSV_FILES}
        samples = table["metrics_samples.csv"]
        sel = table["selection_table.csv"]
        n_s = len(c.sample_lambdas) * len(c.sample_alphas)
        shape_ok = (len(samples) == n_s and len(sel) == len(c.epsilons) + 2
                    and len(table["beta_path.csv"]) == len(c.epsilons)
                    and len(table["fitted_surfaces.csv"]) == 41 * 41)
        results.append(("csv_row_counts", shape_ok,
                        f"{len(samples)} samples, {len(sel)} selection rows"))

        risk = {(float(r["beta_lambda"]), float(r["beta_alpha"])): float(r["risk"]) for r in samples}
        bad = sum(1 for (l1, a1), r1 in risk.items() for (l2, a2), r2 in risk.items()
                  if l2 >= l1 and a2 >= a1 and r2 > r1)
        results.append(("risk_nonincreasing_in_beta", bad == 0, f"{bad} violations"))

        rewards = {r["reward"] for r in samples}
        results.append(("sampled_rewards_differ", len(rewards) > 1, f"{len(rewards)} distinct"))

        rn0 = next(r for r in samples if float(r["beta_lambda"]) == 0.0)
        rn = sel[-1]
        ok = rn["epsilon"] == "RN" and (rn["reward"], rn["risk"]) == (rn0["reward"], rn0["risk"])
        results.append(("rn_row_equals_lambda0_sample", ok, f"RN reward {rn['reward']}"))

        default = sel[0]
        ref = oracles.monte_carlo("default", c.mdp, c.pm, c.tau, c.p0, self.ORACLE_PATHS,
                                  np.random.default_rng(self.oracle_seed), delta=c.delta)
        mu, se = oracles.mean_se(ref["reward"])
        # the table carries no standard error; the run's own one has the same
        # per-path spread over the config's n_paths paths
        run_se = se * np.sqrt(self.ORACLE_PATHS / c.n_paths)
        ok = (default["epsilon"] == "Default" and float(default["risk"]) == 0.0
              and oracles.within(float(default["reward"]), run_se, mu, se))
        results.append(("default_row_matches_own_monte_carlo", ok,
                        f"reward {default['reward']} vs own {mu:.6f} (se {run_se:.4f})"))
        return results


def make(name: str, out_dir: str) -> Workload:
    """The workload called ``name``; files it writes go under ``out_dir``."""
    if name == "solve-full":
        return SolveFull()
    if name == "simulate-full":
        return SimulateFull()
    return PipelineDesk(out_dir)
