"""Monte Carlo evaluation of charging policies over the random reservation
horizon: practical reward and practical risk with standard errors.

Simulation uses the continuous (undiscretized) price recursion.  A Scenario
holds every path's tau and prices, drawn before any policy is consulted, so
the policies scored on one Scenario share common random numbers, as do
Scenarios with one seed: a path's draws depend only on (seed, path index).
Every policy is a basestock level per (period, path), as the optimal one is,
and all paths step together through one charge rule, basestock.

The purchase made at t is priced at P_{t+1}, whereas mdp.solve optimizes the
cost x P_t, so the simulator scores a cost the solver did not minimize.
Compensation is paid on MdpConfig.shortfall, 0 at or above the benchmark, as the solver's is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import MWH_PER_KWH, MdpConfig, MdpSolution
from .price_model import PriceModelParams, sample_paths
from .risk import RiskParams, mean_cvar_weights

RISK_KINDS = ("indicator", "compensation", "shortage")
RISK_AGGS = ("mean", "cvar")


@dataclass(frozen=True)
class TauDist:
    """Discrete distribution of the reservation length tau."""

    horizons: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "horizons", tuple(int(h) for h in self.horizons))
        object.__setattr__(self, "probs", probs)
        if len(self.horizons) != len(probs):
            raise ValueError("horizons and probs must match in length")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("probs must be nonnegative and sum to 1 within 1e-12")
        if any(h < 1 for h in self.horizons):
            raise ValueError("every horizon must be >= 1")

    @classmethod
    def default(cls) -> "TauDist":
        # discrete distribution on T in {4..16} (1 to 4 hours of 15-minute
        # periods) with mode at T = 5 (1.25 hours) and mean ~2 hours
        horizons = tuple(range(4, 17))
        w = np.exp(-np.abs(np.array(horizons, dtype=float) - 5.0) / 6.0)
        return cls(horizons, w / w.sum())


@dataclass(frozen=True)
class PracticalMetrics:
    reward: float
    reward_se: float
    risk: float
    risk_se: float
    n_paths: int


def basestock(level, r, cfg: MdpConfig):
    """The charge after one period from charge r: up to level, by at most
    x_max and never past r_max; at or above level the charge holds."""
    return np.minimum(np.maximum(level, r), np.minimum(r + cfg.x_max, cfg.r_max))


class ThresholdPolicyFamily:
    """The optimal policy family: one solved MDP per reservation length, its
    thresholds stacked into one table indexed by (tau, t, grid price), zero
    past each horizon."""

    def __init__(self, solutions: dict[int, MdpSolution]):
        self.solutions = dict(solutions)
        self.grid = next(iter(self.solutions.values())).grid
        max_h = max(self.solutions)
        self.table = np.zeros((max_h + 1, max_h, len(self.grid)), int)
        for h, sol in self.solutions.items():
            self.table[h, :h] = sol.thresholds

    def levels(self, tau: np.ndarray, prices: np.ndarray) -> np.ndarray:
        """(periods, paths) thresholds at each path's horizon, period and
        nearest grid price, for prices (paths, periods)."""
        missing = set(np.flatnonzero(np.bincount(tau)).tolist()) - set(self.solutions)
        if missing:
            raise ValueError(f"no solved MDP for horizon {min(missing)}")
        max_h, n_grid = self.table.shape[1:]
        if prices.shape[1] > max_h:
            raise ValueError(f"levels reach {max_h} periods, got {prices.shape[1]}")
        flat = self.grid.nearest_index(prices.T)  # index into table.ravel()
        flat += (tau * max_h + np.arange(prices.shape[1])[:, None]) * n_grid
        return self.table.ravel().take(flat)


class ContinuousChargePolicy:
    """The default baseline: always charge as much as possible until tau."""

    def __init__(self, cfg: MdpConfig):
        self.cfg = cfg

    def levels(self, tau: np.ndarray, prices: np.ndarray) -> np.ndarray:
        return np.where(np.arange(prices.shape[1])[:, None] < tau, self.cfg.r_max, 0)


class NeverChargePolicy:
    def levels(self, tau: np.ndarray, prices: np.ndarray) -> int:
        return 0


@dataclass(frozen=True)
class PathBatch:
    """n simulated reservations: tau (n,), prices P_0..P_{K+1} (n, K+2) and
    charges R_0..R_K (n, K+1), K the largest horizon of the tau distribution.
    Simulated prices and charges are views of time-major blocks, one contiguous
    row per period.  Past a path's tau the prices run on and the charge holds
    (purchase 0)."""

    tau: np.ndarray
    prices: np.ndarray
    charges: np.ndarray


def draw(tau_dist: TauDist, n_paths: int, seed: int):
    """tau (n_paths,) and the three price draws of sample_paths, each (n_paths,
    max horizon + 1), each from its own child stream of SeedSequence(seed)
    filled path by path: a path's draws depend only on (seed, path index)."""
    tau_rng, normal_rng, jump_u_rng, jump_normal_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4))
    shape = (n_paths, max(tau_dist.horizons) + 1)
    return (tau_rng.choice(np.array(tau_dist.horizons), n_paths, p=tau_dist.probs),
            normal_rng.standard_normal(shape), jump_u_rng.random(shape),
            jump_normal_rng.standard_normal(shape))


def compensation(paths: PathBatch, cfg: MdpConfig, pm: PriceModelParams) -> np.ndarray:
    """Per-path inconvenience compensation paid at tau + 1, $."""
    p_end = paths.prices[np.arange(len(paths.tau)), paths.tau + 1]
    y = (p_end - pm.seasonality(np.arange(paths.prices.shape[1]))[paths.tau + 1]) * MWH_PER_KWH
    return cfg.compensation(cfg.shortfall(paths.tau, paths.charges[:, -1]), cfg.gamma_y(y))


def practical_reward(paths: PathBatch, cfg: MdpConfig, pm: PriceModelParams) -> np.ndarray:
    """Per-path reward: fees collected minus energy cost minus compensation.
    The purchase made at t is priced at P_{t+1}."""
    purchases = np.diff(paths.charges, axis=1)
    energy_cost = (purchases * paths.prices[:, 1:-1]).sum(axis=1) * MWH_PER_KWH
    return cfg.c_f * paths.tau - energy_cost - compensation(paths, cfg, pm)


def practical_risk(paths: PathBatch, metric_kind: str, cfg: MdpConfig,
                   pm: PriceModelParams, delta: float = 0.3) -> np.ndarray:
    """Per-path risk outcome for the selected metric kind."""
    final = paths.charges[:, -1]
    if metric_kind == "indicator":
        return (final / cfg.r_max <= 1.0 - delta).astype(float)
    if metric_kind == "compensation":
        return compensation(paths, cfg, pm)
    if metric_kind == "shortage":
        return cfg.shortfall(paths.tau, final).astype(float)
    raise ValueError(f"unknown practical risk kind {metric_kind!r}")


def _aggregate(outcomes: np.ndarray, how: str, alpha: float, seed: int) -> tuple[float, float]:
    """(estimate, SE) of outcomes by how in RISK_AGGS; "cvar" is for the tests and perfbench."""
    n = len(outcomes)
    if how == "mean":
        return float(outcomes.mean()), float(outcomes.std(ddof=1) / np.sqrt(n))
    # sample CVaR across paths with a bootstrap standard error.  The outcomes are
    # sorted once; a replicate weighs each sorted outcome by how often its
    # resample drew that path, so no replicate is sorted and memory stays O(n)
    order = np.argsort(outcomes, kind="stable")
    ascending = outcomes[order]
    rp = RiskParams(1.0, alpha)

    def cvar(counts):
        # cumulative counts are exact integers, so the last cum is exactly 1
        w = counts[order]
        return float(ascending @ mean_cvar_weights(w / n, np.cumsum(w) / n, rp.lam, rp.alpha))

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB007)))
    reps = np.array([cvar(np.bincount(rng.integers(0, n, n), minlength=n))
                     for _ in range(100)])
    return cvar(np.ones(n)), float(reps.std(ddof=1))


@dataclass(frozen=True)
class Scenario:
    """n drawn reservations: tau (n,) and the continuous price paths P_0..P_{K+1}
    (n, K+2) from one start price, K the largest horizon of the tau distribution,
    a view of sample_paths' time-major block.  Policies are simulated and
    scored on it without drawing again."""

    tau: np.ndarray
    prices: np.ndarray
    pm: PriceModelParams
    seed: int

    @classmethod
    def sample(cls, tau_dist: TauDist, pm: PriceModelParams, p0: float, n_paths: int,
               seed: int) -> "Scenario":
        """tau and price paths from the draws of draw(tau_dist, n_paths, seed)."""
        tau, *noise = draw(tau_dist, n_paths, seed)
        return cls(tau, sample_paths(p0, pm, *noise), pm, seed)

    def simulate(self, policy, cfg: MdpConfig) -> PathBatch:
        """Every path under policy's basestock levels, each 0 (hold) from its tau on."""
        steps = int(self.tau.max())
        level = np.broadcast_to(policy.levels(self.tau, self.prices[:, :steps]),
                                (steps, len(self.tau)))
        charges = np.empty((self.prices.shape[1] - 1, len(self.tau)), dtype=int)
        charges[0] = cfg.r0
        for t in range(steps):  # one time-major row per period
            charges[t + 1] = basestock(level[t], charges[t], cfg)
        charges[steps + 1:] = charges[steps]
        return PathBatch(self.tau, self.prices, charges.T)

    def score(self, policy, cfg: MdpConfig, risk_kind: str = "indicator",
              risk_agg: str = "mean", agg_alpha: float = 0.9,
              delta: float = 0.3) -> PracticalMetrics:
        """Estimated practical reward and risk of policy, with standard errors."""
        n_paths = len(self.tau)
        if n_paths < 2:
            raise ValueError("n_paths must be >= 2")
        if risk_agg not in RISK_AGGS:
            raise ValueError(f"unknown risk aggregation {risk_agg!r}")
        paths = self.simulate(policy, cfg)
        reward = _aggregate(practical_reward(paths, cfg, self.pm), "mean", agg_alpha, self.seed)
        risk = _aggregate(practical_risk(paths, risk_kind, cfg, self.pm, delta), risk_agg,
                          agg_alpha, self.seed)
        return PracticalMetrics(*reward, *risk, n_paths)


def estimate(policy, tau_dist: TauDist, cfg: MdpConfig, pm: PriceModelParams,
             p0: float, n_paths: int, seed: int, risk_kind: str = "indicator",
             risk_agg: str = "mean", agg_alpha: float = 0.9,
             delta: float = 0.3) -> PracticalMetrics:
    """Scenario.score on a Scenario drawn for this call (for the tests and perfbench)."""
    return Scenario.sample(tau_dist, pm, p0, n_paths, seed).score(
        policy, cfg, risk_kind, risk_agg, agg_alpha, delta)
