"""Monte Carlo evaluation of charging policies over the random reservation
horizon: practical reward and practical risk with standard errors.

Simulation uses the continuous (undiscretized) price recursion; grid-solved
threshold policies look up the threshold of the nearest grid price.  A
Scenario holds every path's tau and prices, drawn before any policy is
consulted, so the policies scored on one Scenario share common random numbers.
A path's draws depend only on (seed, path index), so Scenarios with one seed
share them too.  All paths step together, one period at a time.

The purchase made at t is priced at P_{t+1}, whereas mdp.solve optimizes the
cost x P_t, so the simulator scores a cost the solver did not minimize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import MWH_PER_KWH, MdpConfig, MdpSolution
from .price_model import PriceModelParams, sample_paths
from .risk import RiskParams, mean_cvar_rows

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


class ThresholdPolicyFamily:
    """The optimal policy family: one solved MDP per reservation length, its
    thresholds stacked into one table indexed by (tau, t, grid price), zero
    past each horizon."""

    def __init__(self, solutions: dict[int, MdpSolution]):
        self.solutions = dict(solutions)
        self.grid = next(iter(self.solutions.values())).grid
        max_h = max(self.solutions)
        self.solved = np.zeros(max_h + 1, bool)
        self.x_max = np.zeros(max_h + 1, int)
        self.table = np.zeros((max_h + 1, max_h, len(self.grid)), int)
        for h, sol in self.solutions.items():
            self.solved[h] = True
            self.x_max[h] = sol.cfg.x_max
            self.table[h, :h] = sol.thresholds

    def actions(self, t: int, r: np.ndarray, p: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Basestock: charge up to the threshold at the nearest grid price, at
        most x_max per period."""
        if tau.max() >= len(self.solved) or not self.solved[tau].all():
            missing = min(set(tau.tolist()) - set(self.solutions))
            raise ValueError(f"no solved MDP for horizon {missing}")
        return np.clip(self.table[tau, t, self.grid.nearest_index(p)] - r, 0, self.x_max[tau])


class ContinuousChargePolicy:
    """The default baseline: always charge as much as possible."""

    def __init__(self, cfg: MdpConfig):
        self.cfg = cfg

    def actions(self, t: int, r: np.ndarray, p: np.ndarray, tau: np.ndarray) -> np.ndarray:
        return np.minimum(self.cfg.x_max, self.cfg.r_max - r)


class NeverChargePolicy:
    def actions(self, t: int, r: np.ndarray, p: np.ndarray, tau: np.ndarray) -> np.ndarray:
        return np.zeros_like(r)


@dataclass(frozen=True)
class PathBatch:
    """n simulated reservations: tau (n,), prices P_0..P_{K+1} (n, K+2),
    charges R_0..R_K (n, K+1) and actions x_0..x_{K-1} (n, K), with K the
    largest horizon of the tau distribution.  Past a path's own tau the prices
    run on, the charge holds and the actions are 0."""

    tau: np.ndarray
    prices: np.ndarray
    charges: np.ndarray
    actions: np.ndarray


def draw(tau_dist: TauDist, n_paths: int, seed: int):
    """tau (n_paths,) and the three price draws of sample_paths, each
    (n_paths, max horizon + 1).  Each of the four comes from its own child
    stream of SeedSequence(seed), filled path by path, so a path's draws
    depend only on (seed, path index)."""
    tau_rng, normal_rng, jump_u_rng, jump_normal_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4))
    shape = (n_paths, max(tau_dist.horizons) + 1)
    return (tau_rng.choice(np.array(tau_dist.horizons), n_paths, p=tau_dist.probs),
            normal_rng.standard_normal(shape), jump_u_rng.random(shape),
            jump_normal_rng.standard_normal(shape))


def compensation(paths: PathBatch, cfg: MdpConfig, pm: PriceModelParams) -> np.ndarray:
    """Per-path inconvenience compensation paid at tau + 1, $."""
    h = cfg.benchmark(paths.tau) - paths.charges[:, -1]
    p_end = paths.prices[np.arange(len(paths.tau)), paths.tau + 1]
    y = (p_end - pm.seasonality(paths.tau + 1)) * MWH_PER_KWH
    return np.where(h > 0, cfg.compensation(h, cfg.gamma_y(y)), 0.0)


def practical_reward(paths: PathBatch, cfg: MdpConfig, pm: PriceModelParams) -> np.ndarray:
    """Per-path reward: fees collected minus energy cost minus compensation.
    The purchase made at t is priced at P_{t+1}."""
    energy_cost = (paths.actions * paths.prices[:, 1:-1]).sum(axis=1) * MWH_PER_KWH
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
        return (cfg.benchmark(paths.tau) - final).astype(float)
    raise ValueError(f"unknown practical risk kind {metric_kind!r}")


def _aggregate(outcomes: np.ndarray, how: str, alpha: float, seed: int) -> tuple[float, float]:
    n = len(outcomes)
    if how == "mean":
        return float(outcomes.mean()), float(outcomes.std(ddof=1) / np.sqrt(n))
    # sample CVaR across paths with a bootstrap standard error; one replicate
    # at a time keeps memory at O(n)
    w = np.full(n, 1.0 / n)
    rp = RiskParams(1.0, alpha)

    def cvar(sample):
        return float(mean_cvar_rows(sample[None, :], w, rp)[0])

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB007)))
    reps = np.array([cvar(outcomes[rng.integers(0, n, n)]) for _ in range(100)])
    return cvar(outcomes), float(reps.std(ddof=1))


@dataclass(frozen=True)
class Scenario:
    """n drawn reservations: tau (n,) and the continuous price paths P_0..P_{K+1}
    (n, K+2) from one start price, K the largest horizon of the tau distribution.
    Policies are simulated and scored on it without drawing again."""

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
        """Every path under policy, all paths one period at a time."""
        tau, prices = self.tau, self.prices
        actions = np.zeros((len(tau), prices.shape[1] - 2), dtype=int)
        r = np.full(len(tau), cfg.r0)
        for t in range(int(tau.max())):
            room = np.minimum(cfg.x_max, cfg.r_max - r)
            actions[:, t] = np.where(t < tau, np.clip(policy.actions(t, r, prices[:, t], tau),
                                                      0, room), 0)
            r = r + actions[:, t]
        charges = cfg.r0 + np.pad(np.cumsum(actions, axis=1), ((0, 0), (1, 0)))
        return PathBatch(tau, prices, charges, actions)

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
    """Scenario.score on a Scenario drawn for this call."""
    return Scenario.sample(tau_dist, pm, p0, n_paths, seed).score(
        policy, cfg, risk_kind, risk_agg, agg_alpha, delta)
