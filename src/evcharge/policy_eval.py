"""Monte Carlo evaluation of charging policies over the random reservation
horizon: practical reward and practical risk with standard errors.

Simulation uses the continuous (undiscretized) price recursion; grid-solved
threshold policies look up the threshold of the nearest grid price.  Paths are
reproducible per (seed, path index), so supplying the same seed to two
policies yields common random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import MWH_PER_KWH, MdpConfig, MdpSolution
from .price_model import PriceModelParams, sample_path
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
class Trajectory:
    """One simulated reservation: prices P_0..P_{tau+1}, charges R_0..R_tau,
    actions x_0..x_{tau-1}."""

    prices: np.ndarray
    charges: np.ndarray
    actions: np.ndarray
    tau: int

    def __post_init__(self):
        if len(self.prices) != self.tau + 2 or len(self.charges) != self.tau + 1 \
                or len(self.actions) != self.tau:
            raise ValueError("trajectory arrays inconsistent with tau")


@dataclass(frozen=True)
class PracticalMetrics:
    reward: float
    reward_se: float
    risk: float
    risk_se: float
    n_paths: int


class ThresholdPolicyFamily:
    """The optimal policy family: one solved MDP per reservation length."""

    def __init__(self, solutions: dict[int, MdpSolution]):
        self.solutions = dict(solutions)

    def action(self, t: int, r: int, p: float, tau: int) -> int:
        if tau not in self.solutions:
            raise ValueError(f"no solved MDP for horizon {tau}")
        return self.solutions[tau].greedy_action(r, p, t)


class ContinuousChargePolicy:
    """The default baseline: always charge as much as possible."""

    def __init__(self, cfg: MdpConfig):
        self.cfg = cfg

    def action(self, t: int, r: int, p: float, tau: int) -> int:
        return min(self.cfg.x_max, self.cfg.r_max - r)


class NeverChargePolicy:
    def action(self, t: int, r: int, p: float, tau: int) -> int:
        return 0


def simulate(policy, tau_dist: TauDist, cfg: MdpConfig, pm: PriceModelParams,
             p0: float, n_paths: int, seed: int) -> list[Trajectory]:
    """Simulate n_paths reservations.  The random draw sequence (tau, then
    price noise) does not depend on the policy, so identical seeds give common
    random numbers across policies."""
    horizons = np.array(tau_dist.horizons)
    out = []
    for i in range(n_paths):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        tau = int(horizons[rng.choice(len(horizons), p=tau_dist.probs)])
        prices = sample_path(p0, tau + 1, None, pm, rng=rng)
        charges = np.empty(tau + 1, dtype=int)
        actions = np.empty(tau, dtype=int)
        r = cfg.r0
        charges[0] = r
        for t in range(tau):
            x = int(policy.action(t, r, float(prices[t]), tau))
            x = max(0, min(x, min(cfg.x_max, cfg.r_max - r)))
            actions[t] = x
            r += x
            charges[t + 1] = r
        out.append(Trajectory(prices, charges, actions, tau))
    return out


def _benchmark(cfg: MdpConfig, tau: int) -> int:
    return min(cfg.r0 + tau * cfg.x_max, cfg.r_max)


def compensation(traj: Trajectory, cfg: MdpConfig, pm: PriceModelParams) -> float:
    """Inconvenience compensation paid at tau + 1, $."""
    h = _benchmark(cfg, traj.tau) - traj.charges[-1]
    if h <= 0:
        return 0.0
    y = (traj.prices[-1] - pm.seasonality(traj.tau + 1)) * MWH_PER_KWH
    return float((1.0 + cfg.gamma_h * h + cfg.gamma_y(y)) * h * cfg.p_ref)


def practical_reward(traj: Trajectory, cfg: MdpConfig, pm: PriceModelParams) -> float:
    """Per-path reward: fees collected minus energy cost minus compensation."""
    purchases = np.diff(traj.charges)  # = actions
    energy_cost = float(purchases @ traj.prices[1:traj.tau + 1]) * MWH_PER_KWH
    return cfg.c_f * traj.tau - energy_cost - compensation(traj, cfg, pm)


def practical_risk(traj: Trajectory, metric_kind: str, cfg: MdpConfig,
                   pm: PriceModelParams, delta: float = 0.3) -> float:
    """Per-path risk outcome for the selected metric kind."""
    if metric_kind == "indicator":
        return float(traj.charges[-1] / cfg.r_max <= 1.0 - delta)
    if metric_kind == "compensation":
        return compensation(traj, cfg, pm)
    if metric_kind == "shortage":
        return float(_benchmark(cfg, traj.tau) - traj.charges[-1])
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


def estimate(policy, tau_dist: TauDist, cfg: MdpConfig, pm: PriceModelParams,
             p0: float, n_paths: int, seed: int, risk_kind: str = "indicator",
             risk_agg: str = "mean", agg_alpha: float = 0.9,
             delta: float = 0.3) -> PracticalMetrics:
    """Estimated practical reward and risk with standard errors."""
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    if risk_kind not in RISK_KINDS:
        raise ValueError(f"unknown practical risk kind {risk_kind!r}")
    if risk_agg not in RISK_AGGS:
        raise ValueError(f"unknown risk aggregation {risk_agg!r}")
    trajs = simulate(policy, tau_dist, cfg, pm, p0, n_paths, seed)
    rewards = np.array([practical_reward(tr, cfg, pm) for tr in trajs])
    risks = np.array([practical_risk(tr, risk_kind, cfg, pm, delta) for tr in trajs])
    risk, risk_se = _aggregate(risks, risk_agg, agg_alpha, seed)
    return PracticalMetrics(
        reward=float(rewards.mean()),
        reward_se=float(rewards.std(ddof=1) / np.sqrt(n_paths)),
        risk=risk,
        risk_se=risk_se,
        n_paths=n_paths,
    )
