"""Risk-parameter selection: sample (lam, alpha) pairs, fit polynomial
surfaces for practical reward and risk, and pick the best feasible pair.

The risk surface is fitted under nonincreasing-partial-derivative constraints
enforced on a finite grid, solved as a single l1 linear program.
:func:`verify_monotone`, when called, re-checks monotonicity between those
grid points on a finer grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .mdp import MdpConfig, solve_horizons
from .policy_eval import (ContinuousChargePolicy, PracticalMetrics, Scenario, TauDist,
                          ThresholdPolicyFamily)
from .price_model import PriceGrid, PriceModelParams
from .risk import RiskSchedule


@dataclass(frozen=True)
class BetaSample:
    """One sampled time-homogeneous risk parameter with its estimated metrics."""

    lam: float
    alpha: float
    reward: float
    reward_se: float
    risk: float
    risk_se: float


def _powers(degree: int) -> np.ndarray:
    """Exponent pairs (i, j) with i + j <= degree, in graded order."""
    return np.array([(i, j) for d in range(degree + 1)
                     for i in range(d, -1, -1) for j in (d - i,)])


def _design(points: np.ndarray, powers: np.ndarray) -> np.ndarray:
    lam, alpha = points[:, 0:1], points[:, 1:2]
    return lam ** powers[:, 0] * alpha ** powers[:, 1]


def _derivative_design(points: np.ndarray, powers: np.ndarray, var: int) -> np.ndarray:
    lam, alpha = points[:, 0:1], points[:, 1:2]
    e = powers.astype(float).copy()
    coef = e[:, var].copy()
    e[:, var] = np.maximum(e[:, var] - 1.0, 0.0)
    return coef * lam ** e[:, 0] * alpha ** e[:, 1]


@dataclass(frozen=True)
class MonotoneFit:
    """Monomial-basis surface; a risk fit is nonincreasing in both variables
    on the constraint grid by construction."""

    weights: np.ndarray
    powers: np.ndarray
    degree: int
    l1_error: float

    def __call__(self, lam, alpha):
        c = np.zeros((self.degree + 1, self.degree + 1))
        c[self.powers[:, 0], self.powers[:, 1]] = self.weights
        # polyval2d, broadcast: a lam column and an alpha row cost one pass per axis
        return npoly.polyval(np.asarray(alpha, dtype=float),
                             npoly.polyval(np.asarray(lam, dtype=float), c), tensor=False)


def beta_grid(n_lambda: int, n_alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """(lam, alpha) meshgrid over [0, 1] x [0.005, 0.995], indexed (i_lam, i_alpha)."""
    return np.meshgrid(np.linspace(0.0, 1.0, n_lambda), np.linspace(0.005, 0.995, n_alpha),
                       indexing="ij")


def default_constraint_grid(n: int = 50) -> np.ndarray:
    ll, aa = beta_grid(n, n)
    return np.column_stack([ll.ravel(), aa.ravel()])


def fit(data: list[BetaSample], target: str, degree: int,
        constraint_grid: np.ndarray | None = None) -> MonotoneFit:
    """l1 polynomial fit of the reward or risk observations.

    target="risk" enforces nonincreasing partial derivatives at every
    constraint-grid point; target="reward" is unconstrained.
    """
    from scipy.optimize import linprog  # only the fits need scipy
    if target not in ("reward", "risk"):
        raise ValueError("target must be 'reward' or 'risk'")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    constrained = target == "risk"
    points = np.array([[s.lam, s.alpha] for s in data])
    obs = np.array([s.risk if constrained else s.reward for s in data])
    powers = _powers(degree)
    phi = _design(points, powers)
    n, k = phi.shape

    # minimize sum(e) s.t. -e <= phi w - obs <= e, derivative rows <= 0
    c = np.concatenate([np.zeros(k), np.ones(n)])
    eye = np.eye(n)
    rows = [np.hstack([phi, -eye]), np.hstack([-phi, -eye])]
    rhs = [obs, -obs]
    if constrained and degree >= 1:
        if constraint_grid is None:
            constraint_grid = default_constraint_grid()
        for var in (0, 1):
            d = _derivative_design(constraint_grid, powers, var)
            rows.append(np.hstack([d, np.zeros((len(d), n))]))
            rhs.append(np.zeros(len(d)))
    res = linprog(c, A_ub=np.vstack(rows), b_ub=np.concatenate(rhs),
                  bounds=[(None, None)] * k + [(0, None)] * n, method="highs")
    if not res.success:
        raise RuntimeError(f"l1 regression LP failed: {res.message}")
    weights = res.x[:k]
    err = float(np.abs(phi @ weights - obs).sum())
    return MonotoneFit(weights, powers, degree, err)


def verify_monotone(fit_: MonotoneFit, n: int = 200, tol: float = 1e-6) -> bool:
    """Post-hoc check of nonincreasing partials on a finer grid."""
    grid = default_constraint_grid(n)
    for var in (0, 1):
        d = _derivative_design(grid, fit_.powers, var) @ fit_.weights
        if d.max(initial=0.0) > tol:
            return False
    return True


@dataclass(frozen=True)
class SelectedBeta:
    lam: float
    alpha: float
    feasible: bool
    fitted_reward: float
    fitted_risk: float


def select_beta(reward_fit: MonotoneFit, risk_fit: MonotoneFit,
                epsilons) -> tuple[SelectedBeta, ...]:
    """Maximizer of fitted reward subject to fitted risk <= epsilon on a 201 x 199
    (lam, alpha) grid, for each epsilon, from one evaluation of both surfaces.

    Ties break to the lexicographically smallest (lam, alpha); with no feasible
    grid point, the risk-minimizing point is returned flagged infeasible.
    """
    ll, aa = beta_grid(201, 199)
    reward, risk = (f(ll[:, :1], aa[0]).ravel() for f in (reward_fit, risk_fit))
    out = []
    for eps in epsilons:
        feasible = risk <= float(eps)
        found = bool(feasible.any())
        i = int(np.argmax(np.where(feasible, reward, -np.inf)) if found else np.argmin(risk))
        out.append(SelectedBeta(float(ll.flat[i]), float(aa.flat[i]), found,
                                float(reward[i]), float(risk[i])))
    return tuple(out)


@dataclass(frozen=True)
class SelectionRow:
    epsilon: float
    lam: float
    alpha: float
    feasible: bool
    reward: float
    reward_se: float
    risk: float
    risk_se: float


@dataclass(frozen=True)
class PipelineResult:
    samples: tuple[BetaSample, ...]
    reward_fit: MonotoneFit
    risk_fit: MonotoneFit
    rows: tuple[SelectionRow, ...]
    rn: PracticalMetrics        # metrics of the risk-neutral (lam = 0) family
    default: PracticalMetrics   # metrics of continuous charging


def solve_family(lam: float, alpha: float, cfg: MdpConfig, pm: PriceModelParams,
                 grid: PriceGrid, horizons) -> ThresholdPolicyFamily:
    """Solve the MDP at every reservation length needed by the tau distribution,
    in one backward sweep (see mdp.solve_horizons)."""
    beta = RiskSchedule.homogeneous(lam, alpha, max(int(T) for T in horizons))
    return ThresholdPolicyFamily(solve_horizons(cfg, beta, pm, grid, horizons))


def pipeline(sample_grid, cfg: MdpConfig, pm: PriceModelParams, grid: PriceGrid,
             tau_dist: TauDist, epsilons, n_paths: int, seed: int, p0: float,
             degree: int = 10, constraint_grid: np.ndarray | None = None,
             risk_kind: str = "indicator", delta: float = 0.3) -> PipelineResult:
    """Three-step selection: estimate metrics for sampled betas, fit both
    surfaces, then solve and simulate the recommendation for each epsilon.

    What no beta changes is built once: the grid holds the solver's tables for
    every family, and one Scenario scores every family and the Default.  Each
    distinct effective beta is solved and scored once.  Alpha plays no part
    when lam = 0, so every risk-neutral pair, the RN anchor included, shares
    one evaluation."""
    scenario = Scenario.sample(tau_dist, pm, p0, n_paths, seed)
    cache: dict[tuple[float, float], PracticalMetrics] = {}

    def measure(lam, alpha):
        key = (float(lam), float(alpha)) if lam > 0 else (0.0, 0.5)
        if key not in cache:
            family = solve_family(*key, cfg, pm, grid, tau_dist.horizons)
            cache[key] = scenario.score(family, cfg, risk_kind=risk_kind, delta=delta)
        return cache[key]

    samples = []
    for lam, alpha in sample_grid:
        m = measure(lam, alpha)
        samples.append(BetaSample(float(lam), float(alpha), m.reward, m.reward_se,
                                  m.risk, m.risk_se))

    reward_fit = fit(samples, "reward", degree, constraint_grid)
    risk_fit = fit(samples, "risk", degree, constraint_grid)

    rows = []
    for eps, sel in zip(epsilons, select_beta(reward_fit, risk_fit, epsilons)):
        m = measure(sel.lam, sel.alpha)
        rows.append(SelectionRow(float(eps), sel.lam, sel.alpha, sel.feasible,
                                 m.reward, m.reward_se, m.risk, m.risk_se))
    default = scenario.score(ContinuousChargePolicy(cfg), cfg, risk_kind=risk_kind, delta=delta)
    return PipelineResult(tuple(samples), reward_fit, risk_fit, tuple(rows),
                          measure(0.0, 0.5), default)
