"""Risk-parameter selection: sample (lam, alpha) pairs, fit polynomial
surfaces for practical reward and risk, and pick the best feasible pair.

Both surfaces are tensor Bernstein polynomials on [0, 1]^2, each fitted as
one l1 linear program.  The risk fit's coefficients may not rise along
either axis, which makes the surface nonincreasing in lam and in alpha
everywhere on the square, not only at chosen points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mdp import MdpConfig, batches, solve_horizons
from .policy_eval import (ContinuousChargePolicy, PracticalMetrics, Scenario, TauDist,
                          ThresholdPolicyFamily)
from .price_model import PriceGrid, PriceModelParams
from .risk import RiskSchedule


def _bernstein(x: np.ndarray, degree: int) -> np.ndarray:
    """Bernstein basis polynomials of `degree` on [0, 1] at x, one column each."""
    k = np.arange(degree + 1)
    binom = np.array([math.comb(degree, i) for i in k], dtype=float)
    x = x[:, None]
    return binom * x ** k * (1.0 - x) ** (degree - k)


def _basis(lam: np.ndarray, alpha: np.ndarray, degree: int) -> np.ndarray:
    """Tensor Bernstein basis at each (lam, alpha); column i * (degree + 1) + j
    is b_i(lam) * b_j(alpha)."""
    return (_bernstein(lam, degree)[:, :, None]
            * _bernstein(alpha, degree)[:, None, :]).reshape(len(lam), -1)


@dataclass(frozen=True)
class MonotoneFit:
    """Tensor Bernstein surface sum coef[i, j] b_i(lam) b_j(alpha) on [0, 1]^2.

    A risk fit's coefficients do not rise along either axis (beyond the LP's
    feasibility tolerance, about 1e-10), so the surface is nonincreasing in
    lam and in alpha everywhere on the square."""

    coef: np.ndarray  # (degree + 1, degree + 1), indexed (i_lam, i_alpha)
    l1_error: float

    def __call__(self, lam, alpha):
        lam, alpha = np.asarray(lam, dtype=float), np.asarray(alpha, dtype=float)
        shape = np.broadcast_shapes(lam.shape, alpha.shape)
        c = self.coef.reshape(self.coef.shape + (1,) * len(shape))
        # de Casteljau along lam, then along alpha: a lam column and an alpha
        # row cost one pass per axis, and equal coefficients give their value
        # exactly.  Each level is c[:k] + x * (c[1:k+1] - c[:k]), computed in
        # place in one buffer per axis
        for x in (lam, alpha):
            c = np.array(np.broadcast_to(
                c, c.shape[:1] + np.broadcast_shapes(c.shape[1:], x.shape)))
            step = np.empty_like(c[1:])
            for k in range(len(c) - 1, 0, -1):
                np.subtract(c[1:k + 1], c[:k], out=step[:k])
                step[:k] *= x
                c[:k] += step[:k]
            c = c[0]
        return np.broadcast_to(c, shape)


def beta_grid(n_lambda: int, n_alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """(lam, alpha) meshgrid over [0, 1] x [0.005, 0.995], indexed (i_lam, i_alpha)."""
    return np.meshgrid(np.linspace(0.0, 1.0, n_lambda), np.linspace(0.005, 0.995, n_alpha),
                       indexing="ij")


def fit(data, target: str, degree: int) -> MonotoneFit:
    """l1 fit of the reward or risk observations in the tensor Bernstein basis,
    from ((lam, alpha), PracticalMetrics) pairs as PipelineResult.samples holds.

    target="risk" keeps every coefficient at or below its predecessor along
    each axis; target="reward" is unconstrained.  The LP takes the standard
    form, one equality row per sample where -e <= phi coef - y <= e takes two,
    and is solved by interior point: the dual simplex returns no solution on
    some samples at degree 5, in either form.
    """
    from scipy.optimize import linprog  # only the fits need scipy
    if target not in ("reward", "risk"):
        raise ValueError("target must be 'reward' or 'risk'")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    betas, metrics = zip(*data)
    obs = np.array([getattr(m, target) for m in metrics])
    # the basis sums to 1, so the median shifts every coefficient alike; flat
    # data then fit to zero and come back as exactly equal coefficients
    shift = float(np.median(obs))
    y = obs - shift
    phi = _basis(*np.array(betas, dtype=float).T, degree)
    n, k = phi.shape

    # minimize sum(u + v) s.t. phi coef + u - v = y, u, v >= 0, coefficient rises <= 0
    A_ub = b_ub = None
    if target == "risk":
        step, same = np.diff(np.eye(degree + 1), axis=0), np.eye(degree + 1)
        rise = np.vstack([np.kron(step, same), np.kron(same, step)])
        A_ub, b_ub = np.hstack([rise, np.zeros((len(rise), 2 * n))]), np.zeros(len(rise))
    res = linprog(np.concatenate([np.zeros(k), np.ones(2 * n)]), A_ub=A_ub, b_ub=b_ub,
                  A_eq=np.hstack([phi, np.eye(n), -np.eye(n)]), b_eq=y,
                  bounds=[(None, None)] * k + [(0, None)] * (2 * n), method="highs-ipm")
    if not res.success:
        raise RuntimeError(f"l1 regression LP failed: {res.message}")
    coef = res.x[:k]
    err = float(np.abs(phi @ coef - y).sum())
    return MonotoneFit(coef.reshape(degree + 1, degree + 1) + shift, err)


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
    # each surface 64 lam rows at a time, so that a block's alpha passes stay
    # in cache; every grid value is the one a single call gives
    blocks = [ll[i:i + 64, :1] for i in range(0, len(ll), 64)]
    reward, risk = (np.concatenate([f(lam, aa[0]) for lam in blocks]).ravel()
                    for f in (reward_fit, risk_fit))
    out = []
    for eps in epsilons:
        feasible = risk <= float(eps)
        found = bool(feasible.any())
        i = int(np.argmax(np.where(feasible, reward, -np.inf)) if found else np.argmin(risk))
        out.append(SelectedBeta(float(ll.flat[i]), float(aa.flat[i]), found,
                                float(reward[i]), float(risk[i])))
    return tuple(out)


@dataclass(frozen=True)
class PipelineResult:
    # per sampled beta: ((lam, alpha), its family's metrics)
    samples: tuple[tuple[tuple[float, float], PracticalMetrics], ...]
    reward_fit: MonotoneFit
    risk_fit: MonotoneFit
    # per epsilon: (epsilon, its selection, the selected family's metrics)
    rows: tuple[tuple[float, SelectedBeta, PracticalMetrics], ...]
    rn: PracticalMetrics        # metrics of the risk-neutral (lam = 0) family
    default: PracticalMetrics   # metrics of continuous charging


def solve_family(lam: float, alpha: float, cfg: MdpConfig, pm: PriceModelParams,
                 grid: PriceGrid, horizons) -> ThresholdPolicyFamily:
    """Solve the MDP at every reservation length needed by the tau distribution,
    in one backward sweep (see mdp.solve_horizons)."""
    beta = RiskSchedule.homogeneous(lam, alpha, max(int(T) for T in horizons))
    return ThresholdPolicyFamily(solve_horizons(cfg, [beta], pm, grid, horizons)[0])


def pipeline(sample_grid, cfg: MdpConfig, pm: PriceModelParams, grid: PriceGrid,
             tau_dist: TauDist, epsilons, n_paths: int, seed: int, p0: float,
             degree: int = 8, risk_kind: str = "indicator", delta: float = 0.3) -> PipelineResult:
    """Three-step selection: estimate metrics for sampled betas, fit both
    surfaces, then solve and simulate the recommendation for each epsilon.

    What no beta changes is built once: the grid holds the solver's tables for
    every family, and one Scenario scores every family and the Default.  Each
    distinct effective beta is solved and scored once, the samples' in one
    round of batched sweeps and the selections' not yet solved in a second
    (see mdp.batches); each solved batch is scored in one Scenario.score call,
    which takes the prices' grid index and gamma_Y once for all its families.
    Alpha plays no part when lam = 0, so every risk-neutral pair, the RN
    anchor included, shares one evaluation."""
    scenario = Scenario.sample(tau_dist, pm, p0, n_paths, seed)
    horizon = max(int(T) for T in tau_dist.horizons)
    cache: dict[tuple[float, float], PracticalMetrics] = {}

    def measure(pairs) -> list[PracticalMetrics]:
        keys = [(float(lam), float(alpha)) if lam > 0 else (0.0, 0.5) for lam, alpha in pairs]
        for run in batches([k for k in dict.fromkeys(keys) if k not in cache],
                           cfg, grid, tau_dist.horizons):
            betas = [RiskSchedule.homogeneous(lam, alpha, horizon) for lam, alpha in run]
            # scored in the statement that solves them: no family outlives its batch
            cache.update(zip(run, scenario.score(
                ThresholdPolicyFamily(solve_horizons(cfg, betas, pm, grid, tau_dist.horizons)),
                cfg, risk_kind=risk_kind, delta=delta)))
        return [cache[k] for k in keys]

    sample_grid = [(float(lam), float(alpha)) for lam, alpha in sample_grid]
    samples = tuple(zip(sample_grid, measure(sample_grid)))

    reward_fit = fit(samples, "reward", degree)
    risk_fit = fit(samples, "risk", degree)

    selected = select_beta(reward_fit, risk_fit, epsilons)
    rn, *chosen = measure([(0.0, 0.5)] + [(sel.lam, sel.alpha) for sel in selected])
    default = scenario.score(ContinuousChargePolicy(cfg), cfg, risk_kind=risk_kind, delta=delta)
    return PipelineResult(samples, reward_fit, risk_fit,
                          tuple(zip(map(float, epsilons), selected, chosen)), rn, default)
