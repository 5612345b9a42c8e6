"""Seasonal mean-reverting jump-diffusion spot-price model and its integer discretization.

Prices are carried in $/MWh.  One period is one decision epoch (15 minutes at
the case-study scale).  The one-step noise is a two-component normal mixture
(no-jump / jump), discretized onto the integers so that the induced price
transitions live on a finite uniform grid.  The normal CDF is ndtr's form,
Phi(x) = erfc(-x * sqrt(1/2)) / 2, from ``math.erfc``, so scipy is not imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# outcomes below this probability are dropped and the rest renormalized
TRIM = 1.5e-3

# target one-step escape probability used when auto-sizing the price grid
ESCAPE_TOL = 1e-4

_erfc = np.frompyfunc(math.erfc, 1, 1)


@dataclass(frozen=True)
class PriceModelParams:
    """Parameters of the discrete-time seasonal jump-diffusion price process."""

    kappa_Y: float          # mean-reversion rate per period
    mu_Y: float             # long-run deseasonalized mean, $/MWh
    sigma_Y: float          # diffusion volatility, $/MWh per sqrt(period)
    mu_J: float             # jump mean, $/MWh
    sigma_J: float          # jump std, $/MWh
    jump_prob: float        # per-period jump probability (Bernoulli rate)
    seas_a: float           # seasonality sine coefficient, $/MWh
    seas_b: float           # seasonality cosine coefficient, $/MWh
    seas_c: float           # seasonality level, $/MWh
    seas_period: int        # periods per seasonal cycle

    def __post_init__(self):
        if self.kappa_Y <= 0:
            raise ValueError("kappa_Y must be > 0")
        if self.sigma_Y < 0:
            raise ValueError("sigma_Y must be >= 0")
        if self.sigma_J < 0:
            raise ValueError("sigma_J must be >= 0")
        if not 0.0 <= self.jump_prob <= 1.0:
            raise ValueError("jump_prob must be in [0, 1]")
        if self.seas_period < 1:
            raise ValueError("seas_period must be >= 1")

    @property
    def decay(self) -> float:
        """One-period autoregressive factor e^{-kappa}."""
        return float(np.exp(-self.kappa_Y))

    @property
    def diffusion_var(self) -> float:
        """Stationary one-step variance of the diffusion part."""
        k = self.kappa_Y
        return self.sigma_Y**2 * -np.expm1(-2.0 * k) / (2.0 * k)

    def seasonality(self, t) -> float:
        """Deterministic seasonal component g(t), periodic in seas_period."""
        w = 2.0 * np.pi * np.asarray(t, dtype=float) / self.seas_period
        out = self.seas_a * np.sin(w) + self.seas_b * np.cos(w) + self.seas_c
        return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out

    def noise_drift(self, t: int) -> float:
        """Deterministic part of the one-step noise: g(t+1) - g(t) e^{-k} + mu_Y (1 - e^{-k})."""
        d = self.decay
        return self.seasonality(t + 1) - self.seasonality(t) * d + self.mu_Y * (1.0 - d)


@dataclass(frozen=True)
class DiscreteDist:
    """Finite distribution with strictly increasing support."""

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        if support.shape != probs.shape or support.ndim != 1 or support.size == 0:
            raise ValueError("support and probs must be matching nonempty 1-D arrays")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support must be strictly increasing")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")

    def mean(self) -> float:
        return float(self.support @ self.probs)


@dataclass(frozen=True)
class PriceGrid:
    """Grid of admissible spot-price states, one unit apart.  It holds the tables
    that solves on it share (see :meth:`tables`), so points is a read-only copy."""

    step = 1.0  # spacing of the points, $/MWh
    points: np.ndarray
    _held: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        points = np.array(self.points, dtype=float)
        points.setflags(write=False)
        object.__setattr__(self, "points", points)
        if points.size == 0:
            raise ValueError("price grid is empty")
        diffs = np.diff(points)
        if points.size > 1 and (np.any(diffs <= 0) or np.any(np.abs(diffs - self.step) > 1e-9)):
            raise ValueError("grid points must be strictly increasing with uniform spacing")

    def __len__(self) -> int:
        return len(self.points)

    def tables(self, params: PriceModelParams) -> dict:
        """What the solver computes on this grid for price model params and no
        risk parameter changes; held for one model at a time."""
        if params not in self._held:
            self._held.clear()
        return self._held.setdefault(params, {})

    def nearest_index(self, p) -> np.ndarray:
        """Index of the grid point closest to p (clipped to the grid); the points
        are one unit apart, so the offset from the first point is the index."""
        idx = np.rint(np.asarray(p, dtype=float) - self.points[0]).astype(int)
        return np.clip(idx, 0, len(self.points) - 1)


def _interval_mass(mean: float, std: float, edges: np.ndarray) -> np.ndarray:
    """Mass a N(mean, std^2) puts on the intervals (edges[i], edges[i+1]]; a point
    mass when std == 0."""
    if std > 0.0:
        return np.diff(0.5 * _erfc((mean - edges) / std * math.sqrt(0.5)).astype(float))
    mass = np.zeros(len(edges) - 1)
    k = np.searchsorted(edges, mean, side="left") - 1
    if 0 <= k < len(mass):
        mass[k] = 1.0
    return mass


def noise_dist(t: int, params: PriceModelParams) -> DiscreteDist:
    """Integer-support discretization of the one-step noise mixture at period t.

    Each integer k receives the mixture mass of (k - 1/2, k + 1/2]; outcomes
    with probability below TRIM are dropped and the remainder renormalized.
    """
    drift = params.noise_drift(t)
    var0 = params.diffusion_var
    std0 = np.sqrt(var0)
    std1 = np.sqrt(var0 + params.sigma_J**2)
    w1 = params.jump_prob
    w0 = 1.0 - w1

    # past the window lies less than Phi(-8) of each component, far below TRIM
    span = 1.0 + 8.0 * max(std0 if w0 > 0 else 0.0, std1 if w1 > 0 else 0.0)
    lo = int(np.floor(drift + min(0.0, params.mu_J) - span))
    hi = int(np.ceil(drift + max(0.0, params.mu_J) + span))
    support = np.arange(lo, hi + 1, dtype=float)
    edges = np.concatenate([support - 0.5, [support[-1] + 0.5]])

    probs = np.zeros_like(support)
    if w0 > 0:
        probs += w0 * _interval_mass(drift, std0, edges)
    if w1 > 0:
        probs += w1 * _interval_mass(drift + params.mu_J, std1, edges)

    keep = probs >= TRIM
    if not keep.any():
        keep[np.argmax(probs)] = True
    support, probs = support[keep], probs[keep]
    probs = probs / probs.sum()
    return DiscreteDist(support, probs)


def build_grid(params: PriceModelParams, span: int | None = None) -> PriceGrid:
    """Integer price grid [c - span, c + span] centered on the seasonal level.

    When span is not given, the smallest span is chosen such that the total
    one-step probability of leaving the grid from any interior state, at any
    phase of the seasonal cycle, is below ESCAPE_TOL.
    """
    center = round(params.seas_c)
    if span is None:
        span = _auto_span(params, center)
    points = np.arange(center - span, center + span + 1, dtype=float)
    return PriceGrid(points)


def _auto_span(params, center) -> int:
    decay = params.decay
    dists = [noise_dist(t, params) for t in range(params.seas_period)]
    for span in range(10, 5001):
        lo, hi = center - span, center + span
        worst = 0.0
        for d in dists:
            # mean reversion pulls harder the farther out the state sits, so the
            # interior states closest to each boundary are the binding ones
            for p in (hi - 1, lo + 1):
                targets = p * decay + d.support
                out = (targets > hi + 0.5) | (targets < lo - 0.5)
                worst = max(worst, float(d.probs[out].sum()))
        if worst < ESCAPE_TOL:
            return span
    raise ValueError("could not find a grid span meeting the escape tolerance")


def next_price_dist(p: float, t: int, params: PriceModelParams, grid: PriceGrid) -> DiscreteDist:
    """Distribution of the next grid price given current price p at period t.

    Each outcome p e^{-k} + psi is snapped to the nearest grid point; mass
    landing outside the grid accumulates at the boundary points.  The tests and
    perfbench's oracles build their row-by-row reference transition law from it.
    """
    psi = noise_dist(t, params)
    targets = p * params.decay + psi.support
    idx = grid.nearest_index(targets)
    probs = np.bincount(idx, weights=psi.probs, minlength=len(grid))
    keep = probs > 0
    return DiscreteDist(grid.points[keep], probs[keep] / probs.sum())


def transition_matrix(t: int, params: PriceModelParams, grid: PriceGrid) -> np.ndarray:
    """Row-stochastic matrix of grid-to-grid price transitions at period t."""
    psi = noise_dist(t, params)
    n = len(grid)
    idx = grid.nearest_index(grid.points[:, None] * params.decay + psi.support)
    cells = (np.arange(n)[:, None] * n + idx).ravel()
    weights = np.broadcast_to(psi.probs, idx.shape).ravel()
    mat = np.bincount(cells, weights=weights, minlength=n * n).reshape(n, n)
    return mat / mat.sum(axis=1, keepdims=True)


def sample_paths(p0: float, params: PriceModelParams, normal: np.ndarray,
                 jump_u: np.ndarray, jump_normal: np.ndarray) -> np.ndarray:
    """P_0..P_K for every path from the exact (undiscretized) recursion, as an
    (n_paths, K+1) view of a time-major block: one contiguous row per period.

    The three (n_paths, K) arrays hold the standard draws of each step: the
    diffusion normal, the uniform that decides a jump (jump when below
    jump_prob) and the jump-size normal.
    """
    n, steps = normal.shape
    if steps < 1:
        raise ValueError("paths need at least one step")
    d = params.decay
    shocks = (np.sqrt(params.diffusion_var) * normal + params.mu_Y * (1.0 - d)
              + np.where(jump_u < params.jump_prob,
                         params.mu_J + params.sigma_J * jump_normal, 0.0))
    y = np.empty((steps + 1, n))
    y[0] = p0 - params.seasonality(0)
    y[1:] = shocks.T
    for t in range(steps):  # row t + 1 holds its shock until the decayed row t is added
        y[t + 1] += y[t] * d
    y += params.seasonality(np.arange(steps + 1))[:, None]
    y[0] = p0  # exact, so a start price on a rounding boundary stays put
    return y.T
