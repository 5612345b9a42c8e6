"""Exact mean-CVaR on finite discrete distributions, and risk schedules.

One row-wise kernel, :func:`mean_cvar_rows`, computes every CVaR: it sorts
each row and splits the atom at the quantile proportionally, which equals the
Rockafellar-Uryasev infimum exactly and needs no solver.
:func:`mean_cvar_kernel` is its linear form for rows already in sorted order,
which the solver applies as one matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RiskParams:
    """One-period mean-CVaR parameters (lam, alpha)."""

    lam: float    # tail-emphasis weight in [0, 1]
    alpha: float  # tail level in (0, 1)

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must be in [0, 1]")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")


@dataclass(frozen=True)
class RiskSchedule:
    """Per-period risk parameters for t = 0..T (length horizon + 1)."""

    per_period: tuple[RiskParams, ...]

    def __post_init__(self):
        if len(self.per_period) < 2:
            raise ValueError("schedule needs at least two periods")
        object.__setattr__(self, "per_period", tuple(self.per_period))

    @classmethod
    def homogeneous(cls, lam: float, alpha: float, horizon: int) -> "RiskSchedule":
        return cls((RiskParams(lam, alpha),) * (horizon + 1))

    @property
    def horizon(self) -> int:
        return len(self.per_period) - 1

    def __getitem__(self, t: int) -> RiskParams:
        return self.per_period[t]


def mean_cvar_rows(values: np.ndarray, probs: np.ndarray, rp: RiskParams) -> np.ndarray:
    """Row-wise mean-CVaR: values is (n_rows, n_outcomes) against a shared
    outcome distribution probs.  CVaR averages the worst (1 - alpha) mass of
    each row, splitting the atom at the quantile proportionally."""
    mean = values @ probs
    if rp.lam == 0.0:
        return mean
    order = np.argsort(values, axis=1, kind="stable")
    v = np.take_along_axis(values, order, axis=1)
    w = probs[order]
    cum = np.cumsum(w, axis=1)
    rows = np.arange(values.shape[0])
    j = np.argmax(cum > rp.alpha, axis=1)
    # argmax returns 0 when no entry exceeds alpha (rounding at cum[-1]); fall
    # back to the last atom in that case
    j = np.where(cum[rows, -1] > rp.alpha, j, values.shape[1] - 1)
    vw_cum = np.cumsum(v * w, axis=1)
    upper = vw_cum[:, -1] - vw_cum[rows, j]
    cvar = (upper + v[rows, j] * (cum[rows, j] - rp.alpha)) / (1.0 - rp.alpha)
    return (1.0 - rp.lam) * mean + rp.lam * cvar


def mean_cvar_kernel(trans: np.ndarray, cum: np.ndarray, rp: RiskParams) -> np.ndarray:
    """Linear form of :func:`mean_cvar_rows` for values nondecreasing along the
    outcome axis.

    Row i reweights the row-stochastic trans[i] so that values @ K[i] is the
    mean-CVaR of values under trans[i] whenever each row of values is
    nondecreasing: the upper (1 - alpha) tail is then the last atoms in grid
    order, with the quantile atom split as mean_cvar_rows splits it.  cum is
    np.cumsum(trans, axis=1)."""
    if rp.lam == 0.0:
        return trans
    tail = np.clip(cum - rp.alpha, 0.0, trans) / (1.0 - rp.alpha)
    return (1.0 - rp.lam) * trans + rp.lam * tail
