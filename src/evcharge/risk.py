"""Exact mean-CVaR on finite discrete distributions, and risk schedules.

One row-wise kernel, :class:`SortedRows`, computes every CVaR: it sorts each
row and splits the atom at the quantile proportionally, which equals the
Rockafellar-Uryasev infimum exactly and needs no solver.  Its sorted form does
not depend on (lam, alpha), so rows scored at many risk parameters are sorted
once; :func:`mean_cvar_rows` is its one-shot call.
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


@dataclass(frozen=True)
class SortedRows:
    """Outcome rows against one shared distribution, prepared for the mean-CVaR
    at any (lam, alpha): the row means, each row in ascending order, and its
    cumulative probability and value * probability sums.

    Built once, it leaves each (lam, alpha) only the quantile index and the
    atom split."""

    mean: np.ndarray    # (n_rows,)
    values: np.ndarray  # (n_rows, n_outcomes), each row ascending
    cum: np.ndarray     # cumulative probability along each sorted row
    vw_cum: np.ndarray  # cumulative value * probability along each sorted row

    @classmethod
    def of(cls, values: np.ndarray, probs: np.ndarray) -> "SortedRows":
        order = np.argsort(values, axis=1, kind="stable")
        v = np.take_along_axis(values, order, axis=1)
        w = probs[order]
        return cls(values @ probs, v, np.cumsum(w, axis=1), np.cumsum(v * w, axis=1))

    def mean_cvar(self, rp: RiskParams) -> np.ndarray:
        """Row-wise (1 - lam) mean + lam CVaR_alpha; CVaR averages the worst
        (1 - alpha) mass of each row, splitting the atom at the quantile
        proportionally."""
        if rp.lam == 0.0:
            return self.mean
        cum, v = self.cum, self.values
        rows = np.arange(v.shape[0])
        j = np.argmax(cum > rp.alpha, axis=1)
        # argmax returns 0 when no entry exceeds alpha (rounding at cum[-1]); fall
        # back to the last atom in that case
        j = np.where(cum[rows, -1] > rp.alpha, j, v.shape[1] - 1)
        upper = self.vw_cum[:, -1] - self.vw_cum[rows, j]
        cvar = (upper + v[rows, j] * (cum[rows, j] - rp.alpha)) / (1.0 - rp.alpha)
        return (1.0 - rp.lam) * self.mean + rp.lam * cvar


def mean_cvar_rows(values: np.ndarray, probs: np.ndarray, rp: RiskParams) -> np.ndarray:
    """Row-wise mean-CVaR: values is (n_rows, n_outcomes) against a shared
    outcome distribution probs; the one-shot call of :class:`SortedRows`."""
    if rp.lam == 0.0:
        return values @ probs
    return SortedRows.of(values, probs).mean_cvar(rp)
