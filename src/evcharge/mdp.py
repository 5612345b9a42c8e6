"""The charging MDP: states, costs, compensation, risk-averse backward
induction, threshold extraction, and structural checks.

Resource states and actions are integers 0..r_max (kWh).  Spot prices live on
the integer grid from :mod:`evcharge.price_model` in $/MWh; cost evaluation
converts once to $/kWh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .price_model import PriceGrid, PriceModelParams, noise_dist, transition_matrix
from .risk import RiskSchedule, mean_cvar_rows, mean_cvar_weights

MWH_PER_KWH = 1e-3  # $/MWh -> $/kWh

# How far V_{t+1}(r, .) may fall below its running maximum along the price grid
# before row r is scored by the sort-based kernel instead of the linear one.
# The linear kernel's CVaR falls short of the exact one by at most that drop;
# the rounding noise in the solver's monotone tables stays below it.
GRID_ORDER_TOL = 1e-12

# A level whose target r~ * p + post(r~) is within TIE_TOL of the minimum ties
# with it, and the threshold is the smallest such level.  Rounding separates
# near-minimal targets by at most 1e-12; real gaps on both presets exceed 1e-9.
TIE_TOL = 1e-11


def softplus(y):
    # overflow-safe log(1 + exp(y))
    return np.logaddexp(0.0, y)


@dataclass(frozen=True)
class MdpConfig:
    """Static problem data for one charging MDP instance."""

    r_max: int              # battery capacity, kWh
    x_max: int              # max charge per period, kWh
    c_f: float              # access fee collected per period, $
    p_ref: float            # retail reference price, $/kWh
    gamma_h: float          # inconvenience coefficient per kWh shortage
    horizon: int            # number of charging periods T
    r0: int = 0             # initial charge, kWh
    gamma_y_kind: str = "softplus"   # softplus | linear-capped
    gamma_y_cap: float = 1.0         # cap for linear-capped, $/kWh

    def __post_init__(self):
        if self.r_max < 1:
            raise ValueError("r_max must be >= 1")
        if not 0 <= self.r0 <= self.r_max:
            raise ValueError("r0 must be within [0, r_max]")
        if self.x_max < 1:
            raise ValueError("x_max must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.p_ref < 0:
            raise ValueError("p_ref must be >= 0")
        if self.gamma_h < 0:
            raise ValueError("gamma_h must be >= 0")
        if self.gamma_y_kind not in ("softplus", "linear-capped"):
            raise ValueError(f"unknown gamma_y_kind {self.gamma_y_kind!r}")
        if self.gamma_y_cap < 0:
            raise ValueError("gamma_y_cap must be >= 0")

    @property
    def fast_regime(self) -> bool:
        return self.x_max >= self.r_max

    def gamma_y(self, y):
        """Market-dependent compensation rate $\\gamma_Y$ at y $/kWh."""
        return (softplus(y) if self.gamma_y_kind == "softplus"
                else np.clip(y, 0.0, self.gamma_y_cap))

    def check_compensation_lipschitz(self, pm: PriceModelParams) -> None:
        """Reject compensation functions too price-sensitive for the threshold
        monotonicity results to apply."""
        # softplus and clip have slope at most 1 ($/kWh) and the bound is exp(2 kappa_Y) / p_ref:
        # compare logs, as exp(2 kappa_Y) overflows; p_ref = 0 pays no compensation
        if self.p_ref > 0 and math.log(self.p_ref) > 2.0 * pm.kappa_Y:
            raise ValueError(
                f"gamma_Y Lipschitz constant 1.0 exceeds the admissible bound "
                f"{math.exp(2.0 * pm.kappa_Y - math.log(self.p_ref)):.6g}"
            )

    def benchmark(self, T):
        """Charge reached by continuous charging over T periods, kWh."""
        return np.minimum(self.r0 + T * self.x_max, self.r_max)

    def shortfall(self, T, r):
        """kWh compensated at charge r after T periods: benchmark(T) - r, at least 0."""
        return np.maximum(self.benchmark(T) - r, 0)

    def compensation(self, h, rate):
        """Compensation for a shortage of h kWh at the market rate `rate`, $."""
        return (1.0 + self.gamma_h * h + rate) * h * self.p_ref


@dataclass(frozen=True)
class MdpSolution:
    """Value tables, post-decision tables, and basestock thresholds.

    values[t, r, ip] is V_{t,T}(r, grid[ip]); post_values[t, r~, ip] the
    post-decision value at t < T; thresholds[t, ip] the smallest post-decision
    level whose value is within TIE_TOL of the minimum.  fallback_rows counts
    the post-decision and terminal entries that the sort-based mean_cvar_rows
    scored in place of the linear kernel (see _post_decision, terminal_values);
    it is 0 when V is nondecreasing in price and the terminal rates ascend.
    values and post_values are C-contiguous views into the one block of their
    sweep, which holds every schedule of its batch (see solve_horizons): one
    solution keeps the whole block alive.
    """

    cfg: MdpConfig
    grid: PriceGrid
    values: np.ndarray        # (T+1, r_max+1, n_p)
    post_values: np.ndarray   # (T,   r_max+1, n_p)
    thresholds: np.ndarray    # (T, n_p) int
    fallback_rows: int


def _columns(rps) -> tuple[np.ndarray, np.ndarray]:
    """lam and alpha of each of rps as (len(rps), 1) columns."""
    return np.array([[rp.lam] for rp in rps]), np.array([[rp.alpha] for rp in rps])


def terminal_values(cfg: MdpConfig, rps, pm: PriceModelParams,
                    grid: PriceGrid) -> tuple[np.ndarray, np.ndarray]:
    """Boundary condition for each of the risk parameters rps: risk of the
    inconvenience compensation paid one period after the customer returns,
    shape (len(rps), r_max+1, n_p), and per member the number of its entries
    the sort-based fallback scored: all of them or none.

    The compensation rates gamma[ip, k] per (grid price, next-price outcome)
    rise with k, as gamma_Y is nondecreasing and the noise support ascends, so
    the transitions' linear kernel scores every row (a falling row sends them
    all to mean_cvar_rows).  The grid holds what no beta_T changes."""
    T = cfg.horizon
    tables = grid.tables(pm)
    key = ("terminal", T, cfg.gamma_y_kind, cfg.gamma_y_cap)
    if key not in tables:
        psi = noise_dist(T, pm)
        # deseasonalized next-period price deviation, $/kWh
        y_support = psi.support - pm.seasonality(T + 1)
        # compensation rate per next-period outcome, one row per current price
        gamma = cfg.gamma_y((grid.points[:, None] * pm.decay + y_support) * MWH_PER_KWH)
        ascending = bool(np.all(np.diff(gamma, axis=1) >= 0.0))
        tables[key] = gamma, psi.probs, np.cumsum(psi.probs), ascending
    gamma, probs, cum, ascending = tables[key]
    if ascending:
        # one matrix-vector product per member, bit-equal to gamma @ w alone (gamma @ W.T is not)
        weights = mean_cvar_weights(probs, cum, *_columns(rps))
        rho_gamma = np.matmul(gamma, weights[:, :, None])[:, :, 0]  # (n_b, n_p)
    else:
        rho_gamma = np.array([mean_cvar_rows(gamma, probs, rp) for rp in rps])
    h = cfg.shortfall(T, np.arange(cfg.r_max + 1))[:, None]
    values = cfg.compensation(h, rho_gamma[:, None])
    return values, np.full(len(rps), 0 if ascending else values[0].size)


# Rows per block of a TransitionBand: one full-scale step's product took about
# 95, 75, 72 and 82 us over blocks of 16, 32, 48 and 64 rows, and 250 us dense
# (2-core Xeon VM, one BLAS thread), as each row of P_t reaches 30-31 prices.
BLOCK_ROWS = 32


@dataclass(frozen=True)
class TransitionBand:
    """An n x n price transition matrix P_t as blocks of BLOCK_ROWS rows i0:i1,
    each over the columns j0:j1 its rows reach: every P_t[i0:i1, j0:j1].T,
    raveled one after another, with the row cumulative sums of P_t beside it."""

    spans: tuple         # (i0, i1, j0, j1) per block
    starts: list         # where each block starts in probs and cum, then their length
    probs: np.ndarray    # the blocks of P_t
    cum: np.ndarray      # the same blocks of np.cumsum(P_t, axis=1)

    @classmethod
    def of(cls, trans: np.ndarray) -> "TransitionBand":
        n, nz = len(trans), trans != 0
        first, end = nz.argmax(axis=1), n - nz[:, ::-1].argmax(axis=1)  # an empty row: 0, n
        spans = [(i0, min(i0 + BLOCK_ROWS, n), int(first[i0:i0 + BLOCK_ROWS].min()),
                  int(end[i0:i0 + BLOCK_ROWS].max())) for i0 in range(0, n, BLOCK_ROWS)]
        starts = np.cumsum([0] + [(i1 - i0) * (j1 - j0) for i0, i1, j0, j1 in spans]).tolist()
        return cls(tuple(spans), starts, *(
            np.concatenate([m[i0:i1, j0:j1].T.ravel() for i0, i1, j0, j1 in spans])
            for m in (trans, np.cumsum(trans, axis=1))))

    def blocks(self, flat: np.ndarray) -> list[np.ndarray]:
        """flat, laid out as probs is along its last axis, as one
        (..., j1 - j0, i1 - i0) view per block."""
        lead = flat.shape[:-1]
        return [flat[..., a:b].reshape(lead + (j1 - j0, i1 - i0)) for (i0, i1, j0, j1), a, b
                in zip(self.spans, self.starts, self.starts[1:])]

    def kernel(self, rps) -> list[np.ndarray]:
        """The linear form K_t of mean_cvar_rows for each of the risk parameters
        rps, as its blocks K_t[i0:i1, j0:j1].T stacked along a leading member
        axis: values @ K_t[i] is the mean-CVaR under P_t[i] of each row of values
        nondecreasing in price.  K_t is 0 wherever P_t is, in a block or outside."""
        return self.blocks(mean_cvar_weights(self.probs, self.cum, *_columns(rps)))


def _price_steps(v: np.ndarray, edge: float) -> np.ndarray:
    """v[..., ip + 1] - v[..., ip] at [..., ip], with `edge` in the last column:
    one subtraction over each raveled (rows, prices) table, contiguous where
    v[..., 1:] - v[..., :-1] strides row by row (the last column held the step
    from one row to the next)."""
    out, flat = np.empty(v.shape), v.reshape(v.shape[:-2] + (-1,))
    np.subtract(flat[..., 1:], flat[..., :-1], out=out.reshape(flat.shape)[..., :-1])
    out[..., -1] = edge
    return out


def _post_decision(v_next: np.ndarray, band: TransitionBand, kernel: list[np.ndarray],
                   rps, out: np.ndarray) -> np.ndarray:
    """Write post[b, r~, ip], the mean-CVaR under rps[b] of V_{t+1}(b, r~, P_{t+1})
    given P_t = grid[ip], into `out` for each member b of the batch, and return
    per member the number of entries the sort-based fallback scored.

    V_{t+1}(r~, .) is nondecreasing in price, so every row takes its tail at
    the top of the grid and the linear kernel scores all states, one batched
    product V_{t+1}[:, :, j0:j1] K_t[:, i0:i1, j0:j1].T per block of the band.
    Rows that fall more than GRID_ORDER_TOL below their running maximum are
    scored at every price by mean_cvar_rows on the row's support in the band
    instead.  A row falls at most its total dip (the sum of its price steps
    down) below its running maximum, so only rows whose dip passes half the
    tolerance (half for rounding) or is NaN take that exact test."""
    for (i0, i1, j0, j1), k in zip(band.spans, kernel):
        np.matmul(v_next[..., j0:j1], k, out=out[..., i0:i1])
    steps = _price_steps(v_next, 0.0)
    dip = np.minimum(steps, 0.0, out=steps).sum(axis=-1)
    # the flagged (member, row) pairs in C order, so members ascend
    members, flagged = np.nonzero(~(dip >= -GRID_ORDER_TOL / 2))
    if members.size:
        v = v_next[members, flagged]
        falls = (np.maximum.accumulate(v, axis=1) - v > GRID_ORDER_TOL).any(axis=1)
        members, flagged = members[falls], flagged[falls]
    if members.size:
        ids, starts = np.unique(members, return_index=True)
        falling = list(zip(ids.tolist(), np.split(flagged, starts[1:])))
        # each price on the columns where its row of P_t is nonzero, ascending
        for (i0, i1, j0, j1), block in zip(band.spans, band.blocks(band.probs)):
            for ip, row in zip(range(i0, i1), block.T):
                keep = np.flatnonzero(row)
                for b, rows in falling:
                    out[b, rows, ip] = mean_cvar_rows(v_next[b][np.ix_(rows, j0 + keep)],
                                                      row[keep], rps[b])
    return np.bincount(members, minlength=len(rps)) * v_next.shape[-1]


def _check_finite(table: np.ndarray, T: int, t: int) -> None:
    """Raise FloatingPointError at the first non-finite entry of V_{t,T} over a
    batch (n_b, r, ip), naming the member's index in batches of more than one."""
    if not np.isfinite(table).all():
        b, r, ip = np.argwhere(~np.isfinite(table))[0]
        member = f" of schedule {b}" if len(table) > 1 else ""
        raise FloatingPointError(f"non-finite value{member} at T={T}, t={t}, r={r}, "
                                 f"price index {ip}")


def _window_min(work: np.ndarray, width: int):
    """A function that returns a view into work whose row r is the minimum of
    rows r..r + width - 1 of work[0, ..., :n, :] as it then stands, n =
    work.shape[-2] // 2, in each table of a batch; rows n: of both tables are
    +inf.  Each pass writes the minimum of the s-row windows at r and
    r + min(s, width - s) into the other table, so the windows grow exactly to
    width rows.  The passes' views are taken once: a sweep runs them every step."""
    n = work.shape[-2] // 2
    width = min(width, n)  # a window of n rows already reaches past the last
    src, dst, s, passes = work[0], work[1], 1, []
    while s < width:
        step = min(s, width - s)
        passes.append((src[..., :n, :], src[..., step:step + n, :], dst[..., :n, :]))
        src, dst, s = dst, src, s + step
    reach = src[..., :n, :]

    def run() -> np.ndarray:
        for a, b, out in passes:
            np.minimum(a, b, out=out)
        return reach
    return run


# The most bytes of values and post_values tables one sweep may hold (see
# batches).  Full-scale single-horizon schedules (T = 16, 4.2 MB each) took
# 5.0, 4.7, 4.5 and 5.5 ms each in sweeps of 1, 2, 3 and 9; desk families
# (0.09 MB) 0.47, 0.23 and 0.19 ms in sweeps of 1, 4 and 108 (2-core Xeon VM,
# one BLAS thread).  A full-scale family (34.8 MB) goes alone, as before.
BATCH_BYTES = 16 << 20


def batches(items: list, cfg: MdpConfig, grid: PriceGrid, horizons) -> list[list]:
    """items in consecutive runs, each of as many schedules as one sweep over
    horizons can hold within BATCH_BYTES of tables, and at least one."""
    n_tables = sum(2 * T + 1 for T in {int(T) for T in horizons})
    size = max(1, BATCH_BYTES // (8 * n_tables * (cfg.r_max + 1) * len(grid)))
    return [items[i:i + size] for i in range(0, len(items), size)]


def solve(cfg: MdpConfig, beta: RiskSchedule, pm: PriceModelParams,
          grid: PriceGrid) -> MdpSolution:
    """Risk-averse backward induction over t = T-1..0."""
    return solve_horizons(cfg, [beta], pm, grid, [cfg.horizon])[0][cfg.horizon]


def solve_horizons(cfg: MdpConfig, betas, pm: PriceModelParams, grid: PriceGrid,
                   horizons) -> list[dict[int, MdpSolution]]:
    """Risk-averse backward induction for each risk schedule of betas at every
    horizon, in one sweep over t = max(horizons)-1..0; horizon T steps with
    beta[0..T-1] and ends with beta[T].  Each t builds the blocks of K_t for
    every schedule at once and steps the tables of every schedule and every
    horizon T > t with them, one horizon at a time, the schedules along a
    leading axis.  Returns one {T: MdpSolution} per schedule, in order.

    One block holds every table of the sweep, each schedule's tables one
    C-contiguous run of it, so a batch costs the sum of its members' tables
    (see batches for the runs that fit BATCH_BYTES).  What no beta changes the
    grid holds (see PriceGrid.tables): each phase's P_t as a TransitionBand of
    row blocks and each horizon's terminal compensation rates (see
    terminal_values)."""
    horizons = sorted({int(T) for T in horizons})
    for beta in betas:
        if beta.horizon != horizons[-1]:
            raise ValueError(f"risk schedule length {beta.horizon + 1} does not match "
                             f"horizon {horizons[-1]}")
    cfg.check_compensation_lipschitz(pm)
    tables = grid.tables(pm)
    cfgs = {T: replace(cfg, horizon=T) for T in horizons}

    n_b = len(betas)
    n_r = cfg.r_max + 1
    n_p = len(grid)
    # (1, n_r, n_p): a table with the batch's axis steps as fast as one without
    level_cost = (np.arange(n_r, dtype=float)[:, None] * (grid.points * MWH_PER_KWH))[None]

    # one block per sweep: numpy advises huge pages for it, not for a single table
    block = np.empty((n_b, sum(2 * T + 1 for T in horizons), n_r, n_p))
    values, post_values, thresholds, fallback_rows, at = {}, {}, {}, {}, 0
    for T in horizons:
        values[T], post_values[T] = block[:, at:at + T + 1], block[:, at + T + 1:at + 2 * T + 1]
        at += 2 * T + 1
        thresholds[T] = np.empty((n_b, T, n_p), dtype=int)
        values[T][:, T], fallback_rows[T] = terminal_values(
            cfgs[T], [beta[T] for beta in betas], pm, grid)
        _check_finite(values[T][:, T], T, T)

    # the targets and the window minima's other table, +inf below row n_r (see _window_min)
    work = np.full((2, n_b, 2 * n_r, n_p), np.inf)
    target, window_min = work[0, :, :n_r], _window_min(work, cfg.x_max + 1)
    for t in range(horizons[-1] - 1, -1, -1):
        phase = t % pm.seas_period
        if ("transition", phase) not in tables:
            tables["transition", phase] = TransitionBand.of(transition_matrix(phase, pm, grid))
        band = tables["transition", phase]
        rps = [beta[t] for beta in betas]
        kernel = band.kernel(rps)
        # one horizon at a time: stacked, a step's arrays outgrow the cache (measured slower)
        for T in [h for h in horizons if h > t]:
            post, value = post_values[T][:, t], values[T][:, t]
            fallback_rows[T] += _post_decision(values[T][:, t + 1], band, kernel, rps, post)
            np.add(level_cost, post, out=target)
            # the smallest level tying with target's min, read before window_min overwrites it
            low = target.min(axis=1, keepdims=True) + TIE_TOL
            thresholds[T][:, t] = (target <= low).argmax(axis=1)
            # V_t(r, p) = min over x of x p - c_f + post(r + x), target's min over r..r + x_max
            np.subtract(window_min(), level_cost, out=value)
            value -= cfg.c_f
            _check_finite(value, T, t)

    return [{T: MdpSolution(cfgs[T], grid, values[T][b], post_values[T][b], thresholds[T][b],
                            int(fallback_rows[T][b])) for T in horizons} for b in range(n_b)]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_violation: float
    location: tuple | None = None


@dataclass(frozen=True)
class StructureReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            loc = f" at {c.location}" if c.location and not c.passed else ""
            lines.append(f"{c.name}: {status} (worst violation {c.worst_violation:.3e}{loc})")
        return "\n".join(lines)


def _worst(periods, n_checks: int) -> list[tuple[float, tuple | None]]:
    """Per check, the largest violation (most negative entry, negated) over its
    per-period difference arrays and its first location (t, ...) in C order, as
    argmin over the stack gives.  periods yields each period's arrays, one per
    check, so every check reads a period while it is in cache."""
    found = [(0.0, None)] * n_checks
    for t, diffs in enumerate(periods):
        for c, d in enumerate(diffs):
            m, worst = float(d.min(initial=np.inf)), found[c][0]
            if worst == worst and (m < worst or m != m):  # past a NaN, argmin stops at the first
                found[c] = m, (t, d)
    return [(0.0, None) if at is None else
            (-m, (at[0], *map(int, np.unravel_index(np.argmin(at[1]), at[1].shape))))
            for m, at in found]


def verify_structure(sol: MdpSolution, tolerance: float = 1e-9) -> StructureReport:
    """Check convexity in r, monotonicity in p, and threshold monotonicity."""
    # (a) discrete convexity of V_t(., p) in r: second differences >= -tol, and
    # (b) V_t(r, .) nondecreasing in p for r < r_max, both from one visit per period
    (convex, convex_at), (rising, rising_at) = _worst(
        ((np.diff(v, n=2, axis=0), _price_steps(v, np.inf)[:-1]) for v in sol.values), 2)
    # (c) thresholds nonincreasing in p, exactly (integer thresholds)
    steps = np.diff(sol.thresholds, axis=1).astype(float)
    ((falls, falls_at),) = _worst(((-d,) for d in steps), 1)
    return StructureReport((
        CheckResult("value_convex_in_resource", convex <= tolerance, convex, convex_at),
        CheckResult("value_increasing_in_price", rising <= tolerance, rising, rising_at),
        CheckResult("threshold_nonincreasing_in_price", falls <= 0, falls, falls_at)))
