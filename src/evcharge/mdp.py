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
from .risk import RiskParams, RiskSchedule, mean_cvar_kernel, mean_cvar_rows

MWH_PER_KWH = 1e-3  # $/MWh -> $/kWh

# How far V_{t+1}(r, .) may fall below its running maximum along the price grid
# before row r is scored by the sort-based kernel instead of the linear one.
# The linear kernel's CVaR falls short of the exact one by at most that drop;
# the rounding noise in the solver's monotone tables stays below it.
GRID_ORDER_TOL = 1e-12


def softplus(y):
    # overflow-safe log(1 + exp(y))
    return np.logaddexp(0.0, y)


def linear_capped(cap: float):
    def gamma(y):
        return np.clip(y, 0.0, cap)
    return gamma


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
        if self.gamma_y_kind not in ("softplus", "linear-capped"):
            raise ValueError(f"unknown gamma_y_kind {self.gamma_y_kind!r}")

    @property
    def fast_regime(self) -> bool:
        return self.x_max >= self.r_max

    @property
    def gamma_y(self):
        """Market-dependent compensation $\\gamma_Y$; argument in $/kWh."""
        if self.gamma_y_kind == "softplus":
            return softplus
        return linear_capped(self.gamma_y_cap)

    def check_compensation_lipschitz(self, pm: PriceModelParams) -> None:
        """Reject compensation functions too price-sensitive for the threshold
        monotonicity results to apply."""
        lipschitz = 1.0  # softplus and clip both have slope at most 1 on the $/kWh scale
        # in log space, as exp(2 kappa_Y) overflows; p_ref = 0 pays no compensation
        log_bound = 2.0 * pm.kappa_Y - math.log(self.p_ref) if self.p_ref > 0 else math.inf
        if math.log(lipschitz) > log_bound:
            raise ValueError(
                f"gamma_Y Lipschitz constant {lipschitz} exceeds the "
                f"admissible bound {math.exp(log_bound):.6g}"
            )

    def benchmark(self, T):
        """Charge reached by continuous charging over T periods, kWh."""
        return np.minimum(self.r0 + T * self.x_max, self.r_max)

    def compensation(self, h, rate):
        """Compensation for a shortage of h kWh at the market rate `rate`, $."""
        return (1.0 + self.gamma_h * h + rate) * h * self.p_ref


@dataclass(frozen=True)
class MdpSolution:
    """Value tables, post-decision tables, and basestock thresholds.

    values[t, r, ip] is V_{t,T}(r, grid[ip]); post_values[t, r~, ip] the
    post-decision value at t < T; thresholds[t, ip] the smallest post-decision
    minimizer.  fallback_rows counts the post-decision entries that the
    sort-based mean_cvar_rows scored in place of the linear kernel (see
    _post_decision); it is 0 when V is nondecreasing in price throughout.
    """

    cfg: MdpConfig
    grid: PriceGrid
    values: np.ndarray        # (T+1, r_max+1, n_p)
    post_values: np.ndarray   # (T,   r_max+1, n_p)
    thresholds: np.ndarray    # (T, n_p) int
    fallback_rows: int


def terminal_values(cfg: MdpConfig, beta_T: RiskParams, pm: PriceModelParams,
                    grid: PriceGrid) -> np.ndarray:
    """Boundary condition: risk of the inconvenience compensation paid one
    period after the customer returns.  Shape (r_max+1, n_p)."""
    T = cfg.horizon
    psi = noise_dist(T, pm)
    # deseasonalized next-period price deviation, $/kWh
    y_support = psi.support - pm.seasonality(T + 1)
    # compensation rate per next-period outcome, one row per current price
    gamma = cfg.gamma_y((grid.points[:, None] * pm.decay + y_support) * MWH_PER_KWH)
    rho_gamma = mean_cvar_rows(gamma, psi.probs, beta_T)  # (n_p,)
    h = (cfg.benchmark(T) - np.arange(cfg.r_max + 1)).astype(float)
    return cfg.compensation(h[:, None], rho_gamma[None, :])


def _post_decision(v_next: np.ndarray, trans: np.ndarray, kernel: np.ndarray,
                   short: np.ndarray, rp: RiskParams) -> tuple[np.ndarray, int]:
    """post[r~, ip], the mean-CVaR of V_{t+1}(r~, P_{t+1}) given P_t = grid[ip],
    and the number of entries the sort-based fallback scored.

    V_{t+1}(r~, .) is nondecreasing in price, so every row takes its tail at
    the top of the grid and one product with the linear kernel scores all
    states.  Rows that fall more than GRID_ORDER_TOL below their running
    maximum, and prices whose row is short of alpha, are scored per price by
    mean_cvar_rows on the row's support instead."""
    post = v_next @ kernel.T
    falls = (np.maximum.accumulate(v_next, axis=1) - v_next > GRID_ORDER_TOL).any(axis=1)
    redo = falls[:, None] | short[None, :]
    for ip in np.flatnonzero(redo.any(axis=0)):
        rows = np.flatnonzero(redo[:, ip])
        keep = trans[ip] > 0
        post[rows, ip] = mean_cvar_rows(v_next[np.ix_(rows, keep)], trans[ip, keep], rp)
    return post, int(redo.sum())


def solve(cfg: MdpConfig, beta: RiskSchedule, pm: PriceModelParams,
          grid: PriceGrid) -> MdpSolution:
    """Risk-averse backward induction over t = T-1..0."""
    return solve_horizons(cfg, beta, pm, grid, [cfg.horizon])[cfg.horizon]


def solve_horizons(cfg: MdpConfig, beta: RiskSchedule, pm: PriceModelParams, grid: PriceGrid,
                   horizons, trans: dict | None = None) -> dict[int, MdpSolution]:
    """Risk-averse backward induction at every horizon in one sweep over
    t = max(horizons)-1..0; horizon T steps with beta[0..T-1] and ends with
    beta[T].  Each t builds P_t, K_t and the short-row mask once and steps the
    table of every horizon T > t with them.  trans, when given, keeps each
    phase's P_t with its row cumulative sums for other sweeps on the same
    (pm, grid)."""
    horizons = sorted({int(T) for T in horizons})
    if beta.horizon != horizons[-1]:
        raise ValueError(f"risk schedule length {beta.horizon + 1} does not match "
                         f"horizon {horizons[-1]}")
    cfg.check_compensation_lipschitz(pm)
    trans = {} if trans is None else trans
    cfgs = {T: replace(cfg, horizon=T) for T in horizons}

    n_r = cfg.r_max + 1
    n_p = len(grid)
    level_cost = np.arange(n_r, dtype=float)[:, None] * (grid.points * MWH_PER_KWH)

    values = {T: np.empty((T + 1, n_r, n_p)) for T in horizons}
    post_values = {T: np.empty((T, n_r, n_p)) for T in horizons}
    thresholds = {T: np.empty((T, n_p), dtype=int) for T in horizons}
    fallback_rows = dict.fromkeys(horizons, 0)
    for T in horizons:
        values[T][T] = terminal_values(cfgs[T], beta[T], pm, grid)

    pad = np.full((cfg.x_max, n_p), np.inf)
    for t in range(horizons[-1] - 1, -1, -1):
        phase = t % pm.seas_period
        if phase not in trans:
            p_t = transition_matrix(phase, pm, grid)
            trans[phase] = p_t, np.cumsum(p_t, axis=1)
        p_t, cum = trans[phase]
        # rows of P_t whose mass never passes alpha leave the kernel's tail incomplete
        short = (beta[t].lam > 0.0) & (cum[:, -1] <= beta[t].alpha)
        kernel = mean_cvar_kernel(p_t, cum, beta[t])
        # one table at a time: stacked, a step's arrays outgrow the cache (measured slower)
        for T in [h for h in horizons if h > t]:
            post, n_fallback = _post_decision(values[T][t + 1], p_t, kernel, short, beta[t])
            post_values[T][t] = post
            fallback_rows[T] += n_fallback
            # smallest minimizer of r~ * p + post(r~) defines the threshold
            target = level_cost + post
            thresholds[T][t] = np.argmin(target, axis=0)
            # V_t(r, p) = min over x of x p - c_f + post(r + x); equivalently a
            # sliding-window min of `target` over reachable post-decision levels
            win = np.lib.stride_tricks.sliding_window_view(
                np.concatenate([target, pad]), cfg.x_max + 1, axis=0)
            values[T][t] = win.min(axis=2) - level_cost - cfg.c_f
            if not np.all(np.isfinite(values[T][t])):
                r, ip = np.argwhere(~np.isfinite(values[T][t]))[0]
                raise FloatingPointError(f"non-finite value at T={T}, t={t}, r={r}, "
                                         f"price index {ip}")

    return {T: MdpSolution(cfgs[T], grid, values[T], post_values[T], thresholds[T],
                           fallback_rows[T]) for T in horizons}


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


def _worst(diffs: np.ndarray) -> tuple[float, tuple | None]:
    if diffs.size == 0:
        return 0.0, None
    worst = float(diffs.min())
    if worst >= 0:
        return max(0.0, -worst), None
    loc = np.unravel_index(int(np.argmin(diffs)), diffs.shape)
    return -worst, tuple(int(i) for i in loc)


def verify_structure(sol: MdpSolution, tolerance: float = 1e-9) -> StructureReport:
    """Check convexity in r, monotonicity in p, and threshold monotonicity."""
    checks = []

    # (a) discrete convexity of V_t(., p) in r: second differences >= -tol
    second = np.diff(sol.values, n=2, axis=1)
    worst, loc = _worst(second)
    checks.append(CheckResult("value_convex_in_resource", worst <= tolerance, worst, loc))

    # (b) V_t(r, .) nondecreasing in p for r < r_max
    inc = np.diff(sol.values[:, :-1, :], axis=2)
    worst, loc = _worst(inc)
    checks.append(CheckResult("value_increasing_in_price", worst <= tolerance, worst, loc))

    # (c) thresholds nonincreasing in p, exactly (integer thresholds)
    dec = -np.diff(sol.thresholds, axis=1)
    worst, loc = _worst(dec.astype(float))
    checks.append(CheckResult("threshold_nonincreasing_in_price", worst <= 0, worst, loc))

    return StructureReport(tuple(checks))


def bellman_residual(sol: MdpSolution, pm: PriceModelParams) -> float:
    """Max |V - RHS of the recursion| over all stored states; consistency gauge.

    Takes the min over every feasible charge x explicitly, independently of
    the solver's sliding window."""
    cfg = sol.cfg
    p_kwh = sol.grid.points * MWH_PER_KWH
    x = np.arange(cfg.x_max + 1)
    dest = np.arange(cfg.r_max + 1)[:, None] + x  # (r, x) -> post-decision level
    feasible = (dest <= cfg.r_max)[:, :, None]
    charge = x[None, :, None] * p_kwh - cfg.c_f
    worst = 0.0
    for t in range(cfg.horizon):
        post = sol.post_values[t][np.minimum(dest, cfg.r_max)]  # (r, x, n_p)
        rhs = np.where(feasible, charge + post, np.inf).min(axis=1)
        worst = max(worst, float(np.abs(rhs - sol.values[t]).max()))
    return worst
