"""The charging MDP: states, costs, compensation, risk-averse backward
induction, threshold extraction, and structural checks.

Resource states and actions are integers 0..r_max (kWh).  Spot prices live on
the integer grid from :mod:`evcharge.price_model` in $/MWh; cost evaluation
converts once to $/kWh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .price_model import PriceGrid, PriceModelParams, noise_dist, transition_matrix
from .risk import RiskParams, RiskSchedule, mean_cvar_rows

MWH_PER_KWH = 1e-3  # $/MWh -> $/kWh


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
        if not 0 <= self.r0 <= self.r_max:
            raise ValueError("r0 must be within [0, r_max]")
        if self.x_max < 1:
            raise ValueError("x_max must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
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
        bound = np.exp(2.0 * pm.kappa_Y) / self.p_ref
        if lipschitz > bound:
            raise ValueError(
                f"gamma_Y Lipschitz constant {lipschitz} exceeds the "
                f"admissible bound {bound:.6g}"
            )

    def shortage(self, r) -> np.ndarray:
        """Energy shortage vs. the continuous-charging benchmark, kWh."""
        bench = min(self.r0 + self.horizon * self.x_max, self.r_max)
        return bench - np.asarray(r)


@dataclass(frozen=True)
class MdpSolution:
    """Value tables, post-decision tables, and basestock thresholds.

    values[t, r, ip] is V_{t,T}(r, grid[ip]); post_values[t, r~, ip] the
    post-decision value at t < T; thresholds[t, ip] the smallest post-decision
    minimizer.
    """

    cfg: MdpConfig
    beta: RiskSchedule
    grid: PriceGrid
    values: np.ndarray        # (T+1, r_max+1, n_p)
    post_values: np.ndarray   # (T,   r_max+1, n_p)
    thresholds: np.ndarray    # (T, n_p) int

    def threshold_at(self, t: int, p: float) -> int:
        """Threshold at period t for a (possibly off-grid) price p."""
        return int(self.thresholds[t, self.grid.nearest_index(p)])

    def greedy_action(self, r: int, p: float, t: int) -> int:
        if t >= self.cfg.horizon:
            raise ValueError("no decision at or after the horizon")
        thr = self.threshold_at(t, p)
        if r > thr:
            return 0
        return min(thr - r, self.cfg.x_max)


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
    h = cfg.shortage(np.arange(cfg.r_max + 1)).astype(float)
    return (1.0 + cfg.gamma_h * h[:, None] + rho_gamma[None, :]) * h[:, None] * cfg.p_ref


def solve(cfg: MdpConfig, beta: RiskSchedule, pm: PriceModelParams,
          grid: PriceGrid) -> MdpSolution:
    """Risk-averse backward induction over t = T-1..0."""
    T = cfg.horizon
    if beta.horizon != T:
        raise ValueError(f"risk schedule length {beta.horizon + 1} does not match horizon {T}")
    cfg.check_compensation_lipschitz(pm)

    n_r = cfg.r_max + 1
    n_p = len(grid)
    p_kwh = grid.points * MWH_PER_KWH
    r_levels = np.arange(n_r, dtype=float)

    values = np.empty((T + 1, n_r, n_p))
    post_values = np.empty((T, n_r, n_p))
    thresholds = np.empty((T, n_p), dtype=int)

    values[T] = terminal_values(cfg, beta[T], pm, grid)

    pad = np.full(cfg.x_max, np.inf)
    for t in range(T - 1, -1, -1):
        trans = transition_matrix(t, pm, grid)
        v_next = values[t + 1]  # (n_r, n_p)
        for ip in range(n_p):
            probs = trans[ip]
            keep = probs > 0
            post = mean_cvar_rows(v_next[:, keep], probs[keep], beta[t])  # (n_r,)
            post_values[t, :, ip] = post
            # smallest minimizer of r~ * p + post(r~) defines the threshold
            target = r_levels * p_kwh[ip] + post
            thresholds[t, ip] = int(np.argmin(target))
            # V_t(r, p) = min over x of x p - c_f + post(r + x); equivalently a
            # sliding-window min of `target` over reachable post-decision levels
            win = np.lib.stride_tricks.sliding_window_view(
                np.concatenate([target, pad]), cfg.x_max + 1)[:n_r]
            values[t, :, ip] = win.min(axis=1) - r_levels * p_kwh[ip] - cfg.c_f
        if not np.all(np.isfinite(values[t])):
            bad = np.argwhere(~np.isfinite(values[t]))[0]
            raise FloatingPointError(f"non-finite value at t={t}, r={bad[0]}, price index {bad[1]}")

    return MdpSolution(cfg, beta, grid, values, post_values, thresholds)


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
    """Max |V - RHS of the recursion| over all stored states; consistency gauge."""
    cfg = sol.cfg
    worst = 0.0
    p_kwh = sol.grid.points * MWH_PER_KWH
    for t in range(cfg.horizon):
        for ip in range(len(sol.grid)):
            post = sol.post_values[t, :, ip]
            for r in range(cfg.r_max + 1):
                hi = min(cfg.r_max, r + cfg.x_max)
                x = np.arange(0, hi - r + 1, dtype=float)
                rhs = np.min(x * p_kwh[ip] - cfg.c_f + post[r:hi + 1])
                worst = max(worst, abs(rhs - sol.values[t, r, ip]))
    return worst
