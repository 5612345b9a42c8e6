"""The benchmark's own reference computations.

Nothing here calls the solver, the simulator or the pipeline under test.  The
price model (``noise_dist``, ``next_price_dist``, ``seasonality``) is used only
as the definition of the problem's inputs.
"""

from __future__ import annotations

import numpy as np

from evcharge.price_model import next_price_dist, noise_dist

KWH = 1e-3  # $/MWh -> $/kWh


def softplus(y):
    return np.log1p(np.exp(-np.abs(y))) + np.maximum(y, 0.0)


class Kernels:
    """Grid transition matrices assembled row by row from ``next_price_dist``,
    cached by the seasonal phase t mod seas_period."""

    def __init__(self, pm, grid):
        self.pm, self.grid = pm, grid
        self._cache: dict[int, np.ndarray] = {}

    def __call__(self, t: int) -> np.ndarray:
        key = t % self.pm.seas_period
        if key not in self._cache:
            n = len(self.grid)
            mat = np.zeros((n, n))
            for i, p in enumerate(self.grid.points):
                d = next_price_dist(p, t, self.pm, self.grid)
                mat[i, self.grid.nearest_index(d.support)] = d.probs
            self._cache[key] = mat
        return self._cache[key]


def mean_cvar_ru(values: np.ndarray, probs: np.ndarray, lam: float, alpha: float) -> float:
    """(1 - lam) E[X] + lam CVaR_alpha(X), with CVaR as the Rockafellar-Uryasev
    minimum of u + E[(X - u)^+] / (1 - alpha), searched over every atom (the
    objective is piecewise linear with kinks only at atoms)."""
    mean = float(values @ probs)
    if lam == 0.0:
        return mean
    u = values[:, None]
    obj = values + (np.maximum(values[None, :] - u, 0.0) @ probs) / (1.0 - alpha)
    return (1.0 - lam) * mean + lam * float(obj.min())


def terminal_values(cfg, lam: float, alpha: float, pm, grid) -> np.ndarray:
    """V_T(r, p) = (1 + gamma_h h + rho[softplus(Y_{T+1})]) h p_ref, with the
    shortage h against the continuous-charging benchmark."""
    if cfg.gamma_y_kind != "softplus":
        raise ValueError("the reference terminal values assume softplus compensation")
    T = cfg.horizon
    psi = noise_dist(T, pm)
    y = (grid.points[:, None] * np.exp(-pm.kappa_Y) + psi.support[None, :]
         - pm.seasonality(T + 1)) * KWH
    g = softplus(y)
    rho = np.array([mean_cvar_ru(row, psi.probs, lam, alpha) for row in g])
    h = min(cfg.r0 + T * cfg.x_max, cfg.r_max) - np.arange(cfg.r_max + 1, dtype=float)
    return (1.0 + cfg.gamma_h * h[:, None] + rho[None, :]) * h[:, None] * cfg.p_ref


def bellman_min(post: np.ndarray, p_kwh: np.ndarray, cfg) -> np.ndarray:
    """min over feasible x of x p - c_f + post(r + x), by explicit enumeration.
    post has shape (r_max + 1, n_p)."""
    n_r = cfg.r_max + 1
    r = np.arange(n_r)[:, None]
    x = np.arange(cfg.x_max + 1)[None, :]
    feasible = r + x <= cfg.r_max
    nxt = np.where(feasible, r + x, 0)
    cand = x[:, :, None] * p_kwh[None, None, :] + post[nxt]        # (n_r, n_x, n_p)
    cand = np.where(feasible[:, :, None], cand, np.inf)
    return cand.min(axis=1) - cfg.c_f


def expected_value_dp(cfg, pm, grid, kernels: Kernels):
    """Risk-neutral backward induction with matrix products.  Returns the value
    tables (T+1, n_r, n_p) and post-decision tables (T, n_r, n_p)."""
    T = cfg.horizon
    p_kwh = grid.points * KWH
    values = np.empty((T + 1, cfg.r_max + 1, len(grid)))
    post = np.empty((T, cfg.r_max + 1, len(grid)))
    values[T] = terminal_values(cfg, 0.0, 0.5, pm, grid)
    for t in range(T - 1, -1, -1):
        post[t] = values[t + 1] @ kernels(t).T
        values[t] = bellman_min(post[t], p_kwh, cfg)
    return values, post


def structure_violations(values: np.ndarray, thresholds: np.ndarray, tol: float = 1e-9) -> list[str]:
    """Names of the structural properties the tables break: V convex in r,
    V nondecreasing in p, thresholds nonincreasing in p."""
    bad = []
    if np.diff(values, n=2, axis=1).min() < -tol:
        bad.append("value not convex in r")
    if np.diff(values, axis=2).min() < -tol:
        bad.append("value decreasing in p")
    if np.diff(thresholds, axis=1).max() > 0:
        bad.append("threshold increasing in p")
    return bad


# ---------------------------------------------------------------- Monte Carlo

def price_paths(pm, p0: float, n: int, steps: int, rng) -> np.ndarray:
    """P_0..P_steps for n paths from the continuous jump-diffusion recursion."""
    d = np.exp(-pm.kappa_Y)
    std = np.sqrt(pm.sigma_Y ** 2 * (1.0 - np.exp(-2.0 * pm.kappa_Y)) / (2.0 * pm.kappa_Y))
    xi = rng.normal(0.0, 1.0, (n, steps)) * std
    jumps = np.where(rng.random((n, steps)) < pm.jump_prob,
                     rng.normal(pm.mu_J, pm.sigma_J, (n, steps)), 0.0)
    y = np.empty((n, steps + 1))
    y[:, 0] = p0 - pm.seasonality(0)
    for t in range(steps):
        y[:, t + 1] = y[:, t] * d + pm.mu_Y * (1.0 - d) + xi[:, t] + jumps[:, t]
    return y + pm.seasonality(np.arange(steps + 1))[None, :]


def monte_carlo(policy: str, cfg, pm, tau_dist, p0: float, n: int, rng,
                grid=None, thresholds: dict | None = None, delta: float = 0.3) -> dict:
    """Per-path reward and risk outcomes of 'default', 'never' or 'threshold'
    (the basestock rule applied to thresholds[tau][t, nearest grid price]).

    The purchase made at t is priced at P_{t+1}, and compensation is paid on
    the shortage at tau using the deseasonalized price at tau + 1."""
    horizons = np.asarray(tau_dist.horizons)
    tau = horizons[rng.choice(len(horizons), size=n, p=tau_dist.probs)]
    steps = int(tau.max()) + 1
    prices = price_paths(pm, p0, n, steps, rng)
    rows = np.arange(n)
    if policy == "threshold":
        table = np.zeros((len(horizons), steps, len(grid)), dtype=int)
        for k, h in enumerate(horizons):
            table[k, :h] = thresholds[int(h)]
        tau_idx = np.searchsorted(horizons, tau)
    r = np.full(n, cfg.r0)
    cost = np.zeros(n)
    for t in range(steps - 1):
        room = np.minimum(cfg.x_max, cfg.r_max - r)
        if policy == "default":
            x = room
        elif policy == "never":
            x = np.zeros(n, dtype=int)
        else:
            ip = np.clip(np.rint((prices[:, t] - grid.points[0]) / grid.step).astype(int),
                         0, len(grid) - 1)
            thr = table[tau_idx, t, ip]
            x = np.where(r > thr, 0, np.minimum(thr - r, cfg.x_max))
        x = np.where(t < tau, np.clip(x, 0, room), 0)
        cost += x * prices[:, t + 1] * KWH
        r = r + x
    h = np.minimum(cfg.r0 + tau * cfg.x_max, cfg.r_max) - r
    y = (prices[rows, tau + 1] - pm.seasonality(tau + 1)) * KWH
    comp = np.where(h > 0, (1.0 + cfg.gamma_h * h + softplus(y)) * h * cfg.p_ref, 0.0)
    return {"reward": cfg.c_f * tau - cost - comp,
            "indicator": (r / cfg.r_max <= 1.0 - delta).astype(float),
            "compensation": comp}


def mean_se(x: np.ndarray) -> tuple[float, float]:
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(len(x)))


def cvar_se(x: np.ndarray, alpha: float) -> tuple[float, float]:
    """Empirical CVaR_alpha as the Rockafellar-Uryasev minimum at the empirical
    VaR, with its asymptotic standard error."""
    u = float(np.sort(x)[int(np.ceil(alpha * len(x))) - 1])
    z = u + np.maximum(x - u, 0.0) / (1.0 - alpha)
    return float(z.mean()), float(z.std(ddof=1) / np.sqrt(len(x)))


def within(a: float, a_se: float, b: float, b_se: float, k: float = 5.0) -> bool:
    return abs(a - b) <= k * np.hypot(a_se, b_se)
