"""Independent reference implementations used to cross-check the solver.

Everything here is deliberately written from the definitions (grid searches,
plain expectations, explicit policy enumeration) and shares no code paths with
the implementations under test beyond the price model inputs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from evcharge.mdp import MWH_PER_KWH, MdpConfig
from evcharge.price_model import TRIM, PriceGrid, PriceModelParams, next_price_dist, noise_dist
from evcharge.risk import RiskParams, RiskSchedule


def noise_dist_fold_and_trim(t: int, params: PriceModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(support, probs) of the one-step noise at period t: each integer k gets
    the mixture mass of (k - 1/2, k + 1/2] over a window reaching 1 + 8 std past
    each component's mean, the mass beyond the window is folded half onto each
    end bin, atoms below TRIM are dropped (all but the largest, if none is
    kept) and the rest renormalized.  Each normal CDF is erfc(-x / sqrt(2)) / 2,
    one math.erfc call per edge."""
    drift = params.noise_drift(t)
    std0 = math.sqrt(params.diffusion_var)
    std1 = math.sqrt(params.diffusion_var + params.sigma_J ** 2)
    parts = [(w, mean, std) for w, mean, std in ((1.0 - params.jump_prob, drift, std0),
                                                  (params.jump_prob, drift + params.mu_J, std1))
             if w > 0]
    span = 1.0 + 8.0 * max(std for _, _, std in parts)
    lo = math.floor(drift + min(0.0, params.mu_J) - span)
    hi = math.ceil(drift + max(0.0, params.mu_J) + span)
    support = np.arange(lo, hi + 1, dtype=float)
    edges = np.append(support - 0.5, support[-1] + 0.5)
    probs = np.zeros(len(support))
    for w, mean, std in parts:
        if std > 0.0:
            cdf = np.array([0.5 * math.erfc((mean - e) / std * math.sqrt(0.5)) for e in edges])
            probs += w * np.diff(cdf)
        else:  # a point mass in the bin (k - 1/2, k + 1/2] that holds the mean
            probs += w * ((edges[:-1] < mean) & (mean <= edges[1:]))
    probs[0] += max(0.0, 1.0 - probs.sum()) / 2.0
    probs[-1] += max(0.0, 1.0 - probs.sum())
    keep = probs >= TRIM
    if not keep.any():
        keep[np.argmax(probs)] = True
    return support[keep], probs[keep] / probs[keep].sum()


def cvar_grid_search(values: np.ndarray, probs: np.ndarray, alpha: float) -> float:
    """Rockafellar-Uryasev infimum by direct search over u.

    The objective u + E[(X-u)^+]/(1-alpha) is piecewise linear with kinks only
    at support points, so evaluating at the support points is exact; a dense
    linspace is added as a belt-and-braces check.
    """
    candidates = np.concatenate([values, np.linspace(values.min(), values.max(), 2001)])
    excess = np.maximum(values[None, :] - candidates[:, None], 0.0) @ probs
    return float((candidates + excess / (1.0 - alpha)).min())


def mean_cvar_grid_search(values: np.ndarray, probs: np.ndarray, rp: RiskParams) -> float:
    """(1 - lam) E[X] + lam CVaR_alpha[X], the CVaR by :func:`cvar_grid_search`."""
    mean = float(values @ probs)
    if rp.lam == 0.0:
        return mean
    return (1.0 - rp.lam) * mean + rp.lam * cvar_grid_search(values, probs, rp.alpha)


def argsort_mean_cvar(values: np.ndarray, probs: np.ndarray, rp: RiskParams) -> np.ndarray:
    """Row-wise (1 - lam) E + lam CVaR_alpha of values (n_rows, n_outcomes) by
    sorting each row and splitting the atom at the alpha-quantile: the upper
    tail's value-probability sum plus the quantile atom's share above alpha."""
    mean = values @ probs
    if rp.lam == 0.0:
        return mean
    order = np.argsort(values, axis=1, kind="stable")
    v = np.take_along_axis(values, order, axis=1)
    w = probs[order]
    cum = np.cumsum(w, axis=1)
    rows = np.arange(values.shape[0])
    j = np.argmax(cum > rp.alpha, axis=1)
    # argmax returns 0 when no entry exceeds alpha (rounding at cum[-1]); take the
    # last atom then
    j = np.where(cum[rows, -1] > rp.alpha, j, values.shape[1] - 1)
    vw_cum = np.cumsum(v * w, axis=1)
    upper = vw_cum[:, -1] - vw_cum[rows, j]
    cvar = (upper + v[rows, j] * (cum[rows, j] - rp.alpha)) / (1.0 - rp.alpha)
    return (1.0 - rp.lam) * mean + rp.lam * cvar


def bootstrap_cvar(outcomes: np.ndarray, alpha: float, seed: int) -> tuple[float, float]:
    """Sample CVaR_alpha of outcomes and its bootstrap standard error over 100
    resamples drawn from SeedSequence((seed, 0xB007)), each resample sorted and
    scored on its own by argsort_mean_cvar."""
    n = len(outcomes)
    probs = np.full(n, 1.0 / n)
    rp = RiskParams(1.0, alpha)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB007)))
    reps = [argsort_mean_cvar(outcomes[None, rng.integers(0, n, n)], probs, rp)[0]
            for _ in range(100)]
    return float(argsort_mean_cvar(outcomes[None, :], probs, rp)[0]), float(np.std(reps, ddof=1))


def dense_mean_cvar_kernel(trans: np.ndarray, cum: np.ndarray, lam: float,
                           alpha: float) -> np.ndarray:
    """The solver's linear mean-CVaR kernel over the whole dense matrix:
    (1 - lam) p + lam clip(c - alpha, 0, p) / (1 - alpha) per entry, where c is
    the row's cumulative sum.  The band-built kernel must equal it bit for bit."""
    return (1.0 - lam) * trans + lam * (np.clip(cum - alpha, 0.0, trans) / (1.0 - alpha))


def terminal_table(cfg: MdpConfig, rp: RiskParams, pm: PriceModelParams,
                   grid: PriceGrid) -> np.ndarray:
    """Terminal values (r_max+1, n_p): the compensation paid one period after
    the return, its market term weighted by the mean-CVaR of the next price."""
    T = cfg.horizon
    decay = np.exp(-pm.kappa_Y)
    psi = noise_dist(T, pm)
    y_dev = psi.support - pm.seasonality(T + 1)
    bench = min(cfg.r0 + T * cfg.x_max, cfg.r_max)
    term = np.zeros((cfg.r_max + 1, len(grid)))
    for ip, p in enumerate(grid.points):
        y = (p * decay + y_dev) * MWH_PER_KWH
        rho_gamma = mean_cvar_grid_search(cfg.gamma_y(y), psi.probs, rp)
        for r in range(cfg.r_max + 1):
            h = max(bench - r, 0)  # no compensation at or above the benchmark
            term[r, ip] = (1.0 + cfg.gamma_h * h + rho_gamma) * h * cfg.p_ref
    return term


def risk_neutral_dp(cfg: MdpConfig, pm: PriceModelParams, grid: PriceGrid) -> np.ndarray:
    """Plain expected-cost backward induction, coded from scratch with loops."""
    T = cfg.horizon
    n_r, n_p = cfg.r_max + 1, len(grid)
    p_kwh = grid.points * MWH_PER_KWH

    # terminal: expected compensation one period after return
    V = np.zeros((T + 1, n_r, n_p))
    V[T] = terminal_table(cfg, RiskParams(0.0, 0.5), pm, grid)

    for t in range(T - 1, -1, -1):
        dists = [next_price_dist(p, t, pm, grid) for p in grid.points]
        for ip, p in enumerate(grid.points):
            dist = dists[ip]
            nxt = [int(np.argmin(np.abs(grid.points - q))) for q in dist.support]
            for r in range(n_r):
                best = np.inf
                for x in range(0, min(cfg.r_max - r, cfg.x_max) + 1):
                    cont = sum(w * V[t + 1, r + x, jp] for w, jp in zip(dist.probs, nxt))
                    best = min(best, x * p_kwh[ip] - cfg.c_f + cont)
                V[t, r, ip] = best
    return V


def enumerate_policies_value(cfg: MdpConfig, beta: RiskSchedule, pm: PriceModelParams,
                             grid: PriceGrid, r0: int, ip0: int) -> float:
    """Exact nested-risk optimum for a horizon-2 instance by enumerating every
    deterministic policy on the reachable tree from (r0, grid[ip0])."""
    assert cfg.horizon == 2
    term = terminal_table(cfg, beta[2], pm, grid)  # (n_r, n_p)
    p_kwh = grid.points * MWH_PER_KWH
    p0 = grid.points[ip0]

    dist0 = next_price_dist(p0, 0, pm, grid)
    out0 = [int(np.argmin(np.abs(grid.points - q))) for q in dist0.support]

    best = np.inf
    for x0 in range(0, min(cfg.r_max - r0, cfg.x_max) + 1):
        r1 = r0 + x0
        acts1 = list(range(0, min(cfg.r_max - r1, cfg.x_max) + 1))
        # value of each candidate (outcome state, action) pair at t=1
        w1 = np.empty((len(out0), len(acts1)))
        for j, ip1 in enumerate(out0):
            dist1 = next_price_dist(grid.points[ip1], 1, pm, grid)
            out1 = np.array([int(np.argmin(np.abs(grid.points - q))) for q in dist1.support])
            for a, x1 in enumerate(acts1):
                tail = mean_cvar_grid_search(term[r1 + x1, out1], dist1.probs, beta[1])
                w1[j, a] = x1 * p_kwh[ip1] - cfg.c_f + tail
        for choice in itertools.product(range(len(acts1)), repeat=len(out0)):
            stage1 = np.array([w1[j, a] for j, a in enumerate(choice)])
            v0 = x0 * p_kwh[ip0] - cfg.c_f + mean_cvar_grid_search(stage1, dist0.probs,
                                                                   beta[0])
            best = min(best, v0)
    return best


def greedy_from_tables(sol, t: int, r: int, ip: int) -> int:
    """Action reconstruction straight from the stored post-decision table."""
    cfg = sol.cfg
    p_kwh = sol.grid.points[ip] * MWH_PER_KWH
    post = sol.post_values[t, :, ip]
    xs = range(0, min(cfg.r_max - r, cfg.x_max) + 1)
    costs = [x * p_kwh - cfg.c_f + post[r + x] for x in xs]
    return int(np.argmin(costs))


def bellman_residual_loop(sol) -> float:
    """Max |V - min over x of (x p - c_f + post(r + x))|, one state at a time."""
    cfg = sol.cfg
    p_kwh = sol.grid.points * MWH_PER_KWH
    worst = 0.0
    for t in range(cfg.horizon):
        for ip in range(len(sol.grid)):
            post = sol.post_values[t, :, ip]
            for r in range(cfg.r_max + 1):
                hi = min(cfg.r_max, r + cfg.x_max)
                x = np.arange(0, hi - r + 1, dtype=float)
                rhs = np.min(x * p_kwh[ip] - cfg.c_f + post[r:hi + 1])
                worst = max(worst, abs(rhs - sol.values[t, r, ip]))
    return worst


def sample_paths_column_by_column(p0: float, params: PriceModelParams, normal, jump_u,
                                  jump_normal) -> np.ndarray:
    """Reference for price_model.sample_paths: the same recursion on a
    path-major (n_paths, K+1) array, one column per period, with the same
    operations in the same order, so it agrees bit for bit."""
    d = params.decay
    shocks = (np.sqrt(params.diffusion_var) * normal + params.mu_Y * (1.0 - d)
              + np.where(jump_u < params.jump_prob,
                         params.mu_J + params.sigma_J * jump_normal, 0.0))
    y = np.empty((normal.shape[0], normal.shape[1] + 1))
    y[:, 0] = p0 - params.seasonality(0)
    for t in range(normal.shape[1]):
        y[:, t + 1] = y[:, t] * d + shocks[:, t]
    prices = y + params.seasonality(np.arange(normal.shape[1] + 1))
    prices[:, 0] = p0
    return prices


def simulate_path_by_path(policy: str, cfg: MdpConfig, pm: PriceModelParams, p0: float,
                          tau, normal, jump_u, jump_normal, solutions=None):
    """Reference for policy_eval.simulate: walks one path at a time through its
    row of the drawn arrays with scalar arithmetic.

    policy is 'default', 'never' or 'threshold' (the basestock rule on
    solutions[tau].thresholds at the nearest grid price).  Returns per-path
    lists of prices P_0..P_{tau+1}, charges R_0..R_tau and actions.
    """
    decay = np.exp(-pm.kappa_Y)
    std = pm.sigma_Y * np.sqrt((1.0 - np.exp(-2.0 * pm.kappa_Y)) / (2.0 * pm.kappa_Y))
    out = []
    for i, T in enumerate(int(v) for v in tau):
        y = p0 - pm.seasonality(0)
        prices = [p0]
        for t in range(T + 1):
            jump = pm.mu_J + pm.sigma_J * jump_normal[i, t] if jump_u[i, t] < pm.jump_prob else 0.0
            y = y * decay + pm.mu_Y * (1.0 - decay) + std * normal[i, t] + jump
            prices.append(y + pm.seasonality(t + 1))
        r = cfg.r0
        charges, actions = [r], []
        for t in range(T):
            room = min(cfg.x_max, cfg.r_max - r)
            if policy == "default":
                x = room
            elif policy == "never":
                x = 0
            else:
                sol = solutions[T]
                points = sol.grid.points
                ip = min(max(round((prices[t] - points[0]) / sol.grid.step), 0), len(points) - 1)
                x = min(max(int(sol.thresholds[t, ip]) - r, 0), room)
            r += x
            actions.append(x)
            charges.append(r)
        out.append((prices, charges, actions))
    return out


def largest_rise(surface, n: int = 200) -> float:
    """Largest rise of a fitted (lam, alpha) surface between neighbouring
    points of an n x n grid over [0, 1] x [0.005, 0.995], along either axis.
    It reads the surface's values only, not the coefficients behind them."""
    z = surface(*np.meshgrid(np.linspace(0.0, 1.0, n), np.linspace(0.005, 0.995, n),
                             indexing="ij"))
    return float(max(np.diff(z, axis=0).max(), np.diff(z, axis=1).max()))


def bernstein_sum(coef: np.ndarray, lam: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """sum_ij coef[i, j] C(d, i) lam^i (1 - lam)^(d - i) C(d, j) alpha^j (1 - alpha)^(d - j),
    term by term from the definition."""
    d = coef.shape[0] - 1
    out = np.zeros(np.broadcast_shapes(np.shape(lam), np.shape(alpha)))
    for i, j in itertools.product(range(d + 1), repeat=2):
        out += (coef[i, j] * math.comb(d, i) * lam ** i * (1 - lam) ** (d - i)
                * math.comb(d, j) * alpha ** j * (1 - alpha) ** (d - j))
    return out


def l1_fit_inequality_form(data, target: str, degree: int) -> float:
    """Least l1 error of a tensor Bernstein surface of `degree` through the
    `target` ("reward" or "risk") observations of ((lam, alpha), metrics)
    samples, from the LP min sum(e) s.t. -e <= phi coef - y <= e: two
    inequality rows per sample.
    The risk adds one row per neighbouring pair, coef[i+1, j] <= coef[i, j]
    and coef[i, j+1] <= coef[i, j].  The basis columns are built term by term
    from the definition; y is the observations less their median, as the
    basis sums to 1."""
    from scipy.optimize import linprog
    lam, alpha = np.array([beta for beta, _ in data]).T
    obs = np.array([getattr(m, target) for _, m in data])
    d = degree
    phi = np.column_stack([math.comb(d, i) * lam ** i * (1 - lam) ** (d - i)
                           * math.comb(d, j) * alpha ** j * (1 - alpha) ** (d - j)
                           for i, j in itertools.product(range(d + 1), repeat=2)])
    y = obs - np.median(obs)
    n, k = phi.shape
    rows = [np.hstack([phi, -np.eye(n)]), np.hstack([-phi, -np.eye(n)])]
    if target == "risk":
        for i, j in itertools.product(range(d + 1), repeat=2):
            for i1, j1 in ((i + 1, j), (i, j + 1)):
                if i1 <= d and j1 <= d:
                    row = np.zeros((1, k + n))
                    row[0, i1 * (d + 1) + j1], row[0, i * (d + 1) + j] = 1.0, -1.0
                    rows.append(row)
    A_ub = np.vstack(rows)
    b_ub = np.concatenate([y, -y, np.zeros(len(A_ub) - 2 * n)])
    res = linprog(np.concatenate([np.zeros(k), np.ones(n)]), A_ub=A_ub, b_ub=b_ub,
                  bounds=[(None, None)] * k + [(0, None)] * n, method="highs-ipm")
    assert res.success, res.message
    return float(np.abs(phi @ res.x[:k] - y).sum())


def score_alone(scenario, policy, cfg: MdpConfig, risk_kind: str,
                delta: float = 0.3) -> tuple[float, float, float, float]:
    """Reference for Scenario.score with risk_agg="mean": (reward, reward SE,
    risk, risk SE) of one policy alone, its charges stepped one time-major row
    per period and its purchases priced afterwards, np.diff of the charges
    times P_1..P_K summed over the periods of the (paths, periods) view."""
    tau, prices = scenario.tau, scenario.prices
    n, steps = len(tau), int(tau.max())
    level = np.broadcast_to(policy.levels(tau, prices[:, :steps]), (steps, n))
    block = np.empty((prices.shape[1] - 1, n), dtype=int)
    block[0] = cfg.r0
    for t in range(steps):
        r = block[t]
        block[t + 1] = np.minimum(np.maximum(level[t], r), np.minimum(r + cfg.x_max, cfg.r_max))
    block[steps + 1:] = block[steps]
    charges, final = block.T, block[-1]
    energy = (np.diff(charges, axis=1) * prices[:, 1:-1]).sum(axis=1) * MWH_PER_KWH
    y = (prices[np.arange(n), tau + 1]
         - scenario.pm.seasonality(np.arange(prices.shape[1]))[tau + 1]) * MWH_PER_KWH
    short = np.maximum(np.minimum(cfg.r0 + tau * cfg.x_max, cfg.r_max) - final, 0)
    comp = (1.0 + cfg.gamma_h * short + cfg.gamma_y(y)) * short * cfg.p_ref
    risk = {"indicator": (final / cfg.r_max <= 1.0 - delta).astype(float),
            "compensation": comp, "shortage": short.astype(float)}[risk_kind]
    out = []
    for x in (cfg.c_f * tau - energy - comp, risk):
        out += [float(x.mean()), float(x.std(ddof=1) / np.sqrt(n))]
    return tuple(out)
