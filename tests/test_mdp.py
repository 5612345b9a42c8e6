from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evcharge import mdp
from evcharge.config import preset
from evcharge.mdp import (
    MWH_PER_KWH,
    TIE_TOL,
    MdpConfig,
    TransitionBand,
    _post_decision,
    softplus,
    solve,
    solve_horizons,
    terminal_values,
    verify_structure,
)
from evcharge.policy_eval import PathBatch, ThresholdPolicyFamily, basestock, compensation
from evcharge.price_model import PriceGrid, build_grid, noise_dist, transition_matrix
from evcharge.risk import RiskParams, RiskSchedule, mean_cvar_rows

from conftest import DESK_PM, MICRO_PM, desk_cfg, micro_cfg
from oracles import (
    bellman_residual_loop,
    cvar_grid_search,
    dense_mean_cvar_kernel,
    enumerate_policies_value,
    greedy_from_tables,
    risk_neutral_dp,
)


def sort_path_post(v_next, trans, rp):
    """Post-decision table one price at a time through the sort-based kernel."""
    post = np.empty((v_next.shape[0], trans.shape[0]))
    for ip, probs in enumerate(trans):
        keep = probs > 0
        post[:, ip] = mean_cvar_rows(v_next[:, keep], probs[keep], rp)
    return post


def transition_band(grid, t):
    """(P_t, its band) on the desk price model, as the solver builds them."""
    trans = transition_matrix(t, DESK_PM, grid)
    return trans, TransitionBand.of(trans)


def terminal(cfg, rp, pm, grid):
    """terminal_values for a batch of one: its table and its fallback count."""
    values, n_fallback = terminal_values(cfg, [rp], pm, grid)
    return values[0], int(n_fallback[0])


def post_decision(v_next, band, rp, out):
    """_post_decision for a batch of one; its fallback count."""
    return int(_post_decision(v_next[None], band, band.kernel([rp]), [rp], out[None])[0])


def compensation_rates(cfg, pm, grid):
    """gamma_Y per (grid price, next-price outcome) at the end of horizon
    cfg.horizon, with the noise probabilities of that period."""
    T = cfg.horizon
    psi = noise_dist(T, pm)
    y_support = psi.support - pm.seasonality(T + 1)
    return cfg.gamma_y((grid.points[:, None] * pm.decay + y_support) * MWH_PER_KWH), psi.probs


def random_schedule(rng, horizon):
    per = tuple(RiskParams(float(rng.uniform(0, 1)), float(rng.uniform(0.05, 0.95)))
                for _ in range(horizon + 1))
    return RiskSchedule(per)


class TestConfig:
    def test_shortage_full_horizon(self):
        cfg = MdpConfig(r_max=60, x_max=60, c_f=0.5, p_ref=0.05, gamma_h=0.01,
                        horizon=16, r0=0)
        assert cfg.benchmark(cfg.horizon) - 40 == 20  # benchmark saturates at r_max

    def test_shortage_short_horizon(self):
        cfg = MdpConfig(r_max=60, x_max=10, c_f=0.5, p_ref=0.05, gamma_h=0.01,
                        horizon=2, r0=0)
        assert cfg.benchmark(cfg.horizon) - 5 == 15  # benchmark is 2 * 10 = 20
        np.testing.assert_array_equal(cfg.benchmark(np.array([1, 2, 6, 7])), [10, 20, 60, 60])
        # a charge at or above the benchmark is owed nothing
        np.testing.assert_array_equal(cfg.shortfall(2, np.array([5, 20, 30])), [15, 0, 0])

    def test_fast_regime_flag(self):
        assert desk_cfg(x_max=12).fast_regime
        assert not desk_cfg(x_max=3).fast_regime

    def test_validation(self):
        with pytest.raises(ValueError):
            MdpConfig(r_max=5, x_max=0, c_f=0.1, p_ref=0.05, gamma_h=0.0, horizon=2)
        with pytest.raises(ValueError):
            MdpConfig(r_max=5, x_max=5, c_f=0.1, p_ref=0.05, gamma_h=0.0,
                      horizon=2, r0=9)
        with pytest.raises(ValueError):
            MdpConfig(r_max=5, x_max=5, c_f=0.1, p_ref=0.05, gamma_h=0.0,
                      horizon=2, gamma_y_kind="quadratic")
        with pytest.raises(ValueError, match="p_ref"):
            MdpConfig(r_max=5, x_max=5, c_f=0.1, p_ref=-0.05, gamma_h=0.0, horizon=2)
        with pytest.raises(ValueError, match="r_max"):
            MdpConfig(r_max=0, x_max=5, c_f=0.1, p_ref=0.05, gamma_h=0.0, horizon=2)

    def test_gamma_y_kinds(self):
        y = np.linspace(-3.0, 3.0, 13)
        np.testing.assert_array_equal(desk_cfg().gamma_y(y), softplus(y))
        capped = MdpConfig(r_max=5, x_max=5, c_f=0.1, p_ref=0.05, gamma_h=0.0,
                           horizon=2, gamma_y_kind="linear-capped", gamma_y_cap=0.5)
        g = capped.gamma_y
        assert g(-1.0) == 0.0
        assert g(0.2) == pytest.approx(0.2)
        assert g(3.0) == 0.5

    def test_lipschitz_guard(self):
        # the softplus slope bound 1 is far below exp(2 kappa)/p_ref, so the
        # guard never fires at sane parameters
        desk_cfg().check_compensation_lipschitz(DESK_PM)
        # exp(2 kappa) overflows a float here; the log-space comparison does not
        desk_cfg().check_compensation_lipschitz(replace(DESK_PM, kappa_Y=400.0))
        with pytest.raises(ValueError, match="admissible bound"):
            replace(desk_cfg(), p_ref=10.0).check_compensation_lipschitz(DESK_PM)


class TestTerminal:
    def test_no_shortage_is_free(self, micro_grid, desk_grid):
        # every charge at or above the benchmark pays 0, also where the benchmark
        # stays below r_max (desk x_max = 3 at T = 2 reaches 6 of 12 kWh)
        beta = RiskParams(0.8, 0.9)
        for cfg, pm, grid in ((micro_cfg(), MICRO_PM, micro_grid),
                              (desk_cfg(x_max=3, horizon=2), DESK_PM, desk_grid)):
            bench = cfg.benchmark(cfg.horizon)
            assert np.all(terminal(cfg, beta, pm, grid)[0][bench:] == 0.0)
        assert bench == 6

    def test_known_value_without_market_term(self):
        # gamma_Y clipped to zero and gamma_h = 0: payment is h * p_ref exactly
        cfg = MdpConfig(r_max=60, x_max=60, c_f=0.5, p_ref=0.05, gamma_h=0.0,
                        horizon=16, r0=0, gamma_y_kind="linear-capped",
                        gamma_y_cap=0.0)
        v = terminal(cfg, RiskParams(0.5, 0.9), MICRO_PM,
                     PriceGrid(np.array([35.0])))[0][40, 0]
        assert v == pytest.approx(20 * 0.05, abs=1e-12)

    def test_risk_aversion_never_cheapens_compensation(self, micro_grid):
        cfg = micro_cfg()
        rn, _ = terminal(cfg, RiskParams(0.0, 0.5), MICRO_PM, micro_grid)
        averse, _ = terminal(cfg, RiskParams(1.0, 0.9), MICRO_PM, micro_grid)
        assert np.all(averse >= rn - 1e-12)

    @pytest.mark.parametrize("x_max", [3, 12], ids=["slow", "fast"])
    def test_matches_the_simulated_compensation(self, desk_pm, desk_grid, x_max):
        # at lambda = 0 the terminal value is the compensation the simulator charges,
        # weighted by the noise: a path that ends at charge r with next price
        # p e^-kappa + psi_k, for every r and every 4th grid price p
        cfg = desk_cfg(x_max=x_max, horizon=2)
        T, psi = cfg.horizon, noise_dist(cfg.horizon, desk_pm)
        values, _ = terminal(cfg, RiskParams(0.0, 0.5), desk_pm, desk_grid)
        r, p, k = (a.ravel() for a in np.meshgrid(
            np.arange(cfg.r_max + 1), desk_grid.points[::4], np.arange(len(psi.support)),
            indexing="ij"))
        prices = np.zeros((len(r), T + 2))
        prices[:, T + 1] = p * desk_pm.decay + psi.support[k]
        charges = np.repeat(r[:, None], T + 1, axis=1)
        # compensation reads no energy cost
        paid = compensation(PathBatch(np.full(len(r), T), prices, charges, None), cfg, desk_pm)
        expected = (paid * psi.probs[k]).reshape(cfg.r_max + 1, -1, len(psi.support)).sum(axis=2)
        np.testing.assert_allclose(values[:, ::4], expected, rtol=0, atol=1e-12)

    def test_shape(self, micro_grid):
        cfg = micro_cfg()
        v, n_fallback = terminal(cfg, RiskParams(0.3, 0.7), MICRO_PM, micro_grid)
        assert v.shape == (cfg.r_max + 1, len(micro_grid))
        assert n_fallback == 0

    @pytest.mark.parametrize("name", ["desk_scale", "full_scale"])
    @pytest.mark.parametrize("kind", [{}, dict(gamma_y_kind="linear-capped", gamma_y_cap=0.05)],
                             ids=["softplus", "capped"])
    def test_linear_kernel_matches_sort_path_and_oracle(self, monkeypatch, name, kind):
        # every terminal row of both presets ascends, so the linear kernel scores
        # them all; it agrees with the sort path, and with the grid-search
        # oracle at every 8th price (the oracle is slow)
        cfg = preset(name)
        grid = cfg.build_grid()
        monkeypatch.setattr(mdp, "mean_cvar_rows", None)  # the linear path only
        for T in cfg.tau.horizons:
            cfg_T = replace(cfg.mdp, horizon=T, **kind)
            gamma, probs = compensation_rates(cfg_T, cfg.pm, grid)
            h = (cfg_T.benchmark(T) - np.arange(cfg_T.r_max + 1)).astype(float)[:, None]
            for alpha in (0.05, 0.9, 0.995):
                cvar = np.array([cvar_grid_search(row, probs, alpha) for row in gamma[::8]])
                for lam in (0.0, 0.3, 1.0):
                    rp = RiskParams(lam, alpha)
                    got, n_fallback = terminal(cfg_T, rp, cfg.pm, grid)
                    assert n_fallback == 0
                    sort_path = cfg_T.compensation(h, mean_cvar_rows(gamma, probs, rp))
                    np.testing.assert_allclose(got, sort_path, rtol=0, atol=1e-12)
                    oracle = (1.0 - lam) * (gamma[::8] @ probs) + lam * cvar
                    np.testing.assert_allclose(got[:, ::8], cfg_T.compensation(h, oracle),
                                               rtol=0, atol=1e-12)

    def test_falling_rates_take_the_sort_path(self, monkeypatch):
        # compensation falling with the next price breaks the linear kernel's
        # premise, so every row is scored by mean_cvar_rows, and solve counts
        # every terminal entry among its fallbacks
        monkeypatch.setattr(mdp, "softplus", lambda y: np.logaddexp(0.0, -y))
        grid = build_grid(DESK_PM, span=20)  # its own grid: it holds the falling rates
        cfg = desk_cfg(horizon=3)
        gamma, probs = compensation_rates(cfg, DESK_PM, grid)
        assert np.all(np.diff(gamma, axis=1) < 0.0)
        h = (cfg.benchmark(3) - np.arange(cfg.r_max + 1)).astype(float)[:, None]
        for rp in (RiskParams(0.0, 0.5), RiskParams(0.3, 0.9), RiskParams(1.0, 0.995)):
            want = cfg.compensation(h, mean_cvar_rows(gamma, probs, rp))
            got, n_fallback = terminal(cfg, rp, DESK_PM, grid)
            assert got.tobytes() == want.tobytes()
            assert n_fallback == got.size
            sol = solve(cfg, RiskSchedule.homogeneous(rp.lam, rp.alpha, 3), DESK_PM, grid)
            # plus the post-decision rows that fall below their running maximum
            post = sum(int((np.maximum.accumulate(v, axis=1) - v > mdp.GRID_ORDER_TOL)
                           .any(axis=1).sum()) for v in sol.values[1:])
            assert sol.fallback_rows == got.size + post * len(grid)


class TestSolve:
    def test_non_finite_value_raises(self, monkeypatch):
        # infinite compensation rates make the terminal table non-finite, and the
        # check beside terminal_values names it, t = T (a fresh grid, as the rates
        # are held)
        cfg = preset("desk_scale")
        monkeypatch.setattr(mdp, "softplus", lambda y: np.full_like(y, np.inf))
        beta = RiskSchedule.homogeneous(0.5, 0.9, cfg.mdp.horizon)
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError) as exc:
            solve(cfg.mdp, beta, cfg.pm, cfg.build_grid())
        assert str(exc.value) == "non-finite value at T=4, t=4, r=0, price index 0"

    def test_risk_neutral_matches_plain_dp(self, desk_pm, desk_grid):
        cfg = desk_cfg(horizon=4)
        beta = RiskSchedule.homogeneous(0.0, 0.5, cfg.horizon)
        sol = solve(cfg, beta, desk_pm, desk_grid)
        oracle = risk_neutral_dp(cfg, desk_pm, desk_grid)
        np.testing.assert_allclose(sol.values, oracle, atol=1e-10)

    def test_micro_brute_force(self, micro_pm, micro_grid):
        cfg = micro_cfg()
        rng = np.random.default_rng(17)
        for _ in range(10):
            beta = random_schedule(rng, cfg.horizon)
            sol = solve(cfg, beta, micro_pm, micro_grid)
            for r0 in (0, 2):
                for ip0 in (0, 2, 4):
                    brute = enumerate_policies_value(cfg, beta, micro_pm,
                                                     micro_grid, r0, ip0)
                    assert sol.values[0, r0, ip0] == pytest.approx(brute, abs=1e-12)

    def test_greedy_matches_table_argmin(self, desk_pm, desk_grid):
        cfg = desk_cfg(x_max=3, horizon=5)
        rng = np.random.default_rng(23)
        beta = random_schedule(rng, cfg.horizon)
        sol = solve(cfg, beta, desk_pm, desk_grid)
        family = ThresholdPolicyFamily({cfg.horizon: sol})
        r, ip = (a.ravel() for a in np.meshgrid(np.arange(cfg.r_max + 1),
                                                np.arange(0, len(desk_grid), 7), indexing="ij"))
        tau = np.full(len(r), cfg.horizon)
        prices = np.repeat(desk_grid.points[ip][:, None], cfg.horizon, axis=1)
        level = family.levels(tau, prices)
        for t in range(cfg.horizon):
            want = [greedy_from_tables(sol, t, int(r_), int(i)) for r_, i in zip(r, ip)]
            np.testing.assert_array_equal(basestock(level[t], r, cfg) - r, want)

    def test_greedy_threshold_formula(self, desk_pm, desk_grid):
        cfg = desk_cfg(x_max=4, horizon=3)
        sol = solve(cfg, RiskSchedule.homogeneous(0.6, 0.8, 3), desk_pm, desk_grid)
        family = ThresholdPolicyFamily({3: sol})
        r = np.arange(cfg.r_max + 1)
        for ip in (0, 5, 20, 40):
            # off the grid point, still nearest to it
            p = np.full((len(r), 3), desk_grid.points[ip] + 0.4 * desk_grid.step)
            thr = int(sol.thresholds[1, ip])
            want = [min(thr - r_, cfg.x_max) if r_ <= thr else 0 for r_ in r]
            level = family.levels(np.full(len(r), 3), p)[1]
            np.testing.assert_array_equal(basestock(level, r, cfg) - r, want)

    def test_no_action_at_horizon(self, desk_pm, desk_grid):
        sols = {T: solve(desk_cfg(horizon=T), RiskSchedule.homogeneous(0.5, 0.9, T),
                         desk_pm, desk_grid) for T in (2, 3)}
        family = ThresholdPolicyFamily(sols)
        r = np.zeros(len(desk_grid), int)
        level = family.levels(np.full(len(r), 2), np.repeat(desk_grid.points[:, None], 3, axis=1))
        cfg = sols[2].cfg
        assert (basestock(level[1], r, cfg) > r).any()
        assert not (basestock(level[2], r, cfg) > r).any()

    def test_schedule_horizon_mismatch(self, desk_pm, desk_grid):
        with pytest.raises(ValueError):
            solve(desk_cfg(horizon=4), RiskSchedule.homogeneous(0.5, 0.9, 3),
                  desk_pm, desk_grid)

    @pytest.mark.parametrize("x_max", [12, 4], ids=["fast", "slow"])
    def test_bellman_residual_tiny(self, desk_pm, desk_grid, x_max):
        cfg = desk_cfg(x_max=x_max, horizon=3)
        sol = solve(cfg, RiskSchedule.homogeneous(0.7, 0.85, 3), desk_pm, desk_grid)
        assert bellman_residual_loop(sol) < 1e-10

    def test_bellman_residual_sees_one_bumped_entry(self, desk_pm, desk_grid):
        cfg = desk_cfg(x_max=4, horizon=3)
        sol = solve(cfg, RiskSchedule.homogeneous(0.7, 0.85, 3), desk_pm, desk_grid)
        sol.values[1, 5, 10] += 1e-6
        assert bellman_residual_loop(sol) == pytest.approx(1e-6, abs=1e-12)

    @pytest.mark.parametrize("x_max", [12, 3], ids=["fast", "slow"])
    def test_threshold_is_the_smallest_tied_level(self, x_max):
        # desk preset, T = 2, beta = (1, 0.98): at t = 0, p = 40 the target
        # r~ p + post(r~) is flat within 5e-17 over r~ = 0..4, so the threshold
        # would be decided by rounding without the tie tolerance
        cfg = preset("desk_scale")
        grid = cfg.build_grid()
        sol = solve(replace(cfg.mdp, x_max=x_max, horizon=2),
                    RiskSchedule.homogeneous(1.0, 0.98, 2), cfg.pm, grid)
        target = (np.arange(cfg.mdp.r_max + 1)[None, :, None] * grid.points * MWH_PER_KWH
                  + sol.post_values)
        lowest = target.min(axis=1, keepdims=True)
        tied = target <= lowest + TIE_TOL
        np.testing.assert_array_equal(sol.thresholds, np.argmax(tied, axis=1))
        if x_max == 12:
            ip = int(grid.nearest_index(40.0))
            assert np.ptp(target[0, :5, ip]) < 5e-17
            assert sol.thresholds[0, ip] == 0

    def test_values_nondecreasing_in_risk_aversion(self, desk_pm, desk_grid):
        cfg = desk_cfg(horizon=3)
        mild = solve(cfg, RiskSchedule.homogeneous(0.2, 0.5, 3), desk_pm, desk_grid)
        harsh = solve(cfg, RiskSchedule.homogeneous(0.9, 0.95, 3), desk_pm, desk_grid)
        assert np.all(harsh.values >= mild.values - 1e-9)


class TestSolveHorizons:
    @pytest.mark.parametrize("x_max", [12, 3, 20], ids=["fast", "slow", "wide"])
    def test_sweep_matches_separate_solves(self, monkeypatch, desk_pm, desk_grid, x_max):
        # horizon T steps with beta[0..T-1] and ends with beta[T]; stepping the
        # horizons together must not change a bit of any of them
        cfg = desk_cfg(x_max=x_max, horizon=4)
        beta = random_schedule(np.random.default_rng(31), 4)

        def fallback_rows(grid):
            (sols,) = solve_horizons(cfg, [beta], desk_pm, grid, {2, 3, 4})
            assert sorted(sols) == [2, 3, 4]
            for T, sol in sols.items():
                alone = solve(replace(cfg, horizon=T), RiskSchedule(beta.per_period[:T + 1]),
                              desk_pm, grid)
                assert sol.cfg == alone.cfg
                np.testing.assert_array_equal(sol.values, alone.values)
                np.testing.assert_array_equal(sol.post_values, alone.post_values)
                np.testing.assert_array_equal(sol.thresholds, alone.thresholds)
                assert sol.fallback_rows == alone.fallback_rows
            return [sol.fallback_rows for sol in sols.values()]

        # V rises with the price in either regime, so no entry takes the fallback
        assert fallback_rows(desk_grid) == [0, 0, 0]
        # a compensation rate that falls with the next price makes falling terminal
        # rows, which exercise the sort-based fallback (a fresh grid holds those rates)
        if x_max == 3:
            monkeypatch.setattr(mdp, "softplus", lambda y: np.logaddexp(0.0, -y))
            assert all(n > 0 for n in fallback_rows(build_grid(desk_pm, span=20)))

    @pytest.mark.parametrize("x_max", [1, 3, 11, 12, 20])
    def test_bellman_min_exact_on_both_sides_of_the_regime(self, desk_pm, desk_grid, x_max):
        # one window minimum of width x_max + 1 serves both regimes: width 2,
        # r_max - 1 (the window misses one level), r_max, and windows past r_max
        cfg = desk_cfg(x_max=x_max, horizon=4)
        sol = solve(cfg, random_schedule(np.random.default_rng(7), 4), desk_pm, desk_grid)
        assert cfg.fast_regime == (x_max >= cfg.r_max)
        assert bellman_residual_loop(sol) <= 1e-12

    def test_schedule_must_cover_the_longest_horizon(self, desk_pm, desk_grid):
        beta = RiskSchedule.homogeneous(0.5, 0.9, 4)
        with pytest.raises(ValueError, match="risk schedule length"):
            solve_horizons(desk_cfg(), [beta], desk_pm, desk_grid, [2, 3])



def effective_betas(sample_grid):
    """The distinct effective (lam, alpha) of sample_grid, lam = 0 as (0, 0.5)."""
    return list(dict.fromkeys((lam, alpha) if lam > 0 else (0.0, 0.5)
                              for lam, alpha in sample_grid))


def assert_batch_matches_solo(cfg, betas, pm, grid, horizons):
    """Each schedule of one batched sweep equals its own sweep, bit for bit."""
    batch = solve_horizons(cfg, betas, pm, grid, horizons)
    assert len(batch) == len(betas)
    for beta, sols in zip(betas, batch):
        (alone,) = solve_horizons(cfg, [beta], pm, grid, horizons)
        assert sorted(sols) == sorted(alone)
        for T, sol in sols.items():
            assert sol.cfg == alone[T].cfg
            assert sol.values.tobytes() == alone[T].values.tobytes()
            assert sol.post_values.tobytes() == alone[T].post_values.tobytes()
            assert sol.thresholds.tobytes() == alone[T].thresholds.tobytes()
            assert sol.fallback_rows == alone[T].fallback_rows
    return batch


class TestBatch:
    def test_desk_samples_match_solo_sweeps(self):
        # the 110 sampled betas of the full-scale beta search on the desk model:
        # 101 effective ones, all in one sweep
        cfg = preset("desk_scale")
        pairs = effective_betas(preset("full_scale").sample_grid())
        assert len(pairs) == 101
        horizon = max(cfg.tau.horizons)
        betas = [RiskSchedule.homogeneous(lam, alpha, horizon) for lam, alpha in pairs]
        assert mdp.batches(betas, cfg.mdp, cfg.build_grid(), cfg.tau.horizons) == [betas]
        batch = assert_batch_matches_solo(cfg.mdp, betas, cfg.pm, cfg.build_grid(),
                                          cfg.tau.horizons)
        assert all(sol.fallback_rows == 0 for sols in batch for sol in sols.values())

    def test_full_scale_batch_matches_solo_sweeps(self):
        # lam = 0, an interior beta and lam = 1, then a non-homogeneous schedule
        # beside a homogeneous one
        cfg = preset("full_scale")
        grid = cfg.build_grid()
        horizon = max(cfg.tau.horizons)
        homogeneous = [RiskSchedule.homogeneous(lam, alpha, horizon)
                       for lam, alpha in ((0.0, 0.5), (0.6, 0.8), (1.0, 0.95))]
        assert_batch_matches_solo(cfg.mdp, homogeneous, cfg.pm, grid, cfg.tau.horizons)
        mixed = [random_schedule(np.random.default_rng(5), horizon), homogeneous[1]]
        assert_batch_matches_solo(cfg.mdp, mixed, cfg.pm, grid, cfg.tau.horizons)

    def test_fallback_counted_per_member(self, monkeypatch, desk_pm, desk_grid):
        # only the lam = 0.7 member's terminal rates fall (softplus patched as in
        # test_fallback_on_falling_terminal_rows, on a grid of its own): that
        # member takes the sort-based fallback and the others do not, batched as alone
        falling_grid = build_grid(desk_pm, span=20)
        real = mdp.terminal_values

        def one_falling(cfg, rps, pm, grid):
            values, counts = real(cfg, rps, pm, grid)
            with monkeypatch.context() as m:
                m.setattr(mdp, "softplus", lambda y: np.logaddexp(0.0, -y))
                fell, fell_counts = real(cfg, rps, pm, falling_grid)
            pick = np.array([rp.lam == 0.7 for rp in rps])
            values[pick], counts[pick] = fell[pick], fell_counts[pick]
            return values, counts

        monkeypatch.setattr(mdp, "terminal_values", one_falling)
        cfg = desk_cfg(x_max=3, horizon=3)
        betas = [RiskSchedule.homogeneous(lam, alpha, 3)
                 for lam, alpha in ((0.0, 0.5), (0.7, 0.9), (1.0, 0.3))]
        betas.append(random_schedule(np.random.default_rng(3), 3))
        batch = assert_batch_matches_solo(cfg, betas, desk_pm, desk_grid, [2, 3])
        counts = [[sols[T].fallback_rows for T in (2, 3)] for sols in batch]
        assert counts[1][0] > (cfg.r_max + 1) * len(desk_grid)  # terminal and post rows
        assert counts[0] == counts[2] == counts[3] == [0, 0]

    def test_post_decision_falls_back_only_for_flagged_members(self, desk_grid):
        # one member's row falls; the others take the linear kernel alone
        trans, band = transition_band(desk_grid, 0)
        rng = np.random.default_rng(11)
        n_p = len(desk_grid)
        v_next = np.cumsum(rng.exponential(0.05, (3, 6, n_p)), axis=2)
        v_next[1, 4, n_p // 2:] -= 1.0
        rps = [RiskParams(0.3, 0.6), RiskParams(0.9, 0.95), RiskParams(0.0, 0.5)]
        post = np.empty(v_next.shape)
        counts = _post_decision(v_next, band, band.kernel(rps), rps, post)
        assert counts.tolist() == [0, n_p, 0]
        for b, rp in enumerate(rps):
            alone = np.empty((6, n_p))
            assert post_decision(v_next[b], band, rp, alone) == counts[b]
            assert post[b].tobytes() == alone.tobytes()
        np.testing.assert_allclose(post[1], sort_path_post(v_next[1], trans, rps[1]),
                                   rtol=0, atol=1e-12)

    def test_post_decision_clears_a_flagged_member_that_does_not_fall(self, desk_grid):
        # the dip screen flags a sawtooth row of member 0 and falling rows of
        # members 1 and 2; the exact test clears the sawtooth, so member 0 keeps
        # its linear-kernel step and counts 0, and the others fall back per row
        trans, band = transition_band(desk_grid, 0)
        rng = np.random.default_rng(5)
        n_p = len(desk_grid)
        v_next = np.cumsum(rng.exponential(0.05, (3, 6, n_p)), axis=2)
        v_next[0, 2] = 1.0 - 9e-13 * (np.arange(n_p) % 2)
        v_next[1, [1, 4], n_p // 2:] -= 1.0
        v_next[2, 3, n_p // 3:] -= 2.0
        assert -np.minimum(np.diff(v_next[0, 2]), 0.0).sum() > mdp.GRID_ORDER_TOL
        rps = [RiskParams(0.3, 0.6), RiskParams(0.9, 0.95), RiskParams(0.6, 0.2)]
        post = np.empty(v_next.shape)
        counts = _post_decision(v_next, band, band.kernel(rps), rps, post)
        assert counts.tolist() == [0, 2 * n_p, n_p]
        for b, rp in enumerate(rps):
            alone = np.empty((6, n_p))
            assert post_decision(v_next[b], band, rp, alone) == counts[b]
            assert post[b].tobytes() == alone.tobytes()
            np.testing.assert_allclose(post[b], sort_path_post(v_next[b], trans, rp),
                                       rtol=0, atol=1e-12)

    def test_members_share_no_memory(self, desk_pm, desk_grid):
        # every table of a batch is its own run of the sweep's one block
        cfg = desk_cfg(horizon=4)
        betas = [RiskSchedule.homogeneous(lam, 0.8, 4) for lam in (0.2, 0.5, 0.9)]
        batch = solve_horizons(cfg, betas, desk_pm, desk_grid, [2, 4])
        tables = [table for sols in batch for sol in sols.values()
                  for table in (sol.values, sol.post_values, sol.thresholds)]
        for i, a in enumerate(tables):
            assert a.flags.c_contiguous
            for b in tables[i + 1:]:
                assert not np.shares_memory(a, b)
        # one block holds them all: keeping one solution keeps the block alive
        assert len({id(sol.values.base) for sols in batch for sol in sols.values()}) == 1
        before = [table.tobytes() for table in tables]
        tables[0][...] = np.nan
        assert all(table.tobytes() == old for table, old in zip(tables[1:], before[1:]))

    def test_batch_cap(self):
        # a full-scale family (34.8 MB of tables) goes alone; the desk model's
        # 101 effective sampled betas (0.09 MB each) go together
        for name, per_sweep in (("full_scale", 1), ("desk_scale", 101)):
            cfg = preset(name)
            runs = mdp.batches(list(range(101)), cfg.mdp, cfg.build_grid(), cfg.tau.horizons)
            assert [len(run) for run in runs] == [per_sweep] * (101 // per_sweep)
            assert sum(runs, []) == list(range(101))

def assert_window_min(table, width):
    n, m = table.shape
    work = np.full((2, 2 * n, m), np.inf)
    work[0, :n] = table
    got = mdp._window_min(work, width)()
    padded = np.concatenate([table, np.full((width - 1, m), np.inf)])
    want = np.lib.stride_tricks.sliding_window_view(padded, width, axis=0).min(axis=2)
    assert np.array_equal(got, want, equal_nan=True)
    if width >= n:
        suffix = np.minimum.accumulate(table[::-1], axis=0)[::-1]
        assert np.array_equal(got, suffix, equal_nan=True)
    assert np.all(work[:, n:] == np.inf)  # the next step's padding is intact


# entries that tie, are infinite or NaN, and ordinary floats
TIES = [-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf, np.nan]
WINDOW_ENTRIES = st.one_of(st.sampled_from(TIES), st.floats(allow_nan=True, allow_infinity=True))


@given(data=st.data(), n=st.integers(1, 70), m=st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_window_min_is_the_exact_window_minimum(data, n, m):
    width = data.draw(st.integers(2, n + 2), label="width")
    table = data.draw(st.lists(WINDOW_ENTRIES, min_size=n * m, max_size=n * m), label="table")
    assert_window_min(np.array(table).reshape(n, m), width)


def test_window_min_at_every_width():
    # every width 2..n + 2 (x_max = 1 up to past r_max) for every n up to 70
    rng = np.random.default_rng(0)
    for n in range(1, 71):
        table = rng.choice(TIES + list(rng.normal(size=3)), size=(n, 3))
        for width in range(2, n + 3):
            assert_window_min(table, width)


def assert_price_steps(table, edge):
    # one subtraction over the raveled table gives np.diff along each row bit for
    # bit, the sign of a zero step included; the last column holds `edge`, not the
    # step from one row to the next
    with np.errstate(invalid="ignore"):  # inf - inf, as np.diff gives it
        got, want = mdp._price_steps(table, edge), np.diff(table, axis=1)
    assert got.shape == table.shape and np.all(got[:, -1] == edge)
    assert np.array_equal(got[:, :-1], want, equal_nan=True)
    assert np.all((np.signbit(got[:, :-1]) == np.signbit(want)) | np.isnan(want))


@given(data=st.data(), n=st.integers(1, 6), m=st.integers(1, 9),
       edge=st.sampled_from([0.0, np.inf]))
@settings(max_examples=300, deadline=None)
def test_price_steps_are_the_row_differences(data, n, m, edge):
    table = np.array(data.draw(st.lists(WINDOW_ENTRIES, min_size=n * m, max_size=n * m),
                               label="table")).reshape(n, m)
    assert_price_steps(table, edge)
    assert_price_steps(table.T, edge)  # not contiguous: reshape copies


def test_price_steps_between_every_pair_of_ties():
    table = np.array([[a, b, b] for a in TIES for b in TIES])
    for edge in (0.0, np.inf):
        assert_price_steps(table, edge)


class TestStructure:
    @pytest.mark.parametrize("lam,alpha", [(0.0, 0.5), (1.0, 0.95), (0.5, 0.8)])
    def test_structure_passes(self, desk_pm, desk_grid, lam, alpha):
        cfg = desk_cfg(horizon=4)
        sol = solve(cfg, RiskSchedule.homogeneous(lam, alpha, 4), desk_pm, desk_grid)
        report = verify_structure(sol)
        assert report.all_passed, str(report)
        assert sol.fallback_rows == 0

    @pytest.mark.parametrize("x_max", [3, 10])
    def test_slow_full_scale_family_passes(self, x_max):
        # below r_max per period the benchmark stays under r_max at short horizons
        # (x_max = 3 up to T = 19, x_max = 10 up to T = 5); no charge above it is
        # paid a bonus, so V rises with the price and no entry takes the fallback
        cfg = preset("full_scale")
        mcfg = replace(cfg.mdp, x_max=x_max)
        assert mcfg.benchmark(min(cfg.tau.horizons)) < mcfg.r_max
        (sols,) = solve_horizons(mcfg, [RiskSchedule.homogeneous(0.7, 0.9, max(cfg.tau.horizons))],
                                 cfg.pm, cfg.build_grid(), cfg.tau.horizons)
        for sol in sols.values():
            report = verify_structure(sol)
            assert report.all_passed, str(report)
            assert sol.fallback_rows == 0

    def test_negative_control_detects_corruption(self, desk_pm, desk_grid):
        cfg = desk_cfg(horizon=3)
        sol = solve(cfg, RiskSchedule.homogeneous(0.5, 0.9, 3), desk_pm, desk_grid)
        sol.values[1, 6, 10] += 5.0  # break convexity in r at a known spot
        report = verify_structure(sol)
        assert not report.all_passed
        convex = next(c for c in report.checks if c.name == "value_convex_in_resource")
        assert not convex.passed
        assert convex.location is not None
        t, r, ip = convex.location
        assert t == 1 and ip == 10 and abs(r - 6) <= 1

    def test_tied_violations_report_the_first_in_c_order(self, desk_pm, desk_grid):
        cfg = desk_cfg(horizon=3)
        sol = solve(cfg, RiskSchedule.homogeneous(0.5, 0.9, 3), desk_pm, desk_grid)
        # two periods with exactly linear tables, each bumped by the same amount, so
        # the worst convexity violation (8.0) appears in both; the later period's
        # bump sits at a smaller r, so C order, not the in-period index, decides
        r, ip = np.arange(cfg.r_max + 1), np.arange(len(desk_grid))
        sol.values[1:3] = 2.0 * r[:, None] + ip[None, :]
        sol.values[1, 8, 10] += 4.0
        sol.values[2, 4, 10] += 4.0
        convex = verify_structure(sol).checks[0]
        stack = np.diff(sol.values, n=2, axis=1)
        assert convex.worst_violation == 8.0
        assert convex.location == tuple(np.unravel_index(np.argmin(stack), stack.shape))
        assert convex.location == (1, 7, 10)  # second differences are centered at r - 1

    def test_negative_control_price_monotonicity_location(self, desk_pm, desk_grid):
        cfg = desk_cfg(horizon=3)
        sol = solve(cfg, RiskSchedule.homogeneous(0.5, 0.9, 3), desk_pm, desk_grid)
        sol.values[2, 5, 20] -= 5.0  # V(r=5, .) now falls from price index 19 to 20
        inc = next(c for c in verify_structure(sol).checks
                   if c.name == "value_increasing_in_price")
        assert not inc.passed
        assert inc.location == (2, 5, 19)
        assert inc.worst_violation > 4.9


@pytest.fixture(scope="module")
def wide_grid():
    return build_grid(DESK_PM, span=150)  # 301 points: room for 300 price steps


class TestKernelStep:
    @given(
        shape=st.sampled_from(["monotone", "noisy", "step-down", "random",
                               "sawtooth", "staircase", "single-step", "nan-tail"]),
        lam=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        alpha=st.floats(0.01, 0.99),
        t=st.integers(0, DESK_PM.seas_period - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    # one deterministic row each, below and above the running-maximum line:
    # dips summing past GRID_ORDER_TOL that recover at every step (no fallback),
    # 300 dips of 5e-15 that never recover, and one 2e-12 step down (fallback);
    # a NaN after that step hides it from the dip sum but not from the exact test
    @example(shape="sawtooth", lam=0.5, alpha=0.9, t=0, seed=0)
    @example(shape="staircase", lam=0.5, alpha=0.9, t=0, seed=0)
    @example(shape="single-step", lam=0.5, alpha=0.9, t=0, seed=0)
    @example(shape="nan-tail", lam=0.5, alpha=0.9, t=0, seed=0)
    @settings(max_examples=150, deadline=None)
    def test_kernel_step_matches_sort_path(self, desk_grid, wide_grid, shape, lam, alpha, t,
                                           seed):
        rng = np.random.default_rng(seed)
        rp = RiskParams(lam, alpha)
        grid = wide_grid if shape == "staircase" else desk_grid
        trans, band = transition_band(grid, t)
        n_p = len(grid)
        # nondecreasing rows with flat stretches, where noise makes tiny falls
        v_next = np.cumsum(rng.exponential(0.05, (6, n_p)) * (rng.random((6, n_p)) < 0.5), axis=1)
        if shape == "noisy":
            v_next += rng.uniform(-1e-13, 1e-13, v_next.shape)
        elif shape == "step-down":
            r, ip = rng.integers(0, 6), rng.integers(1, n_p)
            v_next[r, ip:] -= rng.choice([1e-13, 1e-12, 2e-12, 1e-3, 1.0])
        elif shape == "random":
            v_next = rng.normal(0.0, 1.0, (6, n_p))
        elif shape == "sawtooth":
            v_next[2] = 1.0 - 9e-13 * (np.arange(n_p) % 2)
        elif shape == "staircase":
            v_next[2] = 1.0 - 5e-15 * np.arange(n_p)
        elif shape in ("single-step", "nan-tail"):
            v_next[2] = 1.0 - 2e-12 * (np.arange(n_p) >= n_p // 2)
            if shape == "nan-tail":
                v_next[2, -1] = np.nan
        post = np.empty((6, n_p))
        n_fallback = post_decision(v_next, band, rp, post)
        np.testing.assert_allclose(post, sort_path_post(v_next, trans, rp), rtol=0, atol=1e-12)
        # a row falls when it drops more than 1e-12 below its running maximum
        falls = sum(any(top - v > 1e-12 for top, v in zip(accumulate(row, max), row))
                    for row in v_next)
        assert n_fallback == falls * n_p
        if shape in ("sawtooth", "staircase", "single-step"):
            dips = -np.minimum(np.diff(v_next[2]), 0.0).sum()
            assert dips > mdp.GRID_ORDER_TOL
            assert falls == (shape != "sawtooth")
        if shape == "nan-tail":
            assert falls == 1

    def test_fallback_on_falling_terminal_rows(self, monkeypatch, desk_pm):
        # a compensation rate that falls with the next price gives every short
        # charge a terminal value that falls with the price (a fresh grid holds
        # those rates); the sort-based fallback scores the steps from it exactly
        monkeypatch.setattr(mdp, "softplus", lambda y: np.logaddexp(0.0, -y))
        grid = build_grid(desk_pm, span=20)
        cfg = desk_cfg(x_max=3, horizon=2)
        beta = RiskSchedule.homogeneous(0.7, 0.9, cfg.horizon)
        sol = solve(cfg, beta, desk_pm, grid)
        assert sol.fallback_rows > 0
        for t in range(cfg.horizon):
            want = sort_path_post(sol.values[t + 1], transition_matrix(t, desk_pm, grid),
                                  beta[t])
            np.testing.assert_allclose(sol.post_values[t], want, rtol=0, atol=1e-12)


def scatter(band, blocks):
    """The n x n matrix holding each of `blocks`, laid out as band's, transposed
    back at its rows i0:i1 and columns j0:j1, and 0 elsewhere."""
    n = band.spans[-1][1]
    dense = np.zeros((n, n))
    for (i0, i1, j0, j1), block in zip(band.spans, blocks):
        dense[i0:i1, j0:j1] = block.T
    return dense


def preset_transitions():
    """(preset name, phase, P_t) for every phase of both presets."""
    for name in ("desk_scale", "full_scale"):
        cfg = preset(name)
        grid = cfg.build_grid()
        for phase in range(cfg.pm.seas_period):
            yield name, phase, transition_matrix(phase, cfg.pm, grid)


def banded_stochastic(rng, n, width):
    """A random row-stochastic n x n matrix whose row i is nonzero only within
    `width` columns of i, as a mean-reverting price model's rows are."""
    trans = rng.random((n, n)) * (np.abs(np.subtract.outer(np.arange(n), np.arange(n))) < width)
    return trans / trans.sum(axis=1, keepdims=True)


class TestTransitionBand:
    @given(
        lam=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        alpha=st.sampled_from([1e-9, 1e-3, 1.0 - 1e-3, 1.0 - 1e-9]) | st.floats(0.01, 0.99),
        short_mass=st.floats(0.0, 1.0),
        n=st.integers(1, 80),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_band_kernel_equals_the_dense_formula(self, lam, alpha, short_mass, n, seed):
        # random sparse row-stochastic matrices; the rows drawn short carry a
        # total mass below alpha, as a row of P_t that loses mass would.  The
        # blocks, scattered back, are that formula over the whole matrix
        rng = np.random.default_rng(seed)
        trans = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
        trans[np.arange(n), rng.integers(0, n, n)] += rng.random(n) + 1e-3  # no empty row
        trans /= trans.sum(axis=1, keepdims=True)
        short = rng.random(n) < 0.3
        trans[short] *= short_mass * alpha
        band = TransitionBand.of(trans)
        want = dense_mean_cvar_kernel(trans, np.cumsum(trans, axis=1), lam, alpha)
        (kernel,) = zip(*band.kernel([RiskParams(lam, alpha)]))
        assert scatter(band, kernel).tobytes() == want.tobytes()
        assert scatter(band, band.blocks(band.probs)).tobytes() == trans.tobytes()

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_preset_kernels_equal_the_dense_formula(self, lam):
        rp = RiskParams(lam, 0.9)
        for name, phase, trans in preset_transitions():
            band = TransitionBand.of(trans)
            want = dense_mean_cvar_kernel(trans, np.cumsum(trans, axis=1), lam, rp.alpha)
            (kernel,) = zip(*band.kernel([rp]))
            assert scatter(band, kernel).tobytes() == want.tobytes(), (name, phase)

    def test_blocks_cover_the_matrix(self):
        for name, phase, trans in preset_transitions():
            band = TransitionBand.of(trans)
            assert [s[:2] for s in band.spans] == [
                (i0, min(i0 + mdp.BLOCK_ROWS, len(trans)))
                for i0 in range(0, len(trans), mdp.BLOCK_ROWS)]
            # reassembled they are P_t, so no nonzero lies outside a block
            assert scatter(band, band.blocks(band.probs)).tobytes() == trans.tobytes()
            cum = np.cumsum(trans, axis=1)
            for (i0, i1, j0, j1), block in zip(band.spans, band.blocks(band.cum)):
                assert block.T.tobytes() == cum[i0:i1, j0:j1].tobytes(), (name, phase)
            # a window is exactly the columns its rows reach
            for i0, i1, j0, j1 in band.spans:
                reach = np.flatnonzero(trans[i0:i1].any(axis=0))
                assert (j0, j1) == (reach[0], reach[-1] + 1), (name, phase)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_post_decision_equals_the_dense_product(self, lam):
        rp = RiskParams(lam, 0.8)
        rng = np.random.default_rng(7)
        # both presets; a dense matrix, whose one window spans every column; and
        # banded matrices whose size is not a multiple of BLOCK_ROWS
        cases = [(f"{name}:{phase}", trans) for name, phase, trans in preset_transitions()]
        dense = rng.random((70, 70))
        dense /= dense.sum(axis=1, keepdims=True)
        assert {s[2:] for s in TransitionBand.of(dense).spans} == {(0, 70)}
        cases.append(("dense", dense))
        cases += [(f"banded:{n}", banded_stochastic(rng, n, 9)) for n in (33, 77, 100)]
        for label, trans in cases:
            n = len(trans)
            v = np.cumsum(rng.exponential(1.0 / n, (13, n)), axis=1)  # nondecreasing in price
            band = TransitionBand.of(trans)
            post = np.full((13, n), np.nan)
            assert post_decision(v, band, rp, post) == 0
            want = v @ dense_mean_cvar_kernel(trans, np.cumsum(trans, axis=1), lam, rp.alpha).T
            np.testing.assert_allclose(post, want, rtol=0, atol=1e-13, err_msg=label)
