from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcharge.mdp import (
    MdpConfig,
    _post_decision,
    bellman_residual,
    linear_capped,
    softplus,
    solve,
    solve_horizons,
    terminal_values,
    verify_structure,
)
from evcharge.policy_eval import ThresholdPolicyFamily
from evcharge.price_model import PriceGrid, transition_matrix
from evcharge.risk import RiskParams, RiskSchedule, mean_cvar_kernel, mean_cvar_rows

from conftest import DESK_PM, MICRO_PM, desk_cfg, micro_cfg
from oracles import (
    bellman_residual_loop,
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


def kernel_step(grid, t, rp):
    """(P_t, K_t, mask of the rows of P_t whose mass never passes alpha) on the
    desk price model, as the solver builds them."""
    trans = transition_matrix(t, DESK_PM, grid)
    cum = np.cumsum(trans, axis=1)
    return trans, mean_cvar_kernel(trans, cum, rp), (rp.lam > 0.0) & (cum[:, -1] <= rp.alpha)


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
        assert desk_cfg().gamma_y is softplus
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
    def test_no_shortage_is_free(self, micro_grid):
        cfg = micro_cfg()
        beta = RiskParams(0.8, 0.9)
        assert np.all(terminal_values(cfg, beta, MICRO_PM, micro_grid)[cfg.r_max] == 0.0)

    def test_known_value_without_market_term(self):
        # gamma_Y clipped to zero and gamma_h = 0: payment is h * p_ref exactly
        cfg = MdpConfig(r_max=60, x_max=60, c_f=0.5, p_ref=0.05, gamma_h=0.0,
                        horizon=16, r0=0, gamma_y_kind="linear-capped",
                        gamma_y_cap=0.0)
        v = terminal_values(cfg, RiskParams(0.5, 0.9), MICRO_PM,
                            PriceGrid(np.array([35.0])))[40, 0]
        assert v == pytest.approx(20 * 0.05, abs=1e-12)

    def test_risk_aversion_never_cheapens_compensation(self, micro_grid):
        cfg = micro_cfg()
        rn = terminal_values(cfg, RiskParams(0.0, 0.5), MICRO_PM, micro_grid)
        averse = terminal_values(cfg, RiskParams(1.0, 0.9), MICRO_PM, micro_grid)
        assert np.all(averse >= rn - 1e-12)

    def test_shape(self, micro_grid):
        cfg = micro_cfg()
        v = terminal_values(cfg, RiskParams(0.3, 0.7), MICRO_PM, micro_grid)
        assert v.shape == (cfg.r_max + 1, len(micro_grid))


class TestSolve:
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
        for t in range(cfg.horizon):
            want = [greedy_from_tables(sol, t, int(r_), int(i)) for r_, i in zip(r, ip)]
            got = family.actions(t, r, desk_grid.points[ip], tau)
            np.testing.assert_array_equal(got, want)

    def test_greedy_threshold_formula(self, desk_pm, desk_grid):
        cfg = desk_cfg(x_max=4, horizon=3)
        sol = solve(cfg, RiskSchedule.homogeneous(0.6, 0.8, 3), desk_pm, desk_grid)
        family = ThresholdPolicyFamily({3: sol})
        r = np.arange(cfg.r_max + 1)
        for ip in (0, 5, 20, 40):
            # off the grid point, still nearest to it
            p = np.full(len(r), desk_grid.points[ip] + 0.4 * desk_grid.step)
            thr = int(sol.thresholds[1, ip])
            want = [min(thr - r_, cfg.x_max) if r_ <= thr else 0 for r_ in r]
            np.testing.assert_array_equal(family.actions(1, r, p, np.full(len(r), 3)), want)

    def test_no_action_at_horizon(self, desk_pm, desk_grid):
        sols = {T: solve(desk_cfg(horizon=T), RiskSchedule.homogeneous(0.5, 0.9, T),
                         desk_pm, desk_grid) for T in (2, 3)}
        family = ThresholdPolicyFamily(sols)
        r = np.zeros(len(desk_grid), int)
        tau = np.full(len(r), 2)
        assert family.actions(1, r, desk_grid.points, tau).any()
        assert not family.actions(2, r, desk_grid.points, tau).any()

    def test_schedule_horizon_mismatch(self, desk_pm, desk_grid):
        with pytest.raises(ValueError):
            solve(desk_cfg(horizon=4), RiskSchedule.homogeneous(0.5, 0.9, 3),
                  desk_pm, desk_grid)

    def test_bellman_residual_tiny(self, desk_pm, desk_grid):
        cfg = desk_cfg(horizon=3)
        sol = solve(cfg, RiskSchedule.homogeneous(0.7, 0.85, 3), desk_pm, desk_grid)
        assert bellman_residual(sol, desk_pm) < 1e-10

    def test_bellman_residual_matches_loop(self, desk_pm, desk_grid):
        cfg = desk_cfg(x_max=4, horizon=3)
        sol = solve(cfg, RiskSchedule.homogeneous(0.4, 0.7, 3), desk_pm, desk_grid)
        sol.values[:-1] += np.random.default_rng(3).normal(0.0, 1e-3, sol.values[:-1].shape)
        assert bellman_residual(sol, desk_pm) == bellman_residual_loop(sol)

    def test_bellman_residual_sees_one_bumped_entry(self, desk_pm, desk_grid):
        cfg = desk_cfg(x_max=4, horizon=3)
        sol = solve(cfg, RiskSchedule.homogeneous(0.7, 0.85, 3), desk_pm, desk_grid)
        sol.values[1, 5, 10] += 1e-6
        assert bellman_residual(sol, desk_pm) == pytest.approx(1e-6, abs=1e-12)

    def test_values_nondecreasing_in_risk_aversion(self, desk_pm, desk_grid):
        cfg = desk_cfg(horizon=3)
        mild = solve(cfg, RiskSchedule.homogeneous(0.2, 0.5, 3), desk_pm, desk_grid)
        harsh = solve(cfg, RiskSchedule.homogeneous(0.9, 0.95, 3), desk_pm, desk_grid)
        assert np.all(harsh.values >= mild.values - 1e-9)


class TestSolveHorizons:
    @pytest.mark.parametrize("x_max", [12, 3], ids=["fast", "slow"])
    def test_sweep_matches_separate_solves(self, desk_pm, desk_grid, x_max):
        # horizon T steps with beta[0..T-1] and ends with beta[T]; stepping the
        # horizons together must not change a bit of any of them
        cfg = desk_cfg(x_max=x_max, horizon=4)
        beta = random_schedule(np.random.default_rng(31), 4)
        sols = solve_horizons(cfg, beta, desk_pm, desk_grid, {2, 3, 4})
        assert sorted(sols) == [2, 3, 4]
        for T, sol in sols.items():
            alone = solve(replace(cfg, horizon=T), RiskSchedule(beta.per_period[:T + 1]),
                          desk_pm, desk_grid)
            assert sol.cfg == alone.cfg
            np.testing.assert_array_equal(sol.values, alone.values)
            np.testing.assert_array_equal(sol.post_values, alone.post_values)
            np.testing.assert_array_equal(sol.thresholds, alone.thresholds)
            assert sol.fallback_rows == alone.fallback_rows
        # the slow regime's falling terminal rows exercise the sort-based fallback
        assert (sum(sol.fallback_rows for sol in sols.values()) > 0) == (x_max == 3)

    def test_schedule_must_cover_the_longest_horizon(self, desk_pm, desk_grid):
        beta = RiskSchedule.homogeneous(0.5, 0.9, 4)
        with pytest.raises(ValueError, match="risk schedule length"):
            solve_horizons(desk_cfg(), beta, desk_pm, desk_grid, [2, 3])


class TestStructure:
    @pytest.mark.parametrize("lam,alpha", [(0.0, 0.5), (1.0, 0.95), (0.5, 0.8)])
    def test_structure_passes(self, desk_pm, desk_grid, lam, alpha):
        cfg = desk_cfg(horizon=4)
        sol = solve(cfg, RiskSchedule.homogeneous(lam, alpha, 4), desk_pm, desk_grid)
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


class TestKernelStep:
    @given(
        shape=st.sampled_from(["monotone", "noisy", "step-down", "random"]),
        lam=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        alpha=st.floats(0.01, 0.99),
        t=st.integers(0, DESK_PM.seas_period - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_kernel_step_matches_sort_path(self, desk_grid, shape, lam, alpha, t, seed):
        rng = np.random.default_rng(seed)
        rp = RiskParams(lam, alpha)
        trans, kernel, short = kernel_step(desk_grid, t, rp)
        n_p = len(desk_grid)
        # nondecreasing rows with flat stretches, where noise makes tiny falls
        v_next = np.cumsum(rng.exponential(0.05, (6, n_p)) * (rng.random((6, n_p)) < 0.5), axis=1)
        if shape == "noisy":
            v_next += rng.uniform(-1e-13, 1e-13, v_next.shape)
        elif shape == "step-down":
            r, ip = rng.integers(0, 6), rng.integers(1, n_p)
            v_next[r, ip:] -= rng.choice([1e-13, 1e-12, 2e-12, 1e-3, 1.0])
        elif shape == "random":
            v_next = rng.normal(0.0, 1.0, (6, n_p))
        post, n_fallback = _post_decision(v_next, trans, kernel, short, rp)
        np.testing.assert_allclose(post, sort_path_post(v_next, trans, rp), rtol=0, atol=1e-12)
        # a row falls when it drops more than 1e-12 below its running maximum
        falls = any(max(row[:i + 1]) - row[i] > 1e-12
                    for row in v_next for i in range(len(row)))
        assert (n_fallback > 0) == falls

    def test_short_rows_take_the_sort_path(self, desk_grid):
        rp = RiskParams(0.6, 0.8)
        trans, kernel, _ = kernel_step(desk_grid, 0, rp)
        v_next = np.cumsum(np.random.default_rng(1).exponential(0.05, (6, len(desk_grid))), axis=1)
        short = np.zeros(len(desk_grid), dtype=bool)
        short[[3, 17]] = True
        post, n_fallback = _post_decision(v_next, trans, kernel, short, rp)
        want = sort_path_post(v_next, trans, rp)
        assert n_fallback == 2 * v_next.shape[0]
        np.testing.assert_allclose(post[:, short], want[:, short], rtol=0, atol=1e-14)

    def test_fallback_on_falling_terminal_rows(self, desk_pm, desk_grid):
        # r0 + T x_max < r_max, so charges above the benchmark carry a negative
        # shortage and a terminal value that falls with the price
        cfg = desk_cfg(x_max=3, horizon=2)
        beta = RiskSchedule.homogeneous(0.7, 0.9, cfg.horizon)
        sol = solve(cfg, beta, desk_pm, desk_grid)
        assert sol.fallback_rows > 0
        for t in range(cfg.horizon):
            want = sort_path_post(sol.values[t + 1], transition_matrix(t, desk_pm, desk_grid),
                                  beta[t])
            np.testing.assert_allclose(sol.post_values[t], want, rtol=0, atol=1e-12)
