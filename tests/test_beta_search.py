from dataclasses import replace

import numpy as np
import pytest

from evcharge import beta_search, mdp
from evcharge.beta_search import (
    BetaSample,
    MonotoneFit,
    default_constraint_grid,
    fit,
    pipeline,
    select_beta,
    verify_monotone,
)
from evcharge.config import preset
from evcharge.mdp import solve
from evcharge.policy_eval import TauDist
from evcharge.risk import RiskSchedule


def make_samples(func, n=100, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        lam = float(rng.uniform(0, 1))
        alpha = float(rng.uniform(0.01, 0.99))
        v = func(lam, alpha) + (rng.uniform(-noise, noise) if noise else 0.0)
        out.append(BetaSample(lam, alpha, reward=v, reward_se=0.0,
                              risk=v, risk_se=0.0))
    return out


def plane(lam, alpha):
    return 1.0 - 0.5 * lam - 0.3 * alpha


class TestFit:
    def test_exact_recovery_of_plane(self):
        data = make_samples(plane, n=60)
        f = fit(data, "reward", degree=3)
        assert f.l1_error <= 1e-8 * len(data)
        for lam, alpha in [(0.0, 0.0), (1.0, 1.0), (0.3, 0.7)]:
            assert float(f(lam, alpha)) == pytest.approx(plane(lam, alpha), abs=1e-8)

    def test_evaluate_example(self):
        f = fit(make_samples(plane, n=40), "risk", degree=1)
        assert float(f(0.5, 0.5)) == pytest.approx(0.60, abs=1e-8)

    def test_degree_zero_is_l1_constant(self):
        data = [BetaSample(0.1, 0.1, 1.0, 0, 1.0, 0),
                BetaSample(0.5, 0.5, 2.0, 0, 2.0, 0),
                BetaSample(0.9, 0.9, 10.0, 0, 10.0, 0)]
        f = fit(data, "reward", degree=0)
        # l1 best constant is the median
        assert float(f(0.3, 0.3)) == pytest.approx(2.0, abs=1e-8)

    def test_risk_fit_monotone_against_increasing_data(self):
        # data increase in both variables; the constrained fit must refuse to
        # follow and stay nonincreasing, paying l1 error for it
        def rising(lam, alpha):
            return 0.2 + 0.5 * lam + 0.3 * alpha

        data = make_samples(rising, n=80, seed=1)
        constrained = fit(data, "risk", degree=3)
        assert verify_monotone(constrained)
        unconstrained = fit(data, "reward", degree=3)
        assert constrained.l1_error >= unconstrained.l1_error
        assert constrained.l1_error > 1.0  # genuinely binding

    def test_monotone_on_noisy_decreasing_surface(self):
        def falling(lam, alpha):
            return 0.9 - 0.4 * lam - 0.3 * alpha - 0.1 * lam * alpha

        data = make_samples(falling, n=100, seed=2, noise=0.01)
        f = fit(data, "risk", degree=3)
        assert verify_monotone(f)
        assert f.l1_error / len(data) <= 0.015

    def test_validation(self):
        data = make_samples(plane, n=10)
        with pytest.raises(ValueError):
            fit(data, "speed", degree=2)
        with pytest.raises(ValueError):
            fit(data, "reward", degree=-1)


class TestVerifyMonotone:
    def test_detects_increase(self):
        powers = np.array([(0, 0), (1, 0), (0, 1)])
        rising = MonotoneFit(np.array([0.0, 1.0, 0.0]), powers, 1, 0.0)
        assert not verify_monotone(rising)
        falling = MonotoneFit(np.array([1.0, -1.0, -0.5]), powers, 1, 0.0)
        assert verify_monotone(falling)


def const_fit(value):
    return MonotoneFit(np.array([value]), np.array([(0, 0)]), 0, 0.0)


def linear_fit(c0, c_lam, c_alpha):
    return MonotoneFit(np.array([c0, c_lam, c_alpha]),
                       np.array([(0, 0), (1, 0), (0, 1)]), 1, 0.0)


class TestSelectBeta:
    def test_reward_in_lambda_riskless(self):
        (sel,) = select_beta(linear_fit(0.0, 1.0, 0.0), const_fit(0.0), [0.1])
        assert sel.feasible
        assert (sel.lam, sel.alpha) == (1.0, 0.005)

    def test_constant_reward_lexicographic_tie_break(self):
        (sel,) = select_beta(const_fit(3.0), const_fit(0.0), [0.1])
        assert (sel.lam, sel.alpha) == (0.0, 0.005)

    def test_large_epsilon_is_unconstrained_argmax(self):
        reward = linear_fit(0.0, 2.0, 1.0)
        risk = linear_fit(0.9, -0.5, -0.2)
        (sel,) = select_beta(reward, risk, [10.0])
        assert sel.feasible
        assert (sel.lam, sel.alpha) == (1.0, 0.995)

    def test_binding_constraint(self):
        # reward prefers small lam, risk demands large lam
        reward = linear_fit(1.0, -1.0, 0.0)
        risk = linear_fit(0.8, -0.8, 0.0)
        (sel,) = select_beta(reward, risk, [0.2])
        assert sel.feasible
        assert sel.lam == pytest.approx(0.75, abs=0.01)
        assert sel.fitted_risk <= 0.2 + 1e-12

    def test_infeasible_falls_back_to_risk_min(self):
        (sel,) = select_beta(const_fit(1.0), const_fit(0.5), [0.1])
        assert not sel.feasible
        assert sel.fitted_risk == pytest.approx(0.5)

    def test_all_epsilons_at_once_equal_one_at_a_time(self):
        def falling(lam, alpha):
            return 0.9 - 0.4 * lam - 0.3 * alpha - 0.1 * lam * alpha

        data = make_samples(falling, n=60, seed=3, noise=0.02)
        reward, risk = fit(data, "reward", degree=3), fit(data, "risk", degree=3)
        epsilons = [-1.0, 0.1, 0.25, 0.4, 0.6, 0.85, 2.0]
        together = select_beta(reward, risk, epsilons)
        assert together == tuple(select_beta(reward, risk, [e])[0] for e in epsilons)
        assert [s.feasible for s in together] == [False] + [True] * 6
        assert len({(s.lam, s.alpha) for s in together}) > 2


def test_default_constraint_grid_shape():
    g = default_constraint_grid(10)
    assert g.shape == (100, 2)
    assert g[:, 0].min() == 0.0 and g[:, 0].max() == 1.0
    assert g[:, 1].min() == pytest.approx(0.005)


@pytest.mark.parametrize("sample_grid", [
    [(0.0, 0.2), (0.0, 0.8), (1.0, 0.2), (1.0, 0.8)],
    [(0.5, 0.2), (0.5, 0.8), (1.0, 0.2), (1.0, 0.8)],
], ids=["with_lambda0", "without_lambda0"])
def test_pipeline_solves_each_effective_beta_once(monkeypatch, sample_grid):
    cfg = preset("desk_scale")
    calls = []
    real = beta_search.solve_family

    def counting(lam, alpha, *args):
        calls.append((lam, alpha))
        return real(lam, alpha, *args)

    monkeypatch.setattr(beta_search, "solve_family", counting)
    result = pipeline(sample_grid, cfg.mdp, cfg.pm, cfg.build_grid(),
                      TauDist((2, 3), np.array([0.5, 0.5])), [0.1, 0.5], 50, 3, 20.0,
                      degree=1, constraint_grid=default_constraint_grid(5))
    assert result.rn.n_paths == 50
    assert len(calls) == len(set(calls))
    # alpha plays no part at lam = 0: one risk-neutral solve, shared by the anchor
    assert sum(lam == 0.0 for lam, _ in calls) == 1
    for s in result.samples:
        if s.lam == 0.0:
            assert (s.reward, s.risk) == (result.rn.reward, result.rn.risk)


@pytest.mark.parametrize("lam,alpha", [(0.0, 0.5), (0.6, 0.8)])
def test_solve_family_matches_separate_solves(lam, alpha):
    # the horizons share transition matrices and risk kernels; sharing must not
    # change a single bit of any solution
    cfg = preset("desk_scale")
    grid = cfg.build_grid()
    family = beta_search.solve_family(lam, alpha, cfg.mdp, cfg.pm, grid, cfg.tau.horizons)
    for T, sol in family.solutions.items():
        alone = solve(replace(cfg.mdp, horizon=T), RiskSchedule.homogeneous(lam, alpha, T),
                      cfg.pm, grid)
        np.testing.assert_array_equal(sol.values, alone.values)
        np.testing.assert_array_equal(sol.post_values, alone.post_values)
        np.testing.assert_array_equal(sol.thresholds, alone.thresholds)
        assert sol.fallback_rows == alone.fallback_rows == 0


def test_shared_tables_change_no_bit(monkeypatch):
    # families solved with one shared trans dict equal families solved alone,
    # and each phase's transition matrix is built once for all of them
    cfg = preset("desk_scale")
    grid = cfg.build_grid()
    built = []
    real = mdp.transition_matrix

    def counting(t, *args):
        built.append(t)
        return real(t, *args)

    trans = {}
    betas = [(0.6, 0.8), (0.0, 0.5), (1.0, 0.98)]
    with monkeypatch.context() as m:
        m.setattr(mdp, "transition_matrix", counting)
        shared = [beta_search.solve_family(lam, alpha, cfg.mdp, cfg.pm, grid,
                                           cfg.tau.horizons, trans) for lam, alpha in betas]
    phases = {t % cfg.pm.seas_period for T in cfg.tau.horizons for t in range(T)}
    assert sorted(built) == sorted(phases)
    for (lam, alpha), family in zip(betas, shared):
        alone = beta_search.solve_family(lam, alpha, cfg.mdp, cfg.pm, grid, cfg.tau.horizons)
        for T, sol in family.solutions.items():
            np.testing.assert_array_equal(sol.values, alone.solutions[T].values)
            np.testing.assert_array_equal(sol.post_values, alone.solutions[T].post_values)
            np.testing.assert_array_equal(sol.thresholds, alone.solutions[T].thresholds)
