import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcharge import beta_search, mdp
from evcharge.beta_search import BetaSample, MonotoneFit, fit, pipeline, select_beta
from evcharge.config import DESK_SCALE, FULL_SCALE, ConfigError, from_dict, preset
from evcharge.mdp import solve
from evcharge.policy_eval import TauDist
from evcharge.price_model import PriceGrid
from evcharge.risk import RiskParams, RiskSchedule

from oracles import bernstein_sum, l1_fit_inequality_form, largest_rise

# a fitted risk surface may rise by LP rounding only
RISE_TOL = 1e-9


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


def falling(lam, alpha):
    return 0.9 - 0.4 * lam - 0.3 * alpha - 0.1 * lam * alpha


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
        assert f.coef.shape == (1, 1)
        assert float(f(0.3, 0.3)) == pytest.approx(2.0, abs=1e-8)

    def test_risk_fit_monotone_against_increasing_data(self):
        # data increase in both variables; the constrained fit must refuse to
        # follow and stay nonincreasing, paying l1 error for it
        def rising(lam, alpha):
            return 0.2 + 0.5 * lam + 0.3 * alpha

        data = make_samples(rising, n=80, seed=1)
        constrained = fit(data, "risk", degree=3)
        assert largest_rise(constrained) <= RISE_TOL
        unconstrained = fit(data, "reward", degree=3)
        assert largest_rise(unconstrained) > 0.001
        assert constrained.l1_error >= unconstrained.l1_error
        assert constrained.l1_error > 1.0  # genuinely binding

    def test_monotone_on_noisy_decreasing_surface(self):
        data = make_samples(falling, n=100, seed=2, noise=0.01)
        f = fit(data, "risk", degree=3)
        assert largest_rise(f) <= RISE_TOL
        assert f.l1_error / len(data) <= 0.015

    @pytest.mark.parametrize("degree", [3, 8])
    def test_risk_coefficients_fall_along_both_axes(self, degree):
        data = make_samples(falling, n=100, seed=4, noise=0.05)
        f = fit(data, "risk", degree)
        assert f.coef.shape == (degree + 1, degree + 1)
        for axis in (0, 1):
            assert np.diff(f.coef, axis=axis).max() <= RISE_TOL
        assert abs(f.l1_error - l1_fit_inequality_form(data, "risk", degree)) <= 1e-7
        # the noise makes the unconstrained coefficients rise, so the rows bind
        assert np.diff(fit(data, "reward", degree).coef, axis=1).max() > RISE_TOL

    def test_validation(self):
        data = make_samples(plane, n=10)
        with pytest.raises(ValueError):
            fit(data, "speed", degree=2)
        with pytest.raises(ValueError):
            fit(data, "reward", degree=-1)


def full_scale_samples(reward, risk):
    return [BetaSample(lam, alpha, reward, 0.0, risk, 0.0)
            for lam, alpha in preset("full_scale").sample_grid()]


def test_flat_fit_is_exactly_flat_and_keeps_the_tie_break():
    # every sampled beta earning the same reward at zero risk must leave every
    # grid point tied, so that select_beta breaks the tie to (0, 0.005)
    cfg = preset("full_scale")
    data = full_scale_samples(1.857672, 0.0)
    assert len(data) == 110
    reward, risk = fit(data, "reward", 8), fit(data, "risk", 8)
    ll, aa = beta_search.beta_grid(201, 199)
    assert np.all(reward(ll[:, :1], aa[0]) == 1.857672)
    assert np.all(risk(ll[:, :1], aa[0]) == 0.0)
    for eps, sel in zip(cfg.epsilons, select_beta(reward, risk, cfg.epsilons)):
        assert (sel.lam, sel.alpha, sel.feasible) == (0.0, 0.005, True), eps


def pipeline_desk_samples(seed):
    """The sampled betas of the desk preset run with the full-scale
    beta_search block from p0 = 30, where the sampled rewards differ."""
    raw = copy.deepcopy(DESK_SCALE)
    raw["beta_search"] = copy.deepcopy(FULL_SCALE["beta_search"])
    raw["simulation"].update(p0=30.0, seed=seed)
    cfg = from_dict(raw)
    result = pipeline(cfg.sample_grid(), cfg.mdp, cfg.pm, cfg.build_grid(), cfg.tau,
                      cfg.epsilons, cfg.n_paths, cfg.seed, cfg.p0, degree=0)
    return list(result.samples)


@pytest.mark.parametrize("seed", [3, 7, 12, 23])
def test_fit_succeeds_at_every_degree(seed):
    # the dual simplex returns no solution at degree 5 on seeds 3 and 12 in the
    # inequality form (-e <= phi coef - y <= e) and on 12 and 23 in the standard
    # form that fit poses; the fit must solve every LP it builds and reach the
    # inequality form's optimum
    data = pipeline_desk_samples(seed)
    assert len({s.reward for s in data}) > 1
    for degree in range(1, 11):
        reward, risk = fit(data, "reward", degree), fit(data, "risk", degree)
        for target, f in (("reward", reward), ("risk", risk)):
            assert f.coef.shape == (degree + 1, degree + 1)
            assert abs(f.l1_error - l1_fit_inequality_form(data, target, degree)) <= 1e-7
        for axis in (0, 1):
            assert np.diff(risk.coef, axis=axis).max() <= RISE_TOL
        assert largest_rise(risk) <= RISE_TOL


@pytest.mark.parametrize("name", ["full_scale", "desk_scale"])
def test_preset_basis_has_full_rank_on_its_samples(name):
    # a rank-deficient basis leaves the l1 fit free between the samples,
    # where select_beta reads it
    cfg = preset(name)
    lam, alpha = np.array(cfg.sample_grid()).T
    basis = beta_search._basis(lam, alpha, cfg.degree)
    assert basis.shape == (len(lam), (cfg.degree + 1) ** 2)
    assert np.linalg.matrix_rank(basis) == basis.shape[1]


@given(lambdas=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=5),
       alphas=st.lists(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]), min_size=1, max_size=5),
       degree=st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_config_loads_exactly_when_its_basis_has_full_rank(lambdas, alphas, degree):
    # a rank-deficient basis leaves the l1 fit free between the samples, where
    # select_beta reads it: such a config fails at load, naming the degree
    raw = copy.deepcopy(DESK_SCALE)
    raw["beta_search"].update(degree=degree, sample_lambdas=lambdas, sample_alphas=alphas)
    lam, alpha = np.array([(lam, alpha) for lam in lambdas for alpha in alphas]).T
    basis = beta_search._basis(lam, alpha, degree)
    if np.linalg.matrix_rank(basis) == basis.shape[1]:
        from_dict(raw)
    else:
        with pytest.raises(ConfigError, match="beta_search.degree"):
            from_dict(raw)


def test_largest_rise_detects_increase():
    assert largest_rise(linear_fit(0.0, 1.0, 0.0)) > RISE_TOL
    assert largest_rise(linear_fit(1.0, -1.0, -0.5)) <= 0.0


def const_fit(value):
    return MonotoneFit(np.array([[value]]), 0.0)


def linear_fit(c0, c_lam, c_alpha):
    # a bilinear surface's degree-1 coefficients are its corner values
    return MonotoneFit(np.array([[c0, c0 + c_alpha], [c0 + c_lam, c0 + c_lam + c_alpha]]), 0.0)


@pytest.mark.parametrize("degree", [0, 1, 3, 10])
def test_surface_on_column_and_row_equals_the_meshgrid(degree):
    # select_beta evaluates a (lam column, alpha row) pair; each of its points
    # takes the same de Casteljau steps as on the meshgrid, and a constant
    # surface still fills the whole grid
    surface = MonotoneFit(np.random.default_rng(degree).normal(size=(degree + 1, degree + 1)),
                          0.0)
    ll, aa = beta_search.beta_grid(201, 199)
    want = surface(ll, aa)
    got = surface(ll[:, :1], aa[0])
    assert got.shape == want.shape == ll.shape
    assert np.array_equal(got, want)
    assert surface(ll[7, 0], aa[0, 9]) == want[7, 9]
    np.testing.assert_allclose(want, bernstein_sum(surface.coef, ll, aa), rtol=0, atol=1e-12)


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
        data = make_samples(falling, n=60, seed=3, noise=0.02)
        reward, risk = fit(data, "reward", degree=3), fit(data, "risk", degree=3)
        # the surface's least value on the selection grid is 0.102, at (1, 0.995)
        epsilons = [-1.0, 0.15, 0.25, 0.4, 0.6, 0.85, 2.0]
        together = select_beta(reward, risk, epsilons)
        assert together == tuple(select_beta(reward, risk, [e])[0] for e in epsilons)
        assert [s.feasible for s in together] == [False] + [True] * 6
        assert len({(s.lam, s.alpha) for s in together}) > 2


def test_beta_grid_shape():
    ll, aa = beta_search.beta_grid(10, 12)
    assert ll.shape == aa.shape == (10, 12)
    assert ll[:, 0].min() == 0.0 and ll[:, 0].max() == 1.0
    assert aa[0].min() == pytest.approx(0.005) and aa[0].max() == pytest.approx(0.995)


@pytest.mark.parametrize("sample_grid", [
    [(0.0, 0.2), (0.0, 0.8), (1.0, 0.2), (1.0, 0.8)],
    [(0.5, 0.2), (0.5, 0.8), (1.0, 0.2), (1.0, 0.8)],
], ids=["with_lambda0", "without_lambda0"])
def test_pipeline_solves_each_effective_beta_once(monkeypatch, sample_grid):
    # every schedule that enters a sweep is one effective beta, solved once
    # across the samples' sweeps and the selections' sweeps
    cfg = preset("desk_scale")
    sweeps = []
    real = beta_search.solve_horizons

    def counting(cfg, betas, *args):
        assert all(beta.per_period == (beta[0],) * len(beta.per_period) for beta in betas)
        sweeps.append([(beta[0].lam, beta[0].alpha) for beta in betas])
        return real(cfg, betas, *args)

    monkeypatch.setattr(beta_search, "solve_horizons", counting)
    result = pipeline(sample_grid, cfg.mdp, cfg.pm, cfg.build_grid(),
                      TauDist((2, 3), np.array([0.5, 0.5])), [0.1, 0.5], 50, 3, 20.0,
                      degree=1)
    assert result.rn.n_paths == 50
    solved = [beta for sweep in sweeps for beta in sweep]
    assert len(solved) == len(set(solved))
    selected = [(sel.lam, sel.alpha) for _, sel, _ in result.rows]
    effective = {(lam, alpha) if lam > 0 else (0.0, 0.5) for lam, alpha in sample_grid + selected}
    assert set(solved) == effective | {(0.0, 0.5)}
    # the samples in one sweep, then what the selections and the anchor add
    assert len(sweeps) <= 2
    assert set(sweeps[0]) == {(lam, alpha) if lam > 0 else (0.0, 0.5)
                              for lam, alpha in sample_grid}
    # alpha plays no part at lam = 0: one risk-neutral solve, shared by the anchor
    assert sum(lam == 0.0 for lam, _ in solved) == 1
    for s in result.samples:
        if s.lam == 0.0:
            assert (s.reward, s.risk) == (result.rn.reward, result.rn.risk)


def test_pipeline_rows_keep_the_selection_and_its_metrics():
    # each row holds select_beta's own result for its epsilon, fitted values
    # included, and the metrics of the family it selects; a selected beta that
    # was sampled (any alpha at lam = 0) scores as its sample did.  From p0 = 30
    # the sampled rewards differ, so a row paired with another family shows
    cfg = preset("desk_scale")
    epsilons = cfg.epsilons + (-1.0,)  # no beta is feasible at -1
    result = pipeline(cfg.sample_grid(), cfg.mdp, cfg.pm, cfg.build_grid(), cfg.tau,
                      epsilons, cfg.n_paths, cfg.seed, 30.0, degree=cfg.degree,
                      risk_kind=cfg.risk_kind, delta=cfg.delta)
    assert len({s.reward for s in result.samples}) > 1
    assert [eps for eps, _, _ in result.rows] == list(epsilons)
    sampled = 0
    for eps, sel, m in result.rows:
        assert sel == select_beta(result.reward_fit, result.risk_fit, [eps])[0]
        assert m.n_paths == cfg.n_paths
        for s in result.samples:
            if (s.lam, s.alpha) == (sel.lam, sel.alpha) or s.lam == sel.lam == 0.0:
                assert (m.reward, m.reward_se, m.risk, m.risk_se) == (
                    s.reward, s.reward_se, s.risk, s.risk_se)
                sampled += 1
    assert sampled > 0


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


def test_solve_family_tables_share_no_memory():
    # the sweep's tables are views into one block; none may overlap another
    cfg = preset("desk_scale")
    family = beta_search.solve_family(0.6, 0.8, cfg.mdp, cfg.pm, cfg.build_grid(),
                                      cfg.tau.horizons)
    tables = [table for T in sorted(family.solutions)
              for table in (family.solutions[T].values, family.solutions[T].post_values)]
    for i, a in enumerate(tables):
        for b in tables[i + 1:]:
            assert not np.shares_memory(a, b)
    before = [table.tobytes() for table in tables]
    tables[0][...] = np.nan
    assert all(table.tobytes() == old for table, old in zip(tables[1:], before[1:]))


def counting_calls(calls, real):
    def wrapper(t, *args):
        calls.append(t)
        return real(t, *args)
    return wrapper


def assert_same_family(family, alone):
    for T, sol in family.solutions.items():
        np.testing.assert_array_equal(sol.values, alone.solutions[T].values)
        np.testing.assert_array_equal(sol.post_values, alone.solutions[T].post_values)
        np.testing.assert_array_equal(sol.thresholds, alone.solutions[T].thresholds)
        assert sol.fallback_rows == alone.solutions[T].fallback_rows


def test_shared_tables_change_no_bit(monkeypatch):
    # separate families solved on one grid equal families each solved on a
    # fresh grid; the grid builds each phase's transition and each horizon's
    # terminal table once for all of them
    cfg = preset("desk_scale")
    grid = cfg.build_grid()
    built, terminal = [], []
    betas = [(0.6, 0.8), (0.0, 0.5), (1.0, 0.98)]
    with monkeypatch.context() as m:
        m.setattr(mdp, "transition_matrix", counting_calls(built, mdp.transition_matrix))
        # mdp looks noise_dist up only for terminal tables
        m.setattr(mdp, "noise_dist", counting_calls(terminal, mdp.noise_dist))
        shared = [beta_search.solve_family(lam, alpha, cfg.mdp, cfg.pm, grid, cfg.tau.horizons)
                  for lam, alpha in betas]
    phases = {t % cfg.pm.seas_period for T in cfg.tau.horizons for t in range(T)}
    assert sorted(built) == sorted(phases)
    assert sorted(terminal) == sorted(cfg.tau.horizons)
    for (lam, alpha), family in zip(betas, shared):
        fresh = cfg.build_grid()
        assert_same_family(family, beta_search.solve_family(lam, alpha, cfg.mdp, cfg.pm, fresh,
                                                            cfg.tau.horizons))
        for T in family.solutions:
            cfg_T = replace(cfg.mdp, horizon=T)
            np.testing.assert_array_equal(
                mdp.terminal_values(cfg_T, [RiskParams(lam, alpha)], cfg.pm, grid)[0],
                mdp.terminal_values(cfg_T, [RiskParams(lam, alpha)], cfg.pm, cfg.build_grid())[0])


CAPPED = dict(gamma_y_kind="linear-capped", gamma_y_cap=0.02)


@pytest.mark.parametrize("first,second", [({}, CAPPED), (CAPPED, dict(CAPPED, gamma_y_cap=0.01))],
                         ids=["kind", "cap"])
def test_shared_terminal_tables_keyed_by_compensation_rate(monkeypatch, first, second):
    # a family with another gamma_Y builds its own terminal tables on the grid
    # that a first family filled, and equals itself solved on a fresh grid
    cfg = preset("desk_scale")
    grid = cfg.build_grid()
    terminal = []
    with monkeypatch.context() as m:
        m.setattr(mdp, "noise_dist", counting_calls(terminal, mdp.noise_dist))
        a, b = (beta_search.solve_family(0.7, 0.6, replace(cfg.mdp, **change), cfg.pm, grid,
                                         cfg.tau.horizons) for change in (first, second))
    assert len(terminal) == 2 * len(cfg.tau.horizons)
    alone = beta_search.solve_family(0.7, 0.6, replace(cfg.mdp, **second), cfg.pm,
                                     cfg.build_grid(), cfg.tau.horizons)
    for T, sol in b.solutions.items():
        assert not np.array_equal(sol.values[T], a.solutions[T].values[T])
    assert_same_family(b, alone)


def test_grid_rebuilds_its_tables_for_another_price_model(monkeypatch):
    # the grid holds the tables of one price model at a time: a solve with a
    # second model rebuilds them and equals that model solved on a fresh grid,
    # and going back to the first model rebuilds its tables again
    cfg = preset("desk_scale")
    grid = cfg.build_grid()
    other = replace(cfg.pm, sigma_Y=1.5 * cfg.pm.sigma_Y, seas_a=-cfg.pm.seas_a)
    built, terminal = [], []
    with monkeypatch.context() as m:
        m.setattr(mdp, "transition_matrix", counting_calls(built, mdp.transition_matrix))
        m.setattr(mdp, "noise_dist", counting_calls(terminal, mdp.noise_dist))
        first, second, again = (beta_search.solve_family(0.6, 0.8, cfg.mdp, pm, grid,
                                                         cfg.tau.horizons)
                                for pm in (cfg.pm, other, cfg.pm))
    phases = {t % cfg.pm.seas_period for T in cfg.tau.horizons for t in range(T)}
    assert sorted(built) == sorted(3 * list(phases))
    assert sorted(terminal) == sorted(3 * list(cfg.tau.horizons))
    T = max(cfg.tau.horizons)
    assert not np.array_equal(second.solutions[T].values, first.solutions[T].values)
    assert_same_family(second, beta_search.solve_family(0.6, 0.8, cfg.mdp, other,
                                                        PriceGrid(grid.points),
                                                        cfg.tau.horizons))
    assert_same_family(again, first)
