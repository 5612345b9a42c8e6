import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcharge.price_model import (
    DiscreteDist,
    PriceGrid,
    PriceModelParams,
    build_grid,
    next_price_dist,
    noise_dist,
    sample_paths,
    transition_matrix,
)

from conftest import DESK_PM, FULL_PM


def test_seasonality_calibrated_coefficients(full_pm):
    assert full_pm.seasonality(0) == pytest.approx(33.3765, abs=1e-4)
    # quarter period: sine term at 1, cosine at 0
    assert full_pm.seasonality(12) == pytest.approx(47.7222, abs=1e-4)


def test_seasonality_constant():
    pm = PriceModelParams(kappa_Y=0.3, mu_Y=0.0, sigma_Y=1.0, mu_J=0.0, sigma_J=0.0,
                          jump_prob=0.0, seas_a=0.0, seas_b=0.0, seas_c=5.0, seas_period=10)
    assert pm.seasonality(0) == 5.0
    assert pm.seasonality(7) == 5.0


@given(t=st.integers(min_value=0, max_value=500))
def test_seasonality_periodicity(t):
    assert FULL_PM.seasonality(t) == pytest.approx(
        FULL_PM.seasonality(t + FULL_PM.seas_period), abs=1e-9)


def test_noise_dist_point_mass_when_deterministic():
    pm = PriceModelParams(kappa_Y=0.341, mu_Y=0.0, sigma_Y=0.0, mu_J=0.0, sigma_J=0.0,
                          jump_prob=0.0, seas_a=0.0, seas_b=0.0, seas_c=0.0, seas_period=4)
    d = noise_dist(0, pm)
    assert len(d.support) == 1
    assert d.support[0] == 0.0
    assert d.probs[0] == 1.0


@pytest.mark.parametrize("t", [0, 7, 23, 40])
def test_noise_dist_full_scale_parameters(full_pm, t):
    d = noise_dist(t, full_pm)
    assert np.all(d.support == np.round(d.support))
    assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert d.probs.min() >= 1.5e-3


@pytest.mark.parametrize("t", [0, 12, 30])
def test_noise_dist_mixture_mean(full_pm, t):
    d = noise_dist(t, full_pm)
    analytic = full_pm.noise_drift(t) + full_pm.jump_prob * full_pm.mu_J
    assert d.mean() == pytest.approx(analytic, abs=0.5)


def test_discrete_dist_validation():
    with pytest.raises(ValueError):
        DiscreteDist(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        DiscreteDist(np.array([1.0, 2.0]), np.array([0.6, 0.6]))


def test_grid_construction(desk_pm, full_pm):
    g = build_grid(desk_pm, span=20)
    assert len(g) == 41
    assert np.all(np.diff(g.points) == 1.0)
    auto = build_grid(full_pm)
    assert len(auto) > 100  # escape rule yields a generous grid at full scale


def test_next_price_dist_point_mass(micro_pm, micro_grid):
    pm = PriceModelParams(kappa_Y=0.5, mu_Y=0.0, sigma_Y=0.0, mu_J=0.0, sigma_J=0.0,
                          jump_prob=0.0, seas_a=0.0, seas_b=0.0, seas_c=10.0, seas_period=4)
    grid = build_grid(pm, span=3)
    d = next_price_dist(grid.points[0], 0, pm, grid)
    assert len(d.support) == 1
    assert d.probs[0] == 1.0


def test_next_price_dist_conditional_mean(full_pm):
    grid = build_grid(full_pm, span=130)
    d = next_price_dist(35.0, 0, full_pm, grid)
    psi = noise_dist(0, full_pm)
    analytic = 35.0 * full_pm.decay + psi.mean()
    assert d.mean() == pytest.approx(analytic, abs=grid.step)


def test_next_price_dist_closure(desk_pm, desk_grid):
    for p in desk_grid.points[::10]:
        for t in (0, 5):
            d = next_price_dist(p, t, desk_pm, desk_grid)
            assert set(d.support).issubset(set(desk_grid.points))
            assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_conditional_mean_drift_decreasing(desk_pm, desk_grid):
    # E[P_{t+1} | P_t = p] - p strictly decreasing in p on the interior
    means = np.array([next_price_dist(p, 0, desk_pm, desk_grid).mean() - p
                      for p in desk_grid.points[1:-1]])
    assert np.all(np.diff(means) < 1e-9)


def standard_draws(rng, n, steps):
    """The three standard draws sample_paths takes, each (n, steps)."""
    return (rng.standard_normal((n, steps)), rng.random((n, steps)),
            rng.standard_normal((n, steps)))


def test_sample_path_deterministic_decay():
    pm = PriceModelParams(kappa_Y=0.341, mu_Y=0.0, sigma_Y=0.0, mu_J=0.0, sigma_J=0.0,
                          jump_prob=0.0, seas_a=0.0, seas_b=0.0, seas_c=0.0, seas_period=4)
    paths = sample_paths(10.0, pm, *standard_draws(np.random.default_rng(0), 3, 2))
    d = pm.decay
    np.testing.assert_allclose(paths, [[10.0, 10.0 * d, 10.0 * d**2]] * 3, rtol=1e-12)


def test_sample_path_seed_determinism(full_pm):
    def paths(seed):
        return sample_paths(35.0, full_pm, *standard_draws(np.random.default_rng(seed), 4, 20))

    a = paths(123)
    np.testing.assert_array_equal(a, paths(123))
    assert not np.array_equal(a, paths(124))


def test_sample_path_one_step_mean(full_pm):
    n = 100_000
    samples = sample_paths(35.0, full_pm, *standard_draws(np.random.default_rng(5), n, 1))[:, 1]
    psi_mean = (full_pm.noise_drift(0) + full_pm.jump_prob * full_pm.mu_J)
    analytic = 35.0 * full_pm.decay + psi_mean
    se = samples.std(ddof=1) / np.sqrt(n)
    assert abs(samples.mean() - analytic) < 3.0 * se


def test_sample_path_matches_analytic_transitions(desk_pm, desk_grid):
    # empirical one-step distribution, binned to the grid, vs the exact mixture
    # CDF integrated over the same bins
    from scipy.stats import norm

    n = 40_000
    p0 = float(desk_grid.points[20])
    p1 = sample_paths(p0, desk_pm, *standard_draws(np.random.default_rng(11), n, 1))[:, 1]
    empirical = np.bincount(desk_grid.nearest_index(p1), minlength=len(desk_grid)) / n

    edges = np.concatenate([[-np.inf], desk_grid.points[:-1] + 0.5, [np.inf]])
    mean = p0 * desk_pm.decay + desk_pm.noise_drift(0)
    sd = np.sqrt(desk_pm.diffusion_var)
    sd_j = np.sqrt(desk_pm.diffusion_var + desk_pm.sigma_J ** 2)
    cdf = ((1.0 - desk_pm.jump_prob) * norm.cdf(edges, mean, sd)
           + desk_pm.jump_prob * norm.cdf(edges, mean + desk_pm.mu_J, sd_j))
    model = np.diff(cdf)
    tv = 0.5 * np.abs(empirical - model).sum()
    assert tv < 4.0 / np.sqrt(n)


def test_transition_matrix_rows_stochastic(desk_pm, desk_grid):
    for t in range(desk_pm.seas_period):
        mat = transition_matrix(t, desk_pm, desk_grid)
        np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(mat >= 0)
        # every row against the one-price distribution, built on its own path
        for i, p in enumerate(desk_grid.points):
            d = next_price_dist(p, t, desk_pm, desk_grid)
            want = np.zeros(len(desk_grid))
            want[desk_grid.nearest_index(d.support)] = d.probs
            np.testing.assert_allclose(mat[i], want, rtol=0, atol=1e-15)


def test_horizon_validation(full_pm):
    with pytest.raises(ValueError):
        sample_paths(35.0, full_pm, *standard_draws(np.random.default_rng(0), 3, 0))
