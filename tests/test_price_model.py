import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcharge import price_model
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
from oracles import noise_dist_fold_and_trim, sample_paths_column_by_column


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


def test_diffusion_kept_at_tiny_kappa():
    # 1 - exp(-2 kappa) rounds to 0 at kappa = 1e-17; the variance tends to sigma_Y^2
    pm = PriceModelParams(kappa_Y=1e-17, mu_Y=0.0, sigma_Y=2.0, mu_J=0.0, sigma_J=0.0,
                          jump_prob=0.0, seas_a=0.0, seas_b=0.0, seas_c=0.0, seas_period=4)
    assert pm.diffusion_var == pytest.approx(4.0, rel=1e-12)
    assert len(noise_dist(0, pm).support) > 1


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


def test_normal_cdf_matches_scipy_ndtr():
    # every other interval (-inf, x_i] of these edges carries Phi(x_i) - Phi(-inf),
    # which is Phi(x_i) exactly, so this reads the module's own normal CDF
    from scipy.special import ndtr

    x = np.linspace(-40.0, 40.0, 400_001)
    edges = np.full(2 * len(x) + 1, -np.inf)
    edges[1::2] = x
    phi = price_model._interval_mass(0.0, 1.0, edges)[0::2]
    np.testing.assert_allclose(phi, ndtr(x), rtol=0, atol=3e-16)


def ndtr_interval_mass(mean, std, edges, own=price_model._interval_mass):
    """_interval_mass with scipy's ndtr as the normal CDF: the reference."""
    from scipy.special import ndtr

    return np.diff(ndtr((edges - mean) / std)) if std > 0.0 else own(mean, std, edges)


@pytest.mark.parametrize("pm", [DESK_PM, FULL_PM], ids=["desk", "full"])
def test_noise_dist_matches_the_ndtr_reference(pm, monkeypatch):
    own = [noise_dist(t, pm) for t in range(pm.seas_period)]
    auto = len(build_grid(pm))
    monkeypatch.setattr(price_model, "_interval_mass", ndtr_interval_mass)
    for t, d in enumerate(own):
        ref = noise_dist(t, pm)
        np.testing.assert_array_equal(d.support, ref.support)
        np.testing.assert_allclose(d.probs, ref.probs, rtol=0, atol=1e-15)
    assert auto == len(build_grid(pm))


# (sigma_Y, sigma_J, jump_prob): zero-std components, a certain or absent jump,
# and a noise so wide that every atom falls below TRIM
NOISE_CASES = ([(sy, sj, q) for sy in (0.0, 0.5, 5.35) for sj in (0.0, 6.0, 40.602)
                for q in (0.0, 0.131, 1.0)]
               + [(400.0, 0.0, 0.0), (0.0, 400.0, 1.0), (400.0, 400.0, 0.5)])


def test_noise_dist_matches_the_fold_and_trim_reference():
    # the mass beyond the window is below Phi(-8) per end bin, far below TRIM,
    # so the trim drops both end bins whatever a fold would add to them
    cases = [(pm, t) for pm in (DESK_PM, FULL_PM) for t in range(pm.seas_period)]
    cases += [(PriceModelParams(kappa_Y=0.341, mu_Y=0.3, sigma_Y=sy, mu_J=mu_j, sigma_J=sj,
                                jump_prob=q, seas_a=3.0, seas_b=-1.0, seas_c=20.0,
                                seas_period=12), t)
              for sy, sj, q in NOISE_CASES for mu_j in (-0.484, 7.5) for t in (0, 5)]
    for pm, t in cases:
        d = noise_dist(t, pm)
        support, probs = noise_dist_fold_and_trim(t, pm)
        assert d.support.tobytes() == support.tobytes(), (pm, t)
        assert d.probs.tobytes() == probs.tobytes(), (pm, t)
        if max(pm.sigma_Y, pm.sigma_J) == 400.0:
            assert len(d.support) == 1, (pm, t)  # no atom reached TRIM; the largest is kept


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


def test_grid_points_are_a_read_only_copy():
    # the grid holds tables computed from its points, so they must not change
    # under it; the caller's own array stays the caller's
    mine = np.arange(10.0, 15.0)
    grid = PriceGrid(mine)
    with pytest.raises(ValueError, match="read-only"):
        grid.points[0] = 0.0
    mine[0] = 0.0
    assert grid.points[0] == 10.0


class TestNearestIndex:
    GRID = PriceGrid(np.arange(10.0, 15.0))  # points 10..14

    def reference(self, p):
        # the division by the spacing, which is 1.0, that nearest_index leaves out
        g = self.GRID
        idx = np.rint((np.asarray(p, dtype=float) - g.points[0]) / g.step).astype(int)
        return np.clip(idx, 0, len(g) - 1)

    @pytest.mark.parametrize("p, want", [(12.4, 2), (np.float64(12.6), 3), (12, 2),
                                         (np.array(13.2), 3), (-1e9, 0), (1e9, 4)])
    def test_scalars(self, p, want):
        # perfbench indexes the grid with the index of a float start price
        idx = self.GRID.nearest_index(p)
        assert np.ndim(idx) == 0 and idx == want
        assert self.GRID.points[idx] == 10.0 + want

    def test_half_integer_ties_round_half_to_even(self):
        prices = [10.5, 11.5, 12.5, 13.5]  # offsets 0.5, 1.5, 2.5, 3.5
        np.testing.assert_array_equal(self.GRID.nearest_index(prices), [0, 2, 2, 4])

    def test_beyond_both_ends_clip(self):
        prices = [-50.0, 9.0, 9.49, 9.5, 14.49, 14.5, 15.6, 400.0]
        np.testing.assert_array_equal(self.GRID.nearest_index(prices),
                                      [0, 0, 0, 0, 4, 4, 4, 4])

    def test_strided_view_left_unchanged(self):
        block = np.random.default_rng(3).uniform(5.0, 20.0, (9, 12))
        block[0, :4] = [10.5, 11.5, 12.5, 13.5]
        before = block.copy()
        view = block[::2, ::3].T
        assert not view.flags.c_contiguous and not view.flags.f_contiguous
        got = self.GRID.nearest_index(view)
        assert got.shape == view.shape
        np.testing.assert_array_equal(got, self.reference(view.copy()))
        np.testing.assert_array_equal(block, before)

    def test_matches_the_division_by_the_spacing(self):
        prices = np.random.default_rng(4).uniform(0.0, 25.0, 10_000)
        prices[::7] = np.round(prices[::7]) + 0.5
        np.testing.assert_array_equal(self.GRID.nearest_index(prices), self.reference(prices))


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


@pytest.mark.parametrize("pm, p0, n, steps", [
    (DESK_PM, 20.0, 1, 1),
    (DESK_PM, 20.0, 1, 17),
    (DESK_PM, 20.0, 300, 1),
    (DESK_PM, 30.0, 300, 7),
    (FULL_PM, 35.0, 1, 17),
    (FULL_PM, 35.0, 500, 17),
    (FULL_PM, 34.5, 500, 17),   # half way between two grid points
    (FULL_PM, 57.5, 40, 3),
    (FULL_PM, 0.1, 40, 3),      # (p0 - g(0)) + g(0) != p0
])
def test_sample_paths_bit_equal_to_column_recursion(pm, p0, n, steps):
    draws = standard_draws(np.random.default_rng(steps * 1000 + n), n, steps)
    paths = sample_paths(p0, pm, *draws)
    want = sample_paths_column_by_column(p0, pm, *draws)
    assert paths.shape == want.shape == (n, steps + 1)
    assert np.ascontiguousarray(paths).tobytes() == want.tobytes()
    assert np.all(paths[:, 0] == p0)
    assert paths.T.flags.c_contiguous  # one contiguous row per period
    # a path's prices depend only on its own draws
    first = sample_paths(p0, pm, *(a[:1] for a in draws))
    assert np.ascontiguousarray(first).tobytes() == want[:1].tobytes()


def test_horizon_validation(full_pm):
    with pytest.raises(ValueError):
        sample_paths(35.0, full_pm, *standard_draws(np.random.default_rng(0), 3, 0))
