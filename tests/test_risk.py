import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcharge.risk import RiskParams, RiskSchedule, mean_cvar_rows, mean_cvar_weights

from conftest import random_dist
from oracles import argsort_mean_cvar, cvar_grid_search, mean_cvar_grid_search


def one_row(values, probs, rp):
    """Mean-CVaR of one outcome vector through the batched kernel; the outcomes
    may be unsorted or repeated."""
    return float(mean_cvar_rows(values[None, :], probs, rp)[0])


def cvar(support, probs, alpha):
    return one_row(support, probs, RiskParams(1.0, alpha))


def two_point():
    return np.array([1.0, 3.0]), np.array([0.5, 0.5])


class TestCvar:
    def test_point_mass_translation(self):
        for c in (-3.0, 0.0, 11.5):
            assert cvar(np.array([c]), np.array([1.0]), 0.7) == pytest.approx(c, abs=1e-14)

    def test_two_point_at_half(self):
        assert cvar(*two_point(), 0.5) == pytest.approx(3.0, abs=1e-12)

    def test_atom_split(self):
        # tail mass 0.2: all of the 10-atom plus 0.1 of the 0-atom
        assert cvar(np.array([0.0, 10.0]), np.array([0.9, 0.1]), 0.8) == pytest.approx(
            5.0, abs=1e-12)

    def test_matches_grid_search_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            support, probs = random_dist(rng)
            alpha = float(rng.uniform(0.05, 0.95))
            exact = cvar(support, probs, alpha)
            searched = cvar_grid_search(support, probs, alpha)
            assert exact == pytest.approx(searched, abs=1e-9)

    def test_coherence_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            support, probs = random_dist(rng)
            alpha = float(rng.uniform(0.05, 0.95))
            c = cvar(support, probs, alpha)
            var = support[np.searchsorted(np.cumsum(probs), alpha, side="right")]
            assert c >= float(support @ probs) - 1e-12
            assert c >= var - 1e-12


class TestMeanCvar:
    def test_lambda_zero_is_mean(self):
        support, probs = two_point()
        assert one_row(support, probs, RiskParams(0.0, 0.5)) == support @ probs

    def test_lambda_one_is_cvar(self):
        assert one_row(*two_point(), RiskParams(1.0, 0.5)) == pytest.approx(3.0)

    def test_convex_combination(self):
        assert one_row(*two_point(), RiskParams(0.5, 0.5)) == pytest.approx(2.5)

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            support, probs = random_dist(rng)
            rp = RiskParams(float(rng.uniform(0, 1)), float(rng.uniform(0.05, 0.95)))
            base = one_row(support, probs, rp)
            for c in (-5.0, 2.5):
                shifted = one_row(support + c, probs, rp)
                assert shifted == pytest.approx(base + c, abs=1e-12)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            support, probs = random_dist(rng)
            rp = RiskParams(0.6, 0.8)
            base = one_row(support, probs, rp)
            for a in (0.0, 0.5, 3.0):
                scaled = one_row(a * support, probs, rp)
                assert scaled == pytest.approx(a * base, abs=1e-12 * max(1, abs(a * base)))

    def test_monotone_in_pointwise_dominance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            support, probs = random_dist(rng)
            bumped = support + rng.random(len(support))  # X' >= X under shared index
            rp = RiskParams(0.7, 0.6)
            lo = one_row(support, probs, rp)
            hi = one_row(bumped, probs, rp)
            assert hi >= lo - 1e-12

    def test_nondecreasing_in_lambda_and_alpha(self):
        rng = np.random.default_rng(6)
        support, probs = random_dist(rng)
        lams = np.linspace(0, 1, 9)
        alphas = np.linspace(0.1, 0.9, 9)
        for alpha in alphas:
            vals = [one_row(support, probs, RiskParams(l, alpha)) for l in lams]
            assert np.all(np.diff(vals) >= -1e-12)
        for lam in lams:
            vals = [one_row(support, probs, RiskParams(lam, a)) for a in alphas]
            assert np.all(np.diff(vals) >= -1e-12)


def test_mean_cvar_rows_matches_grid_search():
    rng = np.random.default_rng(9)
    probs = rng.random(12)
    probs /= probs.sum()
    values = rng.normal(0, 5, (7, 12))
    rp = RiskParams(0.65, 0.85)
    batched = mean_cvar_rows(values, probs, rp)
    for i in range(7):
        assert batched[i] == pytest.approx(mean_cvar_grid_search(values[i], probs, rp),
                                           abs=1e-12)


@given(
    values=st.lists(st.floats(-50, 50), min_size=1, max_size=12, unique=True),
    lam=st.floats(0, 1),
    alpha=st.floats(0.01, 0.99),
    shift=st.floats(-20, 20),
)
@settings(max_examples=200, deadline=None)
def test_translation_invariance_property(values, lam, alpha, shift):
    values = np.sort(np.array(values))
    probs = np.full(len(values), 1.0 / len(values))
    probs[-1] += 1.0 - probs.sum()
    rp = RiskParams(lam, alpha)
    base = one_row(values, probs, rp)
    assert one_row(values + shift, probs, rp) == pytest.approx(
        base + shift, abs=1e-9)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 5),
    n_out=st.integers(2, 9),
    ties=st.booleans(),
    ascending=st.booleans(),
    lam=st.sampled_from([0.0, 1.0]) | st.floats(0, 1),
    alphas=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_mean_cvar_rows_equal_the_argsort_path(seed, n_rows, n_out, ties, ascending, lam,
                                               alphas):
    # the sort-based entry point agrees with a one-pass sort and split at every
    # alpha, whether the rows come ascending, tied or out of order: the two sum
    # in different orders, so they agree to rounding, not bit for bit; on
    # ascending rows the linear weights agree with it
    rng = np.random.default_rng(seed)
    values = (rng.integers(-3, 4, (n_rows, n_out)).astype(float) if ties
              else rng.normal(0.0, 5.0, (n_rows, n_out)))
    values = np.sort(values, axis=1)
    if not ascending:
        values = rng.permuted(values, axis=1)
        values[0] = np.sort(values[0])[::-1]
        if values[0, 0] == values[0, -1]:  # a constant row cannot be out of order
            values[0, 0] += 1.0
    probs = rng.random(n_out)
    probs[rng.random(n_out) < 0.2] = 0.0  # atoms of zero mass
    probs[rng.integers(n_out)] += 0.1
    probs /= probs.sum()
    for alpha in alphas:
        rp = RiskParams(lam, alpha)
        got = mean_cvar_rows(values, probs, rp)
        np.testing.assert_allclose(got, argsort_mean_cvar(values, probs, rp), rtol=0,
                                   atol=1e-12)
        if ascending:
            linear = values @ mean_cvar_weights(probs, np.cumsum(probs), rp.lam, rp.alpha)
            np.testing.assert_allclose(linear, got, rtol=0, atol=1e-12)
        for i in range(n_rows):
            assert got[i] == pytest.approx(mean_cvar_grid_search(values[i], probs, rp),
                                           abs=1e-12)


class TestRiskSchedule:
    def test_homogeneous(self):
        sched = RiskSchedule.homogeneous(0.5, 0.9, horizon=4)
        assert sched.horizon == 4
        assert all(sched[t] == RiskParams(0.5, 0.9) for t in range(5))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            RiskParams(1.2, 0.5)
        with pytest.raises(ValueError):
            RiskParams(0.5, 1.0)
