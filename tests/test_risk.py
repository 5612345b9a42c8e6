import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcharge.price_model import DiscreteDist
from evcharge.risk import (
    RiskParams,
    RiskSchedule,
    cvar_discrete,
    mean_cvar,
    mean_cvar_rows,
    var_discrete,
)

from conftest import random_dist
from oracles import cvar_grid_search, mean_cvar_grid_search


def one_row(values, probs, rp):
    """Mean-CVaR of one outcome vector through the batched kernel; unlike a
    DiscreteDist, the outcomes may be unsorted or repeated."""
    return float(mean_cvar_rows(values[None, :], probs, rp)[0])


def two_point():
    return DiscreteDist(np.array([1.0, 3.0]), np.array([0.5, 0.5]))


class TestVar:
    def test_point_mass(self):
        d = DiscreteDist(np.array([7.0]), np.array([1.0]))
        assert var_discrete(d, 0.9) == 7.0

    def test_cdf_boundary(self):
        # P(X <= 1) = 0.5 is not > 0.5, so the quantile moves up
        assert var_discrete(two_point(), 0.5) == 3.0
        assert var_discrete(two_point(), 0.4) == 1.0

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            var_discrete(two_point(), 1.0)


class TestCvar:
    def test_point_mass_translation(self):
        for c in (-3.0, 0.0, 11.5):
            d = DiscreteDist(np.array([c]), np.array([1.0]))
            assert cvar_discrete(d, 0.7) == pytest.approx(c, abs=1e-14)

    def test_two_point_at_half(self):
        assert cvar_discrete(two_point(), 0.5) == pytest.approx(3.0, abs=1e-12)

    def test_atom_split(self):
        d = DiscreteDist(np.array([0.0, 10.0]), np.array([0.9, 0.1]))
        # tail mass 0.2: all of the 10-atom plus 0.1 of the 0-atom
        assert cvar_discrete(d, 0.8) == pytest.approx(5.0, abs=1e-12)

    def test_matches_grid_search_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            support, probs = random_dist(rng)
            alpha = float(rng.uniform(0.05, 0.95))
            exact = cvar_discrete(DiscreteDist(support, probs), alpha)
            searched = cvar_grid_search(support, probs, alpha)
            assert exact == pytest.approx(searched, abs=1e-9)

    def test_coherence_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            support, probs = random_dist(rng)
            alpha = float(rng.uniform(0.05, 0.95))
            cvar = cvar_discrete(DiscreteDist(support, probs), alpha)
            var = support[np.searchsorted(np.cumsum(probs), alpha, side="right")]
            assert cvar >= float(support @ probs) - 1e-12
            assert cvar >= var - 1e-12


class TestMeanCvar:
    def test_lambda_zero_is_mean(self):
        d = two_point()
        assert mean_cvar(d, RiskParams(0.0, 0.5)) == d.mean()

    def test_lambda_one_is_cvar(self):
        assert mean_cvar(two_point(), RiskParams(1.0, 0.5)) == pytest.approx(3.0)

    def test_convex_combination(self):
        assert mean_cvar(two_point(), RiskParams(0.5, 0.5)) == pytest.approx(2.5)

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
