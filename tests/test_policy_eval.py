import dataclasses

import numpy as np
import pytest

from evcharge.beta_search import solve_family
from evcharge.config import preset
from evcharge.mdp import MWH_PER_KWH, MdpConfig, solve_horizons
from evcharge.policy_eval import (
    ContinuousChargePolicy,
    NeverChargePolicy,
    PathBatch,
    PracticalMetrics,
    Scenario,
    TauDist,
    ThresholdPolicyFamily,
    _aggregate,
    compensation,
    draw,
    estimate,
    practical_reward,
    practical_risk,
)
from evcharge.risk import RiskSchedule

from conftest import DESK_PM, desk_cfg
from oracles import (bootstrap_cvar, sample_paths_column_by_column, score_alone,
                     simulate_path_by_path)


def small_tau():
    return TauDist((2, 3), np.array([0.5, 0.5]))


def small_scenario(n_paths, seed):
    return Scenario.sample(small_tau(), DESK_PM, 20.0, n_paths, seed)


class TestTauDist:
    def test_default_support_and_mode(self):
        d = TauDist.default()
        assert d.horizons == tuple(range(4, 17))
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert d.horizons[int(np.argmax(d.probs))] == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            TauDist((2, 3), np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            TauDist((0, 3), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            TauDist((2,), np.array([0.5, 0.5]))


class TestSimulate:
    def test_continuous_policy_fills_battery(self):
        cfg = desk_cfg()
        paths = small_scenario(50, 3).simulate(ContinuousChargePolicy(cfg), cfg)
        assert np.all(paths.charges[:, -1] == cfg.r_max)  # fast regime: full after one step
        assert np.all(paths.charges[:, 0] == cfg.r0)

    def test_never_policy_stays_empty(self):
        cfg = desk_cfg()
        paths = small_scenario(20, 3).simulate(NeverChargePolicy(), cfg)
        assert np.all(paths.charges[:, -1] == 0)

    def test_seed_determinism_and_crn(self):
        cfg = desk_cfg()
        a = small_scenario(30, 11).simulate(NeverChargePolicy(), cfg)
        b = small_scenario(30, 11).simulate(NeverChargePolicy(), cfg)
        c = small_scenario(30, 11).simulate(ContinuousChargePolicy(cfg), cfg)
        np.testing.assert_array_equal(a.prices, b.prices)
        # identical seed => common random numbers across different policies
        np.testing.assert_array_equal(a.tau, c.tau)
        np.testing.assert_array_equal(a.prices, c.prices)

    def test_infeasible_actions_clipped(self):
        class Greedy:
            def levels(self, tau, prices):
                return np.full(prices.T.shape, 999)

        cfg = desk_cfg(x_max=5)
        paths = small_scenario(5, 0).simulate(Greedy(), cfg)
        assert np.diff(paths.charges, axis=1).max() == cfg.x_max
        assert paths.charges.max() == cfg.r_max

    def test_no_action_after_tau(self, desk_pm, desk_grid):
        # every path steps to the longest tau, so a policy's level is 0 (hold)
        # from each path's tau on, and the simulator takes the levels as given
        class Greedy:
            def levels(self, tau, prices):  # one more each period until tau
                t = np.arange(1, prices.shape[1] + 1)[:, None]
                return np.where(t <= tau, t, 0)

        cfg = desk_cfg()
        scenario = small_scenario(40, 5)
        paths = scenario.simulate(Greedy(), cfg)
        assert set(paths.tau) == {2, 3}
        for i, tau in enumerate(paths.tau):
            np.testing.assert_array_equal(np.diff(paths.charges[i]), [1] * tau + [0] * (3 - tau))
            assert paths.charges[i, -1] == tau
        family = solve_family(0.5, 0.9, cfg, desk_pm, desk_grid, (2, 3))
        for policy in (family, ContinuousChargePolicy(cfg), NeverChargePolicy()):
            level = np.broadcast_to(policy.levels(scenario.tau, scenario.prices[:, :3]), (3, 40))
            assert not level[np.arange(3)[:, None] >= scenario.tau].any()
        default = ContinuousChargePolicy(cfg).levels(scenario.tau, scenario.prices[:, :3])
        assert np.all(default[:2] == cfg.r_max)  # every tau is 2 or 3

    def test_missing_horizon_rejected(self, desk_pm, desk_grid):
        fam = solve_family(0.5, 0.9, desk_cfg(), desk_pm, desk_grid, (2,))
        with pytest.raises(ValueError, match="horizon 3"):
            small_scenario(20, 0).simulate(fam, desk_cfg())

    def test_prices_and_charges_index_path_then_period(self):
        # the paths are stored time-major behind (path, period) views
        cfg = desk_cfg()
        n, seed = 30, 8
        scenario = small_scenario(n, seed)
        tau, *noise = draw(small_tau(), n, seed)
        want = sample_paths_column_by_column(20.0, DESK_PM, *noise)
        assert scenario.prices.shape == (n, 3 + 2)
        assert scenario.prices.T.flags.c_contiguous
        assert np.ascontiguousarray(scenario.prices).tobytes() == want.tobytes()
        for i in (0, 7, n - 1):
            np.testing.assert_array_equal(scenario.prices[i], want[i])
            assert scenario.prices[i, 2] == want[i, 2]
        paths = scenario.simulate(ContinuousChargePolicy(cfg), cfg)
        assert paths.prices is scenario.prices
        assert paths.charges.shape == (n, 3 + 1)
        for i in (0, n - 1):
            np.testing.assert_array_equal(
                paths.charges[i], [cfg.r0] + [cfg.r_max] * 3)


class TestThresholdLevels:
    def family(self, desk_pm, desk_grid):
        return solve_family(0.5, 0.9, desk_cfg(), desk_pm, desk_grid, (2, 3, 5))

    def test_flat_take_equals_table_gather(self, desk_pm, desk_grid):
        fam = self.family(desk_pm, desk_grid)
        rng = np.random.default_rng(21)
        n, steps = 400, 5
        tau = rng.choice([2, 3, 5], n)
        lo, hi = desk_grid.points[0], desk_grid.points[-1]
        prices = rng.uniform(lo - 15.0, hi + 15.0, (n, steps))  # off both grid ends
        prices[:5] = [lo - 100.0, lo - 0.5, lo + 0.5, hi + 0.5, hi + 100.0]
        assert (prices < lo - 0.5).any() and (prices > hi + 0.5).any()
        t = np.arange(steps)[:, None]
        want = fam.table[tau, t, desk_grid.nearest_index(prices.T)]
        for layout in (prices, np.ascontiguousarray(prices.T).T):
            got = fam.levels(tau, layout)
            assert got.shape == (steps, n)
            np.testing.assert_array_equal(got, want)
        assert not want[t >= tau].any()
        np.testing.assert_array_equal(fam.levels(tau, prices[:, :2]), want[:2])

    def test_unsolved_horizon_and_extra_periods_rejected(self, desk_pm, desk_grid):
        fam = self.family(desk_pm, desk_grid)
        prices = np.full((3, 4), 20.0)
        with pytest.raises(ValueError, match="no solved MDP for horizon 4"):
            fam.levels(np.array([2, 4, 3]), prices)
        with pytest.raises(ValueError, match="no solved MDP for horizon 7"):
            fam.levels(np.array([2, 7, 3]), prices)
        with pytest.raises(ValueError, match="levels reach 5 periods, got 6"):
            fam.levels(np.array([2, 5, 3]), np.full((3, 6), 20.0))


def _desk_policies(**mdp_changes):
    cfg = preset("desk_scale")
    cfg = dataclasses.replace(cfg, mdp=dataclasses.replace(cfg.mdp, **mdp_changes))
    family = solve_family(0.5, 0.9, cfg.mdp, cfg.pm, cfg.build_grid(), cfg.tau.horizons)
    return cfg, {"threshold": family, "default": ContinuousChargePolicy(cfg.mdp),
                 "never": NeverChargePolicy()}


BATCH_FIELDS = ("tau", "prices", "charges", "energy_cost")


def _same_batch(a, b):
    for name in BATCH_FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestArraySimulator:
    P0 = 30.0  # desk start price at which the threshold policy waits on some paths

    def scenario(self, cfg, n_paths, seed, p0=P0):
        return Scenario.sample(cfg.tau, cfg.pm, p0, n_paths, seed)

    def test_matches_path_by_path_reference(self):
        n, seed = 300, 17
        # the preset's x_max = r_max, where every threshold step charges fully or
        # not at all, and x_max = 5, where some stop inside the per-period cap
        for mdp_changes in ({}, {"x_max": 5}):
            cfg, policies = _desk_policies(**mdp_changes)
            tau, *noise = draw(cfg.tau, n, seed)
            for name, pol in policies.items():
                paths = self.scenario(cfg, n, seed).simulate(pol, cfg.mdp)
                ref = simulate_path_by_path(name, cfg.mdp, cfg.pm, self.P0, tau, *noise,
                                            solutions=policies["threshold"].solutions)
                np.testing.assert_array_equal(paths.tau, tau)
                for i, (prices, charges, actions) in enumerate(ref):
                    T = int(paths.tau[i])
                    np.testing.assert_allclose(paths.prices[i, :T + 2], prices,
                                               rtol=1e-12, atol=1e-12)
                    np.testing.assert_array_equal(paths.charges[i, :T + 1], charges)
                    np.testing.assert_array_equal(np.diff(paths.charges[i, :T + 1]), actions)
                if name == "threshold":
                    purchases = np.diff(paths.charges, axis=1)
                    waited = int(np.sum(purchases[:, 0] < cfg.mdp.x_max))
                    room = np.minimum(cfg.mdp.x_max, cfg.mdp.r_max - paths.charges[:, :-1])
                    partial = int(np.sum((purchases > 0) & (purchases < room)))
            if mdp_changes:
                assert partial > 0  # a threshold inside the cap stops a charge
            else:
                assert waited > 0  # the threshold family does not just copy Default

    def test_first_m_paths_equal_m_path_run(self):
        cfg, policies = _desk_policies()
        for pol in policies.values():
            big = self.scenario(cfg, 500, 9).simulate(pol, cfg.mdp)
            small = self.scenario(cfg, 37, 9).simulate(pol, cfg.mdp)
            _same_batch(small, PathBatch(*(getattr(big, f)[:37] for f in BATCH_FIELDS)))

    def test_common_random_numbers(self):
        cfg, policies = _desk_policies()
        runs = [self.scenario(cfg, 200, 4).simulate(pol, cfg.mdp)
                for pol in policies.values()]
        again = self.scenario(cfg, 200, 4).simulate(policies["threshold"], cfg.mdp)
        _same_batch(runs[0], again)
        for other in runs[1:]:
            np.testing.assert_array_equal(other.tau, runs[0].tau)
            np.testing.assert_array_equal(other.prices, runs[0].prices)
        # another start price keeps tau and shifts each path by a decaying offset
        low = self.scenario(cfg, 200, 4, 20.0).simulate(policies["never"], cfg.mdp)
        np.testing.assert_array_equal(low.tau, runs[0].tau)
        offset = (self.P0 - 20.0) * cfg.pm.decay ** np.arange(low.prices.shape[1])
        np.testing.assert_allclose(runs[0].prices - low.prices,
                                   np.broadcast_to(offset, low.prices.shape), atol=1e-9)
        other_seed = self.scenario(cfg, 200, 5).simulate(policies["never"], cfg.mdp)
        assert not np.array_equal(other_seed.prices, runs[0].prices)


def test_scenario_scores_equal_estimate():
    # one Scenario scores every policy as a fresh estimate with its seed would,
    # and scoring leaves the shared paths untouched
    cfg, policies = _desk_policies()
    scenario = Scenario.sample(cfg.tau, cfg.pm, 30.0, 400, 13)
    tau, prices = scenario.tau.copy(), scenario.prices.copy()
    for kind in ("indicator", "compensation", "shortage"):
        for pol in policies.values():
            assert scenario.score(pol, cfg.mdp, risk_kind=kind, delta=cfg.delta) == estimate(
                pol, cfg.tau, cfg.mdp, cfg.pm, 30.0, 400, 13, risk_kind=kind, delta=cfg.delta)
    np.testing.assert_array_equal(scenario.tau, tau)
    np.testing.assert_array_equal(scenario.prices, prices)


class FixedLevels:
    """A policy whose levels are given, (periods, paths)."""

    def __init__(self, levels):
        self.fixed = np.array(levels)

    def levels(self, tau, prices):
        return self.fixed


def hand_simulated(cfg, levels, prices, tau=2):
    """The simulator's PathBatch of every row of prices under levels."""
    prices = np.array(prices)
    return Scenario(np.full(len(prices), tau), prices, DESK_PM, 0).simulate(
        FixedLevels(levels), cfg)


BATCH_BETAS = [(0.0, 0.5), (0.3, 0.7), (0.7, 0.9), (1.0, 0.98), (0.5, 0.05)]


def _desk_batch(mdp_changes, horizons=None, betas=BATCH_BETAS):
    """The desk preset under mdp_changes and the families of betas solved in
    one sweep over horizons (the preset's by default)."""
    cfg = preset("desk_scale")
    cfg = dataclasses.replace(cfg, mdp=dataclasses.replace(cfg.mdp, **mdp_changes))
    horizons = horizons or cfg.tau.horizons
    schedules = [RiskSchedule.homogeneous(lam, alpha, max(horizons)) for lam, alpha in betas]
    return cfg, solve_horizons(cfg.mdp, schedules, cfg.pm, cfg.build_grid(), horizons)


class TestBatchScore:
    """Scoring the families of one solve_horizons batch in one call, against
    scoring each alone and against the single-policy reference."""

    P0 = 30.0  # desk start price at which the families differ

    @pytest.mark.parametrize("mdp_changes", [
        {}, {"x_max": 5}, {"gamma_y_kind": "linear-capped", "gamma_y_cap": 0.01}],
        ids=["fast", "slow", "linear-capped"])
    @pytest.mark.parametrize("risk_kind,risk_agg", [
        ("indicator", "mean"), ("compensation", "mean"), ("shortage", "mean"),
        ("compensation", "cvar")])
    def test_batch_equals_each_family_alone(self, mdp_changes, risk_kind, risk_agg):
        cfg, families = _desk_batch(mdp_changes)
        scenario = Scenario.sample(cfg.tau, cfg.pm, self.P0, 500, 13)
        batch = ThresholdPolicyFamily(families)
        got = scenario.score(batch, cfg.mdp, risk_kind=risk_kind, risk_agg=risk_agg,
                             delta=cfg.delta)
        paths = scenario.simulate(batch, cfg.mdp)
        assert len(got) == len(families) and paths.charges.shape[0] == len(families)
        for b, sols in enumerate(families):
            family = ThresholdPolicyFamily(sols)
            alone = scenario.score(family, cfg.mdp, risk_kind=risk_kind, risk_agg=risk_agg,
                                   delta=cfg.delta)
            assert got[b] == alone
            one = scenario.simulate(family, cfg.mdp)
            assert np.array_equal(paths.charges[b], one.charges)
            assert np.array_equal(paths.energy_cost[b], one.energy_cost)
            if risk_agg == "mean":
                assert (alone.reward, alone.reward_se, alone.risk, alone.risk_se) == score_alone(
                    scenario, family, cfg.mdp, risk_kind, cfg.delta)
        assert len({(m.reward, m.risk) for m in got}) > 1  # the families differ

    def test_family_missing_a_drawn_horizon_rejected(self):
        _, full = _desk_batch({}, betas=BATCH_BETAS[:2])
        cfg, short = _desk_batch({}, horizons=(2, 4), betas=BATCH_BETAS[2:3])
        batch = ThresholdPolicyFamily(full + short)
        scenario = Scenario.sample(cfg.tau, cfg.pm, self.P0, 200, 13)
        assert 3 in scenario.tau
        with pytest.raises(ValueError, match="no solved MDP for horizon 3"):
            scenario.score(batch, cfg.mdp)
        with pytest.raises(ValueError, match="no solved MDP for horizon 3"):
            scenario.simulate(batch, cfg.mdp)

    @pytest.mark.parametrize("risk_kind", ["indicator", "compensation", "shortage"])
    def test_batch_of_one_equals_the_single_policy_reference(self, risk_kind):
        cfg, (sols,) = _desk_batch({}, betas=BATCH_BETAS[2:3])
        scenario = Scenario.sample(cfg.tau, cfg.pm, self.P0, 500, 13)
        for policy in (ThresholdPolicyFamily(sols), ContinuousChargePolicy(cfg.mdp),
                       NeverChargePolicy()):
            want = PracticalMetrics(*score_alone(scenario, policy, cfg.mdp, risk_kind,
                                                 cfg.delta), 500)
            assert scenario.score(policy, cfg.mdp, risk_kind=risk_kind, delta=cfg.delta) == want
        (one,) = scenario.score(ThresholdPolicyFamily([sols]), cfg.mdp, risk_kind=risk_kind,
                                delta=cfg.delta)
        assert one == scenario.score(ThresholdPolicyFamily(sols), cfg.mdp, risk_kind=risk_kind,
                                     delta=cfg.delta)


class TestMetrics:
    def hand_paths(self, cfg):
        # one path, tau = 2, prices in $/MWh, charge 4 then 2
        paths = hand_simulated(cfg, [[4], [6]], [[20.0, 30.0, 25.0, 22.0]])
        np.testing.assert_array_equal(paths.charges, [[0, 4, 6]])
        return paths

    def test_reward_decomposition_exact(self):
        cfg = MdpConfig(r_max=6, x_max=6, c_f=0.5, p_ref=0.05, gamma_h=0.01,
                        horizon=2)
        paths = self.hand_paths(cfg)
        energy = (4 * 30.0 + 2 * 25.0) * MWH_PER_KWH
        assert paths.energy_cost[0] == pytest.approx(energy, abs=1e-12)
        # final charge equals capacity, so no compensation
        assert compensation(paths, cfg, DESK_PM)[0] == 0.0
        assert practical_reward(paths, cfg, DESK_PM)[0] == pytest.approx(
            2 * 0.5 - energy, abs=1e-12)

    def test_compensation_positive_on_shortfall(self):
        cfg = MdpConfig(r_max=10, x_max=5, c_f=0.5, p_ref=0.05, gamma_h=0.01,
                        horizon=2)
        paths = self.hand_paths(cfg)  # benchmark min(2*5, 10) = 10, shortfall 4
        comp = compensation(paths, cfg, DESK_PM)[0]
        y = (22.0 - DESK_PM.seasonality(3)) * MWH_PER_KWH
        want = (1.0 + 0.01 * 4 + cfg.gamma_y(y)) * 4 * 0.05
        assert comp == pytest.approx(want, abs=1e-12)
        assert practical_reward(paths, cfg, DESK_PM)[0] == pytest.approx(
            2 * 0.5 - (4 * 30.0 + 2 * 25.0) * MWH_PER_KWH - want, abs=1e-12)

    def test_indicator_boundary_inclusive(self):
        cfg = MdpConfig(r_max=60, x_max=60, c_f=0.5, p_ref=0.05, gamma_h=0.01,
                        horizon=2)
        # 42/60 = 0.70 exactly: counted as a risk event; 43/60 is not
        paths = hand_simulated(cfg, [[40, 40], [42, 43]], [[20.0, 30.0, 25.0, 22.0]] * 2)
        np.testing.assert_array_equal(paths.charges, [[0, 40, 42], [0, 40, 43]])
        np.testing.assert_array_equal(
            practical_risk(paths, "indicator", cfg, DESK_PM, delta=0.3), [1.0, 0.0])

    def test_risk_kinds(self):
        cfg = MdpConfig(r_max=10, x_max=5, c_f=0.5, p_ref=0.05, gamma_h=0.01,
                        horizon=2)
        paths = self.hand_paths(cfg)
        assert practical_risk(paths, "shortage", cfg, DESK_PM)[0] == 4.0
        assert practical_risk(paths, "compensation", cfg, DESK_PM)[0] == pytest.approx(
            compensation(paths, cfg, DESK_PM)[0])
        with pytest.raises(ValueError):
            practical_risk(paths, "spicy", cfg, DESK_PM)


class TestEstimate:
    def test_never_policy_always_at_risk(self):
        cfg = desk_cfg()
        m = estimate(NeverChargePolicy(), small_tau(), cfg, DESK_PM, 20.0,
                     n_paths=50, seed=2)
        assert m.risk == 1.0
        assert m.risk_se == 0.0

    def test_continuous_policy_riskless_in_fast_regime(self):
        cfg = desk_cfg()
        m = estimate(ContinuousChargePolicy(cfg), small_tau(), cfg, DESK_PM, 20.0,
                     n_paths=50, seed=2)
        assert m.risk == 0.0

    def test_cvar_aggregation_dominates_mean(self):
        # Never pays a compensation that varies with the end price (Default pays
        # none in the fast regime), so the CVaR sits strictly above the mean
        cfg = desk_cfg()
        mean_m = estimate(NeverChargePolicy(), small_tau(), cfg, DESK_PM,
                          20.0, n_paths=200, seed=4, risk_kind="compensation")
        cvar_m = estimate(NeverChargePolicy(), small_tau(), cfg, DESK_PM,
                          20.0, n_paths=200, seed=4, risk_kind="compensation",
                          risk_agg="cvar", agg_alpha=0.9)
        assert mean_m.risk > 0.0
        assert cvar_m.risk > mean_m.risk

    @pytest.mark.parametrize("n_paths", [2, 1000])
    @pytest.mark.parametrize("alpha", [0.05, 0.9, 0.995])
    @pytest.mark.parametrize("risk_kind", ["indicator", "compensation"])
    def test_cvar_bootstrap_matches_sorting_each_resample(self, risk_kind, alpha, n_paths):
        # the CVaR and its bootstrap SE equal sorting each of the same 100
        # resamples, on Never's indicator (every outcome ties) and compensation
        cfg = desk_cfg()
        scenario = small_scenario(n_paths, 6)
        m = scenario.score(NeverChargePolicy(), cfg, risk_kind=risk_kind, risk_agg="cvar",
                           agg_alpha=alpha)
        outcomes = practical_risk(scenario.simulate(NeverChargePolicy(), cfg), risk_kind, cfg,
                                  DESK_PM)
        risk, risk_se = bootstrap_cvar(outcomes, alpha, scenario.seed)
        assert m.risk == pytest.approx(risk, rel=1e-12, abs=0)
        # the SE relative to the estimate: tied outcomes give an SE of rounding only
        assert m.risk_se == pytest.approx(risk_se, rel=0, abs=1e-12 * risk)

    @pytest.mark.parametrize("n_paths", [1_000, 20_000, 100_000])
    def test_cvar_of_a_constant_is_that_constant(self, n_paths):
        # the cumulative weights are cumulative counts over n, exactly 1 at the
        # top, so the tail mass does not drift with the number of paths
        risk, risk_se = _aggregate(np.ones(n_paths), "cvar", 0.9, seed=3)
        assert abs(risk - 1.0) <= 1e-14
        assert risk_se <= 1e-14

    def test_unknown_risk_agg_rejected(self):
        cfg = desk_cfg()
        with pytest.raises(ValueError, match="bogus"):
            estimate(NeverChargePolicy(), small_tau(), cfg, DESK_PM, 20.0,
                     n_paths=50, seed=0, risk_agg="bogus")

    def test_n_paths_guard(self):
        cfg = desk_cfg()
        with pytest.raises(ValueError):
            estimate(NeverChargePolicy(), small_tau(), cfg, DESK_PM, 20.0,
                     n_paths=1, seed=0)
