import numpy as np
import pytest

from evcharge.beta_search import solve_family
from evcharge.config import preset
from evcharge.mdp import MWH_PER_KWH, MdpConfig
from evcharge.policy_eval import (
    ContinuousChargePolicy,
    NeverChargePolicy,
    PathBatch,
    Scenario,
    TauDist,
    compensation,
    draw,
    estimate,
    practical_reward,
    practical_risk,
)

from conftest import DESK_PM, desk_cfg
from oracles import simulate_path_by_path


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
        np.testing.assert_array_equal(np.diff(paths.charges, axis=1), paths.actions)

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
            def actions(self, t, r, p, tau):
                return np.full_like(r, 999)

        cfg = desk_cfg()
        paths = small_scenario(5, 0).simulate(Greedy(), cfg)
        assert paths.actions.max() <= cfg.x_max
        assert paths.charges.max() <= cfg.r_max

    def test_no_action_after_tau(self):
        class Greedy:
            def actions(self, t, r, p, tau):
                return np.ones_like(r)

        cfg = desk_cfg()
        paths = small_scenario(40, 5).simulate(Greedy(), cfg)
        assert set(paths.tau) == {2, 3}
        for i, tau in enumerate(paths.tau):
            np.testing.assert_array_equal(paths.actions[i], [1] * tau + [0] * (3 - tau))
            assert paths.charges[i, -1] == tau

    def test_missing_horizon_rejected(self, desk_pm, desk_grid):
        fam = solve_family(0.5, 0.9, desk_cfg(), desk_pm, desk_grid, (2,))
        with pytest.raises(ValueError, match="horizon 3"):
            small_scenario(20, 0).simulate(fam, desk_cfg())


def _desk_policies():
    cfg = preset("desk_scale")
    family = solve_family(0.5, 0.9, cfg.mdp, cfg.pm, cfg.build_grid(), cfg.tau.horizons)
    return cfg, {"threshold": family, "default": ContinuousChargePolicy(cfg.mdp),
                 "never": NeverChargePolicy()}


def _same_batch(a, b):
    for name in ("tau", "prices", "charges", "actions"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestArraySimulator:
    P0 = 30.0  # desk start price at which the threshold policy waits on some paths

    def scenario(self, cfg, n_paths, seed, p0=P0):
        return Scenario.sample(cfg.tau, cfg.pm, p0, n_paths, seed)

    def test_matches_path_by_path_reference(self):
        cfg, policies = _desk_policies()
        n, seed = 300, 17
        tau, *noise = draw(cfg.tau, n, seed)
        waited = 0
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
                np.testing.assert_array_equal(paths.actions[i, :T], actions)
            if name == "threshold":
                waited = int(np.sum(paths.actions[:, 0] < cfg.mdp.x_max))
        assert waited > 0  # the threshold family does not just copy Default

    def test_first_m_paths_equal_m_path_run(self):
        cfg, policies = _desk_policies()
        for pol in policies.values():
            big = self.scenario(cfg, 500, 9).simulate(pol, cfg.mdp)
            small = self.scenario(cfg, 37, 9).simulate(pol, cfg.mdp)
            _same_batch(small, PathBatch(*(getattr(big, f)[:37] for f in
                                           ("tau", "prices", "charges", "actions"))))

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


class TestMetrics:
    def hand_paths(self):
        # one path, tau = 2, prices in $/MWh, charge 4 then 2
        prices = np.array([[20.0, 30.0, 25.0, 22.0]])
        charges = np.array([[0, 4, 6]])
        actions = np.array([[4, 2]])
        return PathBatch(np.array([2]), prices, charges, actions)

    def test_reward_decomposition_exact(self):
        cfg = MdpConfig(r_max=6, x_max=6, c_f=0.5, p_ref=0.05, gamma_h=0.01,
                        horizon=2)
        paths = self.hand_paths()
        energy = (4 * 30.0 + 2 * 25.0) * MWH_PER_KWH
        # final charge equals capacity, so no compensation
        assert compensation(paths, cfg, DESK_PM)[0] == 0.0
        assert practical_reward(paths, cfg, DESK_PM)[0] == pytest.approx(
            2 * 0.5 - energy, abs=1e-12)

    def test_compensation_positive_on_shortfall(self):
        cfg = MdpConfig(r_max=10, x_max=5, c_f=0.5, p_ref=0.05, gamma_h=0.01,
                        horizon=2)
        paths = self.hand_paths()  # benchmark min(2*5, 10) = 10, shortfall 4
        comp = compensation(paths, cfg, DESK_PM)[0]
        y = (22.0 - DESK_PM.seasonality(3)) * MWH_PER_KWH
        want = (1.0 + 0.01 * 4 + cfg.gamma_y(y)) * 4 * 0.05
        assert comp == pytest.approx(want, abs=1e-12)
        assert practical_reward(paths, cfg, DESK_PM)[0] == pytest.approx(
            2 * 0.5 - (4 * 30.0 + 2 * 25.0) * MWH_PER_KWH - want, abs=1e-12)

    def test_indicator_boundary_inclusive(self):
        cfg = MdpConfig(r_max=60, x_max=60, c_f=0.5, p_ref=0.05, gamma_h=0.01,
                        horizon=2)
        prices = np.array([[20.0, 30.0, 25.0, 22.0]] * 2)
        # 42/60 = 0.70 exactly: counted as a risk event; 43/60 is not
        paths = PathBatch(np.array([2, 2]), prices, np.array([[0, 40, 42], [0, 40, 43]]),
                          np.array([[40, 2], [40, 3]]))
        np.testing.assert_array_equal(
            practical_risk(paths, "indicator", cfg, DESK_PM, delta=0.3), [1.0, 0.0])

    def test_risk_kinds(self):
        cfg = MdpConfig(r_max=10, x_max=5, c_f=0.5, p_ref=0.05, gamma_h=0.01,
                        horizon=2)
        paths = self.hand_paths()
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
        cfg = desk_cfg()
        mean_m = estimate(ContinuousChargePolicy(cfg), small_tau(), cfg, DESK_PM,
                          20.0, n_paths=200, seed=4, risk_kind="compensation")
        cvar_m = estimate(ContinuousChargePolicy(cfg), small_tau(), cfg, DESK_PM,
                          20.0, n_paths=200, seed=4, risk_kind="compensation",
                          risk_agg="cvar", agg_alpha=0.9)
        assert cvar_m.risk >= mean_m.risk - 1e-12

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
