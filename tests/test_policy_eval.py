import numpy as np
import pytest

from evcharge.mdp import MWH_PER_KWH, MdpConfig
from evcharge.policy_eval import (
    ContinuousChargePolicy,
    NeverChargePolicy,
    TauDist,
    Trajectory,
    compensation,
    estimate,
    practical_reward,
    practical_risk,
    simulate,
)

from conftest import DESK_PM, desk_cfg


def small_tau():
    return TauDist((2, 3), np.array([0.5, 0.5]))


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


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.zeros(3), np.zeros(3), np.zeros(1), tau=2)


class TestSimulate:
    def test_continuous_policy_fills_battery(self):
        cfg = desk_cfg()
        trajs = simulate(ContinuousChargePolicy(cfg), small_tau(), cfg, DESK_PM,
                         20.0, 50, seed=3)
        for tr in trajs:
            assert tr.charges[-1] == cfg.r_max  # fast regime: full after one step
            assert tr.charges[0] == cfg.r0
            np.testing.assert_array_equal(np.diff(tr.charges), tr.actions)

    def test_never_policy_stays_empty(self):
        cfg = desk_cfg()
        trajs = simulate(NeverChargePolicy(), small_tau(), cfg, DESK_PM, 20.0, 20, seed=3)
        assert all(tr.charges[-1] == 0 for tr in trajs)

    def test_seed_determinism_and_crn(self):
        cfg = desk_cfg()
        a = simulate(NeverChargePolicy(), small_tau(), cfg, DESK_PM, 20.0, 30, seed=11)
        b = simulate(NeverChargePolicy(), small_tau(), cfg, DESK_PM, 20.0, 30, seed=11)
        c = simulate(ContinuousChargePolicy(cfg), small_tau(), cfg, DESK_PM,
                     20.0, 30, seed=11)
        for ta, tb, tc in zip(a, b, c):
            np.testing.assert_array_equal(ta.prices, tb.prices)
            # identical seed => common random numbers across different policies
            assert ta.tau == tc.tau
            np.testing.assert_array_equal(ta.prices, tc.prices)

    def test_infeasible_actions_clipped(self):
        class Greedy:
            def action(self, t, r, p, tau):
                return 999

        cfg = desk_cfg()
        trajs = simulate(Greedy(), small_tau(), cfg, DESK_PM, 20.0, 5, seed=0)
        for tr in trajs:
            assert tr.actions.max() <= cfg.x_max
            assert tr.charges.max() <= cfg.r_max


class TestMetrics:
    def hand_traj(self):
        # tau = 2, prices in $/MWh, charge 4 then 2
        prices = np.array([20.0, 30.0, 25.0, 22.0])
        charges = np.array([0, 4, 6])
        actions = np.array([4, 2])
        return Trajectory(prices, charges, actions, tau=2)

    def test_reward_decomposition_exact(self):
        cfg = MdpConfig(r_max=6, x_max=6, c_f=0.5, p_ref=0.05, gamma_h=0.01,
                        horizon=2)
        tr = self.hand_traj()
        energy = (4 * 30.0 + 2 * 25.0) * MWH_PER_KWH
        # final charge equals capacity, so no compensation
        assert compensation(tr, cfg, DESK_PM) == 0.0
        assert practical_reward(tr, cfg, DESK_PM) == pytest.approx(
            2 * 0.5 - energy, abs=1e-12)

    def test_compensation_positive_on_shortfall(self):
        cfg = MdpConfig(r_max=10, x_max=5, c_f=0.5, p_ref=0.05, gamma_h=0.01,
                        horizon=2)
        tr = self.hand_traj()  # benchmark min(2*5, 10) = 10, shortfall 4
        comp = compensation(tr, cfg, DESK_PM)
        y = (22.0 - DESK_PM.seasonality(3)) * MWH_PER_KWH
        want = (1.0 + 0.01 * 4 + cfg.gamma_y(y)) * 4 * 0.05
        assert comp == pytest.approx(want, abs=1e-12)
        assert practical_reward(tr, cfg, DESK_PM) == pytest.approx(
            2 * 0.5 - (4 * 30.0 + 2 * 25.0) * MWH_PER_KWH - want, abs=1e-12)

    def test_indicator_boundary_inclusive(self):
        cfg = MdpConfig(r_max=60, x_max=60, c_f=0.5, p_ref=0.05, gamma_h=0.01,
                        horizon=2)
        prices = np.array([20.0, 30.0, 25.0, 22.0])
        tr = Trajectory(prices, np.array([0, 40, 42]), np.array([40, 2]), tau=2)
        # 42/60 = 0.70 exactly: counted as a risk event
        assert practical_risk(tr, "indicator", cfg, DESK_PM, delta=0.3) == 1.0
        tr2 = Trajectory(prices, np.array([0, 40, 43]), np.array([40, 3]), tau=2)
        assert practical_risk(tr2, "indicator", cfg, DESK_PM, delta=0.3) == 0.0

    def test_risk_kinds(self):
        cfg = MdpConfig(r_max=10, x_max=5, c_f=0.5, p_ref=0.05, gamma_h=0.01,
                        horizon=2)
        tr = self.hand_traj()
        assert practical_risk(tr, "shortage", cfg, DESK_PM) == 4.0
        assert practical_risk(tr, "compensation", cfg, DESK_PM) == pytest.approx(
            compensation(tr, cfg, DESK_PM))
        with pytest.raises(ValueError):
            practical_risk(tr, "spicy", cfg, DESK_PM)


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
