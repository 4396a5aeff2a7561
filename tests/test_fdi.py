import dataclasses
import math

import numpy as np
import pytest

from rovftc.fdi import (FdiConfig, FdiEngine, detection_threshold,
                        identify_fault, predict_sign_pattern,
                        reconfigure_step, residual)

ALPHA = math.pi / 4.0

SMOOTH = True   # reference smoothness flag away from segment joints
JOINT = False   # ... and exactly at one

# sign rows for a degraded first thruster, indexed by
# (u1 sign, cos(psi - alpha) sign, sin(psi - alpha) sign)
FIRST_THRUSTER_SIGN_TABLE = {
    (+1, +1, +1): (+1, +1, -1),
    (+1, +1, -1): (+1, -1, -1),
    (+1, -1, +1): (-1, +1, -1),
    (+1, -1, -1): (-1, -1, -1),
    (-1, +1, +1): (-1, -1, +1),
    (-1, +1, -1): (-1, +1, +1),
    (-1, -1, +1): (+1, -1, +1),
    (-1, -1, -1): (+1, +1, +1),
}

# headings putting psi - alpha in each quadrant
QUADRANT_HEADING = {
    (+1, +1): ALPHA + math.pi / 4,
    (-1, +1): ALPHA + 3 * math.pi / 4,
    (-1, -1): ALPHA - 3 * math.pi / 4,
    (+1, -1): ALPHA - math.pi / 4,
}


class TestResidual:
    def test_pythagorean(self):
        assert residual([3.0, 4.0, 0.0], 5.0) == pytest.approx(5.0)

    def test_yaw_weighting(self):
        assert residual([0.0, 0.0, 1.0], 5.0) == pytest.approx(math.sqrt(5.0))

    def test_zero(self):
        assert residual([0.0, 0.0, 0.0], 5.0) == 0.0

    def test_positive_weight_required(self):
        with pytest.raises(ValueError):
            residual([1.0, 0.0, 0.0], 0.0)


class TestThreshold:
    def test_default_sum(self, fdi_cfg):
        assert detection_threshold(fdi_cfg, SMOOTH) == pytest.approx(0.31)

    def test_zero_margin_collapses_to_base(self, fdi_cfg):
        cfg = dataclasses.replace(fdi_cfg, f_smooth=0.0)
        assert detection_threshold(cfg, SMOOTH) == pytest.approx(cfg.c2)

    def test_widened_in_hold_window(self, fdi_cfg):
        assert detection_threshold(fdi_cfg, SMOOTH, in_hold_window=True) \
            == pytest.approx(0.31 + fdi_cfg.joint_widen)

    def test_widened_at_joint_sample(self, fdi_cfg):
        assert detection_threshold(fdi_cfg, JOINT) \
            == pytest.approx(0.31 + fdi_cfg.joint_widen)


class TestSignPrediction:
    def test_full_sign_table_first_thruster(self, geom, fdi_cfg):
        for (su, sc, ss), expected in FIRST_THRUSTER_SIGN_TABLE.items():
            psi = QUADRANT_HEADING[(sc, ss)]
            got = predict_sign_pattern(1, su * 0.5, psi, geom, fdi_cfg)
            assert got == expected, (su, sc, ss)

    def test_worked_quadrant_cases(self, geom, fdi_cfg):
        # forward command, heading two quadrants past the thruster axis
        psi = QUADRANT_HEADING[(-1, +1)]
        assert predict_sign_pattern(1, 0.5, psi, geom, fdi_cfg) == (-1, +1, -1)
        # reverse command, heading one quadrant past
        psi = QUADRANT_HEADING[(+1, +1)]
        assert predict_sign_pattern(1, -0.5, psi, geom, fdi_cfg) == (-1, -1, +1)

    def test_dead_band_command(self, geom, fdi_cfg):
        assert predict_sign_pattern(1, 0.0, 0.3, geom, fdi_cfg) == (0, 0, 0)
        assert predict_sign_pattern(2, 1e-4, 0.3, geom, fdi_cfg) == (0, 0, 0)

    def test_geometric_dead_band(self, geom, fdi_cfg):
        # heading aligned with the thruster axis: no x-observability
        psi = ALPHA + math.pi / 2
        sx, sy, sp = predict_sign_pattern(1, 0.5, psi, geom, fdi_cfg)
        assert sx == 0 and sy != 0 and sp != 0

    def test_patterns_distinct_across_bank(self, geom, fdi_cfg, rng):
        # for any heading and command signs, no two thrusters share a
        # fully-determinate signature
        for _ in range(200):
            psi = rng.uniform(-math.pi, math.pi)
            u = rng.choice([-0.5, 0.5], 4)
            pats = [predict_sign_pattern(i, u[i - 1], psi, geom, fdi_cfg)
                    for i in range(1, 5)]
            full = [p for p in pats if 0 not in p]
            assert len(full) == len(set(full))


class TestIdentify:
    def test_synthetic_quadrant_case(self, geom, fdi_cfg):
        psi = QUADRANT_HEADING[(-1, +1)]
        e_dot = np.array([-0.1, 0.1, -0.05])
        u = np.array([0.5, 0.5, -0.5, -0.5])
        assert identify_fault(e_dot, u, psi, fdi_cfg, geom) == 1

    def test_quiet_observation_defers(self, geom, fdi_cfg):
        u = np.array([0.5, 0.5, -0.5, -0.5])
        assert identify_fault(np.zeros(3), u, 0.3, fdi_cfg, geom) is None

    def test_sub_threshold_rates_defer(self, geom, fdi_cfg):
        psi = QUADRANT_HEADING[(-1, +1)]
        e_dot = np.array([-0.1, 0.1, 0.5 * fdi_cfg.delta2])
        u = np.array([0.5, 0.5, -0.5, -0.5])
        assert identify_fault(e_dot, u, psi, fdi_cfg, geom) is None

    def test_dead_band_candidates_excluded(self, geom, fdi_cfg):
        psi = QUADRANT_HEADING[(-1, +1)]
        e_dot = np.array([-0.1, 0.1, -0.05])
        u = np.zeros(4)
        assert identify_fault(e_dot, u, psi, fdi_cfg, geom) is None


class TestReconfigure:
    def test_single_decrement(self, fdi_cfg):
        out = reconfigure_step(np.ones(4), 3, fdi_cfg)
        assert np.allclose(out, [1.0, 1.0, 0.95, 1.0])

    def test_floor_clamp(self, fdi_cfg):
        out = reconfigure_step(np.array([1.0, 1.0, 0.07, 1.0]), 3, fdi_cfg)
        assert out[2] == pytest.approx(fdi_cfg.w_min)

    def test_other_entries_untouched(self, fdi_cfg, rng):
        w = rng.uniform(0.2, 1.0, 4)
        out = reconfigure_step(w, 2, fdi_cfg)
        assert np.allclose(np.delete(out, 1), np.delete(w, 1))


class TestConfigValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FdiConfig(c1=0.0)
        with pytest.raises(ValueError):
            FdiConfig(delta_w=1.5)
        with pytest.raises(ValueError):
            FdiConfig(n_consec=0)

    def test_zero_margins_allowed(self):
        cfg = FdiConfig(f_smooth=0.0, joint_widen=0.0, joint_hold=0.0)
        assert cfg.f_smooth == 0.0


def drive(engine, samples):
    """Feed (t, e_eta, e_dot, u, psi, smooth) tuples; collect decrements."""
    updates = []
    for t, e_eta, e_dot, u, psi, smooth in samples:
        due = engine.update(t, 0.01, e_eta, e_dot, u, psi, smooth)
        if due is not None:
            updates.append((t, due))
    return updates


class TestEngine:
    CRUISE_U = np.array([0.5, 0.5, -0.5, -0.5])
    PSI = math.pi / 2
    FAULT_E = np.array([0.1, -0.1, 0.15])          # residual 0.37 > 0.31
    FAULT_EDOT = np.array([0.1, 0.1, -0.05])       # first-thruster signature at PSI

    def quiet(self, t):
        return (t, np.zeros(3), np.zeros(3), self.CRUISE_U, self.PSI, SMOOTH)

    def faulted(self, t, e_dot=None):
        e_dot = self.FAULT_EDOT if e_dot is None else e_dot
        return (t, self.FAULT_E, e_dot, self.CRUISE_U, self.PSI, SMOOTH)

    def test_arms_only_after_settling(self, fdi_cfg, geom):
        engine = FdiEngine(fdi_cfg, geom)
        # large residual before the loop has ever settled: ignored
        for k in range(50):
            engine.update(k * 0.01, 0.01, [3.0, 4.0, 0.0], np.zeros(3),
                          self.CRUISE_U, self.PSI, SMOOTH)
        assert not engine.state.armed
        assert not engine.state.b_trig
        engine.update(0.5, 0.01, np.zeros(3), np.zeros(3), self.CRUISE_U,
                      self.PSI, SMOOTH)
        assert engine.state.armed

    def test_debounce_then_trigger_and_identify(self, fdi_cfg, geom):
        engine = FdiEngine(fdi_cfg, geom)
        drive(engine, [self.quiet(0.0)])
        for k in range(fdi_cfg.n_consec - 1):
            drive(engine, [self.faulted(0.01 * (k + 1))])
            assert not engine.state.b_trig
        drive(engine, [self.faulted(0.01 * fdi_cfg.n_consec)])
        assert engine.state.b_trig
        # identification happens on the first triggered sample
        drive(engine, [self.faulted(0.01 * (fdi_cfg.n_consec + 1))])
        assert engine.state.fault_num == 1
        assert engine.state.identified_log[0][1] == 1

    def test_residual_at_threshold_stays_quiet(self, fdi_cfg, geom):
        # detection is a strict comparison: a residual that equals the
        # threshold exactly never counts as above it
        engine = FdiEngine(fdi_cfg, geom)
        drive(engine, [self.quiet(0.0)])
        at = np.array([detection_threshold(fdi_cfg, SMOOTH), 0.0, 0.0])
        for k in range(3 * fdi_cfg.n_consec):
            drive(engine, [(0.01 * (k + 1), at, self.FAULT_EDOT,
                            self.CRUISE_U, self.PSI, SMOOTH)])
            assert engine.state.residual == engine.state.threshold
        assert engine.state.armed
        assert engine.state.consec_above == 0
        assert not engine.state.b_trig and engine.state.trigger_log == []

    def test_single_spike_rejected(self, fdi_cfg, geom):
        engine = FdiEngine(fdi_cfg, geom)
        drive(engine, [self.quiet(0.0)])
        drive(engine, [self.faulted(0.01), self.quiet(0.02),
                       self.faulted(0.03), self.quiet(0.04)])
        assert not engine.state.b_trig

    def test_identification_retries_until_clear(self, fdi_cfg, geom):
        engine = FdiEngine(fdi_cfg, geom)
        drive(engine, [self.quiet(0.0)])
        t = 0.01
        for _ in range(fdi_cfg.n_consec):
            drive(engine, [self.faulted(t, e_dot=np.zeros(3))])
            t += 0.01
        assert engine.state.b_trig
        # ambiguous rates: stays in the first-check phase, no weight update
        for _ in range(int(fdi_cfg.t_s / 0.01) + 10):
            updates = drive(engine, [self.faulted(t, e_dot=np.zeros(3))])
            assert updates == []
            t += 0.01
        assert engine.state.b_first_check
        assert engine.state.fault_num is None
        # rates become readable: identified on the next sample
        drive(engine, [self.faulted(t)])
        assert engine.state.fault_num == 1

    def test_decrement_cadence_after_identification(self, fdi_cfg, geom):
        engine = FdiEngine(fdi_cfg, geom)
        drive(engine, [self.quiet(0.0)])
        t = 0.01
        updates = []
        for _ in range(int(2.5 * fdi_cfg.t_s / 0.01)):
            updates += drive(engine, [self.faulted(t)])
            t += 0.01
        assert len(updates) == 2
        assert all(num == 1 for _, num in updates)
        gap = updates[1][0] - updates[0][0]
        assert gap == pytest.approx(fdi_cfg.t_s, abs=0.02)

    def test_falling_edge_rearms(self, fdi_cfg, geom):
        engine = FdiEngine(fdi_cfg, geom)
        drive(engine, [self.quiet(0.0)])
        t = 0.01
        for _ in range(fdi_cfg.n_consec + 2):
            drive(engine, [self.faulted(t)])
            t += 0.01
        assert engine.state.b_trig
        drive(engine, [self.quiet(t)])
        st = engine.state
        assert not st.b_trig and not st.b_first_check
        assert st.fault_num is None and st.w_time == 0.0
        # a second fault triggers a fresh episode
        t += 0.01
        for _ in range(fdi_cfg.n_consec + 1):
            drive(engine, [self.faulted(t)])
            t += 0.01
        assert engine.state.b_trig
        rises = [tt for tt, rising in engine.state.trigger_log if rising]
        assert len(rises) == 2

    def test_hold_window_suppresses_joint_spike(self, fdi_cfg, geom):
        engine = FdiEngine(fdi_cfg, geom)
        drive(engine, [self.quiet(0.0)])
        # joint sample opens the hold window
        engine.update(1.0, 0.01, np.zeros(3), np.zeros(3), self.CRUISE_U,
                      self.PSI, JOINT)
        spike = np.array([0.2, 0.2, 0.2])  # residual 0.54: above 0.31, below 0.61
        for k in range(3 * fdi_cfg.n_consec):
            engine.update(1.01 + 0.01 * k, 0.01, spike, np.zeros(3),
                          self.CRUISE_U, self.PSI, SMOOTH)
        assert not engine.state.b_trig
        # same spike outside the window trips it
        engine2 = FdiEngine(fdi_cfg, geom)
        drive(engine2, [self.quiet(0.0)])
        for k in range(fdi_cfg.n_consec + 1):
            engine2.update(1.01 + 0.01 * k, 0.01, spike, np.zeros(3),
                           self.CRUISE_U, self.PSI, SMOOTH)
        assert engine2.state.b_trig
