import copy
import dataclasses
import itertools
import math

import numpy as np
import pytest

from rovftc.fdi import (FdiConfig, FdiEngine, detection_threshold,
                        identify_fault, predict_sign_pattern,
                        reconfigure_step, residual)
from rovftc.vehicle import ThrusterGeometry

ALPHA = math.pi / 4.0


def make_engine(cfg, geom):
    """An engine stepped every 0.01 s."""
    return FdiEngine(cfg, geom, round(cfg.t_s / 0.01))

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
        assert detection_threshold(fdi_cfg) == pytest.approx(0.31)

    def test_zero_margin_collapses_to_base(self, fdi_cfg):
        cfg = dataclasses.replace(fdi_cfg, f_smooth=0.0)
        assert detection_threshold(cfg) == pytest.approx(cfg.c2)

    def test_widened_in_hold_window(self, fdi_cfg):
        assert detection_threshold(fdi_cfg, in_hold_window=True) \
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
        # fully-determinate signature: 200 random draws, then every
        # heading k pi / 32 with every sign combination
        cases = [(rng.uniform(-math.pi, math.pi), rng.choice([-0.5, 0.5], 4))
                 for _ in range(200)]
        cases += [(k * math.pi / 32, u) for k in range(64)
                  for u in itertools.product((-0.5, 0.5), repeat=4)]
        for psi, u in cases:
            pats = [predict_sign_pattern(i, u[i - 1], psi, geom, fdi_cfg)
                    for i in range(1, 5)]
            full = [p for p in pats if 0 not in p]
            assert len(full) == len(set(full)), (psi, u)


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

    def test_two_candidates_defer(self, fdi_cfg):
        # at alpha = pi/6 and heading pi/4, thrusters 2 and 4 both
        # predict (1, 1, 1) for these commands: no unique candidate
        geom = ThrusterGeometry(alpha=math.pi / 6)
        psi, u = math.pi / 4, np.array([0.5, 0.5, 0.5, -0.5])
        assert [predict_sign_pattern(i, u[i - 1], psi, geom, fdi_cfg)
                for i in (2, 4)] == [(1, 1, 1), (1, 1, 1)]
        e_dot = np.array([0.1, 0.1, 0.1])
        assert identify_fault(e_dot, u, psi, fdi_cfg, geom) is None

    def test_dead_band_candidates_excluded(self, geom, fdi_cfg):
        psi = QUADRANT_HEADING[(-1, +1)]
        e_dot = np.array([-0.1, 0.1, -0.05])
        u = np.zeros(4)
        assert identify_fault(e_dot, u, psi, fdi_cfg, geom) is None


class TestReconfigure:
    W_MIN = 0.05  # the thruster bank's floor at the defaults

    def test_single_decrement(self, fdi_cfg):
        out = reconfigure_step(np.ones(4), 3, fdi_cfg, self.W_MIN)
        assert np.allclose(out, [1.0, 1.0, 0.95, 1.0])

    def test_floor_clamp(self, fdi_cfg):
        out = reconfigure_step(np.array([1.0, 1.0, 0.07, 1.0]), 3, fdi_cfg,
                               self.W_MIN)
        assert out[2] == pytest.approx(self.W_MIN)

    def test_other_entries_untouched(self, fdi_cfg, rng):
        w = rng.uniform(0.2, 1.0, 4)
        out = reconfigure_step(w, 2, fdi_cfg, self.W_MIN)
        assert np.allclose(np.delete(out, 1), np.delete(w, 1))


class TestConfigValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FdiConfig(c1=0.0)
        with pytest.raises(ValueError):
            FdiConfig(delta_w=1.5)
        with pytest.raises(ValueError):
            FdiConfig(n_consec=0)

    @pytest.mark.parametrize("n_consec", [2.5, True])
    def test_n_consec_must_be_a_whole_number(self, n_consec):
        with pytest.raises(ValueError, match="fdi.n_consec: expected a whole number"):
            FdiConfig(n_consec=n_consec)

    def test_zero_margins_allowed(self):
        cfg = FdiConfig(f_smooth=0.0, joint_widen=0.0, joint_hold=0.0)
        assert cfg.f_smooth == 0.0

    @pytest.mark.parametrize("period", [math.nan, 0, 2.5, True])
    def test_engine_counts_are_whole_and_in_range(self, fdi_cfg, geom, period):
        # a NaN period would never come due: reconfiguration would go quiet
        with pytest.raises(ValueError, match="^period: "):
            FdiEngine(fdi_cfg, geom, period)


def drive(engine, samples, in_hold_window=False):
    """Feed (k, e_eta, e_dot, u, psi) tuples, each `above` when the oracle
    residual of e_eta exceeds the oracle threshold (widened inside a hold
    window); collect (k, decrement)."""
    cfg = engine.cfg
    thr = detection_threshold(cfg, in_hold_window)
    updates = []
    for k, e_eta, e_dot, u, psi in samples:
        due = engine.update(k, residual(e_eta, cfg.c1) > thr, e_dot, u, psi)
        if due is not None:
            updates.append((k, due))
    return updates


class TestEngine:
    CRUISE_U = np.array([0.5, 0.5, -0.5, -0.5])
    PSI = math.pi / 2
    FAULT_E = np.array([0.1, -0.1, 0.15])          # residual 0.37 > 0.31
    FAULT_EDOT = np.array([0.1, 0.1, -0.05])       # first-thruster signature at PSI

    def quiet(self, k):
        return (k, np.zeros(3), np.zeros(3), self.CRUISE_U, self.PSI)

    def faulted(self, k, e_dot=None):
        e_dot = self.FAULT_EDOT if e_dot is None else e_dot
        return (k, self.FAULT_E, e_dot, self.CRUISE_U, self.PSI)

    def test_arms_only_after_settling(self, fdi_cfg, geom):
        engine = make_engine(fdi_cfg, geom)
        # large residual before the loop has ever settled: ignored
        drive(engine, [(k, [3.0, 4.0, 0.0], np.zeros(3), self.CRUISE_U, self.PSI)
                       for k in range(50)])
        assert not engine.armed
        assert not engine.b_trig
        drive(engine, [self.quiet(50)])
        assert engine.armed

    def test_debounce_then_trigger_and_identify(self, fdi_cfg, geom):
        engine = make_engine(fdi_cfg, geom)
        drive(engine, [self.quiet(0)])
        for k in range(fdi_cfg.n_consec - 1):
            drive(engine, [self.faulted(k + 1)])
            assert not engine.b_trig
        drive(engine, [self.faulted(fdi_cfg.n_consec)])
        assert engine.b_trig
        # identification happens on the first triggered sample
        drive(engine, [self.faulted(fdi_cfg.n_consec + 1)])
        assert engine.fault_num == 1
        assert engine.identified_log[0][1] == 1

    def test_residual_at_threshold_stays_quiet(self, fdi_cfg, geom):
        # detection is a strict comparison: a residual that equals the
        # threshold exactly never counts as above it. The kernel loop's own
        # comparison is pinned by `TestStep::test_residual_at_threshold_arms`
        # in test_simulation.py
        engine = make_engine(fdi_cfg, geom)
        drive(engine, [self.quiet(0)])
        at = np.array([detection_threshold(fdi_cfg), 0.0, 0.0])
        assert residual(at, fdi_cfg.c1) == detection_threshold(fdi_cfg)
        drive(engine, [(k + 1, at, self.FAULT_EDOT, self.CRUISE_U, self.PSI)
                       for k in range(3 * fdi_cfg.n_consec)])
        assert engine.armed
        assert engine.consec_above == 0
        assert not engine.b_trig and engine.trigger_log == []

    def test_single_spike_rejected(self, fdi_cfg, geom):
        engine = make_engine(fdi_cfg, geom)
        drive(engine, [self.quiet(0)])
        drive(engine, [self.faulted(1), self.quiet(2),
                       self.faulted(3), self.quiet(4)])
        assert not engine.b_trig

    def test_identification_retries_until_clear(self, fdi_cfg, geom):
        engine = make_engine(fdi_cfg, geom)
        drive(engine, [self.quiet(0)])
        k = 1
        for _ in range(fdi_cfg.n_consec):
            drive(engine, [self.faulted(k, e_dot=np.zeros(3))])
            k += 1
        assert engine.b_trig
        # ambiguous rates: nothing identified, no weight update
        for _ in range(int(fdi_cfg.t_s / 0.01) + 10):
            updates = drive(engine, [self.faulted(k, e_dot=np.zeros(3))])
            assert updates == []
            k += 1
        assert engine.fault_num is None
        # rates become readable: identified on the next sample
        drive(engine, [self.faulted(k)])
        assert engine.fault_num == 1

    def test_decrement_cadence_after_identification(self, fdi_cfg, geom):
        engine = make_engine(fdi_cfg, geom)
        drive(engine, [self.quiet(0)])
        updates = []
        for k in range(1, 1 + int(2.5 * fdi_cfg.t_s / 0.01)):
            updates += drive(engine, [self.faulted(k)])
        assert len(updates) == 2
        assert all(num == 1 for _, num in updates)
        gap = updates[1][0] - updates[0][0]
        assert gap == round(fdi_cfg.t_s / 0.01)

    def test_decrement_period_in_whole_samples(self, fdi_cfg, geom):
        # 5 000 samples, where 5 000 additions of 0.01 fall 1.4e-12 short of 50.0
        engine = make_engine(dataclasses.replace(fdi_cfg, t_s=50.0), geom)
        drive(engine, [self.quiet(0)])
        due = [k for k in range(1, 10_200) if drive(engine, [self.faulted(k)])]
        assert len(due) == 2
        assert due[1] - due[0] == 5000

    def test_falling_edge_rearms(self, fdi_cfg, geom):
        engine = make_engine(fdi_cfg, geom)
        drive(engine, [self.quiet(0)])
        k = 1
        for _ in range(fdi_cfg.n_consec + 2):
            drive(engine, [self.faulted(k)])
            k += 1
        assert engine.b_trig
        drive(engine, [self.quiet(k)])
        assert not engine.b_trig
        assert engine.fault_num is None and engine.w_samples == 0
        # a second fault triggers a fresh episode
        k += 1
        for _ in range(fdi_cfg.n_consec + 1):
            drive(engine, [self.faulted(k)])
            k += 1
        assert engine.b_trig
        rises = [kk for kk, rising in engine.trigger_log if rising]
        assert len(rises) == 2

    def test_hold_window_suppresses_joint_spike(self, fdi_cfg, geom):
        engine = make_engine(fdi_cfg, geom)
        drive(engine, [self.quiet(0)])
        spike = np.array([0.2, 0.2, 0.2])  # residual 0.54: above 0.31, below 0.61
        # inside a joint's hold window the widened threshold holds it
        drive(engine, [(101 + k, spike, np.zeros(3), self.CRUISE_U, self.PSI)
                       for k in range(3 * fdi_cfg.n_consec)], in_hold_window=True)
        assert engine.armed and not engine.b_trig
        # same spike outside the window trips it
        drive(engine, [(201 + k, spike, np.zeros(3), self.CRUISE_U, self.PSI)
                       for k in range(fdi_cfg.n_consec + 1)])
        assert engine.b_trig

    def test_idle_update_below_threshold_changes_nothing(self, fdi_cfg, geom,
                                                        monkeypatch):
        # the kernel loop skips `update` on exactly these steps: at every
        # step of this class's drives where the engine is idle,
        # `update(k, False, ...)` returns None and leaves every attribute,
        # both logs too, as it was
        checked, plain = [], drive

        def checking_drive(engine, samples, in_hold_window=False):
            updates = []
            for sample in samples:
                if engine.idle:
                    k, _, e_dot, u, psi = sample
                    before = copy.deepcopy({**vars(engine), "geom": None})
                    assert engine.update(k, False, e_dot, u, psi) is None
                    assert {**vars(engine), "geom": None} == before
                    checked.append(k)
                updates += plain(engine, [sample], in_hold_window)
            return updates

        monkeypatch.setitem(globals(), "drive", checking_drive)
        names = [name for name in dir(self) if name.startswith("test_")
                 and name != "test_idle_update_below_threshold_changes_nothing"]
        for name in names:
            getattr(self, name)(fdi_cfg, geom)
        assert len(names) == 9 and len(checked) == 39
