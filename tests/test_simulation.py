import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from rovftc.allocation import achieved_wrench, allocate
from rovftc.controller import control_law, error_rate, tracking_errors
from rovftc.fdi import detection_threshold
from rovftc.scenario import load_scenario, scenario_from_dict
from rovftc.simulation import COLUMNS, FaultSchedule, Simulation
from rovftc.trajectory import TIME_TOL
from rovftc.vehicle import VehicleState, dynamics_rhs, kinematics_rhs

HALF_PI = math.pi / 2


def make_scenario(name="case", **cfg):
    return scenario_from_dict(cfg, name=name)


def fault_sim(faults):
    """A 0.3 s run with no settle time, so faults can act from t = 0."""
    return Simulation(make_scenario(
        sim={"duration": 0.3, "settle_time": 0.0}, faults=faults))


def crossing_cfg():
    """10 s that cross everything the hot path branches on: thruster 1
    drops to 30 % at t = 2 s and is identified; its weight estimate then
    falls every 0.5 s; the commands saturate (u_max = 0.1); and a
    straight-to-turn joint comes at t = 8 s."""
    return {
        "vehicle": {"u_max": 0.1},
        "sim": {"duration": 10.0, "decimation": 1, "settle_time": 1.0,
                "initial_state": [10.0, 5.0, HALF_PI, 1.0, 0.0, 0.0]},
        "fdi": {"t_s": 0.5},
        "trajectory": {"initial_pose": [10.0, 5.0, HALF_PI],
                       "segments": [
                           {"mode": "straight", "duration": 8.0,
                            "speed": 1.0, "heading": HALF_PI},
                           {"mode": "turn", "duration": 20.0,
                            "speed": 1.0, "yaw_rate": 0.05}]},
        "faults": [{"time": 2.0, "thruster": 1, "weight": 0.3}],
    }


def two_fault_cfg():
    """14 s on `crossing_cfg`'s path without its saturation: thruster 1
    halves at t = 2 s and the residual re-settles; thruster 2 halves at
    t = 10 s and it has not re-settled when the run ends."""
    cfg = crossing_cfg()
    del cfg["vehicle"]
    cfg["sim"]["duration"] = 14.0
    cfg["fdi"] = {"t_s": 0.3, "delta_w": 0.2}
    cfg["faults"] = [{"time": 2.0, "thruster": 1, "weight": 0.5},
                     {"time": 10.0, "thruster": 2, "weight": 0.5}]
    return cfg


def start_up_cfg():
    """12 fault-free seconds from rest, off the reference: the tracking
    error converges."""
    return {"sim": {"duration": 12.0}}


def oracle_summary(residual, threshold, enorm, dt, events):
    """The summary fields that depend on every step, from whole-run
    arrays of (residual, threshold, |e_eta|) per step boundary."""
    residual, threshold, enorm = map(np.array, (residual, threshold, enorm))
    n = len(residual)
    times = np.arange(n) * dt
    above = residual > threshold
    bad = np.flatnonzero(enorm > 0.05)
    if bad.size == 0:
        t_c = 0.0
    elif bad[-1] == n - 1:
        t_c = None
    else:
        t_c = float(times[bad[-1] + 1])
    reconverged = []
    for j, ev in enumerate(events):
        # each window opens at the step where its fault acts on the plant
        t_next = (events[j + 1].time if j + 1 < len(events)
                  else times[-1] + dt) - TIME_TOL
        win_above = np.flatnonzero((times >= ev.time - TIME_TOL)
                                   & (times < t_next) & above)
        if win_above.size == 0:
            reconverged.append(float(ev.time))
        elif times[win_above[-1]] >= t_next - 2 * dt:
            reconverged.append(None)
        else:
            reconverged.append(float(times[win_above[-1]] + dt))
    armed_idx = np.flatnonzero(~above)
    first_armed = int(armed_idx[0]) if armed_idx.size else n
    return {"t_c": t_c,
            "max_residual": float(residual.max()),
            "max_residual_after_arming": (float(residual[first_armed:].max())
                                          if first_armed < n else 0.0),
            "reconverged_at": reconverged}


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory allocated while it ran."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: sha256 of the decimation-1 CSV of `crossing_cfg`. Any change that moves
#: one bit of a recorded value moves it; a change that does so on purpose
#: says so and pins the new hash.
CROSSING_CSV_SHA256 = "3baba17666c37e363e61306f01721db8e1f2112a9357ace7707fcc3cae11348c"


class TestFaultSchedule:
    def test_weight_increase_rejected(self):
        with pytest.raises(ValueError, match="decrease"):
            FaultSchedule([(100.0, 1, 0.5), (200.0, 1, 0.8)])

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            FaultSchedule([(100.0, 1, 0.5), (100.0, 2, 0.5)])

    def test_early_fault_rejected(self):
        with pytest.raises(ValueError, match="settle"):
            FaultSchedule([(10.0, 1, 0.5)], settle_time=50.0)

    def test_bad_indices_and_weights(self):
        with pytest.raises(ValueError, match="thruster"):
            FaultSchedule([(100.0, 5, 0.5)])
        with pytest.raises(ValueError, match="weight"):
            FaultSchedule([(100.0, 1, 1.5)])

    def test_apply_step_semantics(self):
        sim = fault_sim([{"time": 0.05, "thruster": 2, "weight": 0.6}])
        rows = [sim.step() for _ in range(5)]  # boundaries t = 0 .. 0.04
        assert sim.bank.w_true[1] == 1.0
        rows.append(sim.step())                # boundary t = 0.05
        assert sim.bank.w_true[1] == 0.6
        w2 = COLUMNS.index("W2")
        assert [row[w2] for row in rows] == [1.0] * 5 + [0.6]

    def test_sequential_events_accumulate(self):
        sim = fault_sim([{"time": 0.05, "thruster": 1, "weight": 0.3},
                         {"time": 0.10, "thruster": 2, "weight": 0.0},
                         {"time": 0.15, "thruster": 3, "weight": 0.2},
                         {"time": 0.20, "thruster": 4, "weight": 0.1}])
        sim.run()
        assert np.allclose(sim.bank.w_true, [0.3, 0.0, 0.2, 0.1])

    def test_empty_schedule(self):
        sim = fault_sim([])
        sim.run()
        assert np.allclose(sim.bank.w_true, 1.0)


def test_weight_floors_must_agree():
    # a thruster counts as failed at the bank's floor; an estimate clamped
    # at a higher fdi floor would never get there
    sc = load_scenario("fig7_failure", [
        "faults=[{time: 100.0, thruster: 2, weight: 0.0}]", "sim.duration=270.0"])
    with pytest.raises(ValueError, match="w_min"):
        dataclasses.replace(sc, fdi=dataclasses.replace(sc.fdi, w_min=0.1))
    both = load_scenario("fig7_failure", ["fdi.w_min=0.1"])
    assert both.bank.w_min == both.fdi.w_min == 0.1


def test_setup_calls_no_eigen_or_svd_routine(monkeypatch):
    """Loading a scenario, building the simulation and a full-bank
    allocation rebuild decide definiteness and rank in closed form, and
    the rebuild reuses the geometry's right inverse instead of inverting
    the gram again."""
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK eigen, SVD or inverse routine called")

    impl = getattr(np.linalg, "_linalg", np.linalg)  # numpy 2 keeps them here
    modules = {np.linalg, impl}
    for module in modules:
        for name in ("eigvalsh", "matrix_rank", "svd"):
            monkeypatch.setattr(module, name, refuse)
    sim = Simulation(load_scenario("fig3_baseline"))
    assert not sim.bank.failed_mask().any()
    for module in modules:
        monkeypatch.setattr(module, "inv", refuse)
    sim._rebind()
    sim.step()


class TestStep:
    def test_equilibrium_hold(self):
        sc = make_scenario(
            sim={"duration": 1.0, "decimation": 1,
                 "initial_state": [3.0, -2.0, 0.4, 0.0, 0.0, 0.0]},
            trajectory={"initial_pose": [3.0, -2.0, 0.4],
                        "segments": [{"mode": "hold", "duration": 2.0}]},
        )
        sim = Simulation(sc)
        x0 = sim.state.copy()
        for _ in range(100):
            sim.step()
            assert np.abs(sim.state - x0).max() < 1e-12

    def test_hot_path_matches_public_api(self, rng):
        sc = make_scenario(sim={"duration": 10.0})
        sim = Simulation(sc)
        for _ in range(50):
            t = float(rng.uniform(0.0, 500.0))
            s = tuple(rng.normal(0, 1, 6) * np.array([20, 200, 2, 1, 1, 0.5]))
            sim.bank.w_hat = rng.uniform(0.1, 1.0, 4)
            sim.bank.w_true = rng.uniform(0.0, 1.0, 4)
            sim._rebind()

            state = VehicleState(*s)
            ref = sc.plan.sample(t)
            errors = tracking_errors(state, ref, sc.gains)
            tau_c = control_law(state, ref, errors, sc.gains, sc.params)
            alloc = allocate(tau_c, sim.bank, sc.geometry)
            tau = achieved_wrench(alloc.u_cmd, sim.bank, sc.geometry)
            expected = np.concatenate([kinematics_rhs(state),
                                       dynamics_rhs(state, tau, sc.params)])

            c = sim._control(s, sc.plan.sample_flat(t))
            scale = max(1.0, np.abs(tau_c).max())
            assert np.abs(np.array(c[6:9]) - errors.e_eta).max() < 1e-9
            assert np.abs(np.array(c[9:12]) - error_rate(state, ref)).max() < 1e-9
            assert np.abs(np.array(c[12:15]) - errors.e_nu).max() < 1e-9
            assert np.abs(np.array(c[15:19]) - alloc.u_cmd).max() < 1e-9
            assert np.abs(np.array(c[19:22]) - tau_c).max() < 1e-9 * scale
            assert np.abs(np.array(c[22:25]) - tau).max() < 1e-9 * scale
            assert c[25] == alloc.saturated
            assert np.abs(np.array(c[:6]) - expected).max() < 1e-9 * scale
            # the RK4 stage path returns the same derivative, bit for bit
            assert sim._control(s, sc.plan.sample_flat(t), False) == c[:6]

    def test_boundary_snapshot_is_rk4_k1(self):
        cfg = crossing_cfg()
        sim = Simulation(make_scenario(**cfg))
        boundary = sim._boundary
        seen = []

        def checked_boundary(t, want_row=True):
            row, c = boundary(t, want_row)
            s, ref = sim._s, sim.plan.sample_flat(t)
            # the snapshot is taken after any reconfiguration at t
            assert c == sim._control(s, ref)
            assert c[:6] == sim._control(s, ref, False)
            seen.append(t)
            return row, c

        sim._boundary = checked_boundary
        rows = [sim.step() for _ in range(sim.n_steps)]
        assert len(seen) == sim.n_steps
        assert any(sim.plan.is_joint(t) for t in seen)
        assert sim.bank.w_true[0] == 0.3
        assert sim.bank.w_hat[0] < 1.0 - sim.engine.cfg.delta_w

        res = Simulation(make_scenario(**cfg)).run()
        assert np.array_equal(np.array(rows), res.rows[:-1])

    def test_crossing_run_csv_bytes_pinned(self, tmp_path):
        res = Simulation(make_scenario(name="crossing", **crossing_cfg())).run()
        s = res.summary
        t = res.column("t")
        wh1 = res.column("Wh1")
        assert s["saturation_steps"] > 0
        assert [num for _, num in s["identifications"]] == [1]
        assert np.count_nonzero(np.diff(wh1)) >= 3
        assert sum(map(make_scenario(**crossing_cfg()).plan.is_joint, t)) == 1
        path = tmp_path / "crossing.csv"
        res.write_csv(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CROSSING_CSV_SHA256

    def test_joint_flag_matches_plan(self):
        sim = Simulation(make_scenario(
            sim={"duration": 10.0},
            trajectory={"initial_pose": [10.0, 5.0, HALF_PI],
                        "segments": [
                            {"mode": "straight", "duration": 2.3,
                             "speed": 1.0, "heading": HALF_PI},
                            {"mode": "turn", "duration": 2.9,
                             "speed": 1.0, "yaw_rate": 0.05},
                            {"mode": "straight", "duration": 20.0,
                             "speed": 1.0, "heading": 1.0}]}))
        update = sim.engine.update
        flags = []

        def spy(t, dt, e_eta, e_dot, u_cmd, psi, smooth):
            flags.append((smooth, not sim.plan.is_joint(t)))
            return update(t, dt, e_eta, e_dot, u_cmd, psi, smooth)

        sim.engine.update = spy
        sim.run()
        assert len(flags) == sim.n_steps + 1
        assert all(got == want for got, want in flags)
        # joints at 2.3 s and 5.2 s, each a few ulps before its step time
        assert [want for _, want in flags].count(False) == 2

    def test_divergence_guard(self):
        sc = make_scenario(
            sim={"duration": 5.0,
                 "initial_state": [2.0e6, 0.0, 0.0, 0.0, 0.0, 0.0]},
        )
        res = Simulation(sc).run()
        assert res.diverged
        assert res.diverged_time is not None
        assert res.summary["diverged"]

    def test_step_past_end_raises(self):
        sc = make_scenario(sim={"duration": 0.02})
        sim = Simulation(sc)
        sim.step()
        sim.step()
        with pytest.raises(RuntimeError):
            sim.step()

    def test_step_after_divergence_raises(self):
        overrides = ["sim.initial_state=[2.0e6,0,0,0,0,0]", "sim.duration=1.0"]
        sim = Simulation(load_scenario("fig3_baseline", overrides))
        sim.step()  # the step from t = 0 leaves the limits
        with pytest.raises(RuntimeError, match="diverged"):
            sim.step()
        stepped = sim.run()
        plain = Simulation(load_scenario("fig3_baseline", overrides)).run()
        assert stepped.diverged and stepped.diverged_time == 0.01
        assert plain.diverged and plain.diverged_time == 0.01
        assert stepped.summary["diverged_time"] == 0.01

    def test_second_run_repeats_no_boundary(self):
        sim = Simulation(make_scenario(sim={"duration": 0.5, "decimation": 1}))
        first = sim.run()
        second = sim.run()
        assert first.rows.shape[0] == sim.n_steps + 1
        assert second.rows.shape[0] == 0
        first.summary.pop("runtime_s")
        second.summary.pop("runtime_s")
        assert second.summary == first.summary


class TestRun:
    def test_row_layout(self):
        sc = make_scenario(sim={"duration": 2.0, "decimation": 10})
        res = Simulation(sc).run()
        assert res.columns == COLUMNS
        assert res.rows.shape == (21, len(COLUMNS))
        assert np.allclose(res.column("t"), np.arange(21) * 0.1)

    def test_determinism_bit_identical(self, tmp_path):
        cfg = dict(sim={"duration": 30.0},
                   faults=[{"time": 20.0, "thruster": 2, "weight": 0.5}])
        cfg["sim"]["settle_time"] = 10.0
        r1 = Simulation(make_scenario(**cfg)).run()
        r2 = Simulation(make_scenario(**cfg)).run()
        assert r1.rows.shape == r2.rows.shape
        assert np.array_equal(r1.rows, r2.rows)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        r1.write_csv(p1)
        r2.write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_fault_event_recorded_on_weight_column(self):
        sc = make_scenario(sim={"duration": 70.0, "decimation": 1},
                           faults=[{"time": 60.0, "thruster": 3, "weight": 0.4}])
        res = Simulation(sc).run()
        t = res.column("t")
        w3 = res.column("W3")
        assert w3[np.searchsorted(t, 59.99)] == 1.0
        assert w3[np.searchsorted(t, 60.0)] == 0.4

    def test_event_quantized_to_step(self):
        sc = make_scenario(sim={"duration": 70.0, "decimation": 1},
                           faults=[{"time": 60.004, "thruster": 3, "weight": 0.4}])
        res = Simulation(sc).run()
        t = res.column("t")
        w3 = res.column("W3")
        assert w3[np.searchsorted(t, 60.00)] == 1.0
        assert w3[np.searchsorted(t, 60.01)] == 0.4

    def test_joint_between_steps_opens_hold_window(self):
        # like a fault event, the joint at 300.005 s acts at 300.01 s
        straight = ("{mode: straight, duration: 300.005, speed: 1.0, "
                    "heading: 1.5707963267948966}")
        sc = load_scenario("fig3_baseline", [
            f"trajectory.segments=[{straight}, "
            "{mode: turn, duration: 100.0, speed: 1.0, yaw_rate: 0.05}]",
            "sim.duration=350.0", "sim.decimation=1"])
        res = Simulation(sc).run()
        widened = np.flatnonzero(res.column("threshold")
                                 == detection_threshold(sc.fdi, False))
        assert np.array_equal(widened, np.arange(30001, 31002))  # 1 001 steps
        assert res.column("t")[widened[0]] == pytest.approx(300.01)

    def test_summary_shape(self):
        sc = make_scenario(sim={"duration": 2.0})
        summary = Simulation(sc).run().summary
        for key in ("scenario", "t_c", "max_residual", "trigger_count",
                    "identifications", "events", "final_w_hat",
                    "reconfiguration_failures", "runtime_s"):
            assert key in summary

    def test_truncation_marker_on_divergence(self, tmp_path):
        sc = make_scenario(
            sim={"duration": 5.0,
                 "initial_state": [2.0e6, 0.0, 0.0, 0.0, 0.0, 0.0]})
        res = Simulation(sc).run()
        path = tmp_path / "diverged.csv"
        res.write_csv(path)
        assert path.read_text().rstrip().endswith(
            f"# aborted: state divergence at t={res.diverged_time:.6g}")

    def test_run_holds_the_record_once(self):
        # 201 rows of 36 float64: 57 888 bytes. The rows as Python
        # tuples of floats would need about five times that.
        sc = make_scenario(sim={"duration": 2.0, "decimation": 1})
        res, peak = traced_peak(lambda: Simulation(sc).run())
        assert res.rows.shape == (201, len(COLUMNS))
        assert res.rows.dtype == np.float64
        assert peak < 2 * res.rows.nbytes

    def test_write_csv_streams_the_record(self, tmp_path):
        res = Simulation(make_scenario(sim={"duration": 30.0,
                                            "decimation": 1})).run()
        _, peak = traced_peak(res.write_csv, tmp_path / "record.csv")
        assert peak < 0.25 * res.rows.nbytes

    @pytest.mark.parametrize("make_cfg", [crossing_cfg, two_fault_cfg,
                                          start_up_cfg])
    def test_summary_matches_whole_run_oracle(self, make_cfg):
        sim = Simulation(make_scenario(**make_cfg()))
        st = sim.engine.state
        residual, threshold, enorm = [], [], []
        e_eta = [COLUMNS.index(name) for name in ("e_x", "e_y", "e_psi")]

        def collect(row):
            residual.append(st.residual)
            threshold.append(st.threshold)
            enorm.append(math.sqrt(sum(row[i] * row[i] for i in e_eta)))

        for _ in range(sim.n_steps):
            collect(sim.step())
        collect(sim.run().rows[-1])  # the boundary at the end of the run
        summary = Simulation(make_scenario(**make_cfg())).run().summary
        want = oracle_summary(residual, threshold, enorm, sim.dt, sim._events)
        assert len(residual) == sim.n_steps + 1
        assert summary["t_c"] == want["t_c"]
        assert summary["max_residual"] == want["max_residual"]
        assert (summary["max_residual_after_arming"]
                == want["max_residual_after_arming"])
        assert ([e["reconverged_at"] for e in summary["events"]]
                == want["reconverged_at"])

    @pytest.mark.parametrize("make_cfg, m", [
        (start_up_cfg, 1), (start_up_cfg, 100),
        (two_fault_cfg, 250),  # past the first fault, at step 200
    ])
    def test_run_after_steps_summarises_the_whole_run(self, make_cfg, m):
        sim = Simulation(make_scenario(**make_cfg()))
        for _ in range(m):
            sim.step()
        stepped = sim.run().summary
        plain = Simulation(make_scenario(**make_cfg())).run().summary
        stepped.pop("runtime_s")
        plain.pop("runtime_s")
        assert stepped == plain

    def test_summary_memory_does_not_grow_with_steps(self):
        # decimation spans the whole run, so each run keeps 2 rows
        def peak(steps):
            sc = make_scenario(sim={"duration": steps * 0.01,
                                    "decimation": steps})
            sim = Simulation(sc)
            res, used = traced_peak(sim.run)
            assert res.rows.shape[0] == 2
            return used

        peak(50)  # warm-up: one-off allocations land here
        assert peak(300) <= peak(50) + 4096

    def test_integration_order_on_smooth_run(self):
        # transient-phase global error shrinks ~16x when dt halves
        def final_state(dt):
            sc = make_scenario(
                name=f"order{dt}",
                sim={"duration": 4.0, "dt": dt, "decimation": 10 ** 6,
                     "initial_state": [10.8, 4.4, HALF_PI + 0.1, 0.9, 0.05, -0.02]},
                trajectory={"initial_pose": [10.0, 5.0, HALF_PI],
                            "segments": [{"mode": "straight", "duration": 50.0,
                                          "speed": 1.0, "heading": HALF_PI}]},
            )
            sim = Simulation(sc)
            sim.run()
            return sim.state.copy()

        ref = final_state(0.001)
        err_coarse = np.linalg.norm(final_state(0.02) - ref)
        err_fine = np.linalg.norm(final_state(0.01) - ref)
        assert 8.0 < err_coarse / err_fine < 32.0
