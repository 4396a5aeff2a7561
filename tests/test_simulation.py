import dataclasses
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from rovftc import fdi, simulation
from rovftc.allocation import achieved_wrench, allocate
from rovftc.cli import main
from rovftc.controller import control_law, error_rate, tracking_errors
from rovftc.fdi import FdiConfig, detection_threshold, reconfigure_step
from rovftc.scenario import load_scenario, scenario_from_dict
from rovftc.simulation import (COLUMNS, TIME_TOL, FaultEvent, SimResult,
                               Simulation)
from rovftc.vehicle import (VehicleState, dynamics_rhs, kinematics_rhs,
                            wrap_angle)

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


def between_steps_cfg():
    """`two_fault_cfg` with each fault 5 ms after a step starts, half way
    to the next at dt = 0.01: each acts, and opens its window, at the
    step after."""
    cfg = two_fault_cfg()
    for ev, time in zip(cfg["faults"], (2.005, 10.005)):
        ev["time"] = time
    return cfg


def start_up_cfg():
    """12 fault-free seconds from rest, off the reference: the tracking
    error converges."""
    return {"sim": {"duration": 12.0}}


def oracle_summary(residual, threshold, enorm, b_trig, fault_num, dt,
                   events, event_steps):
    """The summary fields that depend on every step, from whole-run
    arrays of (residual, threshold, |e_eta|, b_trig, fault_num) per step
    boundary."""
    residual, threshold, enorm, b_trig, fault_num = map(
        np.array, (residual, threshold, enorm, b_trig, fault_num))
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
    # window j: from the step where fault j acts to the one where the next
    # does, or the end; its first rising trigger and its first step where
    # the isolated thruster turns non-zero
    def turns_on(column):
        on = column != 0
        return np.flatnonzero(on & ~np.r_[False, on[:-1]])

    rises, names = turns_on(b_trig), turns_on(fault_num)
    detected, identified, identified_at = [], [], []
    for k0, k1 in zip(event_steps, (*event_steps[1:], n)):
        rise = rises[(rises >= k0) & (rises < k1)]
        name = names[(names >= k0) & (names < k1)]
        detected.append(int(rise[0]) * dt if rise.size else None)
        identified.append(int(fault_num[name[0]]) if name.size else None)
        identified_at.append(int(name[0]) * dt if name.size else None)
    armed_idx = np.flatnonzero(~above)
    first_armed = int(armed_idx[0]) if armed_idx.size else n
    return {"t_c": t_c,
            "max_residual": float(residual.max()),
            "max_residual_after_arming": (float(residual[first_armed:].max())
                                          if first_armed < n else 0.0),
            "reconverged_at": reconverged,
            "detected_at": detected,
            "identified": identified,
            "identified_at": identified_at}


def reference_run(sc):
    """The run of `sc` stepped in plain Python: the kernel's `control` for
    the step-start snapshot, and its first six entries for RK4 stages k2-k4;
    classic RK4, with the reference sampled afresh at t, t + dt/2 and
    t + dt; the detection signal from the paper-form oracle (`fdi.residual`,
    `detection_threshold`, widened from each joint step through
    `hold_steps` more) and `FdiEngine.update` on every step; the tables
    bound again after each fault event and each decrement. Returns every
    step's row, the final state, the engine and the steps where the engine
    was idle and the residual not above the threshold."""
    sim = Simulation(sc)
    engine, bank, plan, dt = sim.engine, sim.bank, sim.plan, sim.dt
    tab = sim._tables(-1)[:16]

    def control(s, ref):
        return sim._kernel.control(s, ref, tab)

    g1, g2 = sc.gains.gamma1.tolist(), sc.gains.gamma2.tolist()
    windows = [(j, j + sc.hold_steps) for j in sc.joint_steps]
    events = list(zip(sc.event_steps, sc.faults))
    s, rows, idle_steps = sim._s, [], []
    for k in range(sc.n_steps + 1):
        t = k * dt
        while events and events[0][0] <= k:
            ev = events.pop(0)[1]
            bank.w_true[ev.thruster - 1] = ev.weight
            tab = sim._tables(-1)[:16]
        ref = plan.sample_flat(t)
        c = control(s, ref)
        res = fdi.residual(c[6:9], sc.fdi.c1)
        thr = detection_threshold(sc.fdi, any(a <= k <= b for a, b in windows))
        if engine.idle and not res > thr:
            idle_steps.append(k)
        due = engine.update(k, res > thr, c[9:12], c[15:19], s[2])
        if due is not None:
            bank.w_hat = reconfigure_step(bank.w_hat, due, engine.cfg, bank.w_min)
            tab = sim._tables(-1)[:16]
            c = control(s, ref)
        try:
            v2 = 0.5 * (g1[0] * c[6] ** 2 + g1[1] * c[7] ** 2 + g1[2] * c[8] ** 2
                        + g2[0] * c[12] ** 2 + g2[1] * c[13] ** 2 + g2[2] * c[14] ** 2)
        except OverflowError:
            v2 = math.inf
        rows.append((t, *s, ref[0], ref[1], wrap_angle(ref[2]), *c[6:9],
                     res, thr, float(engine.b_trig),
                     float(engine.fault_num or 0), *bank.w_true.tolist(),
                     *bank.w_hat.tolist(), *c[15:25], v2))
        if k == sc.n_steps:
            break
        h, mid, end = dt * 0.5, plan.sample_flat(t + dt * 0.5), plan.sample_flat(t + dt)
        k1 = c[:6]
        k2 = control(tuple(a + h * d for a, d in zip(s, k1)), mid)[:6]
        k3 = control(tuple(a + h * d for a, d in zip(s, k2)), mid)[:6]
        k4 = control(tuple(a + dt * d for a, d in zip(s, k3)), end)[:6]
        s = tuple(a + dt / 6.0 * (d1 + 2.0 * (d2 + d3) + d4)
                  for a, d1, d2, d3, d4 in zip(s, k1, k2, k3, k4))
        assert max(map(abs, s)) <= simulation.DIVERGENCE_LIMIT
        s = (s[0], s[1], wrap_angle(s[2]), *s[3:])
    return rows, s, engine, idle_steps


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


#: full, non-diagonal, positive-definite vehicle tables and gains that
#: differ on every axis: every term of the control kernel then has its own
#: nonzero constant and is kept. The inertia is symmetric, as it must be;
#: damping and B are not, so that a transposed entry shows too.
FULL_TABLES = {
    "vehicle": {
        "inertia": [[25.0, 1.5, -0.8], [1.5, 30.0, 0.6], [-0.8, 0.6, 2.0]],
        "lin_damping": [[0.7, 0.2, -0.1], [0.3, 1.1, 0.15], [-0.05, 0.25, 0.5]],
        "B": [[0.05, 0.004, -0.002], [0.006, 0.06, 0.003],
              [-0.001, 0.005, 6.25]]},
    "gains": {"gamma1": [1.0, 2.0, 0.5], "gamma2": [100.0, 150.0, 300.0],
              "a1": [1.0, 1.5, 0.8], "a2": [100.0, 120.0, 280.0]},
}


def fault(time, thruster, weight):
    return {"time": time, "thruster": thruster, "weight": weight}


class TestFaultSchedule:
    def test_weight_increase_rejected(self):
        with pytest.raises(ValueError, match="decrease"):
            make_scenario(faults=[fault(100.0, 1, 0.5), fault(200.0, 1, 0.8)])

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            make_scenario(faults=[fault(100.0, 1, 0.5), fault(100.0, 2, 0.5)])

    def test_early_fault_rejected(self):
        with pytest.raises(ValueError, match="settle"):
            make_scenario(sim={"settle_time": 50.0},
                          faults=[fault(10.0, 1, 0.5)])

    def test_bad_indices_and_weights(self):
        with pytest.raises(ValueError, match="thruster"):
            make_scenario(faults=[fault(100.0, 5, 0.5)])
        with pytest.raises(ValueError, match="weight"):
            make_scenario(faults=[fault(100.0, 1, 1.5)])

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


@pytest.mark.parametrize("change, message", [
    ({"decimation": 2.5}, "sim.decimation: expected a whole number, got 2.5"),
    ({"decimation": math.nan}, "sim.decimation: must be finite, got nan"),
    ({"faults": (FaultEvent(60.0, 1.5, 0.5),)},
     "faults[0].thruster: expected a whole number, got 1.5"),
    ({"faults": (FaultEvent(60.0, True, 0.5),)},
     "faults[0].thruster: expected a whole number, got True"),
    ({"settle_time": math.nan, "faults": (FaultEvent(1.0, 1, 0.5),)},
     "sim.settle_time: must be finite, got nan"),
    ({"faults": (FaultEvent(math.nan, 1, 0.5),)},
     "faults[0].time: must be finite, got nan"),
    ({"initial_state": [0.0, 0.0, math.nan, 0.0, 0.0, 0.0]},
     "sim.initial_state: must be finite, got nan"),
    ({"initial_state": [0.0, 0.0, 0.0, 0.0, -1.5e6, 0.0]},
     "sim.initial_state: |x|, |y|, |u|, |v| and |r| must be at most 1e+06"),
    ({"settle_time": -10.0, "faults": (FaultEvent(-5.0, 1, 0.5),)},
     "fault event at t=-5.0: before the run starts at t = 0"),
], ids=["fractional-decimation", "nan-decimation", "float-thruster",
        "bool-thruster", "nan-settle-time", "nan-fault-time", "nan-initial-state",
        "diverged-initial-state", "fault-before-start"])
def test_constructor_rejects_what_a_file_would(change, message):
    sc = make_scenario(sim={"duration": 100.0})
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(sc, **change)


def test_constructor_takes_an_integral_float_count_as_a_file_does():
    sc = make_scenario(sim={"duration": 100.0})
    built = dataclasses.replace(sc, faults=(FaultEvent(60.0, 1.0, 0.5),), decimation=3.0)
    assert built.faults[0].thruster == 1 and type(built.faults[0].thruster) is int
    assert built.decimation == 3 and type(built.decimation) is int


def test_start_yaw_is_exempt_from_the_divergence_limit():
    # the simulation wraps the yaw, so only the other five entries must
    # lie inside the limit; a start exactly at the limit is inside
    lim = simulation.DIVERGENCE_LIMIT
    sc = make_scenario(sim={"duration": 1.0,
                            "initial_state": [0.0, 0.0, 2e6, 0.0, 0.0, 0.0]})
    assert Simulation(sc).state[2] == wrap_angle(2e6)
    dataclasses.replace(sc, initial_state=[lim, -lim, 1e300, lim, -lim, lim])


def test_weight_floors_must_agree():
    # a thruster counts as failed at the bank's floor, and the estimate is
    # clamped at that same floor: the bank holds the only one, fdi.w_min
    sc = load_scenario("fig7_failure", ["fdi.w_min=0.1"])
    assert sc.bank.w_min == 0.1
    assert not hasattr(sc.fdi, "w_min")
    with pytest.raises(TypeError):
        FdiConfig(w_min=0.1)


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
    sim.step()  # binds the tables at loop entry


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
        # the diagonal defaults, then tables that keep every kernel term
        for tables in ({}, FULL_TABLES):
            sc = make_scenario(sim={"duration": 10.0}, **tables)
            sim = Simulation(sc)
            for _ in range(50):
                t = float(rng.uniform(0.0, 500.0))
                s = tuple(rng.normal(0, 1, 6) * np.array([20, 200, 2, 1, 1, 0.5]))
                sim.bank.w_hat = rng.uniform(0.1, 1.0, 4)
                sim.bank.w_true = rng.uniform(0.0, 1.0, 4)

                state = VehicleState(*s)
                ref = sc.plan.sample(t)
                errors = tracking_errors(state, ref, sc.gains)
                tau_c = control_law(state, ref, errors, sc.gains, sc.params)
                alloc = allocate(tau_c, sim.bank, sc.geometry)
                tau = achieved_wrench(alloc.u_cmd, sim.bank, sc.geometry)
                expected = np.concatenate([kinematics_rhs(state),
                                           dynamics_rhs(state, tau, sc.params)])

                c = sim._kernel.control(s, sc.plan.sample_flat(t), sim._tables(-1)[:16])
                scale = max(1.0, np.abs(tau_c).max())
                assert np.abs(np.array(c[6:9]) - errors.e_eta).max() < 1e-9
                assert np.abs(np.array(c[9:12]) - error_rate(state, ref)).max() < 1e-9
                assert np.abs(np.array(c[12:15]) - errors.e_nu).max() < 1e-9
                assert np.abs(np.array(c[15:19]) - alloc.u_cmd).max() < 1e-9
                assert np.abs(np.array(c[19:22]) - tau_c).max() < 1e-9 * scale
                assert np.abs(np.array(c[22:25]) - tau).max() < 1e-9 * scale
                assert c[25] == alloc.saturated
                assert np.abs(np.array(c[:6]) - expected).max() < 1e-9 * scale

    @pytest.mark.slow
    def test_kernel_compiled_once_per_run(self, monkeypatch):
        # fig7_failure binds the kernel's tables once at loop entry, then
        # at each of its fault events and weight decrements and on no
        # other step; none of them compiles: the Simulation has its kernel
        # before the run starts
        sim = Simulation(load_scenario("fig7_failure"))
        compiled, rebinds, decrements = [], [], []

        def counted_compile(source, filename, mode):
            compiled.append(filename)
            return compile(source, filename, mode)

        def counted_rows(*args):
            rebinds.append(args)
            return distribution_matrix(*args)

        def counted_step(*args):
            decrements.append(args[1])
            return step(*args)

        distribution_matrix, step = (simulation._distribution_matrix,
                                     simulation.reconfigure_step)
        monkeypatch.setattr(simulation, "compile", counted_compile, raising=False)
        monkeypatch.setattr(simulation, "_distribution_matrix", counted_rows)
        monkeypatch.setattr(simulation, "reconfigure_step", counted_step)
        res = sim.run()
        assert compiled == [] and not res.diverged
        assert len(decrements) == 67
        assert len(rebinds) == 1 + len(sim.scenario.faults) + len(decrements) == 72

    def test_one_kernel_per_distinct_source(self, monkeypatch):
        # the table1 cases differ only in trajectory, start state and
        # fault, so they render one source and share one compile; another
        # dt is another source; validating compiles nothing. No other test
        # sets fdi.c1 = 4.321, so each source is new to the process
        compiled = []
        monkeypatch.setattr(simulation, "compile", lambda *args: (
            compiled.append(args[1]) or compile(*args)), raising=False)
        cases = [f"table1_case{i}" for i in range(1, 9)]
        for n, overrides in enumerate((["fdi.c1=4.321"],
                                       ["fdi.c1=4.321", "sim.dt=0.005"]), 1):
            flags = [arg for item in overrides for arg in ("--override", item)]
            for name in cases:
                assert main(["validate", name, *flags]) == 0
            assert len(compiled) == n - 1
            for name in cases:
                Simulation(load_scenario(name, overrides)).step()
            assert len(compiled) == n
        assert len(set(compiled)) == 2

    def test_kernel_lines_in_traceback(self):
        sim = Simulation(make_scenario(sim={"duration": 1.0}))
        with pytest.raises(ValueError) as info:  # too few state entries
            sim._kernel.control((0.0,) * 5, sim.plan.sample_flat(0.0),
                                sim._tables(-1)[:16])
        frame = info.traceback[-1]
        assert frame.path.startswith("<rovftc kernel")
        assert str(frame.statement).strip() == "X, Y, psi, u, v, r = s"

    @pytest.mark.parametrize("make_cfg", [crossing_cfg, two_fault_cfg,
                                          between_steps_cfg, start_up_cfg])
    def test_run_matches_reference_stepper(self, make_cfg):
        rows, s, engine, idle_steps = reference_run(make_scenario(**make_cfg()))
        sim = Simulation(make_scenario(**make_cfg()))
        update, updated = sim.engine.update, []

        def spy(k, *args):
            updated.append(k)
            return update(k, *args)

        sim.engine.update = spy
        res = sim.run()
        del sim.engine.update
        kept = np.array(rows[::sim.scenario.decimation])
        assert kept.tobytes() == res.rows.tobytes()  # bit for bit, -0.0 too
        assert sim._s == s
        # the loop skips `update` on exactly the idle steps, and leaves the
        # engine as `update` on every step does
        assert sorted(set(range(sim.n_steps + 1)) - set(updated)) == idle_steps
        assert idle_steps
        assert {**vars(sim.engine), "geom": None} == {**vars(engine), "geom": None}
        stepper = Simulation(make_scenario(**make_cfg()))
        stepped = [stepper.step() for _ in range(stepper.n_steps)]
        assert np.array(stepped).tobytes() == np.array(rows[:-1]).tobytes()
        assert stepper._s == s

    def test_crossing_run_csv_bytes_pinned(self, tmp_path):
        res = Simulation(make_scenario(name="crossing", **crossing_cfg())).run()
        s = res.summary
        t = res.column("t")
        wh1 = res.column("Wh1")
        assert s["saturation_steps"] > 0
        assert [num for _, num in s["identifications"]] == [1]
        assert np.count_nonzero(np.diff(wh1)) >= 3
        joints = make_scenario(**crossing_cfg()).joint_steps
        assert [k for k in joints if k < len(t)] == [800] and t[800] == 8.0
        path = tmp_path / "crossing.csv"
        res.write_csv(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CROSSING_CSV_SHA256

    @pytest.mark.parametrize("joint_hold, hold_steps, widened", [
        (1.0, 100, np.r_[230:331, 520:621]),
        (0.0, 0, [230, 520]),  # no hold after the joint: the joint step alone
    ], ids=["hold", "no_hold"])
    def test_joint_hold_windows_on_threshold_column(self, joint_hold,
                                                    hold_steps, widened):
        sc = make_scenario(
            sim={"duration": 10.0, "decimation": 1},
            fdi={"joint_hold": joint_hold},
            trajectory={"initial_pose": [10.0, 5.0, HALF_PI],
                        "segments": [
                            {"mode": "straight", "duration": 2.3,
                             "speed": 1.0, "heading": HALF_PI},
                            {"mode": "turn", "duration": 2.9,
                             "speed": 1.0, "yaw_rate": 0.05},
                            {"mode": "straight", "duration": 20.0,
                             "speed": 1.0, "heading": 1.0}]})
        res = Simulation(sc).run()
        # joints at 2.3 s and 5.2 s, each a few ulps before its step time,
        # and at 25.2 s, past the run
        assert (sc.joint_steps, sc.hold_steps) == ((230, 520, 2520), hold_steps)
        assert np.array_equal(np.flatnonzero(res.column("threshold")
                                             == detection_threshold(sc.fdi, True)),
                              widened)

    def test_residual_at_threshold_arms(self):
        # detection is a strict comparison: a step-0 residual that equals
        # the threshold bit for bit is not above it, so the engine arms
        thr = detection_threshold(FdiConfig())
        sim = Simulation(make_scenario(
            sim={"duration": 1.0, "initial_state": [-thr, 0.0, 0.0, 0.0, 0.0, 0.0]},
            trajectory={"initial_pose": [0.0, 0.0, 0.0],
                        "segments": [{"mode": "hold", "duration": 10.0}]}))
        row = sim.step()
        assert row[COLUMNS.index("residual")] == row[COLUMNS.index("threshold")] == thr
        assert sim.engine.armed

    def test_divergence_guard(self):
        sc = make_scenario(
            sim={"duration": 5.0,
                 "initial_state": [0.0, 0.0, 0.0, 0.0, 0.0, 999999.0]},
        )
        res = Simulation(sc).run()
        assert res.diverged
        assert res.diverged_time is not None
        assert res.summary["diverged"]

    def test_overflowing_stage_yaw_ends_the_step_as_divergence(self):
        # with a yaw quadratic damping of 1e308 the k1 yaw acceleration,
        # and so the k2 yaw rate and the k3 yaw, reach -inf, where
        # math.cos and math.fmod raise
        sim = Simulation(make_scenario(
            sim={"duration": 1.0, "initial_state": [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]},
            vehicle={"quad_damping": [1.9, 3.0, 1e308]}))
        s0 = sim._s
        row = sim.step()
        assert sim.k == 1 and sim.diverged_time == sim.dt and sim._s == s0
        u1 = COLUMNS.index("u1")
        assert row[u1:u1 + 4] == (-1.0, 1.0, 1.0, -1.0)
        with pytest.raises(RuntimeError, match="diverged"):
            sim.step()

    def test_step_past_end_raises(self):
        sc = make_scenario(sim={"duration": 0.02})
        sim = Simulation(sc)
        sim.step()
        sim.step()
        with pytest.raises(RuntimeError):
            sim.step()

    def test_step_after_divergence_raises(self):
        overrides = ["sim.initial_state=[0,0,0,0,0,999999.0]", "sim.duration=1.0"]
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
                                 == detection_threshold(sc.fdi, True))
        assert np.array_equal(widened, np.arange(30001, 31002))  # 1 001 steps
        assert res.column("t")[widened[0]] == pytest.approx(300.01)

    def test_hold_window_counts_steps(self):
        # at step 12, 12 * 0.01 + 10.0 rounds below 1 012 * 0.01, so a
        # window kept in float seconds would close one step early
        sc = make_scenario(
            sim={"duration": 12.0, "decimation": 1},
            trajectory={"initial_pose": [10.0, 5.0, HALF_PI],
                        "segments": [
                            {"mode": "straight", "duration": 0.12,
                             "speed": 1.0, "heading": HALF_PI},
                            {"mode": "turn", "duration": 20.0,
                             "speed": 1.0, "yaw_rate": 0.05}]})
        res = Simulation(sc).run()
        widened = np.flatnonzero(res.column("threshold")
                                 == detection_threshold(sc.fdi, True))
        assert np.array_equal(widened, np.arange(12, 1013))  # 1 001 steps
        assert (sc.joint_steps, sc.hold_steps) == ((12, 2012), 1000)

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
                 "initial_state": [0.0, 0.0, 0.0, 0.0, 0.0, 999999.0]})
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
                                          between_steps_cfg, start_up_cfg])
    def test_summary_matches_whole_run_oracle(self, make_cfg):
        # the residual and threshold columns are pinned to the oracle by
        # `TestStep::test_run_matches_reference_stepper`
        sim = Simulation(make_scenario(**make_cfg()))
        residual, threshold, enorm, b_trig, fault_num = [], [], [], [], []
        e_eta = [COLUMNS.index(name) for name in ("e_x", "e_y", "e_psi")]

        def collect(row):
            residual.append(row[COLUMNS.index("residual")])
            threshold.append(row[COLUMNS.index("threshold")])
            enorm.append(math.sqrt(sum(row[i] * row[i] for i in e_eta)))
            b_trig.append(row[COLUMNS.index("b_trig")])
            fault_num.append(row[COLUMNS.index("fault_num")])

        for _ in range(sim.n_steps):
            collect(sim.step())
        collect(sim.run().rows[-1])  # the boundary at the end of the run
        summary = Simulation(make_scenario(**make_cfg())).run().summary
        want = oracle_summary(residual, threshold, enorm, b_trig, fault_num,
                              sim.dt, sim._events, sim.scenario.event_steps)
        assert len(residual) == sim.n_steps + 1
        assert summary["t_c"] == want["t_c"]
        assert summary["max_residual"] == want["max_residual"]
        assert (summary["max_residual_after_arming"]
                == want["max_residual_after_arming"])
        for key in ("reconverged_at", "detected_at", "identified", "identified_at"):
            assert [e[key] for e in summary["events"]] == want[key], key

    def test_reconvergence_needs_the_last_two_steps_quiet(self):
        # window 0 runs from the step where the first fault acts (10) to
        # the one where the second does (20)
        sim = fault_sim([{"time": 0.1, "thruster": 1, "weight": 0.5},
                         {"time": 0.2, "thruster": 2, "weight": 0.5}])
        sim.run()
        assert sim.scenario.event_steps == (10, 20)
        reconverged = []
        for k_above in (17, 18, 19):  # the window's last step above threshold
            sim._win_above[1] = k_above
            reconverged.append(sim._build_summary(0.0)["events"][0]["reconverged_at"])
        assert reconverged == [17 * 0.01 + 0.01, None, None]

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


def plain_csv(res):
    """The reference writer: every cell as `%.12g`, rows joined, then the
    divergence marker."""
    lines = [",".join(res.columns)]
    lines += [",".join("%.12g" % x for x in row) for row in res.rows.tolist()]
    if res.diverged:
        lines.append(f"# aborted: state divergence at t={res.diverged_time:.6g}")
    return ("\n".join(lines) + "\n").encode()


def csv_record(case):
    """A record for `case`: 640 rows of random cells (5 * CHUNK_ROWS + 27
    for "chunk_edge"), where W1..Wh4 are steady and step down twice, as
    the weights do in a run."""
    rng = np.random.default_rng(7)
    if case == "one_row":
        return SimResult("csv", rng.standard_normal((1, len(COLUMNS))), {})
    rows = rng.standard_normal((640, len(COLUMNS)))
    weights = slice(COLUMNS.index("W1"), COLUMNS.index("Wh4") + 1)
    rows[:, weights] = 1.0
    rows[200:, weights] = 0.5
    rows[450:, weights] = 0.25
    fault_num, w1 = COLUMNS.index("fault_num"), COLUMNS.index("W1")
    b_trig = COLUMNS.index("b_trig")
    if case == "all_constant":
        rows[:] = rows[0]
    elif case == "signed_zero":
        rows[:, fault_num] = 0.0
        rows[1:300, fault_num] = -0.0
    elif case == "nan_inf":
        rows[300:, w1] = math.nan
        rows[500:, w1 + 1] = math.inf
        rows[550:, w1 + 2] = -math.inf
        rows[::7, 0] = -math.inf
        rows[::11, 1] = math.nan
        rows[::13, 2] = math.inf
    elif case == "last_row":
        rows[:, fault_num] = 0.0
        rows[-1, fault_num] = 1.0
    elif case == "slice_edge":
        # steady columns that change inside a chunk (rows 160, 213, 426
        # and 480) and at a chunk's first row (320), one between 0.0 and -0.0
        rows[:, b_trig] = 0.0
        rows[160:, b_trig] = -0.0
        rows[320:, b_trig] = 0.0
        rows[480:, b_trig] = -0.0
        rows[:, fault_num] = 0.0
        rows[213:, fault_num] = 1.0
        rows[426:, fault_num] = 2.0
    elif case == "chunk_edge":
        # b_trig changes at the last row of the first chunk, the first row
        # of the second and the row after it; x_d moves for the first half
        # of the record and holds after it; the fourth chunk holds still
        c = simulation.CHUNK_ROWS
        rows = rows[:5 * c + 27]
        rows[:, b_trig] = 0.0
        rows[c - 1, b_trig] = 1.0
        rows[c, b_trig] = -0.0
        rows[c + 1:, b_trig] = 1.0
        rows[len(rows) // 2:, COLUMNS.index("x_d")] = 3.0
        rows[3 * c:4 * c] = rows[3 * c]
    return SimResult("csv", rows, {}, 6.4 if case == "diverged" else None)


@pytest.mark.parametrize("case", ["one_row", "all_constant", "signed_zero",
                                  "nan_inf", "last_row", "diverged",
                                  "slice_edge", "chunk_edge"])
def test_write_csv_matches_plain_writer(case, tmp_path):
    res = csv_record(case)
    res.write_csv(tmp_path / "record.csv")
    assert (tmp_path / "record.csv").read_bytes() == plain_csv(res)
