"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math

import numpy as np
import pytest

from rovftc.allocation import achieved_wrench, allocate
from rovftc.fdi import predict_sign_pattern
from rovftc.scenario import load_scenario, scenario_from_dict
from rovftc.simulation import Simulation
from rovftc.vehicle import ThrusterBank

HALF_PI = math.pi / 2
THRESHOLD = 0.31


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def baseline():
    return Simulation(load_scenario("fig3_baseline")).run()


@pytest.fixture(scope="module")
def sequential():
    return Simulation(load_scenario("fig6_sequential")).run()


@pytest.fixture(scope="module")
def failure():
    return Simulation(load_scenario("fig7_failure")).run()


@pytest.fixture(scope="module")
def ts_stress():
    return Simulation(load_scenario("fig10_ts_stress")).run()


def outside_hold_windows(t, joints, hold):
    mask = np.ones_like(t, dtype=bool)
    for j in joints:
        mask &= ~((t >= j) & (t <= j + hold))
    return mask


def test_01_baseline_tracking(baseline):
    sc = load_scenario("fig3_baseline")
    assert sc.fdi.c2 + sc.fdi.f_smooth == pytest.approx(THRESHOLD)
    s = baseline.summary
    t = baseline.column("t")
    residual = baseline.column("residual")
    t_c = s["t_c"]
    ok_conv = t_c is not None and t_c < 50.0
    mask = (t >= t_c) & outside_hold_windows(t, sc.plan.joint_times,
                                             sc.fdi.joint_hold)
    ok_resid = bool(np.all(residual[mask] < THRESHOLD))
    ok_trig = s["trigger_count"] == 0
    ok_time = s["runtime_s"] < 10.0
    report(1, ok_conv and ok_resid and ok_trig and ok_time,
           f"600 s baseline: t_c={t_c:.2f} s, "
           f"max residual after t_c outside holds="
           f"{residual[mask].max():.4f} < {THRESHOLD}, "
           f"triggers={s['trigger_count']}, runtime={s['runtime_s']:.2f} s")


def test_02_exponential_decay():
    sc = scenario_from_dict({
        "sim": {"duration": 40.0, "decimation": 1,
                "initial_state": [10.8, 4.4, HALF_PI + 0.1, 0.9, 0.05, -0.02]},
        "trajectory": {"initial_pose": [10.0, 5.0, HALF_PI],
                       "segments": [{"mode": "straight", "duration": 60.0,
                                     "speed": 1.0, "heading": HALF_PI}]},
    }, name="decay")
    lam = sc.gains.decay_rate
    res = Simulation(sc).run()
    assert res.summary["saturation_steps"] == 0, "decay run must stay linear"
    v2 = res.column("V2")
    t = res.column("t")
    dv = np.diff(v2) / sc.dt
    bound = -lam * v2[:-1] + 1e-3 * np.maximum(v2[:-1], 1.0)
    ok_rate = bool(np.all(dv <= bound))
    # integrated form down to the numerical floor
    live = v2 > 1e-10 * v2[0]
    ok_log = bool(np.all(np.log(v2[live])
                         <= math.log(v2[0]) - lam * t[live] + 0.5))
    t_c = res.summary["t_c"]
    enorm = np.sqrt(res.column("e_x") ** 2 + res.column("e_y") ** 2
                    + res.column("e_psi") ** 2)
    ok_tc = t_c is not None and bool(np.all(enorm[t >= t_c] <= 0.05))
    report(2, ok_rate and ok_log and ok_tc,
           f"per-step dV2/dt <= -{lam}*V2 + 1e-3*max(V2,1) at all "
           f"{len(dv)} steps; |e_eta| <= 0.05 for t >= t_c={t_c:.2f} s")


def test_03_sign_table_exact(geom, fdi_cfg):
    alpha = geom.alpha
    rows = {
        (+1, +1, +1): (+1, +1, -1),
        (+1, +1, -1): (+1, -1, -1),
        (+1, -1, +1): (-1, +1, -1),
        (+1, -1, -1): (-1, -1, -1),
        (-1, +1, +1): (-1, -1, +1),
        (-1, +1, -1): (-1, +1, +1),
        (-1, -1, +1): (+1, -1, +1),
        (-1, -1, -1): (+1, +1, +1),
    }
    heading = {(+1, +1): alpha + math.pi / 4, (-1, +1): alpha + 3 * math.pi / 4,
               (-1, -1): alpha - 3 * math.pi / 4, (+1, -1): alpha - math.pi / 4}
    mismatches = []
    for (su, sc_, ss), expected in rows.items():
        got = predict_sign_pattern(1, su * 0.5, heading[(sc_, ss)], geom, fdi_cfg)
        if got != expected:
            mismatches.append(((su, sc_, ss), got, expected))
    report(3, not mismatches,
           f"first-thruster sign table reproduced in all 8 cases (exact)"
           + (f"; mismatches: {mismatches}" if mismatches else ""))


def test_04_deficit_sign_oracle():
    combos = []
    for heading in (HALF_PI, 0.0):
        for speed in (1.0, -1.0):
            cfg = {
                "sim": {"duration": 1.0, "decimation": 1,
                        "initial_state": [0.0, 0.0, heading, speed, 0.0, 0.0]},
                "trajectory": {"initial_pose": [0.0, 0.0, heading],
                               "segments": [{"mode": "straight", "duration": 2.0,
                                             "speed": speed, "heading": heading}]},
            }
            for thruster in range(1, 5):
                sc = scenario_from_dict(cfg, name="oracle")
                sim = Simulation(sc)
                c = sim._control(tuple(sim.state), sc.plan.sample_flat(0.0))
                u_cmd = c[15:19]
                pattern = predict_sign_pattern(thruster, u_cmd[thruster - 1],
                                               heading, sc.geometry, sc.fdi)
                assert 0 not in pattern, "combo must meet dead-band conditions"
                sim.bank.w_true[thruster - 1] = 0.8
                sim._refresh_thrust()
                sim.step()
                c2 = sim._control(tuple(sim.state), sc.plan.sample_flat(sc.dt))
                e_dot = np.array(c2[9:12])
                assert np.abs(e_dot).min() > 1e-9, "deviation unresolvable"
                measured = tuple(int(np.sign(x)) for x in e_dot)
                combos.append((heading, speed, thruster, measured == pattern))
    bad = [c for c in combos if not c[3]]
    report(4, not bad,
           f"one-step weight-cut sign agreement in {len(combos) - len(bad)}"
           f"/{len(combos)} thruster/command combos"
           + (f"; disagreements: {bad}" if bad else ""))


def test_05_identification_correctness():
    results = []
    for thruster in range(1, 5):
        for weight in (0.7, 0.4):
            sc = scenario_from_dict({
                "sim": {"duration": 160.0},
                "faults": [{"time": 100.0, "thruster": thruster,
                            "weight": weight}],
            }, name=f"ident_{thruster}_{weight}")
            s = Simulation(sc).run().summary
            ev = s["events"][0]
            pre_fault = [tt for tt, _ in s["identifications"] if tt < 100.0]
            results.append((thruster, weight, ev["identified"],
                            not pre_fault))
    bad = [r for r in results
           if r[2] != r[0] or not r[3]]
    report(5, not bad,
           "identified index equals injected index in all 8 fault runs "
           "(w in {0.7, 0.4} x 4 thrusters), none before injection"
           + (f"; failures: {bad}" if bad else ""))


def test_06_reconfiguration_convergence(sequential):
    sc = load_scenario("fig6_sequential")
    assert sc.fdi.t_s == 5.0 and sc.fdi.delta_w == 0.05
    s = sequential.summary
    bad = []
    for ev in s["events"]:
        if ev["identified"] != ev["thruster"] or ev["reconverged_at"] is None \
                or ev["w_hat_error"] > 2 * sc.fdi.delta_w + 1e-9:
            bad.append(ev)
    gaps = [f"{ev['w_hat_error']:.3f}" for ev in s["events"]]
    report(6, not bad,
           f"all 4 sequential faults re-settle below {THRESHOLD} with "
           f"|w_hat - w| <= {2 * sc.fdi.delta_w:.2f} (gaps: {gaps})"
           + (f"; failures: {bad}" if bad else ""))


def test_07_failure_tolerance(failure):
    s = failure.summary
    ok_state = np.allclose(s["final_w_true"], [0.3, 0.0, 0.2, 0.1])
    ok_events = all(ev["reconverged_at"] is not None for ev in s["events"])
    # failed thruster's estimate pinned at the floor, flagged failed
    ok_floor = s["final_w_hat"][1] == pytest.approx(0.05)
    t = failure.column("t")
    residual = failure.column("residual")
    tail = residual[t >= t[-1] - 30.0]
    ok_steady = bool(np.all(tail < THRESHOLD))
    report(7, ok_state and ok_events and ok_floor and ok_steady,
           f"bank degraded to (0.3, 0, 0.2, 0.1): every event recovered, "
           f"steady-state residual (last 30 s) max={tail.max():.4f} < "
           f"{THRESHOLD} on three effective thrusters")


def test_08_update_period_stress(ts_stress):
    s = ts_stress.summary
    flagged = s["reconfiguration_failures"]
    ok_flag = len(flagged) > 0
    # at least one fault whose residual never re-enters the threshold
    # within 200 s of injection
    t = ts_stress.column("t")
    residual = ts_stress.column("residual")
    threshold = ts_stress.column("threshold")
    ok_stuck = False
    for ev in s["events"]:
        win = (t >= ev["time"] + 5.0) & (t <= ev["time"] + 200.0)
        if win.any() and np.all(residual[win] > threshold[win]):
            ok_stuck = True
            break
    report(8, ok_flag and ok_stuck,
           f"update period {load_scenario('fig10_ts_stress').fdi.t_s} s "
           f"(below the documented minimum) leaves reconfiguration "
           f"unconverged 200 s past a fault; summary flags events at "
           f"{flagged}")


def test_09_allocation_round_trip(geom, rng):
    bank = ThrusterBank(K=np.full(4, 40.0))
    worst = 0.0
    for _ in range(1000):
        tau = rng.normal(0.0, 1.0, 3) * np.array([10.0, 10.0, 2.0])
        res = allocate(tau, bank, geom)
        assert not res.saturated
        back = achieved_wrench(res.u_cmd, bank, geom)
        worst = max(worst, np.abs(back - tau).max())
    report(9, worst < 1e-9,
           f"1000 random wrenches, healthy bank: max round-trip error "
           f"{worst:.3e} < 1e-9")


def test_10_determinism_and_order(tmp_path):
    runs = []
    for k in range(2):
        res = Simulation(load_scenario("fault_thruster2")).run()
        path = tmp_path / f"det{k}.csv"
        res.write_csv(path)
        runs.append((res.rows, path.read_bytes()))
    ok_det = np.array_equal(runs[0][0], runs[1][0]) and runs[0][1] == runs[1][1]

    def final_state(dt):
        sc = scenario_from_dict({
            "sim": {"duration": 4.0, "dt": dt, "decimation": 10 ** 6,
                    "initial_state": [10.8, 4.4, HALF_PI + 0.1,
                                      0.9, 0.05, -0.02]},
            "trajectory": {"initial_pose": [10.0, 5.0, HALF_PI],
                           "segments": [{"mode": "straight", "duration": 50.0,
                                         "speed": 1.0, "heading": HALF_PI}]},
        }, name=f"order{dt}")
        sim = Simulation(sc)
        sim.run()
        return sim.state.copy()

    ref = final_state(0.001)
    ratio = (np.linalg.norm(final_state(0.02) - ref)
             / np.linalg.norm(final_state(0.01) - ref))
    ok_order = 8.0 < ratio < 32.0
    report(10, ok_det and ok_order,
           f"repeat runs byte-identical; dt 0.02->0.01 global error ratio "
           f"{ratio:.1f} within [8, 32] of a dt=0.001 reference")
