"""Property tests over the paper's reconfiguration invariants and the
run record: short runs that cross one or two random faults, with random
update period and decrement; over its isolation rule, on straight legs
at random heading; and over the rule that turns an instant into a step
index. Examples are derandomized, so the suite stays deterministic."""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from rovftc.scenario import scenario_from_dict
from rovftc.simulation import TIME_TOL, Simulation, step_index

HALF_PI = math.pi / 2

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=8)


@st.composite
def fault_runs(draw):
    """10 s on a straight leg, starting on the reference, with no settle
    time: 1-2 faults between 0.5 and 7 s on random thrusters (each weight
    below the thruster's current one), t_s in [0.01, 2] s and delta_w in
    [0.01, 0.5]."""
    times = sorted(draw(st.lists(st.integers(50, 700), min_size=1,
                                 max_size=2, unique=True)))
    current = [1.0] * 4
    faults = []
    for k in times:
        i = draw(st.sampled_from([j for j in range(1, 5) if current[j - 1] > 0]))
        current[i - 1] *= draw(st.integers(0, 9)) / 10
        faults.append({"time": k / 100, "thruster": i, "weight": current[i - 1]})
    return {
        "sim": {"duration": 10.0, "settle_time": 0.0,
                "decimation": draw(st.sampled_from([1, 7])),
                "initial_state": [10.0, 5.0, HALF_PI, 1.0, 0.0, 0.0]},
        "fdi": {"t_s": draw(st.integers(1, 200)) / 100,
                "delta_w": draw(st.integers(1, 50)) / 100},
        "trajectory": {"initial_pose": [10.0, 5.0, HALF_PI],
                       "segments": [{"mode": "straight", "duration": 20.0,
                                     "speed": 1.0, "heading": HALF_PI}]},
        "faults": faults,
    }


def stepped(cfg):
    """The run through `step()`: yields (simulation, w_hat before the
    step, the row) after every step."""
    sim = Simulation(scenario_from_dict(cfg, name="prop"))
    for _ in range(sim.n_steps):
        before = sim.bank.w_hat.copy()
        row = sim.step()
        yield sim, before, row


@PROPERTY
@given(fault_runs())
def test_estimates_never_rise_and_stay_above_floor(cfg):
    for sim, before, _ in stepped(cfg):
        w_hat = sim.bank.w_hat
        assert np.all(w_hat <= before), (sim.k, before, w_hat)
        assert np.all(w_hat >= sim.bank.w_min), (sim.k, w_hat)


@PROPERTY
@given(fault_runs())
def test_only_identified_estimate_moves(cfg):
    for sim, before, _ in stepped(cfg):
        moved = np.flatnonzero(sim.bank.w_hat != before)
        if moved.size:
            engine = sim.engine
            assert list(moved) == [engine.fault_num - 1], (
                sim.k, before, sim.bank.w_hat)
            assert engine.identified_log[-1][1] == engine.fault_num


@PROPERTY
@given(fault_runs())
def test_step_rows_equal_run_rows(cfg):
    steps = list(stepped(cfg))
    sim, rows = steps[-1][0], [row for _, _, row in steps]
    dec = sim.scenario.decimation
    kept = np.concatenate([np.array(rows[::dec]), sim.run().rows])
    plain = Simulation(scenario_from_dict(cfg, name="prop")).run()
    assert kept.tobytes() == plain.rows.tobytes()


@PROPERTY
@given(fault_runs())
def test_fdi_columns_finite_unless_diverged(cfg):
    every_step = {**cfg, "sim": {**cfg["sim"], "decimation": 1}}
    res = Simulation(scenario_from_dict(every_step, name="prop")).run()
    if not res.diverged:
        assert np.isfinite(res.column("residual")).all()
        assert np.isfinite(res.column("threshold")).all()


@PROPERTY
@given(fault_runs())
def test_repeated_runs_bit_identical(cfg):
    sc = scenario_from_dict(cfg, name="prop")
    first, second = Simulation(sc).run(), Simulation(sc).run()
    assert first.rows.tobytes() == second.rows.tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp, "a.csv"), Path(tmp, "b.csv")
        first.write_csv(a)
        second.write_csv(b)
        assert a.read_bytes() == b.read_bytes()


@st.composite
def straight_leg_faults(draw):
    """16 s on a straight leg at heading k pi/8 and speed +-1, starting on
    the reference with no settle time, as in table1_case*: one thruster
    drops to weight 0.3 or 0.6 at 6 s."""
    heading = draw(st.integers(0, 15)) * math.pi / 8
    speed = draw(st.sampled_from([1.0, -1.0]))
    return {
        "sim": {"duration": 16.0, "settle_time": 0.0,
                "initial_state": [0.0, 0.0, heading, speed, 0.0, 0.0]},
        "trajectory": {"initial_pose": [0.0, 0.0, heading],
                       "segments": [{"mode": "straight", "duration": 16.0,
                                     "speed": speed, "heading": heading}]},
        "faults": [{"time": 6.0, "thruster": draw(st.integers(1, 4)),
                    "weight": draw(st.sampled_from([0.3, 0.6]))}],
    }


@settings(derandomize=True, database=None, deadline=None, max_examples=16)
@given(straight_leg_faults())
def test_never_misidentified(cfg):
    # a fault may go unidentified, but never blamed on another thruster
    summary = Simulation(scenario_from_dict(cfg, name="prop")).run().summary
    for event in summary["events"]:
        assert event["identified"] in (event["thruster"], None), event


@st.composite
def instants(draw):
    """(t, dt): t in [0, 1e4) s, anywhere or within a few ulps of a step
    start or of one TIME_TOL before it."""
    dt = draw(st.sampled_from([0.001, 0.002, 0.005, 0.01, 0.02]))
    if draw(st.booleans()):
        return draw(st.floats(0.0, 1e4, exclude_max=True)), dt
    t = (draw(st.integers(0, round(1e4 / dt) - 1)) * dt
         - draw(st.sampled_from([0.0, TIME_TOL])))
    ulps = draw(st.integers(-3, 3))
    for _ in range(abs(ulps)):
        t = math.nextafter(t, math.copysign(math.inf, ulps))
    return max(t, 0.0), dt


@settings(derandomize=True, database=None, max_examples=300)
@given(instants())
def test_step_index_is_first_step_at_or_after(instant):
    t, dt = instant
    k = step_index(t, dt)
    assert t <= k * dt + TIME_TOL
    assert k == 0 or t > (k - 1) * dt + TIME_TOL
