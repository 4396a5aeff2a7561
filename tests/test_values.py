"""The one value rule: every model constructor reads its numeric fields
through `real`, `whole` and `reals`, so a library build refuses what a
scenario file is refused for, and a rebuilt copy equals its original."""

import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

from rovftc.controller import ControllerGains
from rovftc.fdi import FdiConfig
from rovftc.scenario import load_scenario
from rovftc.simulation import FaultEvent, Simulation
from rovftc.trajectory import Segment, TrajectoryPlan
from rovftc.vehicle import (ThrusterBank, ThrusterGeometry, VehicleParams,
                            VehicleState, reals, whole)

#: values no numeric field takes: not finite, not a number, or beyond floats
BAD = [math.nan, math.inf, True, "0.5", None, 10 ** 400]

GAINS = {"gamma1": [1.0, 1.0, 10.0], "gamma2": [100.0, 100.0, 300.0],
         "a1": [1.0, 1.0, 10.0], "a2": [100.0, 100.0, 300.0]}
VEHICLE = {"inertia": [20.0, 20.0, 0.16], "lin_damping": [0.7, 1.1, 0.05],
           "quad_damping": [1.9, 3.0, 0.5], "B": [0.05, 0.05, 6.25]}
SCENARIO = load_scenario("fault_thruster1", ["sim.duration=200"])

#: per constructor: every checked field at a value it accepts, and the
#: scenario key that names the field in a message
CONSTRUCTORS = {
    VehicleState: ({f: 0.1 for f in ("x", "y", "psi", "u", "v", "r")}, ""),
    ThrusterGeometry: ({"alpha": 0.7, "l": 0.2}, "vehicle."),
    ThrusterBank: ({"K": [40.0] * 4, "w_true": [1.0] * 4, "w_hat": [1.0] * 4,
                    "u_max": 1.0, "w_min": 0.05},
                   {"K": "vehicle.K", "u_max": "vehicle.u_max", "w_min": "fdi.w_min",
                    "w_true": "w_true", "w_hat": "w_hat"}),
    VehicleParams: (VEHICLE, "vehicle."),
    ControllerGains: (GAINS, "gains."),
    FdiConfig: (dataclasses.asdict(FdiConfig()), "fdi."),
    Segment: ({"mode": "turn", "duration": 10.0, "speed": 1.0, "heading": 0.0,
               "yaw_rate": 0.1}, ""),
    TrajectoryPlan: ({"initial_pose": [0.0, 0.0, 0.0], "segments": []}, "trajectory."),
}


def bad_fields(good: dict):
    """(field, value) with each numeric field of `good` set in turn to each
    BAD value; a list field also gets it as its first entry."""
    for name, value in good.items():
        if isinstance(value, str) or name == "segments":
            continue
        for bad in BAD:
            yield name, bad
            if isinstance(value, list):
                yield name, [bad, *value[1:]]


def cases():
    for cls, (good, keys) in CONSTRUCTORS.items():
        for name, value in bad_fields(good):
            key = keys[name] if isinstance(keys, dict) else keys + name
            yield pytest.param(cls, good, name, value, key,
                               id=f"{cls.__name__}-{name}-{str(value)[:12]}")


@pytest.mark.parametrize("cls, good, name, value, key", cases())
def test_constructor_refuses_each_bad_value(cls, good, name, value, key):
    cls(**good)
    with pytest.raises(ValueError, match="^" + re.escape(f"{key}: ")):
        cls(**{**good, name: value})


SCENARIO_FIELDS = {"dt": 0.01, "duration": 200.0, "settle_time": 50.0,
                   "decimation": 10, "initial_state": [0.0] * 6}


@pytest.mark.parametrize("name, value", [
    *bad_fields(SCENARIO_FIELDS), *(("faults", (f, bad)) for f in FaultEvent._fields
                                    for bad in BAD)])
def test_scenario_refuses_each_bad_value(name, value):
    if name == "faults":
        field, bad = value
        change = {"faults": (SCENARIO.faults[0]._replace(**{field: bad}),)}
        key = f"faults[0].{field}"
    else:
        change, key = {name: value}, f"sim.{name}"
    with pytest.raises(ValueError, match="^" + re.escape(f"{key}: ")):
        dataclasses.replace(SCENARIO, **change)


@pytest.mark.parametrize("name", ["K", "w_true", "w_hat"])
@pytest.mark.parametrize("value", [[1.0, 1.0], 1.0, [[1.0] * 4]])
def test_thruster_bank_wants_4_entries(name, value):
    with pytest.raises(ValueError, match=f"^{name} must have 4 entries"):
        ThrusterBank(**{"K": [40.0] * 4, name: value})


def test_whole_takes_an_integral_float():
    assert whole(3.0, "k") == 3 and type(whole(3.0, "k")) is int
    with pytest.raises(ValueError, match="k: expected a whole number, got 3.5"):
        whole(3.5, "k")


def test_reals_keeps_the_shape_and_refuses_a_ragged_list():
    assert reals([[1.0]], "k").shape == (1, 1) and reals(2, "k").shape == ()
    for ragged in ([[1.0, 2.0], [3.0]], [1.0, [2.0]]):
        with pytest.raises(ValueError, match=r"^k: expected a number, got \["):
            reals(ragged, "k")


def assert_same(a, b, where="scenario"):
    """`a` and `b` are equal in value and in type, field by field."""
    assert type(a) is type(b), where
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            if f.compare:
                assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, TrajectoryPlan):
        assert_same(a.initial_pose, b.initial_pose, f"{where}.initial_pose")
        assert_same(a.segments, b.segments, f"{where}.segments")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), where
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{where}[{i}]")
    else:
        assert a == b, where


@pytest.mark.parametrize("rebuild", [lambda sc: pickle.loads(pickle.dumps(sc)),
                                     dataclasses.replace], ids=["pickle", "replace"])
def test_a_rebuilt_scenario_equals_its_original(rebuild, tmp_path):
    # the constructor converts what it reads, so neither a second pass
    # through it (replace) nor a copy of what it stored (pickle) may
    # change anything: not a value, not a type, not a CSV byte
    sc = load_scenario("fault_thruster1", [
        "sim.duration=2", "sim.settle_time=0",
        "faults=[{time: 1, thruster: 1.0, weight: 0.3}]"])
    assert type(sc.faults[0].time) is float and type(sc.faults[0].thruster) is int
    copy = rebuild(sc)
    assert copy is not sc
    assert_same(copy, sc)
    for which, scenario in (("copy", copy), ("original", sc)):
        Simulation(scenario).run().write_csv(tmp_path / f"{which}.csv")
    assert (tmp_path / "copy.csv").read_bytes() == (tmp_path / "original.csv").read_bytes()
