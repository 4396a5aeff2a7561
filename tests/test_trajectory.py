import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rovftc.scenario import list_presets, load_scenario
from rovftc.simulation import TIME_TOL, Simulation, step_index
from rovftc.trajectory import Segment, TrajectoryPlan

HALF_PI = math.pi / 2


@pytest.fixture(scope="module")
def demo_plan(default_scenario):
    """Shipped default plan: 300 s straight north, then a 300 s turn."""
    return default_scenario.plan


class TestDemoPlan:
    def test_straight_sample(self, demo_plan):
        ref = demo_plan.sample(10.0)
        assert np.allclose(ref.eta_d, [10.0, 15.0, HALF_PI])

    def test_straight_derivatives(self, demo_plan):
        ref = demo_plan.sample(299.9)
        assert np.allclose(ref.eta_d_dot, [0.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(ref.eta_d_ddot, 0.0)

    def test_turn_kinematics(self, demo_plan):
        # unit ground speed, 0.05 rad/s yaw rate: a 20 m radius circle
        center = np.array([10.0 - 20.0, 305.0])
        for t in (301.0, 350.0, 420.0, 599.0):
            ref = demo_plan.sample(t)
            assert np.hypot(*ref.eta_d_dot[:2]) == pytest.approx(1.0)
            assert ref.eta_d_dot[2] == pytest.approx(0.05)
            assert np.hypot(*(ref.eta_d[:2] - center)) == pytest.approx(20.0)
            # centripetal acceleration u * r toward the center
            assert np.hypot(*ref.eta_d_ddot[:2]) == pytest.approx(0.05)

    def test_tangent_heading_on_turn(self, demo_plan):
        ref = demo_plan.sample(400.0)
        course = math.atan2(ref.eta_d_dot[1], ref.eta_d_dot[0])
        assert math.sin(ref.eta_d[2] - course) == pytest.approx(0.0, abs=1e-12)

    def test_hold_past_end(self, demo_plan):
        end = demo_plan.sample(599.999999)
        held = demo_plan.sample(650.0)
        assert np.allclose(held.eta_d, end.eta_d, atol=1e-4)
        assert np.allclose(held.eta_d_dot, 0.0)

    def test_continuity_at_joint(self, demo_plan):
        # pose and planar velocity chain continuously; the yaw rate steps,
        # which is exactly why the joint opens a hold window
        eps = 1e-9
        before = demo_plan.sample(300.0 - eps)
        after = demo_plan.sample(300.0 + eps)
        assert np.allclose(before.eta_d, after.eta_d, atol=1e-6)
        assert np.allclose(before.eta_d_dot[:2], after.eta_d_dot[:2], atol=1e-6)
        assert after.eta_d_dot[2] - before.eta_d_dot[2] == pytest.approx(0.05)

    def test_joint_steps(self, demo_plan, default_scenario):
        assert demo_plan.joint_times == [300.0, 600.0]
        assert default_scenario.joint_steps == (30000, 60000)

    def test_joint_tolerance_catches_step_time(self):
        # a joint a few ulps either side of a step start acts at that step
        for t in (math.nextafter(300.0, 0.0), 300.0, math.nextafter(300.0, 400.0)):
            assert step_index(t, 0.01) == 30000
        assert step_index(300.0 + 2e-9, 0.01) == 30001

    def test_step_index_corrects_an_estimate_one_step_late(self):
        # (t - TIME_TOL) / dt rounds up past 7, so the first estimate is 8
        t = 7 * 0.01 + TIME_TOL
        assert math.ceil((t - TIME_TOL) / 0.01) == 8
        assert step_index(t, 0.01) == 7


class TestSegments:
    def test_reverse_straight(self):
        plan = TrajectoryPlan([0, 0, 0], [Segment("straight", 10.0,
                                                  speed=-1.0, heading=0.0)])
        ref = plan.sample(5.0)
        assert ref.eta_d[0] == pytest.approx(-5.0)
        assert ref.eta_d[2] == 0.0
        assert ref.eta_d_dot[0] == pytest.approx(-1.0)

    def test_hold_segment(self):
        plan = TrajectoryPlan([1.0, 2.0, 0.3], [Segment("hold", 5.0)])
        ref = plan.sample(2.0)
        assert np.allclose(ref.eta_d, [1.0, 2.0, 0.3])
        assert np.allclose(ref.eta_d_dot, 0.0)

    def test_chained_poses(self):
        plan = TrajectoryPlan([0, 0, 0], [
            Segment("straight", 10.0, speed=1.0, heading=0.0),
            Segment("turn", HALF_PI / 0.1, speed=1.0, yaw_rate=0.1),
        ])
        # quarter turn of radius 10 starting at (10, 0) heading east
        ref = plan.sample(10.0 + HALF_PI / 0.1 - 1e-9)
        assert ref.eta_d[0] == pytest.approx(20.0, abs=1e-6)
        assert ref.eta_d[1] == pytest.approx(10.0, abs=1e-6)
        assert ref.eta_d[2] == pytest.approx(HALF_PI, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            Segment("spiral", 10.0)
        with pytest.raises(ValueError):
            Segment("straight", 0.0, speed=1.0)
        with pytest.raises(ValueError):
            Segment("turn", 10.0, speed=1.0, yaw_rate=0.0)
        with pytest.raises(ValueError):
            TrajectoryPlan([0.0, 0.0], [])

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_duration_must_be_finite(self, duration):
        with pytest.raises(ValueError, match="^duration: must be finite"):
            Segment("straight", duration, speed=1.0)

    def test_negative_time_rejected(self, demo_plan):
        with pytest.raises(ValueError):
            demo_plan.sample(-1.0)

    def test_empty_plan_holds_initial_pose(self):
        plan = TrajectoryPlan([1.0, -1.0, 0.5], [])
        ref = plan.sample(100.0)
        assert np.allclose(ref.eta_d, [1.0, -1.0, 0.5])


#: every segment mode, a joint between two turns, and a hold past the end
MIXED_PLAN = TrajectoryPlan([1.0, -2.0, 0.3], [
    Segment("straight", 40.0, speed=1.2, heading=0.3),
    Segment("turn", 25.0, speed=0.8, yaw_rate=0.04),
    Segment("turn", 30.0, speed=-0.5, yaw_rate=-0.1),
    Segment("hold", 10.0),
    Segment("straight", 35.0, speed=-1.0, heading=2.0),
])


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.lists(st.one_of(st.floats(0.0, 200.0),
                          st.sampled_from(MIXED_PLAN.joint_times)),
                min_size=1, max_size=40))
def test_sample_order_is_invisible(times):
    # the segment cursor only shortens the search: any order of calls
    # gives each time the answer of a plan that has never been sampled
    for t in times:
        fresh = TrajectoryPlan(MIXED_PLAN.initial_pose, MIXED_PLAN.segments)
        assert MIXED_PLAN.sample_flat(t) == fresh.sample_flat(t)


@pytest.mark.parametrize("name", list_presets())
def test_scenario_pickle_round_trip(name):
    # `rovftc batch` pickles each scenario into its worker pool; a
    # validated scenario is data, so the copy equals it field by field
    sc = load_scenario(name)
    copy = pickle.loads(pickle.dumps(sc))
    assert copy is not sc
    steps = ("event_steps", "joint_steps", "n_steps", "update_steps", "hold_steps")
    assert [getattr(copy, key) for key in steps] == [getattr(sc, key) for key in steps]
    joints = [0.0, *sc.plan.joint_times]
    times = joints + [(a + b) / 2 for a, b in zip(joints, joints[1:])]
    for t in times + [joints[-1] + 1.0]:
        assert copy.plan.sample_flat(t) == sc.plan.sample_flat(t)
    assert Simulation(copy).step() == Simulation(sc).step()
