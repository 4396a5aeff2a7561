import math

import numpy as np
import pytest

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
        # which is exactly why the joint is flagged non-smooth
        eps = 1e-9
        before = demo_plan.sample(300.0 - eps)
        after = demo_plan.sample(300.0 + eps)
        assert np.allclose(before.eta_d, after.eta_d, atol=1e-6)
        assert np.allclose(before.eta_d_dot[:2], after.eta_d_dot[:2], atol=1e-6)
        assert after.eta_d_dot[2] - before.eta_d_dot[2] == pytest.approx(0.05)

    def test_smooth_flags(self, demo_plan):
        assert demo_plan.sample(150.0).smooth
        assert not demo_plan.sample(300.0).smooth
        assert not demo_plan.sample(600.0).smooth
        assert demo_plan.joint_times == [300.0, 600.0]

    def test_joint_tolerance_catches_step_time(self, demo_plan):
        # accumulated float step time lands within the tolerance
        t = 30000 * 0.01
        assert not demo_plan.sample(t).smooth


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

    def test_negative_time_rejected(self, demo_plan):
        with pytest.raises(ValueError):
            demo_plan.sample(-1.0)

    def test_empty_plan_holds_initial_pose(self):
        plan = TrajectoryPlan([1.0, -1.0, 0.5], [])
        ref = plan.sample(100.0)
        assert np.allclose(ref.eta_d, [1.0, -1.0, 0.5])
