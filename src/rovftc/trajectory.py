"""Piecewise reference trajectories: hold, constant-heading straights, and
constant-rate turns. Segments chain positionally, so the reference pose is
continuous wherever the modes allow; derivatives may jump at joints, where
the simulation opens the detection threshold's hold window.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .controller import ReferenceSample
from .vehicle import real, reals


@dataclass(frozen=True)
class Segment:
    """One piece of the plan.

    mode "hold": stay at the entry pose.
    mode "straight": move at `speed` along fixed `heading` (negative speed
        runs the vehicle astern along the same heading).
    mode "turn": move at `speed` while yawing at `yaw_rate`, tracing a
        circle of radius speed / yaw_rate.
    """

    mode: str
    duration: float
    speed: float = 0.0
    heading: float = 0.0
    yaw_rate: float = 0.0

    def __post_init__(self):
        if self.mode not in ("hold", "straight", "turn"):
            raise ValueError(f"unknown segment mode {self.mode!r}")
        for name in ("duration", "speed", "heading", "yaw_rate"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        if self.duration <= 0.0:
            raise ValueError("segment duration must be positive")
        if self.mode == "turn" and self.yaw_rate == 0.0:
            raise ValueError("turn segment needs a nonzero yaw rate")


def _segment_fn(seg: Segment, pose):
    """The reference in `seg`, which starts at `pose`, as a function of
    the time s into the segment: (xd, yd, psid, vxd, vyd, rd, axd, ayd),
    with every term that does not depend on s computed here, once."""
    x0, y0, psi0 = pose
    if seg.mode == "hold":
        held = (x0, y0, psi0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return lambda s: held
    speed = seg.speed
    if seg.mode == "straight":
        psid = seg.heading
        ch, sh = math.cos(psid), math.sin(psid)
        vxd, vyd = speed * ch, speed * sh
        return lambda s: (x0 + speed * s * ch, y0 + speed * s * sh,
                          psid, vxd, vyd, 0.0, 0.0, 0.0)
    rate = seg.yaw_rate
    rad = speed / rate
    s0, c0 = math.sin(psi0), math.cos(psi0)
    ax_gain, ay_gain = -speed * rate, speed * rate  # of sp and cp
    cos, sin = math.cos, math.sin

    def turn(s):
        psid = psi0 + rate * s
        cp, sp = cos(psid), sin(psid)
        return (x0 + rad * (sp - s0), y0 - rad * (cp - c0), psid,
                speed * cp, speed * sp, rate, ax_gain * sp, ay_gain * cp)

    return turn


class TrajectoryPlan:
    """Ordered segments starting from an initial pose.

    Yaw in the samples is left unwrapped (continuous across turns); the
    controller wraps the error. Past the end of the plan the final pose is
    held.
    """

    def __init__(self, initial_pose, segments):
        pose = reals(initial_pose, "trajectory.initial_pose")
        if pose.shape != (3,):
            raise ValueError("initial pose must be [x, y, psi]")
        self.initial_pose = tuple(pose.tolist())
        self.segments = list(segments)
        starts = [0.0]
        fns = []
        pose = self.initial_pose
        for i, seg in enumerate(self.segments):
            if seg.mode == "turn" and not math.isfinite(
                    pose[2] + seg.yaw_rate * seg.duration):  # the yaw at its end
                raise ValueError(f"segment {i}: the end yaw is not finite "
                                 f"(yaw_rate = {seg.yaw_rate})")
            fns.append(_segment_fn(seg, pose))
            starts.append(starts[-1] + seg.duration)
            pose = fns[-1](seg.duration)[:3]
        fns.append(_segment_fn(Segment("hold", 1.0), pose))  # a hold ignores its duration
        self._starts = (*starts, math.inf)  # segment i spans starts[i:i + 2]
        self._fns = tuple(fns)              # the last one holds the end pose

    def __reduce__(self):
        # the segment functions are closures; a copy builds its own
        return TrajectoryPlan, (self.initial_pose, self.segments)

    @property
    def joint_times(self) -> list[float]:
        """Times where the reference derivatives may jump (interior
        segment boundaries plus the plan end)."""
        return list(self._starts[1:-1])

    def sample_flat(self, t: float):
        """(xd, yd, psid, vxd, vyd, rd, axd, ayd) at time t; scalar tuple
        for the simulation hot path. A joint gets the segment it opens, a
        time before 0 the first one."""
        i = bisect_right(self._starts, t, 1) - 1
        return self._fns[i](t - self._starts[i])

    def sample(self, t: float) -> ReferenceSample:
        """Reference at time t >= 0; at a joint, the right limit."""
        if t < 0.0:
            raise ValueError("time must be non-negative")
        xd, yd, psid, vx, vy, rd, ax, ay = self.sample_flat(t)
        return ReferenceSample(np.array([xd, yd, psid]),
                               np.array([vx, vy, rd]),
                               np.array([ax, ay, 0.0]))
