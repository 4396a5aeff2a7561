"""Piecewise reference trajectories: hold, constant-heading straights, and
constant-rate turns. Segments chain positionally, so the reference pose is
continuous wherever the modes allow; derivatives may jump at joints, where
the simulation opens the detection threshold's hold window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controller import ReferenceSample


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
        if self.duration <= 0.0:
            raise ValueError("segment duration must be positive")
        if self.mode == "turn" and self.yaw_rate == 0.0:
            raise ValueError("turn segment needs a nonzero yaw rate")


def _segment_sample(seg: Segment, pose, s: float):
    """(xd, yd, psid, vxd, vyd, rd, axd, ayd) at time s into `seg`, which
    starts at `pose`."""
    x0, y0, psi0 = pose
    if seg.mode == "hold":
        return (x0, y0, psi0, 0.0, 0.0, 0.0, 0.0, 0.0)
    if seg.mode == "straight":
        ch, sh = math.cos(seg.heading), math.sin(seg.heading)
        return (x0 + seg.speed * s * ch, y0 + seg.speed * s * sh,
                seg.heading, seg.speed * ch, seg.speed * sh, 0.0,
                0.0, 0.0)
    rad = seg.speed / seg.yaw_rate
    psid = psi0 + seg.yaw_rate * s
    cp, sp = math.cos(psid), math.sin(psid)
    return (x0 + rad * (sp - math.sin(psi0)),
            y0 - rad * (cp - math.cos(psi0)),
            psid,
            seg.speed * cp, seg.speed * sp, seg.yaw_rate,
            -seg.speed * seg.yaw_rate * sp, seg.speed * seg.yaw_rate * cp)


class TrajectoryPlan:
    """Ordered segments starting from an initial pose.

    Yaw in the samples is left unwrapped (continuous across turns); the
    controller wraps the error. Past the end of the plan the final pose is
    held.
    """

    def __init__(self, initial_pose, segments):
        if np.shape(initial_pose) != (3,):
            raise ValueError("initial pose must be [x, y, psi]")
        self.initial_pose = tuple(float(v) for v in initial_pose)
        self.segments = list(segments)
        starts = [0.0]
        poses = [self.initial_pose]
        for seg in self.segments:
            starts.append(starts[-1] + seg.duration)
            poses.append(_segment_sample(seg, poses[-1], seg.duration)[:3])
        self._starts = starts          # segment start times, last = plan end
        self._entry_poses = poses      # pose at each segment start
        self.end_time = starts[-1]

    @property
    def joint_times(self) -> list[float]:
        """Times where the reference derivatives may jump (interior
        segment boundaries plus the plan end)."""
        return self._starts[1:]

    def sample_flat(self, t: float):
        """(xd, yd, psid, vxd, vyd, rd, axd, ayd) at time t; scalar tuple
        for the simulation hot path."""
        if t >= self.end_time or not self.segments:
            x, y, psi = self._entry_poses[-1]
            return (x, y, psi, 0.0, 0.0, 0.0, 0.0, 0.0)
        k = 0
        for k in range(len(self.segments)):
            if t < self._starts[k + 1]:
                break
        return _segment_sample(self.segments[k], self._entry_poses[k],
                               t - self._starts[k])

    def sample(self, t: float) -> ReferenceSample:
        """Reference at time t >= 0; at a joint, the right limit."""
        if t < 0.0:
            raise ValueError("time must be non-negative")
        xd, yd, psid, vx, vy, rd, ax, ay = self.sample_flat(t)
        return ReferenceSample(np.array([xd, yd, psid]),
                               np.array([vx, vy, rd]),
                               np.array([ax, ay, 0.0]))
