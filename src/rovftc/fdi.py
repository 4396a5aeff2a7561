"""Tracking-error based fault detection, identification, and weight
reconfiguration.

Detection compares a scalar residual built from the pose error against a
threshold; identification matches the observed error-rate signs against
the sign signature each thruster would imprint if its output dropped;
reconfiguration walks the estimated weight of the isolated thruster down
until the residual re-enters the threshold.

The sign signature of thruster i (1-based) with command u_i at heading
psi: losing output removes the force K_i W_i u_i along column b_i of the
configuration matrix, so the pose error drifts along

    x_e, y_e rates ~ sign(u_i * (R(psi) b_i)_{x,y}),
    psi_e rate    ~ sign(u_i * b_i[2]).

A component is indeterminate (0) when the command sits inside the
dead-band or the geometric factor is too small to act on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .vehicle import ThrusterGeometry


@dataclass
class FdiConfig:
    c1: float = 5.0          # yaw weighting in the residual
    c2: float = 0.01         # base threshold, m
    f_smooth: float = 0.3    # threshold margin for reference smoothness
    joint_widen: float = 0.3  # extra margin inside a joint hold window
    joint_hold: float = 10.0  # hold-window length after a joint, s
    delta1: float = 0.002    # position-rate sign threshold, m/s
    delta2: float = 0.01     # yaw-rate sign threshold, rad/s
    t_s: float = 5.0         # weight update period, s
    delta_w: float = 0.05    # weight decrement per update
    eps_u: float = 0.005     # command dead-band for sign prediction
    eps_g: float = 0.1       # geometric-factor dead-band
    w_min: float = 0.05      # weight estimate floor
    n_consec: int = 5        # consecutive samples above threshold to trigger

    def __post_init__(self):
        positive = ("c1", "c2", "delta1", "delta2", "t_s",
                    "delta_w", "eps_u", "eps_g", "w_min")
        for name in positive:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"fdi.{name} must be positive and finite")
        for name in ("f_smooth", "joint_widen", "joint_hold"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"fdi.{name} must be non-negative and finite")
        if self.delta_w >= 1.0:
            raise ValueError("fdi.delta_w must be below 1")
        if self.n_consec < 1:
            raise ValueError("fdi.n_consec must be at least 1")


@dataclass
class FdiState:
    armed: bool = False          # detection enabled once tracking has settled
    b_trig: bool = False
    b_first_check: bool = False
    fault_num: int | None = None  # identified thruster, 1-based
    w_time: float = 0.0          # time since identification / last update
    residual: float = 0.0
    threshold: float = 0.0
    consec_above: int = 0
    identified_log: list = field(default_factory=list)  # (time, thruster)
    trigger_log: list = field(default_factory=list)     # (time, rising: bool)


def residual(e_eta, c1: float) -> float:
    """sqrt(x_e^2 + y_e^2 + c1 psi_e^2); weights the yaw error so the
    mixed-unit terms are commensurate."""
    if c1 <= 0.0:
        raise ValueError("c1 must be positive")
    ex, ey, ep = float(e_eta[0]), float(e_eta[1]), float(e_eta[2])
    return math.sqrt(ex * ex + ey * ey + c1 * ep * ep)


def detection_threshold(cfg: FdiConfig, smooth: bool,
                        in_hold_window: bool = False) -> float:
    """Base threshold plus the smoothness margin; widened at a segment
    joint (`smooth` False) and inside the hold window that follows one,
    where the reference itself makes the pose error spike."""
    value = cfg.c2 + cfg.f_smooth
    if in_hold_window or not smooth:
        value += cfg.joint_widen
    return value


def predict_sign_pattern(thruster: int, u_i: float, psi: float,
                         geom: ThrusterGeometry,
                         cfg: FdiConfig) -> tuple[int, int, int]:
    """Expected signs of (x_e, y_e, psi_e) rates if thruster `thruster`
    (1-based) loses part of its output while commanded u_i at heading psi.

    Components with |u_i| below the dead-band cfg.eps_u or a geometric
    factor below cfg.eps_g are 0 (indeterminate).
    """
    if abs(u_i) < cfg.eps_u:
        return (0, 0, 0)
    b = geom.t_conf[:, thruster - 1]
    c, s = math.cos(psi), math.sin(psi)
    dx = c * b[0] - s * b[1]
    dy = s * b[0] + c * b[1]
    sx = 0 if abs(dx) < cfg.eps_g else int(math.copysign(1.0, u_i * dx))
    sy = 0 if abs(dy) < cfg.eps_g else int(math.copysign(1.0, u_i * dy))
    sp = 0 if abs(b[2]) < cfg.eps_g * geom.l else int(math.copysign(1.0, u_i * b[2]))
    return (sx, sy, sp)


def identify_fault(e_eta_dot, u_cmd, psi: float, cfg: FdiConfig,
                   geom: ThrusterGeometry) -> int | None:
    """Isolate the faulty thruster from the observed error rates.

    A thruster is a candidate when all three of its predicted signs are
    determinate and the observed rates exceed the design thresholds in
    the predicted directions. Only a unique candidate is returned; zero
    or several matches defer the decision to the next sample.
    """
    ex_dot, ey_dot, ep_dot = (float(e_eta_dot[0]), float(e_eta_dot[1]),
                              float(e_eta_dot[2]))
    candidates = []
    for i in range(1, 5):
        sx, sy, sp = predict_sign_pattern(i, float(u_cmd[i - 1]), psi, geom, cfg)
        if sx == 0 or sy == 0 or sp == 0:
            continue
        if (ex_dot * sx > cfg.delta1 and ey_dot * sy > cfg.delta1
                and ep_dot * sp > cfg.delta2):
            candidates.append(i)
    if len(candidates) == 1:
        return candidates[0]
    return None


def reconfigure_step(w_hat, fault_num: int, cfg: FdiConfig) -> np.ndarray:
    """Decrease the identified thruster's weight estimate by delta_w,
    clamped at the floor; other entries untouched."""
    w = np.array(w_hat, dtype=float)
    w[fault_num - 1] = max(cfg.w_min, w[fault_num - 1] - cfg.delta_w)
    return w


class FdiEngine:
    """Detection / identification / reconfiguration loop, run once per
    control step.

    Detection is enabled only after the residual has first settled below
    the threshold, so the start-up transient never trips it; after a
    handled fault the falling trigger edge re-arms the loop for the next
    one. The weight of the isolated thruster is stepped down every t_s
    seconds while the trigger holds.
    """

    def __init__(self, cfg: FdiConfig, geom: ThrusterGeometry):
        self.cfg = cfg
        self.geom = geom
        self.state = FdiState()
        self._hold_until = -math.inf

    def update(self, t: float, dt: float, e_eta, e_eta_dot, u_cmd,
               psi: float, smooth: bool) -> int | None:
        """Advance one sample; `smooth` is the reference's smoothness flag
        at t (False at a segment joint). Returns the thruster index
        (1-based) whose weight estimate is due for a decrement, else None.
        The caller owns the estimates and applies `reconfigure_step`."""
        cfg, st = self.cfg, self.state
        if not smooth:
            self._hold_until = t + cfg.joint_hold
        in_hold = t <= self._hold_until
        st.residual = residual(e_eta, cfg.c1)
        st.threshold = detection_threshold(cfg, smooth, in_hold_window=in_hold)
        above = st.residual > st.threshold  # exactly at the threshold stays quiet

        if not st.armed:
            if not above:
                st.armed = True
            return None

        if not st.b_trig:
            st.consec_above = st.consec_above + 1 if above else 0
            if st.consec_above >= cfg.n_consec:
                st.b_trig = True
                st.b_first_check = True
                st.w_time = 0.0
                st.trigger_log.append((t, True))
            return None

        # trigger active
        if not above:
            # falling edge: re-arm for the next sequential fault
            st.b_trig = False
            st.b_first_check = False
            st.fault_num = None
            st.w_time = 0.0
            st.consec_above = 0
            st.trigger_log.append((t, False))
            return None

        if st.b_first_check:
            found = identify_fault(e_eta_dot, u_cmd, psi, cfg, self.geom)
            if found is not None:
                st.fault_num = found
                st.b_first_check = False
                st.identified_log.append((t, found))
            # unresolved: retry on the next sample, no weight update yet

        if st.fault_num is not None:
            st.w_time += dt
            if st.w_time >= cfg.t_s - 1e-12:
                st.w_time = 0.0
                return st.fault_num
        return None
