"""Tracking-error based fault detection, identification, and weight
reconfiguration.

Detection compares a scalar residual built from the pose error against a
threshold; identification matches the observed error-rate signs against
the sign signature each thruster would imprint if its output dropped;
reconfiguration walks the estimated weight of the isolated thruster down
until the residual re-enters the threshold. `residual` and
`detection_threshold` are the paper-form detection signal; the caller
computes it each step (in the simulation, the kernel loop, with the
residual unrolled) and hands `FdiEngine` only whether the residual is
above the threshold. The engine makes the decisions on the step clock: it
takes and logs step indices k, and never a time.

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
from dataclasses import dataclass, fields

import numpy as np

from .vehicle import ThrusterGeometry, real, whole


@dataclass
class FdiConfig:
    c1: float = 5.0          # yaw weighting in the residual
    c2: float = 0.01         # base threshold, m
    f_smooth: float = 0.3    # threshold margin for reference smoothness
    joint_widen: float = 0.3  # extra margin inside a joint hold window
    joint_hold: float = 10.0  # hold-window length after a joint, s (whole steps)
    delta1: float = 0.002    # position-rate sign threshold, m/s
    delta2: float = 0.01     # yaw-rate sign threshold, rad/s
    t_s: float = 5.0         # weight update period, s (whole steps)
    delta_w: float = 0.05    # weight decrement per update
    eps_u: float = 0.005     # command dead-band for sign prediction
    eps_g: float = 0.1       # geometric-factor dead-band
    n_consec: int = 5        # consecutive samples above threshold to trigger

    def __post_init__(self):
        for f in fields(self):
            read = whole if f.name == "n_consec" else real
            setattr(self, f.name, read(getattr(self, f.name), f"fdi.{f.name}"))
        for name in ("c1", "c2", "delta1", "delta2", "t_s", "delta_w", "eps_u", "eps_g"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"fdi.{name} must be positive")
        for name in ("f_smooth", "joint_widen", "joint_hold"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"fdi.{name} must be non-negative")
        if self.delta_w >= 1.0:
            raise ValueError("fdi.delta_w must be below 1")
        if self.n_consec < 1:
            raise ValueError("fdi.n_consec must be at least 1")


def residual(e_eta, c1: float) -> float:
    """sqrt(x_e^2 + y_e^2 + c1 psi_e^2); weights the yaw error so the
    mixed-unit terms are commensurate."""
    if c1 <= 0.0:
        raise ValueError("c1 must be positive")
    ex, ey, ep = float(e_eta[0]), float(e_eta[1]), float(e_eta[2])
    return math.sqrt(ex * ex + ey * ey + c1 * ep * ep)


def detection_threshold(cfg: FdiConfig, in_hold_window: bool = False) -> float:
    """Base threshold plus the smoothness margin; widened inside the hold
    window that a segment joint opens, where the reference itself makes
    the pose error spike."""
    value = cfg.c2 + cfg.f_smooth
    return value + cfg.joint_widen if in_hold_window else value


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


def reconfigure_step(w_hat, fault_num: int, cfg: FdiConfig,
                     w_min: float) -> np.ndarray:
    """Decrease the identified thruster's weight estimate by delta_w,
    clamped at the bank's floor w_min; other entries untouched."""
    w = np.array(w_hat, dtype=float)
    w[fault_num - 1] = max(w_min, w[fault_num - 1] - cfg.delta_w)
    return w


class FdiEngine:
    """Detection / identification / reconfiguration decisions, made once
    per control step k; a reader that wants seconds takes k * dt.

    The caller computes the residual, picks the step's threshold (widened
    inside a joint's hold window) and passes `above`; in the simulation
    that is the kernel loop.

    Detection is enabled only after the residual has first settled below
    the threshold, so the start-up transient never trips it; after a
    handled fault the falling trigger edge re-arms the loop for the next
    one. The weight of the isolated thruster is stepped down every
    `period` steps (t_s / dt) while the trigger holds. State lives on the
    engine; `trigger_log` holds (k, rising) and `identified_log`
    (k, thruster).
    """

    def __init__(self, cfg: FdiConfig, geom: ThrusterGeometry, period: int):
        self.cfg = cfg
        self.geom = geom
        self.period = whole(period, "period")
        if self.period < 1:
            raise ValueError(f"period: must be at least 1 step, got {period!r}")
        self.armed = False   # detection enabled once tracking has settled
        self.b_trig = False
        self.fault_num = None  # identified thruster, 1-based
        self.w_samples = 0   # steps since identification / last update
        self.consec_above = 0
        self.trigger_log, self.identified_log = [], []

    @property
    def idle(self) -> bool:
        """Armed, with no trigger and no count above the threshold. In this
        state `update(k, False, ...)` changes nothing."""
        return self.armed and not self.b_trig and not self.consec_above

    def update(self, k: int, above: bool, e_eta_dot, u_cmd, psi: float) -> int | None:
        """Advance to step k, whose residual is `above` its threshold or not
        (a residual at the threshold is not). Returns the thruster index
        (1-based) whose weight estimate is due for a decrement, else None.
        The caller owns the estimates and applies `reconfigure_step`."""
        cfg = self.cfg
        if not self.armed:
            if not above:
                self.armed = True
            return None

        if not self.b_trig:
            self.consec_above = self.consec_above + 1 if above else 0
            if self.consec_above >= cfg.n_consec:
                self.b_trig = True
                self.trigger_log.append((k, True))
            return None

        # trigger active
        if not above:
            # falling edge: re-arm for the next sequential fault
            self.b_trig = False
            self.fault_num = None
            self.w_samples = 0
            self.consec_above = 0
            self.trigger_log.append((k, False))
            return None

        if self.fault_num is None:
            self.fault_num = identify_fault(e_eta_dot, u_cmd, psi, cfg, self.geom)
            if self.fault_num is None:
                return None  # unresolved: retry on the next step
            self.identified_log.append((k, self.fault_num))

        self.w_samples += 1
        if self.w_samples >= self.period:
            self.w_samples = 0
            return self.fault_num
        return None
