"""Deterministic fixed-step closed-loop simulation.

One control cycle per step: apply fault events that have come due, take
the controller/allocation snapshot at the step start, run the
detection/identification/reconfiguration loop on it, then integrate the
vehicle over the step with classic fourth-order Runge-Kutta. The feedback
law is evaluated inside every integration stage, so on smooth segments
the global error scales with dt^4.

The inner loop is written with unrolled scalar arithmetic; the matrix
form of every formula lives in `vehicle`, `controller` and `allocation`,
and the test suite checks the two paths against each other. That scalar
path is one closure, built by `_control_fn` for each set of tables (once
at the start, then again whenever a fault event or a reconfiguration
changes the weights), with every table entry bound as a closure local.
It computes the control snapshot and the state derivative in one pass.
Each step evaluates it 4 times: the boundary snapshot, which is exactly
RK4 stage k1 (same time, state and tables) and is reused as such, plus
stages k2, k3 and k4, which ask only for the six derivatives. The
reference is sampled once per distinct time: t, t + dt/2 (shared by k2
and k3) and t + dt.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .allocation import _distribution_matrix
from .controller import ControllerGains
from .fdi import FdiConfig, FdiEngine, reconfigure_step
from .trajectory import TIME_TOL, TrajectoryPlan
from .vehicle import (TWO_PI, ThrusterBank, ThrusterGeometry, VehicleParams,
                      wrap_angle)

DIVERGENCE_LIMIT = 1e6

#: CSV column order; stable contract for downstream consumers.
COLUMNS = (
    "t", "x", "y", "psi", "u", "v", "r",
    "x_d", "y_d", "psi_d",
    "e_x", "e_y", "e_psi",
    "residual", "threshold", "b_trig", "fault_num",
    "W1", "W2", "W3", "W4",
    "Wh1", "Wh2", "Wh3", "Wh4",
    "u1", "u2", "u3", "u4",
    "tau_c_u", "tau_c_v", "tau_c_r",
    "tau_u", "tau_v", "tau_r",
    "V2",
)


class FaultEvent(NamedTuple):
    time: float      # s
    thruster: int    # 1-based
    weight: float    # new true weight, in [0, 1]


@dataclass
class FaultSchedule:
    """Timed step changes of the true fault weights.

    Validation enforces the standing assumptions: events strictly ordered
    in time (one thruster at a time), weights only ever reduced, and the
    first event late enough for the tracking loop to have settled.
    """

    events: list = field(default_factory=list)
    settle_time: float = 50.0  # earliest admissible fault time, s

    def __post_init__(self):
        self.events = [FaultEvent(float(t), int(i), float(w))
                       for t, i, w in self.events]
        self.validate()

    def validate(self):
        current = {i: 1.0 for i in range(1, 5)}
        prev_time = None
        for ev in self.events:
            if ev.thruster not in (1, 2, 3, 4):
                raise ValueError(f"fault event at t={ev.time}: thruster index "
                                 f"{ev.thruster} outside 1..4")
            if not 0.0 <= ev.weight <= 1.0:
                raise ValueError(f"fault event at t={ev.time}: weight "
                                 f"{ev.weight} outside [0, 1]")
            if prev_time is not None and ev.time <= prev_time:
                raise ValueError(f"fault event at t={ev.time}: times must be "
                                 "strictly increasing (one fault at a time)")
            if ev.time < self.settle_time:
                raise ValueError(f"fault event at t={ev.time}: before the "
                                 f"settle time {self.settle_time} s, the "
                                 "tracking loop may not have stabilized")
            if ev.weight >= current[ev.thruster]:
                raise ValueError(f"fault event at t={ev.time}: weight of "
                                 f"thruster {ev.thruster} must decrease "
                                 f"(currently {current[ev.thruster]})")
            current[ev.thruster] = ev.weight
            prev_time = ev.time


@dataclass
class Scenario:
    """Everything one closed-loop run needs."""

    name: str
    params: VehicleParams
    geometry: ThrusterGeometry
    bank: ThrusterBank
    gains: ControllerGains
    fdi: FdiConfig
    plan: TrajectoryPlan
    schedule: FaultSchedule
    dt: float = 0.01
    duration: float = 600.0
    decimation: int = 10
    initial_state: np.ndarray = None

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be positive and finite")
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ValueError("duration must be positive and finite")
        if self.decimation < 1:
            raise ValueError("decimation must be at least 1")
        if self.fdi.t_s < self.dt:
            # the engine adds dt per sample, so a shorter period would
            # decrement the weight estimate every step
            raise ValueError(f"fdi.t_s = {self.fdi.t_s} s is shorter than "
                             f"one step (dt = {self.dt} s)")
        if self.n_steps < 1:
            raise ValueError(f"duration {self.duration} s is shorter than one "
                             f"step (dt = {self.dt} s)")
        events = self.schedule.events
        last = (self.n_steps - 1) * self.dt  # start of the last step
        if events and events[-1].time > last + TIME_TOL:
            raise ValueError(f"fault event at t={events[-1].time}: after the "
                             f"last step starts ({last:.6g} s, end of the run "
                             f"{self.duration} s), so it never acts on the plant")
        if abs(self.duration - self.n_steps * self.dt) > TIME_TOL:
            raise ValueError(f"duration {self.duration} s is not a whole number "
                             f"of steps of dt = {self.dt} s")
        if self.initial_state is None:
            self.initial_state = np.zeros(6)
        self.initial_state = np.asarray(self.initial_state, dtype=float)
        if self.initial_state.shape != (6,):
            raise ValueError("initial_state must have 6 entries")

    @property
    def n_steps(self) -> int:
        """Integration steps in the run; the last one starts at
        (n_steps - 1) * dt."""
        return round(self.duration / self.dt)


@dataclass
class SimResult:
    name: str
    columns: tuple
    rows: np.ndarray
    summary: dict
    diverged: bool = False
    diverged_time: float | None = None

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, COLUMNS.index(name)]

    def write_csv(self, path):
        """Formats each row straight from the float64 data, no list copy."""
        width = len(self.columns)
        cells = iter(memoryview(np.ascontiguousarray(self.rows, dtype=float).ravel()))
        line = ",".join(["%.12g"] * width) + "\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.columns) + "\n")
            fh.writelines(line % row for row in zip(*[cells] * width))
            if self.diverged:
                fh.write(f"# aborted: state divergence at t={self.diverged_time:.6g}\n")


def _table(arr) -> tuple:
    """A numpy vector or matrix as (nested) tuples of Python floats. The
    hot path does the same IEEE double arithmetic on them as on numpy
    scalars, without numpy's per-operation overhead."""
    return tuple(tuple(x) if isinstance(x, list) else x
                 for x in np.asarray(arr, dtype=float).tolist())


def _control_fn(params: VehicleParams, gains: ControllerGains,
                geom: ThrusterGeometry, bank: ThrusterBank, alloc: tuple):
    """The scalar hot path for one set of tables: `control(s, ref,
    full=True)` runs controller, allocation, thrust and plant for state
    `s` against the flat reference `ref` (a `TrajectoryPlan.sample_flat`
    tuple). `alloc` holds the wrench-to-command rows; thrust comes from
    `bank.K * bank.w_true`. With `full=False` (RK4 stages k2-k4) it
    returns the state derivative (d0..d5) alone; otherwise the snapshot
      (d0..d5, ex, ey, ep, edx, edy, edr, en1, en2, en3,
       u1..u4, tc1, tc2, tc3, tu, tv, tr, sat)
    whose first six entries are that same derivative."""
    (m00, m01, m02), (m10, m11, m12), _ = _table(params.inertia)
    (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = _table(params.inertia_inv)
    (l00, l01, l02), (l10, l11, l12), (l20, l21, l22) = _table(params.lin_damping)
    q0, q1, q2 = _table(params.quad_damping)
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = _table(params.B)
    (n00, n01, n02), (n10, n11, n12), (n20, n21, n22) = _table(params.B_inv)
    k10, k11, k12 = _table(gains.a1 / gains.gamma1)
    k20, k21, k22 = _table(gains.a2 / gains.gamma2)
    kc0, kc1, kc2 = _table(gains.gamma1 / gains.gamma2)
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22), (a30, a31, a32) = alloc
    # per-thruster wrench columns
    (c1u, c1v, c1r), (c2u, c2v, c2r), (c3u, c3v, c3r), (c4u, c4v, c4r) = \
        _table(geom.t_conf.T)
    kw1, kw2, kw3, kw4 = _table(bank.K * bank.w_true)
    um = float(bank.u_max)
    cos, sin, fmod, pi = math.cos, math.sin, math.fmod, math.pi

    def control(s: tuple, ref: tuple, full: bool = True) -> tuple:
        X, Y, psi, u, v, r = s
        cp, sp = cos(psi), sin(psi)
        xd, yd, psid, vxd, vyd, rd, axd, ayd = ref
        ex = xd - X
        ey = yd - Y
        ep = fmod(psid - psi + pi, TWO_PI)  # wrap_angle(psid - psi)
        if ep <= 0.0:
            ep += TWO_PI
        ep -= pi
        wx = vxd + k10 * ex
        wy = vyd + k11 * ey
        wp = rd + k12 * ep
        al1 = cp * wx + sp * wy
        al2 = -sp * wx + cp * wy
        en1 = al1 - u
        en2 = al2 - v
        en3 = wp - r
        xdot = cp * u - sp * v  # eta-dot, shared by e_dot and the plant
        ydot = sp * u + cp * v
        edx = vxd - xdot
        edy = vyd - ydot
        edr = rd - r
        hx = axd + k10 * edx
        hy = ayd + k11 * edy
        ad1 = cp * hx + sp * hy + r * al2
        ad2 = -sp * hx + cp * hy - r * al1
        ad3 = k12 * edr
        c13 = -(m10 * u + m11 * v + m12 * r)
        c23 = m00 * u + m01 * v + m02 * r
        t1 = c13 * r + (l00 * u + l01 * v + l02 * r + q0 * abs(u) * u)
        t2 = c23 * r + (l10 * u + l11 * v + l12 * r + q1 * abs(v) * v)
        t3 = (-c13 * u - c23 * v) + (l20 * u + l21 * v + l22 * r + q2 * abs(r) * r)
        fv1 = -(i00 * t1 + i01 * t2 + i02 * t3)
        fv2 = -(i10 * t1 + i11 * t2 + i12 * t3)
        fv3 = -(i20 * t1 + i21 * t2 + i22 * t3)
        in1 = ad1 - fv1 + k20 * en1 + kc0 * (cp * ex - sp * ey)
        in2 = ad2 - fv2 + k21 * en2 + kc1 * (sp * ex + cp * ey)
        in3 = ad3 - fv3 + k22 * en3 + kc2 * ep
        tc1 = n00 * in1 + n01 * in2 + n02 * in3
        tc2 = n10 * in1 + n11 * in2 + n12 * in3
        tc3 = n20 * in1 + n21 * in2 + n22 * in3
        ur1 = a00 * tc1 + a01 * tc2 + a02 * tc3
        ur2 = a10 * tc1 + a11 * tc2 + a12 * tc3
        ur3 = a20 * tc1 + a21 * tc2 + a22 * tc3
        ur4 = a30 * tc1 + a31 * tc2 + a32 * tc3
        u1 = um if ur1 > um else (-um if ur1 < -um else ur1)
        u2 = um if ur2 > um else (-um if ur2 < -um else ur2)
        u3 = um if ur3 > um else (-um if ur3 < -um else ur3)
        u4 = um if ur4 > um else (-um if ur4 < -um else ur4)
        f1 = kw1 * u1
        f2 = kw2 * u2
        f3 = kw3 * u3
        f4 = kw4 * u4
        tu = c1u * f1 + c2u * f2 + c3u * f3 + c4u * f4
        tv = c1v * f1 + c2v * f2 + c3v * f3 + c4v * f4
        tr = c1r * f1 + c2r * f2 + c3r * f3 + c4r * f4
        d3 = fv1 + b00 * tu + b01 * tv + b02 * tr
        d4 = fv2 + b10 * tu + b11 * tv + b12 * tr
        d5 = fv3 + b20 * tu + b21 * tv + b22 * tr
        if not full:
            return (xdot, ydot, r, d3, d4, d5)
        sat = (u1 != ur1) or (u2 != ur2) or (u3 != ur3) or (u4 != ur4)
        return (xdot, ydot, r, d3, d4, d5, ex, ey, ep, edx, edy, edr,
                en1, en2, en3, u1, u2, u3, u4, tc1, tc2, tc3, tu, tv, tr, sat)

    return control


class Simulation:
    """Owns the full closed-loop state for one scenario run."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.params = scenario.params
        self.geom = scenario.geometry
        self.bank = scenario.bank.copy()
        self.gains = scenario.gains
        self.plan = scenario.plan
        self.engine = FdiEngine(scenario.fdi, scenario.geometry)
        self.dt = scenario.dt
        self.n_steps = scenario.n_steps
        self.k = 0
        s0 = [float(x) for x in scenario.initial_state]
        s0[2] = wrap_angle(s0[2])
        self._s = tuple(s0)  # (x, y, psi, u, v, r), psi wrapped
        self.diverged = False
        self.saturation_steps = 0
        self._event_idx = 0
        self._events = scenario.schedule.events
        self._joint_idx = 0  # first joint not yet behind the clock
        self._joints = (*self.plan.joint_times, math.inf)  # inf: no more joints
        self._g1 = _table(self.gains.gamma1)
        self._g2 = _table(self.gains.gamma2)
        # running summary: the last boundary seen, the last with |e_eta| > 0.05
        self._k_last = self._k_bad = -1
        self._max_res = self._max_res_armed = 0.0
        self._win = 0  # fault windows opened; window w runs from event w-1
        self._win_starts = (*(ev.time for ev in self._events), math.inf)
        self._win_above = [None] * len(self._win_starts)  # last k above threshold
        self._refresh_allocation()

    @property
    def state(self) -> np.ndarray:
        """Current (x, y, psi, u, v, r) as a fresh array."""
        return np.array(self._s)

    # -- tables -----------------------------------------------------------

    def _refresh_allocation(self):
        """Rebuild the wrench-to-command rows; called whenever the weight
        estimates (and hence the excluded set) change."""
        active = ~self.bank.failed_mask()
        dist = _distribution_matrix(self.geom.t_conf, active)
        rows = dist / np.where(active, self.bank.K * self.bank.w_hat, 1.0)[:, None]
        rows[~active, :] = 0.0
        self._alloc = _table(rows)
        self._refresh_thrust()

    def _refresh_thrust(self):
        """Rebind the control closure and the recorded weights to the
        current true weights, estimates and allocation rows."""
        bank = self.bank
        self._control = _control_fn(self.params, self.gains, self.geom, bank,
                                    self._alloc)
        self._weights = tuple(bank.w_true.tolist() + bank.w_hat.tolist())

    # -- per-step work ----------------------------------------------------

    def _integrate(self, t: float, s: tuple, c: tuple) -> tuple:
        """One RK4 step from (t, s); `c` is the full control snapshot at
        (t, s), whose first six entries are stage k1."""
        dt = self.dt
        h = dt * 0.5
        control = self._control
        sample = self.plan.sample_flat
        a0, a1, a2, a3, a4, a5 = s
        ref = sample(t + h)
        k2 = control((a0 + h * c[0], a1 + h * c[1], a2 + h * c[2],
                      a3 + h * c[3], a4 + h * c[4], a5 + h * c[5]), ref, False)
        k3 = control((a0 + h * k2[0], a1 + h * k2[1], a2 + h * k2[2],
                      a3 + h * k2[3], a4 + h * k2[4], a5 + h * k2[5]), ref, False)
        k4 = control((a0 + dt * k3[0], a1 + dt * k3[1], a2 + dt * k3[2],
                      a3 + dt * k3[3], a4 + dt * k3[4], a5 + dt * k3[5]),
                     sample(t + dt), False)
        sx = dt / 6.0
        return (a0 + sx * (c[0] + 2.0 * (k2[0] + k3[0]) + k4[0]),
                a1 + sx * (c[1] + 2.0 * (k2[1] + k3[1]) + k4[1]),
                a2 + sx * (c[2] + 2.0 * (k2[2] + k3[2]) + k4[2]),
                a3 + sx * (c[3] + 2.0 * (k2[3] + k3[3]) + k4[3]),
                a4 + sx * (c[4] + 2.0 * (k2[4] + k3[4]) + k4[4]),
                a5 + sx * (c[5] + 2.0 * (k2[5] + k3[5]) + k4[5]))

    def _boundary(self, t: float, want_row: bool = True):
        """Fault schedule, control snapshot, FDI update and running
        summary at the start of step `self.k`, at time t. Returns
        (row-or-None, c), where c is the final full control snapshot: the
        commands the plant receives over the step, and RK4 stage k1."""
        while (self._event_idx < len(self._events)
               and self._events[self._event_idx].time <= t + TIME_TOL):
            ev = self._events[self._event_idx]
            self.bank.w_true[ev.thruster - 1] = ev.weight
            self._refresh_thrust()
            self._event_idx += 1
        # time only moves forward; same tolerance as `TrajectoryPlan.is_joint`
        joints, j = self._joints, self._joint_idx
        while t - joints[j] > TIME_TOL:
            j += 1
        self._joint_idx = j

        s = self._s
        ref = self.plan.sample_flat(t)
        c = self._control(s, ref)
        due = self.engine.update(t, self.dt, c[6:9], c[9:12], c[15:19], s[2],
                                 abs(t - joints[j]) > TIME_TOL)
        if due is not None:
            self.bank.w_hat = reconfigure_step(self.bank.w_hat, due,
                                               self.engine.cfg)
            self._refresh_allocation()
            c = self._control(s, ref)  # commands the plant will now receive
        if c[25]:
            self.saturation_steps += 1

        st = self.engine.state
        k = self._k_last = self.k
        res = st.residual
        if math.sqrt(c[6] * c[6] + c[7] * c[7] + c[8] * c[8]) > 0.05:
            self._k_bad = k
        if res > self._max_res:
            self._max_res = res
        if st.armed and res > self._max_res_armed:
            self._max_res_armed = res
        w = self._win
        while t >= self._win_starts[w]:  # exact: k * dt >= event time
            w += 1
        self._win = w
        if res > st.threshold:
            self._win_above[w] = k
        if not want_row:
            return None, c
        g1, g2 = self._g1, self._g2
        v2 = 0.5 * (g1[0] * c[6] ** 2 + g1[1] * c[7] ** 2 + g1[2] * c[8] ** 2
                    + g2[0] * c[12] ** 2 + g2[1] * c[13] ** 2 + g2[2] * c[14] ** 2)
        row = (t, *s, ref[0], ref[1], wrap_angle(ref[2]),
               c[6], c[7], c[8],
               st.residual, st.threshold,
               1.0 if st.b_trig else 0.0,
               float(st.fault_num or 0),
               *self._weights,
               *c[15:25],  # u1..u4, tau_c, tau
               v2)
        return row, c

    def _advance(self, t: float, c: tuple):
        """Integrate one step from t, given the boundary snapshot `c`, and
        enforce the state invariants."""
        nxt = self._integrate(t, self._s, c)
        for x in nxt:
            if not (-DIVERGENCE_LIMIT <= x <= DIVERGENCE_LIMIT):  # catches NaN
                self.diverged = True
                break
        else:
            self._s = (nxt[0], nxt[1], wrap_angle(nxt[2]), nxt[3], nxt[4], nxt[5])
        self.k += 1

    def step(self) -> tuple:
        """One full control cycle; returns the record row at the step
        start. Raises past the end of the run."""
        if self.k >= self.n_steps:
            raise RuntimeError("simulation already at the end of the run")
        t = self.k * self.dt
        row, c = self._boundary(t)
        self._advance(t, c)
        return row

    def run(self) -> SimResult:
        sc = self.scenario
        rows = array("d")  # the kept rows, flat; numpy views the buffer
        started = time.perf_counter()
        diverged_time = None
        while self.k <= self.n_steps:
            t = self.k * self.dt
            row, c = self._boundary(t, want_row=(self.k % sc.decimation == 0))
            if row is not None:
                rows.extend(row)
            if self.k == self.n_steps:
                break
            self._advance(t, c)
            if self.diverged:
                diverged_time = self.k * self.dt
                break
        runtime = time.perf_counter() - started
        summary = self._build_summary(runtime, diverged_time)
        return SimResult(sc.name, COLUMNS,
                         np.frombuffer(rows).reshape(-1, len(COLUMNS)),
                         summary, self.diverged, diverged_time)

    # -- summary ----------------------------------------------------------

    def _build_summary(self, runtime, diverged_time) -> dict:
        """The summary of every boundary seen so far, from the running
        values; step k starts at k * dt."""
        sc = self.scenario
        dt = self.dt
        st = self.engine.state
        last, bad = self._k_last, self._k_bad
        # convergence time: |e_eta| stays within 0.05 from t_c onward
        t_c = 0.0 if bad < 0 else None if bad == last else (bad + 1) * dt

        events = []
        ev_list = self._events
        for j, ev in enumerate(ev_list):
            t_next = ev_list[j + 1].time if j + 1 < len(ev_list) else last * dt + dt
            rises = [tt for tt, rising in st.trigger_log
                     if rising and ev.time <= tt < t_next]
            idents = [(tt, num) for tt, num in st.identified_log
                      if ev.time <= tt < t_next]
            k_above = self._win_above[j + 1]
            if k_above is None:
                reconv = ev.time
            elif k_above * dt >= t_next - 2 * dt:
                reconv = None
            else:
                reconv = k_above * dt + dt
            detected_at = rises[0] if rises else None
            events.append({
                "time": ev.time,
                "thruster": ev.thruster,
                "weight": ev.weight,
                "detected_at": detected_at,
                "detection_latency": (detected_at - ev.time
                                      if detected_at is not None else None),
                "identified": idents[0][1] if idents else None,
                "identified_at": idents[0][0] if idents else None,
                "reconverged_at": reconv,
                "w_hat_error": float(abs(self.bank.w_hat[ev.thruster - 1]
                                         - self.bank.w_true[ev.thruster - 1])),
            })

        return {
            "scenario": sc.name,
            "duration": sc.duration,
            "dt": dt,
            "steps": self.n_steps,
            "runtime_s": runtime,
            "diverged": self.diverged,
            "diverged_time": diverged_time,
            "t_c": t_c,
            "max_residual": self._max_res,
            "max_residual_after_arming": self._max_res_armed,
            "trigger_count": sum(1 for _, rising in st.trigger_log if rising),
            "identifications": list(st.identified_log),
            "saturation_steps": self.saturation_steps,
            "final_w_true": self.bank.w_true.tolist(),
            "final_w_hat": self.bank.w_hat.tolist(),
            "events": events,
            "reconfiguration_failures": [e["time"] for e in events
                                         if e["reconverged_at"] is None],
            "identification_failures": [e["time"] for e in events
                                        if e["identified"] not in (None, e["thruster"])
                                        or (e["detected_at"] is not None
                                            and e["identified"] is None)],
        }


def format_summary(summary: dict, overrides: list | None = None) -> str:
    lines = [
        f"scenario:            {summary['scenario']}",
        f"duration / dt:       {summary['duration']} s / {summary['dt']} s "
        f"({summary['steps']} steps)",
        f"runtime:             {summary['runtime_s']:.2f} s",
        f"diverged:            {summary['diverged']}"
        + (f" at t={summary['diverged_time']:.2f} s" if summary['diverged'] else ""),
        f"convergence t_c:     "
        + (f"{summary['t_c']:.2f} s (|e_eta| <= 0.05 after)"
           if summary["t_c"] is not None else "not reached"),
        f"max residual:        {summary['max_residual']:.4g} "
        f"(after arming: {summary['max_residual_after_arming']:.4g})",
        f"fault triggers:      {summary['trigger_count']}",
        f"saturated steps:     {summary['saturation_steps']}",
        f"final true weights:  {['%.3f' % w for w in summary['final_w_true']]}",
        f"final est. weights:  {['%.3f' % w for w in summary['final_w_hat']]}",
    ]
    if summary["events"]:
        lines.append("fault events:")
        for e in summary["events"]:
            det = (f"detected +{e['detection_latency']:.2f} s"
                   if e["detected_at"] is not None else "NOT DETECTED")
            ident = (f"identified thruster {e['identified']} at t={e['identified_at']:.2f} s"
                     if e["identified"] is not None else "not identified")
            rec = (f"residual re-settled at t={e['reconverged_at']:.2f} s"
                   if e["reconverged_at"] is not None else "NO RECONVERGENCE")
            lines.append(f"  t={e['time']:.1f} s thruster {e['thruster']} "
                         f"-> w={e['weight']}: {det}; {ident}; {rec}; "
                         f"|w_hat - w|={e['w_hat_error']:.3f}")
    if summary["reconfiguration_failures"]:
        lines.append(f"RECONFIGURATION FAILURES at: "
                     f"{summary['reconfiguration_failures']}")
    if summary["identification_failures"]:
        lines.append(f"IDENTIFICATION FAILURES at: "
                     f"{summary['identification_failures']}")
    if overrides:
        lines.append("overrides:")
        for ov in overrides:
            lines.append(f"  {ov}")
    return "\n".join(lines) + "\n"
