"""Deterministic fixed-step closed-loop simulation.

One control cycle per step: apply fault events that have come due, take
the controller/allocation snapshot at the step start, run the
detection/identification/reconfiguration loop on it, then integrate the
vehicle over the step with classic fourth-order Runge-Kutta. The feedback
law is evaluated inside every integration stage, so on smooth segments
the global error scales with dt^4.

The inner loop is written with unrolled scalar arithmetic; the matrix
form of every formula lives in `vehicle`, `controller` and `allocation`,
and the test suite checks the two paths against each other. Each step
evaluates the control law 4 times: the boundary snapshot, which is
exactly RK4 stage k1 (same time, state, allocation and thrust tables)
and is reused as such, plus stages k2, k3 and k4. The reference is
sampled once per distinct time: t, t + dt/2 (shared by k2 and k3) and
t + dt.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .allocation import _distribution_matrix
from .controller import ControllerGains
from .fdi import FdiConfig, FdiEngine, reconfigure_step
from .trajectory import TrajectoryPlan
from .vehicle import ThrusterBank, ThrusterGeometry, VehicleParams, wrap_angle

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


def apply_fault_schedule(t: float, schedule: FaultSchedule,
                         bank: ThrusterBank) -> np.ndarray:
    """Set the true weights to reflect every event with time <= t."""
    for ev in schedule.events:
        if ev.time <= t:
            bank.w_true[ev.thruster - 1] = ev.weight
    return bank.w_true


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
        if self.initial_state is None:
            self.initial_state = np.zeros(6)
        self.initial_state = np.asarray(self.initial_state, dtype=float)
        if self.initial_state.shape != (6,):
            raise ValueError("initial_state must have 6 entries")


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
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.columns) + "\n")
            line = ",".join(["%.12g"] * len(self.columns)) + "\n"
            for row in self.rows.tolist():
                fh.write(line % tuple(row))
            if self.diverged:
                fh.write(f"# aborted: state divergence at t={self.diverged_time:.6g}\n")

    def summary_text(self) -> str:
        return format_summary(self.summary)


def _table(arr) -> tuple:
    """A numpy vector or matrix as (nested) tuples of Python floats. The
    hot path does the same IEEE double arithmetic on them as on numpy
    scalars, without numpy's per-operation overhead."""
    return tuple(tuple(x) if isinstance(x, list) else x
                 for x in np.asarray(arr, dtype=float).tolist())


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
        self.n_steps = int(round(scenario.duration / scenario.dt))
        self.k = 0
        s0 = [float(x) for x in scenario.initial_state]
        s0[2] = wrap_angle(s0[2])
        self._s = tuple(s0)  # (x, y, psi, u, v, r), psi wrapped
        self.diverged = False
        self.saturation_steps = 0
        self._event_idx = 0
        self._events = scenario.schedule.events
        self._load_constants()
        self._refresh_allocation()
        self._refresh_thrust()

    @property
    def state(self) -> np.ndarray:
        """Current (x, y, psi, u, v, r) as a fresh array."""
        return np.array(self._s)

    # -- precomputed scalar tables -------------------------------------

    def _load_constants(self):
        p, g = self.params, self.gains
        self._minv = _table(p.inertia_inv)
        self._m = _table(p.inertia)
        self._lin = _table(p.lin_damping)
        self._quad = _table(p.quad_damping)
        self._bmat = _table(p.B)
        self._binv = _table(p.B_inv)
        self._k1 = _table(g.a1 / g.gamma1)
        self._k2 = _table(g.a2 / g.gamma2)
        self._kc = _table(g.gamma1 / g.gamma2)
        self._g1 = _table(g.gamma1)
        self._g2 = _table(g.gamma2)
        self._cols = _table(self.geom.t_conf.T)  # per-thruster wrench columns
        self._umax = float(self.bank.u_max)

    def _refresh_allocation(self):
        """Rebuild the wrench-to-command rows; called whenever the weight
        estimates (and hence the excluded set) change."""
        active = ~self.bank.failed_mask()
        dist = _distribution_matrix(self.geom.t_conf, active)
        rows = dist / np.where(active, self.bank.K * self.bank.w_hat, 1.0)[:, None]
        rows[~active, :] = 0.0
        self._alloc = _table(rows)

    def _refresh_thrust(self):
        self._kw = _table(self.bank.K * self.bank.w_true)

    # -- scalar hot path -----------------------------------------------

    def _control(self, s: tuple, ref: tuple):
        """Controller + allocation for state `s` against the flat reference
        `ref` (a `TrajectoryPlan.sample_flat` tuple). Returns scalars:
        (cp, sp, ex, ey, ep, edx, edy, edr, en1, en2, en3,
         fv1, fv2, fv3, tc1, tc2, tc3, ur1..ur4, u1..u4, sat)."""
        X, Y, psi, u, v, r = s
        cp, sp = math.cos(psi), math.sin(psi)
        xd, yd, psid, vxd, vyd, rd, axd, ayd = ref
        ex = xd - X
        ey = yd - Y
        ep = wrap_angle(psid - psi)
        k1 = self._k1
        wx = vxd + k1[0] * ex
        wy = vyd + k1[1] * ey
        wp = rd + k1[2] * ep
        al1 = cp * wx + sp * wy
        al2 = -sp * wx + cp * wy
        al3 = wp
        en1 = al1 - u
        en2 = al2 - v
        en3 = al3 - r
        edx = vxd - (cp * u - sp * v)
        edy = vyd - (sp * u + cp * v)
        edr = rd - r
        hx = axd + k1[0] * edx
        hy = ayd + k1[1] * edy
        hp = k1[2] * edr
        ad1 = cp * hx + sp * hy + r * al2
        ad2 = -sp * hx + cp * hy - r * al1
        ad3 = hp
        m = self._m
        c13 = -(m[1][0] * u + m[1][1] * v + m[1][2] * r)
        c23 = m[0][0] * u + m[0][1] * v + m[0][2] * r
        cn1 = c13 * r
        cn2 = c23 * r
        cn3 = -c13 * u - c23 * v
        lin, q = self._lin, self._quad
        dn1 = lin[0][0] * u + lin[0][1] * v + lin[0][2] * r + q[0] * abs(u) * u
        dn2 = lin[1][0] * u + lin[1][1] * v + lin[1][2] * r + q[1] * abs(v) * v
        dn3 = lin[2][0] * u + lin[2][1] * v + lin[2][2] * r + q[2] * abs(r) * r
        t1 = cn1 + dn1
        t2 = cn2 + dn2
        t3 = cn3 + dn3
        mi = self._minv
        fv1 = -(mi[0][0] * t1 + mi[0][1] * t2 + mi[0][2] * t3)
        fv2 = -(mi[1][0] * t1 + mi[1][1] * t2 + mi[1][2] * t3)
        fv3 = -(mi[2][0] * t1 + mi[2][1] * t2 + mi[2][2] * t3)
        k2, kc = self._k2, self._kc
        je1 = cp * ex - sp * ey
        je2 = sp * ex + cp * ey
        in1 = ad1 - fv1 + k2[0] * en1 + kc[0] * je1
        in2 = ad2 - fv2 + k2[1] * en2 + kc[1] * je2
        in3 = ad3 - fv3 + k2[2] * en3 + kc[2] * ep
        bi = self._binv
        tc1 = bi[0][0] * in1 + bi[0][1] * in2 + bi[0][2] * in3
        tc2 = bi[1][0] * in1 + bi[1][1] * in2 + bi[1][2] * in3
        tc3 = bi[2][0] * in1 + bi[2][1] * in2 + bi[2][2] * in3
        a = self._alloc
        um = self._umax
        ur1 = a[0][0] * tc1 + a[0][1] * tc2 + a[0][2] * tc3
        ur2 = a[1][0] * tc1 + a[1][1] * tc2 + a[1][2] * tc3
        ur3 = a[2][0] * tc1 + a[2][1] * tc2 + a[2][2] * tc3
        ur4 = a[3][0] * tc1 + a[3][1] * tc2 + a[3][2] * tc3
        u1 = um if ur1 > um else (-um if ur1 < -um else ur1)
        u2 = um if ur2 > um else (-um if ur2 < -um else ur2)
        u3 = um if ur3 > um else (-um if ur3 < -um else ur3)
        u4 = um if ur4 > um else (-um if ur4 < -um else ur4)
        sat = (u1 != ur1) or (u2 != ur2) or (u3 != ur3) or (u4 != ur4)
        return (cp, sp, ex, ey, ep, edx, edy, edr, en1, en2, en3,
                fv1, fv2, fv3, tc1, tc2, tc3,
                ur1, ur2, ur3, ur4, u1, u2, u3, u4, sat)

    def _rhs(self, t: float, s: tuple):
        """State derivative at time t: `_deriv` of the `_control` snapshot."""
        return self._deriv(s, self._control(s, self.plan.sample_flat(t)))

    def _deriv(self, s: tuple, c: tuple):
        """State derivative for state `s` under the control snapshot `c`."""
        cp, sp = c[0], c[1]
        fv1, fv2, fv3 = c[11], c[12], c[13]
        u1, u2, u3, u4 = c[21], c[22], c[23], c[24]
        kw = self._kw
        f1 = kw[0] * u1
        f2 = kw[1] * u2
        f3 = kw[2] * u3
        f4 = kw[3] * u4
        cols = self._cols
        tu = cols[0][0] * f1 + cols[1][0] * f2 + cols[2][0] * f3 + cols[3][0] * f4
        tv = cols[0][1] * f1 + cols[1][1] * f2 + cols[2][1] * f3 + cols[3][1] * f4
        tr = cols[0][2] * f1 + cols[1][2] * f2 + cols[2][2] * f3 + cols[3][2] * f4
        b = self._bmat
        u, v, r = s[3], s[4], s[5]
        return (cp * u - sp * v,
                sp * u + cp * v,
                r,
                fv1 + b[0][0] * tu + b[0][1] * tv + b[0][2] * tr,
                fv2 + b[1][0] * tu + b[1][1] * tv + b[1][2] * tr,
                fv3 + b[2][0] * tu + b[2][1] * tv + b[2][2] * tr)

    def _integrate(self, t: float, s: tuple, c: tuple) -> tuple:
        """One RK4 step from (t, s); `c` is the control snapshot at (t, s),
        so stage k1 needs no new control evaluation."""
        dt = self.dt
        h = dt * 0.5
        control, deriv = self._control, self._deriv
        sample = self.plan.sample_flat
        a0, a1, a2, a3, a4, a5 = s
        k1 = deriv(s, c)
        ref = sample(t + h)
        s2 = (a0 + h * k1[0], a1 + h * k1[1], a2 + h * k1[2],
              a3 + h * k1[3], a4 + h * k1[4], a5 + h * k1[5])
        k2 = deriv(s2, control(s2, ref))
        s3 = (a0 + h * k2[0], a1 + h * k2[1], a2 + h * k2[2],
              a3 + h * k2[3], a4 + h * k2[4], a5 + h * k2[5])
        k3 = deriv(s3, control(s3, ref))
        s4 = (a0 + dt * k3[0], a1 + dt * k3[1], a2 + dt * k3[2],
              a3 + dt * k3[3], a4 + dt * k3[4], a5 + dt * k3[5])
        k4 = deriv(s4, control(s4, sample(t + dt)))
        sx = dt / 6.0
        return (a0 + sx * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0]),
                a1 + sx * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1]),
                a2 + sx * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2]),
                a3 + sx * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3]),
                a4 + sx * (k1[4] + 2.0 * (k2[4] + k3[4]) + k4[4]),
                a5 + sx * (k1[5] + 2.0 * (k2[5] + k3[5]) + k4[5]))

    # -- per-boundary work ----------------------------------------------

    def _boundary(self, t: float, want_row: bool = True):
        """Fault schedule, control snapshot, FDI update at a step start.
        Returns ((residual, threshold, |e_eta|), row-or-None, c), where c
        is the final `_control` snapshot: the commands the plant receives
        over the step, and RK4 stage k1's control."""
        while (self._event_idx < len(self._events)
               and self._events[self._event_idx].time <= t + 1e-9):
            ev = self._events[self._event_idx]
            self.bank.w_true[ev.thruster - 1] = ev.weight
            self._refresh_thrust()
            self._event_idx += 1

        s = self._s
        ref = self.plan.sample_flat(t)
        c = self._control(s, ref)
        e_eta = (c[2], c[3], c[4])
        e_dot = (c[5], c[6], c[7])
        u_cmd = (c[21], c[22], c[23], c[24])
        due = self.engine.update(t, self.dt, e_eta, e_dot, u_cmd, s[2],
                                 not self.plan.is_joint(t))
        if due is not None:
            self.bank.w_hat = reconfigure_step(self.bank.w_hat, due,
                                               self.engine.cfg)
            self._refresh_allocation()
            c = self._control(s, ref)  # commands the plant will now receive
            u_cmd = (c[21], c[22], c[23], c[24])
        if c[25]:
            self.saturation_steps += 1

        st = self.engine.state
        hist = (st.residual, st.threshold,
                math.sqrt(c[2] * c[2] + c[3] * c[3] + c[4] * c[4]))
        if not want_row:
            return hist, None, c
        kw = self._kw
        f1, f2, f3, f4 = (kw[0] * u_cmd[0], kw[1] * u_cmd[1],
                          kw[2] * u_cmd[2], kw[3] * u_cmd[3])
        cols = self._cols
        tau = (cols[0][0] * f1 + cols[1][0] * f2 + cols[2][0] * f3 + cols[3][0] * f4,
               cols[0][1] * f1 + cols[1][1] * f2 + cols[2][1] * f3 + cols[3][1] * f4,
               cols[0][2] * f1 + cols[1][2] * f2 + cols[2][2] * f3 + cols[3][2] * f4)
        g1, g2 = self._g1, self._g2
        v2 = 0.5 * (g1[0] * c[2] ** 2 + g1[1] * c[3] ** 2 + g1[2] * c[4] ** 2
                    + g2[0] * c[8] ** 2 + g2[1] * c[9] ** 2 + g2[2] * c[10] ** 2)
        row = (t, s[0], s[1], s[2], s[3], s[4], s[5],
               ref[0], ref[1], wrap_angle(ref[2]),
               c[2], c[3], c[4],
               st.residual, st.threshold,
               1.0 if st.b_trig else 0.0,
               float(st.fault_num or 0),
               *self.bank.w_true, *self.bank.w_hat,
               *u_cmd,
               c[14], c[15], c[16],
               *tau, v2)
        return hist, row, c

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
        _, row, c = self._boundary(t)
        self._advance(t, c)
        return row

    def run(self) -> SimResult:
        sc = self.scenario
        rows = []
        residual_hist = []
        enorm_hist = []
        thresh_hist = []
        started = time.perf_counter()
        diverged_time = None
        while self.k <= self.n_steps:
            t = self.k * self.dt
            record = (self.k % sc.decimation == 0)
            hist, row, c = self._boundary(t, want_row=record)
            residual_hist.append(hist[0])
            thresh_hist.append(hist[1])
            enorm_hist.append(hist[2])
            if record:
                rows.append(row)
            if self.k == self.n_steps:
                break
            self._advance(t, c)
            if self.diverged:
                diverged_time = self.k * self.dt
                break
        runtime = time.perf_counter() - started
        summary = self._build_summary(np.array(residual_hist),
                                      np.array(thresh_hist),
                                      np.array(enorm_hist),
                                      runtime, diverged_time)
        return SimResult(sc.name, COLUMNS, np.array(rows), summary,
                         self.diverged, diverged_time)

    # -- summary ----------------------------------------------------------

    def _build_summary(self, residual_hist, thresh_hist, enorm_hist,
                       runtime, diverged_time) -> dict:
        sc = self.scenario
        dt = self.dt
        st = self.engine.state
        n = len(residual_hist)
        times = np.arange(n) * dt
        above = residual_hist > thresh_hist

        # convergence time: |e_eta| stays within 0.05 from t_c onward
        tol = 0.05
        bad = np.flatnonzero(enorm_hist > tol)
        if bad.size == 0:
            t_c = 0.0
        elif bad[-1] == n - 1:
            t_c = None
        else:
            t_c = float(times[bad[-1] + 1])

        events = []
        ev_list = self._events
        for j, ev in enumerate(ev_list):
            t_next = ev_list[j + 1].time if j + 1 < len(ev_list) else times[-1] + dt
            rises = [tt for tt, rising in st.trigger_log
                     if rising and ev.time <= tt < t_next]
            idents = [(tt, num) for tt, num in st.identified_log
                      if ev.time <= tt < t_next]
            win = (times >= ev.time) & (times < t_next)
            win_above = np.flatnonzero(win & above)
            if win_above.size == 0:
                reconv = float(ev.time)
            elif times[win_above[-1]] >= t_next - 2 * dt:
                reconv = None
            else:
                reconv = float(times[win_above[-1]] + dt)
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

        armed_idx = np.flatnonzero(~above)
        first_armed = int(armed_idx[0]) if armed_idx.size else n
        return {
            "scenario": sc.name,
            "duration": sc.duration,
            "dt": dt,
            "steps": self.n_steps,
            "runtime_s": runtime,
            "diverged": self.diverged,
            "diverged_time": diverged_time,
            "t_c": t_c,
            "max_residual": float(residual_hist.max()) if n else 0.0,
            "max_residual_after_arming": float(residual_hist[first_armed:].max())
                                         if first_armed < n else 0.0,
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


def run_scenario(scenario: Scenario) -> SimResult:
    """Run one scenario start to finish."""
    return Simulation(scenario).run()


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
