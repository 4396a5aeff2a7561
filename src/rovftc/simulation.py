"""Deterministic fixed-step closed-loop simulation.

Step k starts at k * dt. `Scenario` turns every schedule into steps at
load: a fault event or segment joint acts at the first step that starts
at or after it (`step_index`); the update period and the joint hold
window are whole numbers of steps. One generated function, the kernel's
`loop`, steps the run for both `step()` and `run()`, in the order that
`_KERNEL`'s comment gives, and integrates the vehicle with classic
fourth-order Runge-Kutta. The feedback law is evaluated inside every
integration stage, so on smooth segments the global error scales with
dt^4.

The inner loop is written with unrolled scalar arithmetic; the matrix
form of every formula lives in `vehicle`, `controller` and `allocation`,
and the test suite checks the two paths against each other. That scalar
arithmetic is one template, `_STAGE`, which `_kernel` renders into
`control`, one evaluation that the tests check, and four times into
`loop`: the step-start snapshot, which is exactly RK4 stage k1 (same
time, state and tables), then stages k2, k3 and k4. A `Simulation`
renders it when built; each distinct source is compiled once per
process. Every run-constant (inertia, damping, B, their inverses, the
gain ratios, the thruster columns, u_max, dt and its fractions, the
residual weight c1, the two detection thresholds, the hold-window
length, the divergence limit) is written into it as a literal, and a
term whose constant is exactly 0.0 is left out of its sum. The
allocation rows and thrust gains change with the weights, so they are
locals of the loop, bound by its one callback, `Simulation._tables`: at
loop entry, at a fault event and at a weight decrement. The loop owns
the detection signal: it computes the residual, keeps the joint hold
window and picks the threshold, and calls `FdiEngine.update` only on
steps where the engine's state may change. The reference is sampled
once per distinct time, t + dt/2 (shared by k2 and k3) and t + dt; the
sample at t + dt serves the next step's snapshot too when that starts at
the same float.
"""

from __future__ import annotations

import functools
import linecache
import math
import re
import struct
import time
from array import array
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .allocation import _distribution_matrix
from .controller import ControllerGains
from .fdi import FdiConfig, FdiEngine, detection_threshold, reconfigure_step
from .trajectory import TrajectoryPlan
from .vehicle import (TWO_PI, ThrusterBank, ThrusterGeometry, VehicleParams,
                      real, reals, whole, wrap_angle)

DIVERGENCE_LIMIT = 1e6
#: times closer than this are one instant (joint, fault event, end of run)
TIME_TOL = 1e-9
#: past this many steps, k * dt no longer tells steps apart; no run gets there
MAX_STEPS = 2 ** 53

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
#: one kept row as the float64 bytes `array.frombytes` takes: a single C
#: call, where `array.extend` converts the row entry by entry
_pack_row = struct.Struct(f"{len(COLUMNS)}d").pack
#: rows per chunk of `write_csv`, each formatted by one `%` from a copy of
#: its live cells. Writing the streaming test's 3 001-row record (bound
#: 0.25 * rows.nbytes = 211 KiB) peaks under `tracemalloc` (Python 3.11,
#: numpy 2.4) at 94, 181 and 356 KiB with chunks of 64, 128 and 256 rows:
#: 64 keeps a wide margin
CHUNK_ROWS = 64


class FaultEvent(NamedTuple):
    time: float      # s
    thruster: int    # 1-based
    weight: float    # new true weight, in [0, 1]


def step_index(t: float, dt: float) -> int:
    """The step at which the instant t acts: the smallest k >= 0 with
    t <= k * dt + TIME_TOL, or MAX_STEPS + 1 past MAX_STEPS steps."""
    # float rounding puts the answer within one step of this k
    k = max(0, math.ceil(min((t - TIME_TOL) / dt, MAX_STEPS)))
    if k and t <= (k - 1) * dt + TIME_TOL:
        return k - 1
    return k if t <= k * dt + TIME_TOL else k + 1


@dataclass
class Scenario:
    """Everything one closed-loop run needs. The constructor enforces the
    standing fault assumptions: thrusters 1..4, weights in [0, 1] that
    only ever fall, one thruster at a time (events strictly ordered in
    time), the first event after the tracking loop has settled and not
    before the run starts, and the last one early enough to act on the
    plant. The start state must be inside the divergence limit."""

    name: str
    params: VehicleParams
    geometry: ThrusterGeometry
    bank: ThrusterBank
    gains: ControllerGains
    fdi: FdiConfig
    plan: TrajectoryPlan
    faults: tuple  # FaultEvents, in time order
    dt: float
    duration: float
    decimation: int
    initial_state: np.ndarray
    settle_time: float  # earliest admissible fault time, s
    # in steps, from the fields above; the last step starts at (n_steps - 1) * dt
    n_steps: int = field(init=False)
    update_steps: int = field(init=False)   # fdi.t_s
    hold_steps: int = field(init=False)     # fdi.joint_hold
    event_steps: tuple = field(init=False)  # where each fault event acts
    joint_steps: tuple = field(init=False)  # where each segment joint acts

    def __post_init__(self):
        for key in ("dt", "duration", "settle_time"):
            setattr(self, key, real(getattr(self, key), f"sim.{key}"))
        self.decimation = whole(self.decimation, "sim.decimation")
        self.initial_state = reals(self.initial_state, "sim.initial_state")
        self.faults = tuple(FaultEvent(real(t, f"faults[{i}].time"),
                                       whole(n, f"faults[{i}].thruster"),
                                       real(w, f"faults[{i}].weight"))
                            for i, (t, n, w) in enumerate(self.faults))
        current, prev_time = dict.fromkeys((1, 2, 3, 4), 1.0), -math.inf
        for ev in self.faults:
            if ev.thruster not in current:
                raise ValueError(f"fault event at t={ev.time}: thruster index "
                                 f"{ev.thruster} outside 1..4")
            if not 0.0 <= ev.weight <= 1.0:
                raise ValueError(f"fault event at t={ev.time}: weight "
                                 f"{ev.weight} outside [0, 1]")
            if ev.time <= prev_time:
                raise ValueError(f"fault event at t={ev.time}: times must be "
                                 "strictly increasing (one fault at a time)")
            if ev.time < self.settle_time:
                raise ValueError(f"fault event at t={ev.time}: before the "
                                 f"settle time {self.settle_time} s, the "
                                 "tracking loop may not have stabilized")
            if ev.time < -TIME_TOL:  # step_index would move it to step 0
                raise ValueError(f"fault event at t={ev.time}: before the "
                                 "run starts at t = 0")
            if ev.weight >= current[ev.thruster]:
                raise ValueError(f"fault event at t={ev.time}: weight of "
                                 f"thruster {ev.thruster} must decrease "
                                 f"(currently {current[ev.thruster]})")
            current[ev.thruster] = ev.weight
            prev_time = ev.time
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.duration > 0.0:
            raise ValueError("duration must be positive")
        if self.decimation < 1:
            raise ValueError("decimation must be at least 1")
        dt, events = self.dt, self.faults
        spans = {"duration": self.duration, "fdi.t_s": self.fdi.t_s,
                 "fdi.joint_hold": self.fdi.joint_hold}
        steps = {key: round(min(span / dt, MAX_STEPS)) for key, span in spans.items()}
        self.n_steps, self.update_steps, self.hold_steps = steps.values()
        for key in ("duration", "fdi.t_s"):
            if steps[key] < 1:
                raise ValueError(f"{key} = {spans[key]} s is shorter than one "
                                 f"step (dt = {dt} s)")
        self.event_steps = tuple(step_index(ev.time, dt) for ev in events)
        self.joint_steps = tuple(step_index(t, dt) for t in self.plan.joint_times)
        if events and self.event_steps[-1] >= self.n_steps:
            last = (self.n_steps - 1) * dt
            raise ValueError(f"fault event at t={events[-1].time}: after the "
                             f"last step starts ({last:.6g} s, end of the run "
                             f"{self.duration} s), so it never acts on the plant")
        for key, span in spans.items():
            if abs(span - steps[key] * dt) > TIME_TOL:
                raise ValueError(f"{key} = {span} s is not a whole number of "
                                 f"steps of dt = {dt} s")
        if self.initial_state.shape != (6,):
            raise ValueError("initial_state must have 6 entries")
        x, y, _, u, v, r = np.abs(self.initial_state).tolist()  # yaw wraps
        if max(x, y, u, v, r) > DIVERGENCE_LIMIT:
            raise ValueError(f"sim.initial_state: |x|, |y|, |u|, |v| and |r| "
                             f"must be at most {DIVERGENCE_LIMIT:g}, past "
                             "which a run diverges, got "
                             f"{self.initial_state.tolist()}")


@dataclass
class SimResult:
    name: str
    rows: np.ndarray
    summary: dict
    diverged_time: float | None = None  # set when the run left the limits

    columns = COLUMNS

    @property
    def diverged(self) -> bool:
        return self.diverged_time is not None

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, COLUMNS.index(name)]

    def write_csv(self, path):
        """Every cell as `%.12g`, one line per row, then the divergence
        marker if the run diverged."""
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.columns) + "\n")
            _write_rows(fh, np.ascontiguousarray(self.rows, dtype=float))
            if self.diverged:
                fh.write(f"# aborted: state divergence at t={self.diverged_time:.6g}\n")


def _write_rows(fh, rows):
    """Write `rows` to the text stream `fh`, each cell as `%.12g`, one
    line per row, CHUNK_ROWS rows at a time. In each chunk a column whose
    bits all equal the chunk's first row is formatted once into the
    chunk's line template, and the live cells fill every line of the
    chunk in one `%`."""
    bits = rows.view(np.int64)  # bits, not values: 0.0 and -0.0 print apart
    for lo in range(0, len(rows), CHUNK_ROWS):
        chunk = rows[lo:lo + CHUNK_ROWS]
        live = (bits[lo:lo + CHUNK_ROWS] != bits[lo]).any(axis=0)
        line = ",".join("%.12g" if on else "%.12g" % x
                        for x, on in zip(chunk[0].tolist(), live.tolist())) + "\n"
        fh.write(line * len(chunk) % tuple(chunk[:, live].ravel().tolist()))


#: One evaluation of controller, allocation, thrust and plant: the state
#: (X, Y, psi, u, v, r) and the flat reference (xd .. ayd, a
#: `TrajectoryPlan.sample_flat` tuple) in, the state derivative (xdot,
#: ydot, r, d3, d4, d5) out, with the errors, commands and wrenches of the
#: snapshot on the way. The `a` rows map the wrench to commands and
#: kw = K * w_true turns commands into thrust; both change with the
#: weights, so they are locals, not literals. `_kernel` renders it once
#: into `control` and four times into `loop`, as RK4 stages k1..k4; in
#: stages k2..k4 the state and derivative names get the stage's suffix
#: (`X_2`, `d3_2`, ...), and every other name is reused.
_STAGE = """\
cp, sp = cos(psi), sin(psi)
ex = xd - X
ey = yd - Y
ep = fmod(psid - psi + {pi}, {two_pi})  # wrap_angle(psid - psi)
if ep <= 0.0:
    ep += {two_pi}
ep -= {pi}
wx = {vxd + k10 * ex}
wy = {vyd + k11 * ey}
wp = {rd + k12 * ep}
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
hx = {axd + k10 * edx}
hy = {ayd + k11 * edy}
ad1 = cp * hx + sp * hy + r * al2
ad2 = -sp * hx + cp * hy - r * al1
ad3 = {k12 * edr}
c13 = -({m10 * u + m11 * v + m12 * r})
c23 = {m00 * u + m01 * v + m02 * r}
t1 = c13 * r + ({l00 * u + l01 * v + l02 * r + q0 * abs(u) * u})
t2 = c23 * r + ({l10 * u + l11 * v + l12 * r + q1 * abs(v) * v})
t3 = (-c13 * u - c23 * v) + ({l20 * u + l21 * v + l22 * r + q2 * abs(r) * r})
fv1 = -({i00 * t1 + i01 * t2 + i02 * t3})
fv2 = -({i10 * t1 + i11 * t2 + i12 * t3})
fv3 = -({i20 * t1 + i21 * t2 + i22 * t3})
in1 = {ad1 - fv1 + k20 * en1 + kc0 * (cp * ex - sp * ey)}
in2 = {ad2 - fv2 + k21 * en2 + kc1 * (sp * ex + cp * ey)}
in3 = {ad3 - fv3 + k22 * en3 + kc2 * ep}
tc1 = {n00 * in1 + n01 * in2 + n02 * in3}
tc2 = {n10 * in1 + n11 * in2 + n12 * in3}
tc3 = {n20 * in1 + n21 * in2 + n22 * in3}
ur1 = a00 * tc1 + a01 * tc2 + a02 * tc3
ur2 = a10 * tc1 + a11 * tc2 + a12 * tc3
ur3 = a20 * tc1 + a21 * tc2 + a22 * tc3
ur4 = a30 * tc1 + a31 * tc2 + a32 * tc3
u1 = {um} if ur1 > {um} else (-{um} if ur1 < -{um} else ur1)
u2 = {um} if ur2 > {um} else (-{um} if ur2 < -{um} else ur2)
u3 = {um} if ur3 > {um} else (-{um} if ur3 < -{um} else ur3)
u4 = {um} if ur4 > {um} else (-{um} if ur4 < -{um} else ur4)
f1 = kw1 * u1
f2 = kw2 * u2
f3 = kw3 * u3
f4 = kw4 * u4
tu = {g00 * f1 + g01 * f2 + g02 * f3 + g03 * f4}
tv = {g10 * f1 + g11 * f2 + g12 * f3 + g13 * f4}
tr = {g20 * f1 + g21 * f2 + g22 * f3 + g23 * f4}
d3 = {fv1 + b00 * tu + b01 * tv + b02 * tr}
d4 = {fv2 + b10 * tu + b11 * tv + b12 * tr}
d5 = {fv3 + b20 * tu + b21 * tv + b22 * tr}
"""

#: The names `_STAGE` reads as its state and writes as its derivative
_STAGE_STATE = re.compile(r"\b(X|Y|psi|u|v|r|xdot|ydot|d3|d4|d5)\b")

#: The locals the loop binds to the current weights and fault window
_TABLES = ("a00, a01, a02, a10, a11, a12, a20, a21, a22, a30, a31, a32, "
           "kw1, kw2, kw3, kw4, wt1, wt2, wt3, wt4, wh1, wh2, wh3, wh4, win, k_ev")

#: The scalar hot path. `control(s, ref, tab)` is one stage for the state
#: tuple `s`, the flat reference `ref` and `tab`, the 16 `a` and `kw`
#: entries (the first 16 of `Simulation._tables`). It returns the snapshot
#:   (d0..d5, ex, ey, ep, edx, edy, edr, en1, en2, en3,
#:    u1..u4, tc1, tc2, tc3, tu, tv, tr, sat)
#: whose first six entries are the state derivative.
#:
#: `loop(sim, k, k_stop, rows, every)` runs steps k .. k_stop - 1 of `sim`,
#: or up to the step that diverges, and packs the row of each step k with
#: k % every == 0 onto the float64 array `rows`. Each step, top to
#: bottom: the fault events due at k (`sim._tables(k)`); the reference
#: at t = k * dt, unless the last step's t + dt sample is for the same
#: float; stage k1, the step-start snapshot; the detection signal and the
#: FDI update; the saturation count, the running summary and the row;
#: then, unless k is the run's last step (`n_steps`), stages k2-k4 (the
#: reference sampled at t + dt/2 and t + dt), the RK4 combination, the
#: divergence check and the yaw wrap. The loop keeps the run's state and
#: running values in locals and writes them back to `sim` when it returns.
#:
#: FDI: a joint at k opens a hold window of k and `hold` more steps
#: (`fdi.joint_hold`); on other steps the open window counts down. The
#: threshold is widened while the window is open, and `update` gets
#: `above`, whether the residual is strictly above it. When the engine is
#: idle (`FdiEngine.idle`) and the residual is not above, `update` would
#: change nothing, so the loop skips it. The loop binds `TABLES` by
#: `sim._tables(k)` at entry and at a fault event, and by
#: `sim._tables(k, due)` at a due decrement. After a decrement stage k1
#: runs again with them: the commands the plant will now receive.
#:
#: `_compiled` calls `loop` 8 times with k == k_stop when it compiles it:
#: CPython 3.11 specializes a function's bytecode to its operand types
#: from the 8th call on, and a run calls `loop` once.
#:
#: `_kernel` writes each `{...}` as Python source by `_literal_sum`: a
#: table entry such as `m01`, or a run constant such as `dt` or `c1`,
#: becomes its literal (an int for the step count `hold`, else a float), a
#: `name * operand` term whose constant is exactly 0.0 is left out of its
#: sum, and a factor of exactly 1.0 is left out of its product. Each
#: `@stage` line becomes `_STAGE` at its indentation, and `TABLES` becomes
#: `_TABLES`.
_KERNEL = """\
def control(s, ref, tab):
    X, Y, psi, u, v, r = s
    xd, yd, psid, vxd, vyd, rd, axd, ayd = ref
    a00, a01, a02, a10, a11, a12, a20, a21, a22, a30, a31, a32, kw1, kw2, kw3, kw4 = tab
    @stage
    sat = (u1 != ur1) or (u2 != ur2) or (u3 != ur3) or (u4 != ur4)
    return (xdot, ydot, r, d3, d4, d5, ex, ey, ep, edx, edy, edr,
            en1, en2, en3, u1, u2, u3, u4, tc1, tc2, tc3, tu, tv, tr, sat)


def loop(sim, k, k_stop, rows, every):
    if k >= k_stop:
        return
    eng = sim.engine
    sample, update, keep = sim.plan.sample_flat, eng.update, rows.frombytes
    joints, last, win_above = sim._joints, sim.n_steps, sim._win_above
    nsat, k_bad, hold_left = sim.saturation_steps, sim._k_bad, sim._hold_left
    max_res, max_res_armed = sim._max_res, sim._max_res_armed
    armed, idle = eng.armed, eng.idle
    X, Y, psi, u, v, r = sim._s
    TABLES = sim._tables(k)
    t_end = None
    while k < k_stop:
        if k >= k_ev:
            TABLES = sim._tables(k)
        t = k * {dt}
        if t != t_end:
            xd, yd, psid, vxd, vyd, rd, axd, ayd = sample(t)
        hold_left = {hold} if k in joints else hold_left - 1
        due = None
        while True:
            @stage
            if due is not None:
                break  # the snapshot after a reconfiguration
            res = sqrt(ex * ex + ey * ey + {c1} * ep * ep)
            thr = {thr_in} if hold_left >= 0 else {thr_out}
            above = res > thr
            if idle and not above:
                break
            due = update(k, above, (edx, edy, edr), (u1, u2, u3, u4), psi)
            armed, idle = eng.armed, eng.idle
            if due is None:
                break
            TABLES = sim._tables(k, due)
        if u1 != ur1 or u2 != ur2 or u3 != ur3 or u4 != ur4:
            nsat += 1
        if sqrt(ex * ex + ey * ey + ep * ep) > 0.05:
            k_bad = k
        if res > max_res:
            max_res = res
        if armed and res > max_res_armed:
            max_res_armed = res
        if above:
            win_above[win] = k
        if k % every == 0:
            psid_w = fmod(psid + {pi}, {two_pi})  # wrap_angle(psid)
            if psid_w <= 0.0:
                psid_w += {two_pi}
            try:  # float `**` raises where `*` would give inf
                v2 = 0.5 * ({ga0} * ex ** 2 + {ga1} * ey ** 2 + {ga2} * ep ** 2
                            + {gb0} * en1 ** 2 + {gb1} * en2 ** 2 + {gb2} * en3 ** 2)
            except OverflowError:
                v2 = inf
            keep(pack(t, X, Y, psi, u, v, r, xd, yd, psid_w - {pi}, ex, ey, ep,
                      res, thr, 1.0 if eng.b_trig else 0.0, float(eng.fault_num or 0),
                      wt1, wt2, wt3, wt4, wh1, wh2, wh3, wh4, u1, u2, u3, u4,
                      tc1, tc2, tc3, tu, tv, tr, v2))
        k += 1
        if k > last:
            break  # the run's last step: nothing to integrate
        mid = sample(t + {half_dt})
        t_end = t + {dt}
        end = sample(t_end)
        xd, yd, psid, vxd, vyd, rd, axd, ayd = mid
        try:
            X_2 = X + {half_dt} * xdot
            Y_2 = Y + {half_dt} * ydot
            psi_2 = psi + {half_dt} * r
            u_2 = u + {half_dt} * d3
            v_2 = v + {half_dt} * d4
            r_2 = r + {half_dt} * d5
            @stage_2
            X_3 = X + {half_dt} * xdot_2
            Y_3 = Y + {half_dt} * ydot_2
            psi_3 = psi + {half_dt} * r_2
            u_3 = u + {half_dt} * d3_2
            v_3 = v + {half_dt} * d4_2
            r_3 = r + {half_dt} * d5_2
            @stage_3
            xd, yd, psid, vxd, vyd, rd, axd, ayd = end
            X_4 = X + {dt} * xdot_3
            Y_4 = Y + {dt} * ydot_3
            psi_4 = psi + {dt} * r_3
            u_4 = u + {dt} * d3_3
            v_4 = v + {dt} * d4_3
            r_4 = r + {dt} * d5_3
            @stage_4
            nX = X + {sixth_dt} * (xdot + 2.0 * (xdot_2 + xdot_3) + xdot_4)
            nY = Y + {sixth_dt} * (ydot + 2.0 * (ydot_2 + ydot_3) + ydot_4)
            npsi = psi + {sixth_dt} * (r + 2.0 * (r_2 + r_3) + r_4)
            nu = u + {sixth_dt} * (d3 + 2.0 * (d3_2 + d3_3) + d3_4)
            nv = v + {sixth_dt} * (d4 + 2.0 * (d4_2 + d4_3) + d4_4)
            nr = r + {sixth_dt} * (d5 + 2.0 * (d5_2 + d5_3) + d5_4)
        except ValueError:  # a stage yaw at +-inf: cos and fmod raise,
            nX = nan        # which the check below takes for divergence
        if not (-{lim} <= nX <= {lim} and -{lim} <= nY <= {lim}  # NaN fails
                and -{lim} <= npsi <= {lim} and -{lim} <= nu <= {lim}
                and -{lim} <= nv <= {lim} and -{lim} <= nr <= {lim}):
            sim.diverged_time = k * {dt}
            break
        X = nX
        Y = nY
        u = nu
        v = nv
        r = nr
        psi = fmod(npsi + {pi}, {two_pi})  # wrap_angle(npsi)
        if psi <= 0.0:
            psi += {two_pi}
        psi -= {pi}
    sim.k, sim._s = k, (X, Y, psi, u, v, r)
    sim.saturation_steps, sim._k_bad = nsat, k_bad
    sim._max_res, sim._max_res_armed = max_res, max_res_armed
    sim._hold_left = hold_left
"""


def _literal_sum(expr: str, consts: dict) -> str:
    """`expr`, a `+`-joined sum, with each constant written as its float
    literal; a `name * operand` term whose constant is 0.0 is left out,
    and one whose constant is 1.0 is the operand alone (bit for bit)."""
    terms = []
    for term in expr.split(" + "):
        name, star, operand = term.partition(" * ")
        if name in consts:
            x = consts[name]
            if star and x == 0.0:
                continue
            term = operand if star and x == 1.0 else repr(x) + star + operand
        terms.append(term)
    return " + ".join(terms) or "0.0"


def _stage(match) -> str:
    """`_STAGE` for an `@stage` line: at its indentation, and with its
    state and derivative names suffixed by the line's suffix, if any."""
    indent, suffix = match.groups()
    body = _STAGE_STATE.sub(r"\1" + suffix, _STAGE) if suffix else _STAGE
    return "".join(indent + line for line in body.splitlines(True))


def _kernel(sc: Scenario):
    """`_KERNEL` rendered for `sc`'s tables and constants, `_compiled`."""
    params, gains = sc.params, sc.gains
    consts = {"pi": math.pi, "two_pi": TWO_PI, "um": float(sc.bank.u_max),
              "dt": sc.dt, "half_dt": sc.dt * 0.5, "sixth_dt": sc.dt / 6.0,
              "c1": sc.fdi.c1, "lim": DIVERGENCE_LIMIT, "hold": sc.hold_steps,
              "thr_out": detection_threshold(sc.fdi),
              "thr_in": detection_threshold(sc.fdi, True)}
    for prefix, table in (("m", params.inertia), ("i", params.inertia_inv),
                          ("l", params.lin_damping), ("b", params.B),
                          ("n", params.B_inv), ("q", params.quad_damping),
                          ("k1", gains.a1 / gains.gamma1),
                          ("k2", gains.a2 / gains.gamma2),
                          ("kc", gains.gamma1 / gains.gamma2),
                          ("ga", gains.gamma1), ("gb", gains.gamma2),
                          ("g", sc.geometry.t_conf)):  # e.g. m01 = inertia[0, 1]
        for index, x in np.ndenumerate(table):
            consts[prefix + "".join(map(str, index))] = float(x)
    source = re.sub(r"^( *)@stage(\w*)\n", _stage, _KERNEL, flags=re.M)
    source = re.sub(r"\{([^{}]*)\}", lambda m: _literal_sum(m.group(1), consts),
                    source.replace("TABLES", _TABLES))
    return _compiled(source)


@functools.cache
def _compiled(source: str):
    """`source` compiled once per process and registered with `linecache`
    (which keeps every source too); returns its `control` and `loop`."""
    filename = f"<rovftc kernel {hash(source) & 0xFFFFFFFF:08x}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    namespace = {"cos": math.cos, "sin": math.sin, "fmod": math.fmod,
                 "sqrt": math.sqrt, "inf": math.inf, "nan": math.nan,
                 "pack": _pack_row}
    exec(compile(source, filename, "exec"), namespace)
    loop = namespace["loop"]
    for _ in range(8):  # see `_KERNEL`: specialized from the 8th call on
        loop(None, 0, 0, None, 1)
    return SimpleNamespace(control=namespace["control"], loop=loop)


class Simulation:
    """Owns the full closed-loop state for one scenario run."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.bank = scenario.bank.copy()
        self.plan = scenario.plan
        self.engine = FdiEngine(scenario.fdi, scenario.geometry, scenario.update_steps)
        self._kernel = _kernel(scenario)
        self._joints = frozenset(scenario.joint_steps)
        self._hold_left = -1  # hold-window steps after this one; < 0: closed
        self.dt, self.n_steps = scenario.dt, scenario.n_steps
        self.k = 0
        x, y, psi, u, v, r = scenario.initial_state.tolist()
        self._s = (x, y, wrap_angle(psi), u, v, r)  # psi wrapped
        self.diverged_time = None  # set by the step that leaves the limits
        self.saturation_steps = 0
        self._event_idx = 0  # events applied; also the open fault window
        self._events = scenario.faults
        self._event_steps = (*scenario.event_steps, self.n_steps + 1)  # last: never due
        self._k_bad = -1  # running summary: last boundary with |e_eta| > 0.05
        self._max_res = self._max_res_armed = 0.0
        self._win_above = [None] * (len(self._events) + 1)  # last k above, per window

    @property
    def state(self) -> np.ndarray:
        """Current (x, y, psi, u, v, r) as a fresh array."""
        return np.array(self._s)

    # -- the kernel's one callback -----------------------------------------

    def _tables(self, k, due=None) -> tuple:
        """The kernel loop's `_TABLES` at step k. Applies the fault events
        due at k (none at k = -1, before step 0), steps the weight estimate
        of thruster `due` down if the FDI engine asked, then binds the
        allocation rows for the active set and the thrust gains
        K * w_true: the first 16 entries, `control`'s `tab`."""
        bank, event_steps = self.bank, self._event_steps
        while event_steps[self._event_idx] <= k:
            ev = self._events[self._event_idx]
            bank.w_true[ev.thruster - 1] = ev.weight
            self._event_idx += 1
        if due is not None:
            bank.w_hat = reconfigure_step(bank.w_hat, due, self.engine.cfg, bank.w_min)
        active = ~bank.failed_mask()
        rows = (_distribution_matrix(self.scenario.geometry, active)
                / np.where(active, bank.K * bank.w_hat, 1.0)[:, None])
        return (*rows.ravel().tolist(), *(bank.K * bank.w_true).tolist(),
                *bank.w_true.tolist(), *bank.w_hat.tolist(),
                self._event_idx, event_steps[self._event_idx])

    # -- stepping ---------------------------------------------------------

    def step(self) -> tuple:
        """One full control cycle; returns the record row at the step
        start. Raises past the end of the run or after divergence."""
        if self.k >= self.n_steps or self.diverged_time is not None:
            raise RuntimeError("no step left: the run has ended or diverged")
        row = array("d")
        self._kernel.loop(self, self.k, self.k + 1, row, 1)
        return tuple(row)

    def run(self) -> SimResult:
        """Step through the end of the run, keeping every `decimation`-th row."""
        sc = self.scenario
        rows = array("d")  # the kept rows, flat; numpy views the buffer
        started = time.perf_counter()
        if self.diverged_time is None:
            self._kernel.loop(self, self.k, self.n_steps + 1, rows, sc.decimation)
        summary = self._build_summary(time.perf_counter() - started)
        return SimResult(sc.name, np.frombuffer(rows).reshape(-1, len(COLUMNS)),
                         summary, self.diverged_time)

    # -- summary ----------------------------------------------------------

    def _build_summary(self, runtime) -> dict:
        """The summary of every boundary seen so far, from the running
        values and the engine's logs, all in steps; step k starts at k * dt,
        the one conversion made as the dict is written."""
        sc, dt, eng = self.scenario, self.dt, self.engine
        last, bad = self.k - 1, self._k_bad  # the last boundary seen
        # convergence time: |e_eta| stays within 0.05 from t_c onward
        t_c = 0.0 if bad < 0 else None if bad == last else (bad + 1) * dt

        # window j: from the step where event j acted to event j+1's, or the end
        events = []
        bounds = (*self._event_steps[:self._event_idx], last + 1)
        for j, ev in enumerate(self._events):
            rises, idents, reconv = [], [], None
            if j < self._event_idx:
                k0, k1 = bounds[j], bounds[j + 1]
                rises = [k for k, rising in eng.trigger_log if rising and k0 <= k < k1]
                idents = [(k, num) for k, num in eng.identified_log if k0 <= k < k1]
                k_above = self._win_above[j + 1]  # None: never above threshold
                reconv = (ev.time if k_above is None else None
                          if k_above >= k1 - 2 else k_above * dt + dt)
            detected_at = rises[0] * dt if rises else None
            events.append({
                "time": ev.time,
                "thruster": ev.thruster,
                "weight": ev.weight,
                "detected_at": detected_at,
                "detection_latency": (detected_at - ev.time
                                      if detected_at is not None else None),
                "identified": idents[0][1] if idents else None,
                "identified_at": idents[0][0] * dt if idents else None,
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
            "diverged": self.diverged_time is not None,
            "diverged_time": self.diverged_time,
            "t_c": t_c,
            "max_residual": self._max_res,
            "max_residual_after_arming": self._max_res_armed,
            "trigger_count": sum(1 for _, rising in eng.trigger_log if rising),
            "identifications": [(k * dt, num) for k, num in eng.identified_log],
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
