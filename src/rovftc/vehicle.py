"""Planar (3DOF) marine vehicle model: kinematics, rigid-body + added-mass
dynamics, and the four-thruster X-configuration force model.

Frames: navigation frame (x north, y east-style planar, psi yaw) and
body-fixed frame (u surge, v sway, r yaw rate). All angles in radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    r = math.fmod(angle + math.pi, TWO_PI)
    if r <= 0.0:
        r += TWO_PI
    return r - math.pi


def rotation_matrix(psi: float) -> np.ndarray:
    """Body-to-navigation rotation about the vertical axis.

    Orthogonal with determinant +1; the inverse is the transpose.
    """
    c, s = math.cos(psi), math.sin(psi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass
class VehicleState:
    """Pose in the navigation frame plus body-frame velocity."""

    x: float = 0.0      # m
    y: float = 0.0      # m
    psi: float = 0.0    # rad, wrapped to (-pi, pi]
    u: float = 0.0      # m/s surge
    v: float = 0.0      # m/s sway
    r: float = 0.0      # rad/s yaw rate

    def __post_init__(self):
        if not all(math.isfinite(f) for f in self.as_array()):
            raise ValueError("vehicle state must be finite")
        self.psi = wrap_angle(self.psi)

    @property
    def eta(self) -> np.ndarray:
        return np.array([self.x, self.y, self.psi])

    @property
    def nu(self) -> np.ndarray:
        return np.array([self.u, self.v, self.r])

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.psi, self.u, self.v, self.r])


@dataclass
class VehicleParams:
    """Inertia (rigid body + added mass), damping, and the control-gain
    matrix mapping wrench to acceleration.

    inertia must be symmetric positive definite and B strictly positive
    definite; violations raise at construction time.
    """

    inertia: np.ndarray       # 3x3, kg / kg m^2
    lin_damping: np.ndarray   # 3x3, N s/m scale
    quad_damping: np.ndarray  # 3 coefficients, N s^2/m^2 scale
    B: np.ndarray             # 3x3, acceleration per unit wrench
    inertia_inv: np.ndarray = field(init=False)
    B_inv: np.ndarray = field(init=False)

    def __post_init__(self):
        self.inertia = np.asarray(self.inertia, dtype=float)
        self.lin_damping = np.asarray(self.lin_damping, dtype=float)
        self.quad_damping = np.asarray(self.quad_damping, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        if self.inertia.shape != (3, 3) or self.lin_damping.shape != (3, 3):
            raise ValueError("inertia and lin_damping must be 3x3")
        if self.quad_damping.shape != (3,):
            raise ValueError("quad_damping must have 3 entries")
        if self.B.shape != (3, 3):
            raise ValueError("B must be 3x3")
        if not np.allclose(self.inertia, self.inertia.T, atol=1e-12):
            raise ValueError("inertia must be symmetric")
        if np.any(np.linalg.eigvalsh(self.inertia) <= 0.0):
            raise ValueError("inertia must be positive definite")
        # strict positive definiteness of B via its symmetric part
        sym_b = 0.5 * (self.B + self.B.T)
        if np.any(np.linalg.eigvalsh(sym_b) <= 0.0):
            raise ValueError("B must be strictly positive definite")
        self.inertia_inv = np.linalg.inv(self.inertia)
        self.B_inv = np.linalg.inv(self.B)


def coriolis_vector(nu: np.ndarray, inertia: np.ndarray) -> np.ndarray:
    """C(nu) nu for the planar rigid-body + added-mass Coriolis matrix
    built from the (symmetric) inertia matrix."""
    u, v, r = nu
    m = inertia
    c13 = -(m[1, 0] * u + m[1, 1] * v + m[1, 2] * r)
    c23 = m[0, 0] * u + m[0, 1] * v + m[0, 2] * r
    return np.array([c13 * r, c23 * r, -c13 * u - c23 * v])


def damping_vector(nu: np.ndarray, params: VehicleParams) -> np.ndarray:
    """D(nu) nu with D(nu) = lin_damping + diag(quad_damping * |nu|)."""
    nu = np.asarray(nu, dtype=float)
    return params.lin_damping @ nu + params.quad_damping * np.abs(nu) * nu


def eval_fv(nu, params: VehicleParams) -> np.ndarray:
    """Unforced acceleration -M^-1 (C(nu) nu + D(nu) nu).

    The gravitational/restoring term is zero: motion is restricted to the
    horizontal plane and the vehicle is assumed neutrally trimmed.
    """
    nu = np.asarray(nu, dtype=float)
    return -params.inertia_inv @ (coriolis_vector(nu, params.inertia)
                                  + damping_vector(nu, params))


def kinematics_rhs(state: VehicleState) -> np.ndarray:
    """Navigation-frame pose rate: eta_dot = J(psi) nu."""
    return rotation_matrix(state.psi) @ state.nu


def dynamics_rhs(state: VehicleState, tau, params: VehicleParams) -> np.ndarray:
    """Body-frame acceleration: nu_dot = F_V(nu) + B tau."""
    tau = np.asarray(tau, dtype=float)
    return eval_fv(state.nu, params) + params.B @ tau


def config_matrix(alpha: float, l: float) -> np.ndarray:
    """3x4 matrix mapping per-thruster forces to the body wrench for the
    X layout: thrusters at orientation alpha with moment arm l.

    alpha outside (0, pi/2) or l <= 0 gives a rank-deficient geometry and
    is rejected.
    """
    if not 0.0 < alpha < math.pi / 2.0:
        raise ValueError(f"thruster orientation {alpha!r} outside (0, pi/2): "
                         "configuration matrix loses rank")
    if l <= 0.0:
        raise ValueError("moment arm must be positive")
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([
        [c, c, -c, -c],
        [-s, s, -s, s],
        [-l, l, l, -l],
    ])


@dataclass
class ThrusterGeometry:
    """Thruster orientation, moment arm, and the derived configuration
    matrix (full row rank for any valid alpha, l)."""

    alpha: float = math.pi / 4.0  # rad
    l: float = 0.2                # m
    t_conf: np.ndarray = field(init=False)

    def __post_init__(self):
        self.t_conf = config_matrix(self.alpha, self.l)


@dataclass
class ThrusterBank:
    """Thrust coefficients and the true / estimated fault weights.

    W_i = 1 healthy, 0 < W_i < 1 faulty, W_i = 0 failed. The estimate
    w_hat is floored at w_min so it stays invertible; an estimate at the
    floor marks the thruster as failed.
    """

    K: np.ndarray                  # N per unit command, 4 entries
    w_true: np.ndarray = None      # true weights, in [0, 1]
    w_hat: np.ndarray = None       # estimated weights, in [w_min, 1]
    u_max: float = 1.0             # command saturation
    w_min: float = 0.05            # floor on the estimate

    def __post_init__(self):
        self.K = np.asarray(self.K, dtype=float)
        if self.K.shape != (4,):
            raise ValueError("K must have 4 entries")
        if np.any(self.K <= 0.0):
            raise ValueError("thrust coefficients must be positive")
        if self.w_true is None:
            self.w_true = np.ones(4)
        if self.w_hat is None:
            self.w_hat = np.ones(4)
        self.w_true = np.asarray(self.w_true, dtype=float)
        self.w_hat = np.asarray(self.w_hat, dtype=float)
        if np.any(self.w_true < 0.0) or np.any(self.w_true > 1.0):
            raise ValueError("true weights must lie in [0, 1]")
        if np.any(self.w_hat < self.w_min - 1e-12) or np.any(self.w_hat > 1.0):
            raise ValueError("weight estimates must lie in [w_min, 1]")
        if not (0.0 < self.w_min < 1.0):
            raise ValueError("w_min must lie in (0, 1)")
        if self.u_max <= 0.0:
            raise ValueError("u_max must be positive")

    def failed_mask(self) -> np.ndarray:
        """Thrusters whose estimate has reached the floor."""
        return self.w_hat <= self.w_min + 1e-12

    def copy(self) -> "ThrusterBank":
        return ThrusterBank(self.K.copy(), self.w_true.copy(),
                            self.w_hat.copy(), self.u_max, self.w_min)
