"""Backstepping trajectory-tracking controller.

Two-stage design: a stabilization function turns the pose error into a
body-velocity set point, and the dynamic stage commands the wrench that
drives the velocity error down. Along the closed loop the weighted error
energy

    V2 = 1/2 e_eta' Gamma1 e_eta + 1/2 e_nu' Gamma2 e_nu

decays at least at the rate given by the smallest singular value of
Gamma1^-1 A1 and Gamma2^-1 A2, which `ControllerGains.decay_rate`
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .vehicle import (VehicleParams, VehicleState, eval_fv, kinematics_rhs, reals,
                      rotation_matrix, wrap_angle)

# d/dpsi of the rotation matrix equals J(psi) @ SPIN.
SPIN = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


@dataclass
class ControllerGains:
    """Diagonal gain sets for the kinematic (gamma1, a1) and dynamic
    (gamma2, a2) stages, stored as 3-vectors of diagonal entries."""

    gamma1: np.ndarray
    gamma2: np.ndarray
    a1: np.ndarray
    a2: np.ndarray

    def __post_init__(self):
        for name in ("gamma1", "gamma2", "a1", "a2"):
            vec = reals(getattr(self, name), f"gains.{name}")
            if vec.shape != (3,):
                raise ValueError(f"{name} must have 3 diagonal entries")
            if np.any(vec <= 0.0):
                raise ValueError(f"{name} entries must be positive")
            setattr(self, name, vec)
        with np.errstate(over="ignore"):
            ratios = (self.a1 / self.gamma1, self.a2 / self.gamma2,
                      self.gamma1 / self.gamma2)
        if not np.isfinite(ratios).all():
            raise ValueError("a gain ratio (a1/gamma1, a2/gamma2 or "
                             "gamma1/gamma2) overflows")

    @property
    def decay_rate(self) -> float:
        """Guaranteed exponential decay rate of the error energy: the
        minimum singular value over Gamma1^-1 A1 and Gamma2^-1 A2."""
        return float(min(np.min(self.a1 / self.gamma1),
                         np.min(self.a2 / self.gamma2)))


class ReferenceSample(NamedTuple):
    """Reference pose, velocity and acceleration at one instant; at a
    segment joint, the derivatives are right limits."""

    eta_d: np.ndarray
    eta_d_dot: np.ndarray
    eta_d_ddot: np.ndarray


class TrackingErrors(NamedTuple):
    e_eta: np.ndarray     # pose error, yaw wrapped to (-pi, pi]
    e_nu: np.ndarray      # velocity error relative to the stabilization function
    alpha_nu: np.ndarray  # body-velocity set point


def pose_error(eta, ref: ReferenceSample) -> np.ndarray:
    """eta_d - eta with the yaw component taken on the circle."""
    eta = np.asarray(eta, dtype=float)
    e = ref.eta_d - eta
    return np.array([e[0], e[1], wrap_angle(e[2])])


def stabilization_function(ref: ReferenceSample, e_eta, psi: float,
                           gains: ControllerGains) -> np.ndarray:
    """Velocity set point alpha_nu = J^-1 (eta_d_dot + Gamma1^-1 A1 e_eta)."""
    e_eta = np.asarray(e_eta, dtype=float)
    j_inv = rotation_matrix(psi).T
    return j_inv @ (ref.eta_d_dot + (gains.a1 / gains.gamma1) * e_eta)


def error_rate(state: VehicleState, ref: ReferenceSample) -> np.ndarray:
    """Pose-error rate eta_d_dot - J nu."""
    return ref.eta_d_dot - kinematics_rhs(state)


def stabilization_derivative(ref: ReferenceSample, state: VehicleState,
                             e_eta, gains: ControllerGains) -> np.ndarray:
    """Analytic time derivative of the stabilization function.

    Chain rule with psi_dot = r; at non-smooth reference samples the
    supplied derivatives are right limits, so the result is the
    right-hand derivative there.
    """
    j_inv = rotation_matrix(state.psi).T
    k1 = gains.a1 / gains.gamma1
    e_dot = error_rate(state, ref)
    alpha = stabilization_function(ref, e_eta, state.psi, gains)
    # -J^-1 Jdot J^-1 w reduces to -r * SPIN @ alpha for a planar rotation
    return j_inv @ (ref.eta_d_ddot + k1 * e_dot) - state.r * (SPIN @ alpha)


def tracking_errors(state: VehicleState, ref: ReferenceSample,
                    gains: ControllerGains) -> TrackingErrors:
    e_eta = pose_error(state.eta, ref)
    alpha = stabilization_function(ref, e_eta, state.psi, gains)
    return TrackingErrors(e_eta, alpha - state.nu, alpha)


def control_law(state: VehicleState, ref: ReferenceSample,
                errors: TrackingErrors, gains: ControllerGains,
                params: VehicleParams) -> np.ndarray:
    """Commanded wrench [tau_u, tau_v, tau_r]

        tau_c = B^-1 (alpha_nu_dot - F_V + Gamma2^-1 A2 e_nu
                      + Gamma2^-1 Gamma1 J e_eta).

    Affine in (e_eta, e_nu) for a fixed state and reference.
    """
    alpha_dot = stabilization_derivative(ref, state, errors.e_eta, gains)
    j = rotation_matrix(state.psi)
    fv = eval_fv(state.nu, params)
    inner = (alpha_dot - fv
             + (gains.a2 / gains.gamma2) * errors.e_nu
             + (gains.gamma1 / gains.gamma2) * (j @ errors.e_eta))
    return params.B_inv @ inner


def lyapunov_value(errors: TrackingErrors, gains: ControllerGains) -> float:
    """Weighted error energy V2 >= 0, zero only at zero error."""
    e1, e2 = errors.e_eta, errors.e_nu
    return float(0.5 * (e1 @ (gains.gamma1 * e1)) + 0.5 * (e2 @ (gains.gamma2 * e2)))
