"""Thrust allocation: map a commanded body wrench to per-thruster commands
through the minimum-norm right inverse of the configuration matrix, with
per-thruster compensation by the inverse estimated fault weights.

Thrusters whose weight estimate sits at the floor are treated as failed:
they receive zero command and the demand is redistributed over the
remaining columns. With fewer than three effective thrusters the wrench
is matched in the least-squares sense only.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .vehicle import ThrusterBank, ThrusterGeometry


class AllocationResult(NamedTuple):
    u_raw: np.ndarray    # commands before saturation
    u_cmd: np.ndarray    # commands clamped to [-u_max, u_max]
    saturated: bool      # any command hit the limit


def pseudo_inverse(t_conf: np.ndarray) -> np.ndarray:
    """Minimum-norm right inverse T^T (T T^T)^-1 of the 3x4 configuration
    matrix. Rejects rank-deficient geometry."""
    t_conf = np.asarray(t_conf, dtype=float)
    gram = t_conf @ t_conf.T
    if np.linalg.matrix_rank(gram, tol=1e-10 * max(1.0, np.abs(gram).max())) < 3:
        raise ValueError("configuration matrix is rank deficient; "
                         "cannot form the right inverse")
    return t_conf.T @ np.linalg.inv(gram)


def _distribution_matrix(t_conf: np.ndarray, active: np.ndarray) -> np.ndarray:
    """4x3 matrix sending a wrench to per-thruster forces, with inactive
    columns zeroed. Full bank uses the closed-form right inverse; reduced
    banks fall back to the SVD pseudo-inverse (least squares when the
    remaining columns no longer span the wrench space)."""
    if active.all():
        return pseudo_inverse(t_conf)
    dist = np.zeros((4, 3))
    idx = np.flatnonzero(active)
    if idx.size == 0:
        return dist
    dist[idx, :] = np.linalg.pinv(t_conf[:, idx])
    return dist


def allocate(tau_c, bank: ThrusterBank, geom: ThrusterGeometry) -> AllocationResult:
    """Per-thruster commands u = W_hat^-1 K^-1 T^+ tau_c, clamped to the
    saturation limits.

    Raises if any estimate is below the floor (an invariant breach
    upstream). Estimates exactly at the floor mark failed thrusters and
    are excluded from the distribution.
    """
    tau = np.asarray(tau_c, dtype=float)
    if np.any(bank.w_hat < bank.w_min - 1e-12):
        raise ValueError("weight estimate below the floor w_min")
    active = ~bank.failed_mask()
    forces = _distribution_matrix(geom.t_conf, active) @ tau
    u_raw = np.where(active, forces / (bank.K * np.where(active, bank.w_hat, 1.0)), 0.0)
    u_cmd = np.clip(u_raw, -bank.u_max, bank.u_max)
    return AllocationResult(u_raw, u_cmd, bool(np.any(np.abs(u_raw) > bank.u_max)))


def achieved_wrench(u_cmd, bank: ThrusterBank, geom: ThrusterGeometry) -> np.ndarray:
    """Wrench [tau_u, tau_v, tau_r] actually delivered by the bank:
    T_conf K W u. Equals the commanded wrench when the estimate matches
    the true weights and no command saturates."""
    u_cmd = np.asarray(u_cmd, dtype=float)
    return geom.t_conf @ (bank.K * bank.w_true * u_cmd)
