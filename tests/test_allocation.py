import math

import numpy as np
import pytest

from rovftc.allocation import achieved_wrench, allocate, pseudo_inverse
from rovftc.vehicle import ThrusterBank, ThrusterGeometry, config_matrix

# minimum-norm split of a unit surge demand over the X layout
SURGE_SHARE = 1.0 / (4.0 * math.cos(math.pi / 4.0))  # 0.35355339...


class TestPseudoInverse:
    def test_right_inverse(self, geom):
        pinv = pseudo_inverse(geom.t_conf)
        assert np.abs(geom.t_conf @ pinv - np.eye(3)).max() < 1e-10

    def test_minimum_norm_against_normal_equations(self, geom, rng):
        # independent oracle: solve T T' z = tau, F = T' z
        t = geom.t_conf
        pinv = pseudo_inverse(t)
        for _ in range(50):
            tau = rng.normal(0, 10, 3)
            z = np.linalg.solve(t @ t.T, tau)
            assert np.allclose(pinv @ tau, t.T @ z, rtol=1e-12, atol=1e-12)

    def test_unit_surge_split(self, geom):
        forces = pseudo_inverse(geom.t_conf) @ np.array([1.0, 0.0, 0.0])
        expected = SURGE_SHARE * np.array([1.0, 1.0, -1.0, -1.0])
        assert np.allclose(forces, expected, atol=1e-12)
        assert forces[0] == pytest.approx(0.35355, abs=1e-5)

    def test_scaling(self, geom):
        t = geom.t_conf
        assert np.allclose(pseudo_inverse(2.0 * t), pseudo_inverse(t) / 2.0,
                           rtol=1e-12)

    def test_rejects_rank_deficient(self):
        flat = np.array([[1.0, 1.0, -1.0, -1.0],
                         [-1.0, 1.0, -1.0, 1.0],
                         [0.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            pseudo_inverse(flat)


class TestAllocate:
    def test_exact_surge_commands(self, bank, geom):
        res = allocate(np.array([1.0, 0.0, 0.0]), bank, geom)
        expected = SURGE_SHARE / 40.0 * np.array([1.0, 1.0, -1.0, -1.0])
        assert np.allclose(res.u_cmd, expected, atol=1e-12)
        assert res.u_cmd[0] == pytest.approx(0.008839, abs=1e-6)
        assert not res.saturated

    def test_round_trip_identity_weights(self, bank, geom, rng):
        for _ in range(50):
            tau = rng.normal(0, 5, 3)
            res = allocate(tau, bank, geom)
            back = achieved_wrench(res.u_cmd, bank, geom)
            assert np.abs(back - tau).max() < 1e-9

    def test_estimate_inflates_command(self, bank, geom):
        tau = np.array([1.0, 0.5, 0.1])
        base = allocate(tau, bank, geom)
        bank.w_hat = np.array([1.0, 0.5, 1.0, 1.0])
        halved = allocate(tau, bank, geom)
        assert halved.u_cmd[1] == pytest.approx(2.0 * base.u_cmd[1])
        others = [0, 2, 3]
        assert np.allclose(halved.u_cmd[others], base.u_cmd[others])

    def test_linear_before_saturation(self, bank, geom, rng):
        t1, t2 = rng.normal(0, 2, 3), rng.normal(0, 2, 3)
        r1 = allocate(t1, bank, geom).u_raw
        r2 = allocate(t2, bank, geom).u_raw
        r12 = allocate(t1 + 0.5 * t2, bank, geom).u_raw
        assert np.allclose(r12, r1 + 0.5 * r2, rtol=1e-12, atol=1e-12)

    def test_saturation_clamps(self, bank, geom):
        res = allocate(np.array([500.0, 0.0, 0.0]), bank, geom)
        assert res.saturated
        assert np.abs(res.u_cmd).max() == bank.u_max
        assert np.abs(res.u_raw).max() > bank.u_max

    def test_rejects_estimate_below_floor(self, bank, geom):
        bank.w_hat = np.array([1.0, 0.02, 1.0, 1.0])
        with pytest.raises(ValueError):
            allocate(np.array([1.0, 0.0, 0.0]), bank, geom)

    def test_floored_thruster_excluded(self, bank, geom, rng):
        # an estimate at the floor marks the thruster failed: it gets no
        # command and the remaining three meet the wrench exactly
        bank.w_hat = np.array([1.0, bank.w_min, 1.0, 1.0])
        bank.w_true = np.array([1.0, 0.0, 1.0, 1.0])
        for _ in range(20):
            tau = rng.normal(0, 2, 3)
            res = allocate(tau, bank, geom)
            assert res.u_cmd[1] == 0.0
            back = achieved_wrench(res.u_cmd, bank, geom)
            assert np.abs(back - tau).max() < 1e-9


class TestAchievedWrench:
    def test_zero_command(self, bank, geom):
        assert np.allclose(achieved_wrench(np.zeros(4), bank, geom), 0.0)

    def test_deficit_direction_single_thruster(self, bank, geom):
        # first thruster at half output: the lost wrench is half its
        # commanded force along its own column
        tau_c = np.array([1.0, 0.0, 0.0])
        res = allocate(tau_c, bank, geom)
        bank.w_true = np.array([0.5, 1.0, 1.0, 1.0])
        tau = achieved_wrench(res.u_cmd, bank, geom)
        col = geom.t_conf[:, 0]
        expected = 0.5 * bank.K[0] * res.u_cmd[0] * col
        assert np.allclose(tau_c - tau, expected, rtol=1e-12, atol=1e-12)

    def test_deficit_direction_all_banks(self, geom, rng):
        # foundation of the sign-signature identification: a small weight
        # reduction rho on thruster i removes rho*K_i*u_i*(column i); a
        # failed thruster (rho = 1) gives no force at all
        for i in range(4):
            for sign in (-1.0, 1.0):
                bank = ThrusterBank(K=np.full(4, 40.0))
                tau_c = rng.normal(0, 2, 3)
                res = allocate(tau_c, bank, geom)
                u = res.u_cmd.copy()
                u[i] = sign * abs(u[i]) if u[i] != 0 else sign * 0.1
                healthy = achieved_wrench(u, bank, geom)
                for rho in (0.2, 1.0):
                    bank.w_true[i] = 1.0 - rho
                    faulted = achieved_wrench(u, bank, geom)
                    expected = rho * bank.K[i] * u[i] * geom.t_conf[:, i]
                    assert np.allclose(healthy - faulted, expected,
                                       rtol=1e-12, atol=1e-12)


def test_geometry_must_be_nondegenerate():
    with pytest.raises(ValueError):
        ThrusterGeometry(alpha=0.0, l=0.2)
    t = config_matrix(0.3, 0.5)
    assert np.linalg.matrix_rank(t) == 3
