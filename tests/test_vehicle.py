import contextlib
import math

import numpy as np
import pytest

from rovftc.allocation import achieved_wrench
from rovftc.vehicle import (ThrusterBank, VehicleParams, VehicleState,
                            config_matrix, coriolis_vector, dynamics_rhs,
                            eval_fv, kinematics_rhs, positive_definite,
                            rotation_matrix, wrap_angle)


def test_wrap_angle_range():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.3) == pytest.approx(0.3)
    assert wrap_angle(2 * math.pi + 0.3) == pytest.approx(0.3)
    for a in np.linspace(-20, 20, 401):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-12)
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-12)


class TestRotationMatrix:
    def test_identity_at_zero(self):
        assert np.allclose(rotation_matrix(0.0), np.eye(3))

    def test_quarter_turn(self):
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(rotation_matrix(math.pi / 2), expected, atol=1e-15)

    def test_orthogonal(self):
        j = rotation_matrix(0.7)
        assert np.abs(j @ j.T - np.eye(3)).max() < 1e-12
        assert np.linalg.det(j) == pytest.approx(1.0)

    def test_inverse_is_transpose_random(self, rng):
        for psi in rng.uniform(-10, 10, 1000):
            j = rotation_matrix(psi)
            assert np.abs(j.T @ j - np.eye(3)).max() < 1e-12


class TestKinematics:
    def test_aligned_frames(self):
        s = VehicleState(u=1.0)
        assert np.allclose(kinematics_rhs(s), [1.0, 0.0, 0.0])

    def test_rotated_frame(self):
        s = VehicleState(psi=math.pi / 2, u=1.0)
        assert np.allclose(kinematics_rhs(s), [0.0, 1.0, 0.0], atol=1e-15)

    def test_yaw_rate_passes_through(self, rng):
        for psi in rng.uniform(-3, 3, 10):
            s = VehicleState(psi=psi, r=0.05)
            out = kinematics_rhs(s)
            assert out[2] == pytest.approx(0.05)
            assert np.allclose(out[:2], 0.0, atol=1e-15)


class TestEvalFv:
    def test_zero_at_rest(self, params):
        assert np.allclose(eval_fv(np.zeros(3), params), 0.0)

    def test_decoupled_surge_damping(self):
        p = VehicleParams(inertia=np.diag([10.0, 12.0, 0.5]),
                          lin_damping=np.diag([2.0, 3.0, 0.1]),
                          quad_damping=np.zeros(3) + 1e-12,
                          B=np.diag([0.1, 0.1, 2.0]))
        out = eval_fv([1.0, 0.0, 0.0], p)
        assert out[0] == pytest.approx(-2.0 / 10.0)
        assert np.allclose(out[1:], 0.0, atol=1e-12)

    def test_against_independent_evaluation(self, params):
        # straight-line recomputation with scalar arithmetic, kept separate
        # from the module's matrix formulation
        u, v, r = 1.0, 1.0, 0.1
        m = params.inertia
        m11, m22, m33 = m[0, 0], m[1, 1], m[2, 2]
        c13 = -(m22 * v)
        c23 = m11 * u
        cn = [c13 * r, c23 * r, -c13 * u - c23 * v]
        lin = params.lin_damping
        q = params.quad_damping
        dn = [lin[0, 0] * u + q[0] * abs(u) * u,
              lin[1, 1] * v + q[1] * abs(v) * v,
              lin[2, 2] * r + q[2] * abs(r) * r]
        expected = [-(cn[0] + dn[0]) / m11,
                    -(cn[1] + dn[1]) / m22,
                    -(cn[2] + dn[2]) / m33]
        assert np.allclose(eval_fv([u, v, r], params), expected, rtol=1e-12)

    def test_jacobian_matches_analytic(self, params, rng):
        # finite differences against the hand-derived Jacobian, sampled
        # away from the |nu| kink at zero
        m = params.inertia
        lin = params.lin_damping
        q = params.quad_damping
        m_inv = params.inertia_inv

        def analytic_jacobian(nu):
            u, v, r = nu
            c13 = -(m[1, 0] * u + m[1, 1] * v + m[1, 2] * r)
            c23 = m[0, 0] * u + m[0, 1] * v + m[0, 2] * r
            jc = np.array([
                [-m[1, 0] * r, -m[1, 1] * r, -m[1, 2] * r + c13],
                [m[0, 0] * r, m[0, 1] * r, m[0, 2] * r + c23],
                [m[1, 0] * u - c13 - m[0, 0] * v,
                 m[1, 1] * u - m[0, 1] * v - c23,
                 m[1, 2] * u - m[0, 2] * v],
            ])
            return -m_inv @ (jc + lin + np.diag(2.0 * q * np.abs(nu)))

        h = 1e-6
        for _ in range(100):
            nu = rng.uniform(0.1, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
            jac_fd = np.zeros((3, 3))
            for k in range(3):
                dv = np.zeros(3)
                dv[k] = h
                jac_fd[:, k] = (eval_fv(nu + dv, params)
                                - eval_fv(nu - dv, params)) / (2 * h)
            jac = analytic_jacobian(nu)
            assert np.abs(jac_fd - jac).max() <= 1e-5 * max(1.0, np.abs(jac).max())


class TestConfigMatrix:
    def test_direct_substitution(self):
        t = config_matrix(math.pi / 4, 0.2)
        assert np.allclose(t[:, 0], [0.7071, -0.7071, -0.2], atol=1e-4)

    def test_full_row_rank(self, rng):
        for _ in range(20):
            alpha = rng.uniform(0.05, math.pi / 2 - 0.05)
            l = rng.uniform(0.05, 1.0)
            assert np.linalg.matrix_rank(config_matrix(alpha, l)) == 3

    def test_sign_pattern(self):
        t = config_matrix(0.6, 0.3)
        # surge row: first pair equal, second pair their negation
        assert t[0, 0] == t[0, 1] == -t[0, 2] == -t[0, 3]
        # sway row: alternating
        assert t[1, 0] == -t[1, 1] == t[1, 2] == -t[1, 3]
        # yaw row: outer pair equal, inner pair their negation
        assert t[2, 0] == -t[2, 1] == -t[2, 2] == t[2, 3]
        # yaw row sums to zero by symmetry
        assert t[2].sum() == pytest.approx(0.0)

    @pytest.mark.parametrize("alpha", [0.0, math.pi / 2, -0.1, 2.0])
    def test_rejects_degenerate_orientation(self, alpha):
        with pytest.raises(ValueError):
            config_matrix(alpha, 0.2)

    def test_rejects_nonpositive_arm(self):
        with pytest.raises(ValueError):
            config_matrix(math.pi / 4, 0.0)


class TestThrustForces:
    def test_failed_thruster_produces_nothing(self, geom):
        bank = ThrusterBank(K=np.full(4, 40.0), w_true=[0.0, 1, 1, 1])
        # a command on the failed thruster alone delivers no wrench
        assert np.all(achieved_wrench([0.8, 0, 0, 0], bank, geom) == 0.0)
        # and adds nothing to what the healthy ones deliver
        assert np.array_equal(achieved_wrench([0.8, 0.2, 0.2, 0.2], bank, geom),
                              achieved_wrench([0.0, 0.2, 0.2, 0.2], bank, geom))
        assert np.any(achieved_wrench([0.0, 0.2, 0.2, 0.2], bank, geom) != 0.0)


class TestDynamics:
    def test_equilibrium(self, params):
        assert np.allclose(dynamics_rhs(VehicleState(), np.zeros(3), params), 0.0)

    def test_pure_gain(self):
        p = VehicleParams(inertia=np.eye(3), lin_damping=np.eye(3),
                          quad_damping=np.ones(3), B=np.diag([2.0, 3.0, 4.0]))
        out = dynamics_rhs(VehicleState(), [1.0, 0.0, 0.0], p)
        assert np.allclose(out, [2.0, 0.0, 0.0])

    def test_linear_in_wrench(self, params, rng):
        for _ in range(20):
            s = VehicleState(*rng.normal(0, 1, 6))
            tau = rng.normal(0, 10, 3)
            diff = dynamics_rhs(s, tau, params) - eval_fv(s.nu, params)
            assert np.allclose(diff, params.B @ tau, rtol=1e-12, atol=1e-12)

    def test_energy_decays_unforced(self, params, rng):
        # kinetic-energy proxy is non-increasing when coasting
        nu = rng.uniform(-1, 1, 3)
        m = params.inertia
        dt = 0.01
        energy = 0.5 * nu @ m @ nu
        for _ in range(500):
            k1 = eval_fv(nu, params)
            k2 = eval_fv(nu + 0.5 * dt * k1, params)
            k3 = eval_fv(nu + 0.5 * dt * k2, params)
            k4 = eval_fv(nu + dt * k3, params)
            nu = nu + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            e_next = 0.5 * nu @ m @ nu
            assert e_next <= energy + 1e-12
            energy = e_next

    def test_coriolis_power_free(self, params, rng):
        for _ in range(50):
            nu = rng.normal(0, 1, 3)
            assert nu @ coriolis_vector(nu, params.inertia) == pytest.approx(0.0, abs=1e-12)


class TestStateInvariants:
    def test_yaw_wrapped_on_construction(self):
        s = VehicleState(psi=3 * math.pi)
        assert -math.pi < s.psi <= math.pi

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            VehicleState(x=float("nan"))

    def test_round_trip_array(self, rng):
        arr = rng.normal(0, 1, 6)
        arr[2] = 0.4
        assert np.allclose(VehicleState(*arr).as_array(), arr)


class TestParamValidation:
    def test_rejects_indefinite_inertia(self):
        with pytest.raises(ValueError):
            VehicleParams(inertia=np.diag([1.0, -1.0, 1.0]),
                          lin_damping=np.eye(3), quad_damping=np.ones(3),
                          B=np.eye(3))

    def test_rejects_asymmetric_inertia(self):
        m = np.eye(3)
        m[0, 1] = 0.5
        with pytest.raises(ValueError):
            VehicleParams(inertia=m, lin_damping=np.eye(3),
                          quad_damping=np.ones(3), B=np.eye(3))

    def test_rejects_indefinite_gain(self):
        with pytest.raises(ValueError):
            VehicleParams(inertia=np.eye(3), lin_damping=np.eye(3),
                          quad_damping=np.ones(3), B=np.diag([1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("lin, quad, valid", [
        (np.zeros((3, 3)), np.zeros(3), True),
        ([[0.7, 5.0, 0.0], [-5.0, 1.1, 0.0], [0.0, 0.0, 0.05]], np.ones(3), True),
        ([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]], np.ones(3), True),
        # every leading minor is 0; the trailing 2x2 minor is -3
        ([[0.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]], np.ones(3), False),
        ([-1.0, 1.1, 0.05], np.ones(3), False),
        (np.eye(3), [-1.0, 3.0, 0.5], False),
        (np.eye(3), [1.0, math.nan, 0.5], False),
    ])
    def test_damping_must_dissipate(self, lin, quad, valid):
        with (contextlib.nullcontext() if valid
              else pytest.raises(ValueError, match="damping")):
            VehicleParams(inertia=np.eye(3), lin_damping=np.array(lin),
                          quad_damping=np.array(quad), B=np.eye(3))

    def test_damping_check_decides_as_eigvalsh(self, rng):
        """Each random symmetric matrix plus a skew part as lin_damping:
        accepted exactly when eigvalsh finds the symmetric part positive
        semidefinite."""
        skew = np.triu(np.ones((3, 3)), 1) - np.tril(np.ones((3, 3)), -1)
        mats = random_symmetric(rng, 500)
        verdicts = []
        for m in mats:
            try:
                VehicleParams(inertia=np.eye(3), lin_damping=m + skew,
                              quad_damping=np.ones(3), B=np.eye(3))
                verdicts.append(True)
            except ValueError as exc:
                assert "lin_damping must be positive semidefinite" in str(exc)
                verdicts.append(False)
        oracle = [np.linalg.eigvalsh(m).min() >= 0.0 for m in mats]
        assert verdicts == oracle
        assert 0 < sum(oracle) < len(oracle)

    def test_bank_weight_bounds(self):
        with pytest.raises(ValueError):
            ThrusterBank(K=np.full(4, 40.0), w_true=[1.2, 1, 1, 1])
        with pytest.raises(ValueError):
            ThrusterBank(K=np.full(4, 40.0), w_hat=[0.01, 1, 1, 1])
        with pytest.raises(ValueError):
            ThrusterBank(K=[40.0, -1.0, 40.0, 40.0])


def random_symmetric(rng, n):
    """n seeded symmetric 3x3 matrices with random eigenvalue signs and
    every |eigenvalue| at least 1e-6 of the largest."""
    out = []
    while len(out) < n:
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        lam = (rng.choice([-1.0, 1.0], 3, p=[0.3, 0.7])
               * 10.0 ** rng.uniform(-5, 1, 3))
        if np.abs(lam).min() >= 1e-6 * np.abs(lam).max():
            out.append((q * lam) @ q.T)
    return out


class TestPositiveDefinite:
    @pytest.mark.parametrize("sign", [(1, 1, 1), (-1, 1, 1), (1, -1, 1),
                                      (1, 1, -1), (1, -1, -1)])
    def test_sign_of_each_pivot(self, sign):
        l = np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [-2.0, 0.25, 1.0]])
        d = np.array([4.0, 2.0, 0.5]) * sign
        assert positive_definite((l * d) @ l.T) == (min(sign) > 0)

    def test_model_checks_decide_as_eigvalsh(self, rng):
        """Each random matrix as the inertia, and as the symmetric part of
        an asymmetric B: accepted exactly when eigvalsh finds it
        positive definite."""
        skew = np.triu(np.ones((3, 3)), 1) - np.tril(np.ones((3, 3)), -1)
        verdicts = {"inertia": [], "B": []}
        mats = random_symmetric(rng, 500)
        for m in mats:
            for name, given in (("inertia", m), ("B", m + skew)):
                kwargs = {"inertia": np.eye(3), "B": np.eye(3), name: given}
                try:
                    VehicleParams(lin_damping=np.eye(3),
                                  quad_damping=np.ones(3), **kwargs)
                    verdicts[name].append(True)
                except ValueError as exc:
                    assert "positive definite" in str(exc)
                    verdicts[name].append(False)
        oracle = [np.linalg.eigvalsh(m).min() > 0.0 for m in mats]
        assert verdicts["inertia"] == verdicts["B"] == oracle
        assert 0 < sum(oracle) < len(oracle)  # both answers are exercised

    @pytest.mark.parametrize("m", [
        [[0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    ])
    def test_zero_pivot_is_not_divided_by(self, m):
        assert not positive_definite(np.array(m))

    @pytest.mark.parametrize("name", ["inertia", "B"])
    @pytest.mark.parametrize("where", [(0, 0), (1, 1), (2, 2), (1, 2)])
    def test_nan_entry_rejected(self, name, where):
        mats = {"inertia": np.eye(3), "B": np.eye(3)}
        mats[name][where] = mats[name][where[::-1]] = math.nan
        # a ValueError of the model's own, not numpy's LinAlgError
        with pytest.raises(ValueError, match=f"^vehicle.{name}: must be finite"):
            VehicleParams(lin_damping=np.eye(3), quad_damping=np.ones(3),
                          **mats)
