import math

import numpy as np
import pytest

from rovftc.controller import (ControllerGains, ReferenceSample,
                               TrackingErrors, control_law, lyapunov_value,
                               pose_error, stabilization_derivative,
                               stabilization_function, tracking_errors)
from rovftc.vehicle import VehicleParams, VehicleState, rotation_matrix


def make_ref(eta_d, eta_d_dot=(0, 0, 0), eta_d_ddot=(0, 0, 0), smooth=True):
    return ReferenceSample(np.asarray(eta_d, float),
                           np.asarray(eta_d_dot, float),
                           np.asarray(eta_d_ddot, float), smooth)


class TestGains:
    def test_shipped_gains_have_unit_rate(self, gains):
        assert gains.decay_rate == pytest.approx(1.0)

    def test_rate_tracks_minimum_ratio(self):
        g = ControllerGains(gamma1=[2.0, 2.0, 2.0], gamma2=[1.0, 1.0, 1.0],
                            a1=[1.0, 4.0, 4.0], a2=[3.0, 3.0, 3.0])
        assert g.decay_rate == pytest.approx(0.5)

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(ValueError):
            ControllerGains(gamma1=[1, 1, 0], gamma2=[1, 1, 1],
                            a1=[1, 1, 1], a2=[1, 1, 1])


class TestStabilizationFunction:
    def test_rest_at_target(self, gains):
        out = stabilization_function(make_ref([0, 0, 0]), np.zeros(3), 0.3, gains)
        assert np.allclose(out, 0.0)

    def test_frame_rotation(self, gains):
        ref = make_ref([0, 0, math.pi / 2], eta_d_dot=[0, 1, 0])
        out = stabilization_function(ref, np.zeros(3), math.pi / 2, gains)
        assert np.allclose(out, [1.0, 0.0, 0.0], atol=1e-15)

    def test_unit_gains_pass_error_through(self):
        g = ControllerGains(gamma1=np.ones(3), gamma2=np.ones(3),
                            a1=np.ones(3), a2=np.ones(3))
        out = stabilization_function(make_ref([0.1, 0, 0]),
                                     np.array([0.1, 0.0, 0.0]), 0.0, g)
        assert np.allclose(out, [0.1, 0.0, 0.0])


class TestStabilizationDerivative:
    def test_static_equilibrium(self, gains):
        state = VehicleState()
        out = stabilization_derivative(make_ref([0, 0, 0]), state,
                                       np.zeros(3), gains)
        assert np.allclose(out, 0.0)

    def test_pure_rotation_term(self, gains):
        # error and error rate both zero, constant reference velocity:
        # only the frame-rate term survives
        psi = 0.8
        eta_d_dot = np.array([0.5, -0.2, 0.4])
        nu = rotation_matrix(psi).T @ eta_d_dot  # error rate exactly zero
        state = VehicleState(0.0, 0.0, psi, *nu)
        out = stabilization_derivative(make_ref([0, 0, psi], eta_d_dot),
                                       state, np.zeros(3), gains)
        j = rotation_matrix(psi)
        djdpsi = np.array([[-math.sin(psi), -math.cos(psi), 0],
                           [math.cos(psi), -math.sin(psi), 0],
                           [0, 0, 0]])
        expected = -j.T @ (state.r * djdpsi) @ j.T @ eta_d_dot
        assert np.allclose(out, expected, atol=1e-12)

    def test_finite_difference_oracle(self, gains):
        # analytic trajectory and reference, derivative checked against a
        # central difference of the stabilization function
        def eta(t):
            return np.array([math.sin(t), 0.5 * math.cos(t), 0.3 * math.sin(0.7 * t)])

        def eta_dot(t):
            return np.array([math.cos(t), -0.5 * math.sin(t), 0.21 * math.cos(0.7 * t)])

        def eta_d(t):
            return np.array([1.2 * math.sin(0.9 * t), 0.4 * t, 0.5 * math.sin(0.5 * t)])

        def eta_d_dot(t):
            return np.array([1.08 * math.cos(0.9 * t), 0.4, 0.25 * math.cos(0.5 * t)])

        def eta_d_ddot(t):
            return np.array([-0.972 * math.sin(0.9 * t), 0.0, -0.125 * math.sin(0.5 * t)])

        def state_at(t):
            pose = eta(t)
            nu = rotation_matrix(pose[2]).T @ eta_dot(t)
            return VehicleState(pose[0], pose[1], pose[2], *nu)

        def alpha_at(t):
            ref = make_ref(eta_d(t), eta_d_dot(t), eta_d_ddot(t))
            e = pose_error(eta(t), ref)
            return stabilization_function(ref, e, eta(t)[2], gains)

        h = 1e-4
        for t in np.linspace(0.2, 6.0, 25):
            ref = make_ref(eta_d(t), eta_d_dot(t), eta_d_ddot(t))
            e = pose_error(eta(t), ref)
            analytic = stabilization_derivative(ref, state_at(t), e, gains)
            fd = (alpha_at(t + h) - alpha_at(t - h)) / (2 * h)
            assert np.abs(analytic - fd).max() < 1e-4


class TestControlLaw:
    def test_hover_equilibrium(self, gains, params):
        state = VehicleState()
        ref = make_ref([0, 0, 0])
        errors = tracking_errors(state, ref, gains)
        tau = control_law(state, ref, errors, gains, params)
        assert np.allclose(tau, 0.0)

    def test_velocity_error_term(self):
        # isolate the velocity-error feedback with unit scale weights
        g = ControllerGains(gamma1=np.ones(3), gamma2=np.ones(3),
                            a1=np.ones(3), a2=[100.0, 100.0, 300.0])
        p = VehicleParams(inertia=np.eye(3), lin_damping=np.zeros((3, 3)),
                          quad_damping=np.zeros(3) + 1e-12, B=np.eye(3))
        state = VehicleState()
        ref = make_ref([0, 0, 0])
        errors = TrackingErrors(np.zeros(3), np.array([0.1, 0.0, 0.0]),
                                np.zeros(3))
        tau = control_law(state, ref, errors, g, p)
        assert np.allclose(tau, [10.0, 0.0, 0.0], atol=1e-12)

    def test_affine_in_errors(self, gains, params, rng):
        state = VehicleState(*rng.normal(0, 0.5, 6))
        ref = make_ref(rng.normal(0, 1, 3), rng.normal(0, 0.3, 3),
                       rng.normal(0, 0.1, 3))

        def tc(e_eta, e_nu):
            errors = TrackingErrors(e_eta, e_nu, np.zeros(3))
            return control_law(state, ref, errors, gains, params)

        zero = tc(np.zeros(3), np.zeros(3))
        e1, n1 = rng.normal(0, 1, 3), rng.normal(0, 1, 3)
        e2, n2 = rng.normal(0, 1, 3), rng.normal(0, 1, 3)
        lhs = tc(e1 + e2, n1 + n2)
        rhs = tc(e1, n1) + tc(e2, n2) - zero
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)

    def test_returns_wrench(self, gains, params):
        state = VehicleState(u=0.5)
        ref = make_ref([1, 0, 0], [0.2, 0, 0])
        errors = tracking_errors(state, ref, gains)
        tau = control_law(state, ref, errors, gains, params)
        assert tau.dtype == np.float64 and tau.shape == (3,)


class TestLyapunovValue:
    def test_zero_at_zero_error(self, gains):
        e = TrackingErrors(np.zeros(3), np.zeros(3), np.zeros(3))
        assert lyapunov_value(e, gains) == 0.0

    def test_direct_quadratic(self, gains):
        e = TrackingErrors(np.array([1.0, 0, 0]), np.zeros(3), np.zeros(3))
        assert lyapunov_value(e, gains) == pytest.approx(0.5)

    def test_positive_definite(self, gains, rng):
        for _ in range(50):
            e_eta, e_nu = rng.normal(0, 1, 3), rng.normal(0, 1, 3)
            v = lyapunov_value(TrackingErrors(e_eta, e_nu, np.zeros(3)), gains)
            assert v > 0.0


class TestPoseError:
    def test_yaw_error_wraps(self, gains):
        ref = make_ref([0, 0, math.pi - 0.05])
        e = pose_error(np.array([0, 0, -math.pi + 0.05]), ref)
        assert e[2] == pytest.approx(-0.1)

    def test_no_two_pi_jumps_across_step(self, gains):
        # heading drifting through the wrap keeps the error continuous
        errs = []
        for psi in np.linspace(math.pi - 0.2, math.pi + 0.2, 41):
            ref = make_ref([0, 0, math.pi])
            wrapped = math.atan2(math.sin(psi), math.cos(psi))
            errs.append(pose_error(np.array([0, 0, wrapped]), ref)[2])
        steps = np.abs(np.diff(errs))
        assert steps.max() < 0.05
