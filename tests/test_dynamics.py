"""Dynamics unit tests against independent closed-form oracles."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swarmlink.dynamics import (PidGains, UavParams, UavState,
                                hover_rotor_speed, normalize_angle,
                                pid_control, rotor_thrust,
                                rotor_spin_dynamics, step_states)

PARAMS = UavParams(mass=1.0, thrust_coeff=1e-5)
ZERO = np.zeros(3)


def rest(position=ZERO):
    """One body at rest, as the (position, velocity, euler, euler_rates)
    arrays that step_states takes."""
    return np.asarray(position, float), ZERO, ZERO, ZERO


def accels(euler, thrust):
    """Linear acceleration of one body at attitude ``euler``: one
    step_states step from rest with dt = 1.0, so the new velocity equals
    the acceleration exactly."""
    return step_states(ZERO, ZERO, np.asarray(euler, float), ZERO, thrust,
                       ZERO, PARAMS, 1.0)[1]


def test_normalize_angle_basic():
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(np.pi) == pytest.approx(np.pi)
    assert normalize_angle(-np.pi) == pytest.approx(np.pi)
    assert normalize_angle(3 * np.pi) == pytest.approx(np.pi)
    assert normalize_angle(2 * np.pi) == pytest.approx(0.0, abs=1e-12)


@given(st.floats(-1000, 1000))
def test_normalize_angle_range_and_congruence(angle):
    wrapped = float(normalize_angle(angle))
    assert -np.pi < wrapped <= np.pi
    # wrapped differs from the input by an integer multiple of 2*pi
    k = (angle - wrapped) / (2 * np.pi)
    assert abs(k - round(k)) < 1e-6


def test_rotor_thrust_quadratic():
    assert rotor_thrust(PARAMS, 0.0) == 0.0
    assert rotor_thrust(PARAMS, 100.0) == pytest.approx(1e-5 * 100.0 ** 2)
    # doubling speed quadruples thrust
    assert rotor_thrust(PARAMS, 200.0) == pytest.approx(
        4.0 * rotor_thrust(PARAMS, 100.0))


def test_hover_rotor_speed_balances_weight():
    omega = hover_rotor_speed(PARAMS)
    total = 4.0 * rotor_thrust(PARAMS, omega)
    assert total == pytest.approx(PARAMS.mass * PARAMS.gravity, rel=1e-12)


def test_rotor_spin_dynamics_signs():
    # no torque, moving air -> decelerates; torque above drag -> accelerates
    assert rotor_spin_dynamics(PARAMS, 100.0, 0.0, 2.0) < 0
    drag = 0.5 * PARAMS.air_density * 4.0
    assert rotor_spin_dynamics(PARAMS, 100.0, drag, 2.0) == pytest.approx(0.0)
    assert rotor_spin_dynamics(PARAMS, 100.0, 1.0, 0.0) == pytest.approx(
        1.0 / PARAMS.rotor_inertia)


def test_hover_is_fixed_point():
    hover = PARAMS.mass * PARAMS.gravity
    np.testing.assert_allclose(accels(ZERO, hover), 0.0, atol=1e-12)
    start = rest((1.0, 2.0, 3.0))
    stepped = start
    for _ in range(100):
        stepped = step_states(*stepped, hover, ZERO, PARAMS, 0.01)
    np.testing.assert_allclose(stepped[0], start[0], atol=1e-9)
    np.testing.assert_allclose(stepped[1], 0.0, atol=1e-12)
    np.testing.assert_array_equal(stepped[2:], 0.0)


def test_level_thrust_is_vertical():
    lin = accels(ZERO, 20.0)
    np.testing.assert_allclose(lin[:2], 0.0, atol=1e-15)
    assert lin[2] == pytest.approx(20.0 / PARAMS.mass - PARAMS.gravity)


def test_pitch_produces_forward_accel():
    # positive pitch at zero yaw/roll tilts the thrust onto +x
    theta = 0.2
    u = 15.0
    lin = accels([0.0, theta, 0.0], u)
    assert lin[0] == pytest.approx(u * math.sin(theta) / PARAMS.mass)
    assert lin[1] == pytest.approx(0.0, abs=1e-15)
    assert lin[2] == pytest.approx(u * math.cos(theta) / PARAMS.mass
                                   - PARAMS.gravity)


def test_roll_produces_lateral_accel():
    phi = 0.2
    u = 15.0
    lin = accels([0.0, 0.0, phi], u)
    # at zero yaw the x-channel vanishes and y picks up -sin(phi)
    assert lin[0] == pytest.approx(0.0, abs=1e-15)
    assert lin[1] == pytest.approx(-u * math.sin(phi) / PARAMS.mass)


def test_free_fall_matches_closed_form():
    """Zero thrust from rest: semi-implicit Euler gives
    z(T) = -g*dt^2*(n*(n+1)/2), within O(dt) of -g*T^2/2."""
    dt, n = 0.001, 2000
    state = rest()
    for _ in range(n):
        state = step_states(*state, 0.0, ZERO, PARAMS, dt)
    g = PARAMS.gravity
    exact_euler = -g * dt * dt * n * (n + 1) / 2.0
    assert state[0][2] == pytest.approx(exact_euler, rel=1e-12)
    t = n * dt
    continuous = -0.5 * g * t * t
    # global Euler error bound: |z_h - z| <= g*t*dt/2
    assert abs(state[0][2] - continuous) <= 0.5 * g * t * dt + 1e-12


def test_step_states_semi_implicit_order():
    # one step: velocity updates first, position uses the new velocity
    position, velocity, _, _ = step_states(*rest(), 0.0, ZERO, PARAMS, 0.1)
    assert velocity[2] == pytest.approx(-PARAMS.gravity * 0.1)
    assert position[2] == pytest.approx(-PARAMS.gravity * 0.01)


def test_step_states_deterministic():
    state = (np.array([1.0, -2.0, 3.0]), np.array([0.1, 0.2, -0.3]),
             np.array([0.5, -0.2, 0.1]), np.array([0.01, 0.02, 0.03]))
    moments = np.array([0.1, 0.2, 0.3])
    a = step_states(*state, 12.0, moments, PARAMS, 0.01)
    b = step_states(*state, 12.0, moments, PARAMS, 0.01)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_pid_control_terms():
    gains = PidGains(kp=2.0, kd=3.0, ki=0.5)
    assert pid_control(1.0, 0.0, 0.0, gains) == 2.0
    assert pid_control(0.0, 1.0, 0.0, gains) == 3.0
    assert pid_control(0.0, 0.0, 1.0, gains) == 0.5
    assert pid_control(1.0, 1.0, 1.0, gains) == 5.5


def test_validation_errors():
    with pytest.raises(ValueError):
        UavParams(mass=-1.0, thrust_coeff=1e-5)
    with pytest.raises(ValueError):
        PidGains(kp=0.0, kd=1.0)
    with pytest.raises(ValueError):
        rotor_thrust(PARAMS, -1.0)
    with pytest.raises(ValueError):
        UavState(position=np.zeros(2), velocity=np.zeros(3),
                 euler=np.zeros(3), euler_rates=np.zeros(3))
    with pytest.raises(ValueError):
        step_states(*rest(), PARAMS.mass * PARAMS.gravity, ZERO, PARAMS, 0.0)
