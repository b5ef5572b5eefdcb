"""Quadrotor rigid-body model (X-flyer) with rotor thrust, drag torque and
PD/PID control primitives.

All functions are pure: they take value types and return new values, so they
are safe to call from any number of threads. :func:`step_states` advances N
bodies held as (N, 3) arrays in one pass; :func:`step_state` is the same
code on one :class:`UavState`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "UavState",
    "UavParams",
    "PidGains",
    "ControlInput",
    "normalize_angle",
    "rotor_thrust",
    "rotor_spin_dynamics",
    "rigid_body_accel",
    "step_state",
    "step_states",
    "pid_control",
    "hover_rotor_speed",
]


def normalize_angle(angle):
    """Wrap an angle (scalar or array) into (-pi, pi]."""
    wrapped = np.mod(-np.asarray(angle) + np.pi, 2.0 * np.pi)
    return -(wrapped - np.pi)


def _vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class UavState:
    """Full rigid-body state of one quadrotor.

    ``euler`` is ordered (yaw, pitch, roll) about the z, y and x axes.
    Angles are kept in (-pi, pi].
    """

    position: np.ndarray
    velocity: np.ndarray
    euler: np.ndarray
    euler_rates: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", _vec3(self.position))
        object.__setattr__(self, "velocity", _vec3(self.velocity))
        object.__setattr__(self, "euler", normalize_angle(_vec3(self.euler)))
        object.__setattr__(self, "euler_rates", _vec3(self.euler_rates))

    @classmethod
    def at_rest(cls, position=(0.0, 0.0, 0.0)) -> "UavState":
        z = np.zeros(3)
        return cls(position=np.asarray(position, float), velocity=z,
                   euler=z, euler_rates=z)


@dataclass(frozen=True)
class UavParams:
    """Physical constants of one quadrotor.

    Note: the drag torque used by :func:`rotor_spin_dynamics` is the bare
    ``0.5 * air_density * v**2`` expression (no area or drag-coefficient
    factor), which is dimensionally odd but kept for model fidelity. The
    full airflow drag force lives in :mod:`swarmlink.wind`.
    """

    mass: float
    thrust_coeff: float
    gravity: float = 9.81
    rotor_inertia: float = 1.0e-4
    air_density: float = 1.225
    rotor_disc_area: float = 0.05

    def __post_init__(self):
        for name in ("mass", "thrust_coeff", "gravity", "rotor_inertia",
                     "air_density", "rotor_disc_area"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class PidGains:
    """Conventional PID gains: kp on the proportional term, kd on the
    derivative term, ki on the integral term."""

    kp: float
    kd: float
    ki: float = 0.0

    def __post_init__(self):
        if self.kp <= 0 or self.kd <= 0:
            raise ValueError("kp and kd must be > 0")
        if self.ki < 0:
            raise ValueError("ki must be >= 0")


@dataclass(frozen=True)
class ControlInput:
    """Total thrust (N) plus yaw/pitch/roll moments."""

    total_thrust: float
    moments: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if self.total_thrust < 0:
            raise ValueError("total_thrust must be >= 0")
        object.__setattr__(self, "moments", _vec3(self.moments))

    @classmethod
    def hover(cls, params: UavParams) -> "ControlInput":
        return cls(total_thrust=params.mass * params.gravity)


def rotor_thrust(params: UavParams, omega: float) -> float:
    """Thrust of one rotor spinning at ``omega`` rad/s: k * omega**2."""
    if omega < 0:
        raise ValueError("rotor speed must be non-negative")
    return params.thrust_coeff * omega * omega


def hover_rotor_speed(params: UavParams) -> float:
    """Per-rotor speed at which four equal rotors exactly balance weight."""
    return math.sqrt(params.mass * params.gravity / (4.0 * params.thrust_coeff))


def rotor_spin_dynamics(params: UavParams, omega: float, motor_torque: float,
                        airflow_speed: float) -> float:
    """Angular acceleration of a rotor: (tau - 0.5*rho*v**2) / I_rot."""
    if omega < 0:
        raise ValueError("rotor speed must be non-negative")
    drag = 0.5 * params.air_density * airflow_speed * airflow_speed
    return (motor_torque - drag) / params.rotor_inertia


def _linear_accels(euler: np.ndarray, thrust: np.ndarray,
                   params: UavParams) -> np.ndarray:
    """World-frame linear accelerations of N bodies, shape (N, 3).

    ``euler`` is (N, 3) (yaw, pitch, roll) and ``thrust`` is (N,), or (3,)
    and a scalar for one body: each body's thrust acts along its z axis
    under the ZYX rotation, minus gravity.
    """
    psi, theta, phi = euler.T
    sps, sth, sph = np.sin(psi), np.sin(theta), np.sin(phi)
    cps, cth, cph = np.cos(psi), np.cos(theta), np.cos(phi)
    u, m = thrust, params.mass
    ax = u * (sph * sps + cph * cps * sth) / m
    ay = u * (cph * sth * sps - cps * sph) / m
    az = u * cth * cph / m - params.gravity
    return np.array([ax, ay, az]).T


def rigid_body_accel(state: UavState, control: ControlInput,
                     params: UavParams):
    """Linear and angular accelerations of the quadrotor body.

    Returns ``(linear_accel, angular_accel)`` where the angular part is the
    commanded moments applied directly to the Euler-angle accelerations.
    """
    return (_linear_accels(state.euler, control.total_thrust, params),
            control.moments.copy())


def step_states(position, velocity, euler, euler_rates, thrust, moments,
                params: UavParams, dt: float):
    """Advance N bodies by one semi-implicit Euler step of length ``dt``.

    State arrays are (N, 3), ``thrust`` is (N,) and ``moments`` is (N, 3);
    one body may be given as (3,) arrays and a scalar thrust. Velocities
    are updated first, then positions/angles use the new velocities.
    Returns new ``(position, velocity, euler, euler_rates)``. Rows are
    independent: row i equals :func:`step_state` on row i.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    velocity = velocity + _linear_accels(euler, thrust, params) * dt
    euler_rates = euler_rates + moments * dt
    position = position + velocity * dt
    euler = normalize_angle(euler + euler_rates * dt)
    return position, velocity, euler, euler_rates


def step_state(state: UavState, control: ControlInput, params: UavParams,
               dt: float) -> UavState:
    """Advance the state by one semi-implicit Euler step of length ``dt``.

    :func:`step_states` on one body. Deterministic: identical inputs give
    bit-identical outputs.
    """
    position, velocity, euler, euler_rates = step_states(
        state.position, state.velocity, state.euler, state.euler_rates,
        control.total_thrust, control.moments, params, dt)
    return replace(state, position=position, velocity=velocity,
                   euler=euler, euler_rates=euler_rates)


def pid_control(error: float, error_rate: float, error_integral: float,
                gains: PidGains) -> float:
    """PID command: kp*e + kd*de/dt + ki*integral(e)."""
    return (gains.kp * error + gains.kd * error_rate
            + gains.ki * error_integral)
