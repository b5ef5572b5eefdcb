"""Quadrotor rigid-body model (X-flyer): the state, gravity, the mass and
PD gains, and the semi-implicit Euler step that the flights advance.

All functions are pure: they take value types and return new values, so they
are safe to call from any number of threads. :func:`step_states` advances N
bodies held as (N, 3) arrays in one pass, or one body held as (3,) arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GRAVITY",
    "UavState",
    "UavParams",
    "PidGains",
    "normalize_angle",
    "step_state",
    "step_states",
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


GRAVITY = 9.81   # m/s^2, the acceleration that every thrust works against


@dataclass(frozen=True)
class UavParams:
    """Physical constants of one quadrotor: its mass."""

    mass: float

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be strictly positive")


@dataclass(frozen=True)
class PidGains:
    """PD gains: kp on the position error, kd on the velocity error."""

    kp: float
    kd: float

    def __post_init__(self):
        if self.kp <= 0 or self.kd <= 0:
            raise ValueError("kp and kd must be > 0")


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
    az = u * cth * cph / m - GRAVITY
    return np.array([ax, ay, az]).T


def step_states(position, velocity, euler, euler_rates, thrust, moments,
                params: UavParams, dt: float):
    """Advance N bodies by one semi-implicit Euler step of length ``dt``.

    State arrays are (N, 3), ``thrust`` is (N,) and ``moments`` is (N, 3);
    one body may be given as (3,) arrays and a scalar thrust. Velocities
    are updated first, then positions/angles use the new velocities.
    The moments act directly as the Euler-angle accelerations. Returns new
    ``(position, velocity, euler, euler_rates)``; rows are independent.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    velocity = velocity + _linear_accels(euler, thrust, params) * dt
    euler_rates = euler_rates + moments * dt
    position = position + velocity * dt
    euler = normalize_angle(euler + euler_rates * dt)
    return position, velocity, euler, euler_rates


# kept only for bench/inproc.py, which wraps it by name (ROADMAP item 1)
def step_state(state: UavState, thrust, moments, params: UavParams,
               dt: float) -> UavState:
    """:func:`step_states` on one :class:`UavState`."""
    return UavState(*step_states(state.position, state.velocity, state.euler,
                                 state.euler_rates, thrust, moments, params,
                                 dt))

