"""Closed-loop desk-scale simulators: single-UAV position hold and
multi-UAV leader-follower formation flight.

Both fly their UAVs as (N, 3) state arrays: a tick is one pass of
:func:`movement_steps` and :func:`step_states` whatever N is. Position
hold flies N = 1 toward a fixed pose; the formation recomputes every
follower target from the leader's pose on each tick
(:meth:`RoleGraph.targets`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# step_state, movement_step and formation_targets are unused here, but
# bench/inproc.py wraps them in this namespace by name
from .dynamics import PidGains, UavParams, UavState, step_state, step_states
from .formation import (MAX_DT, Pose, RoleGraph, formation_targets,
                        movement_step, movement_steps)

__all__ = [
    "simulate_position_hold",
    "FormationTrace",
    "simulate_formation",
    "straight_line_leader",
]


def _fly(states, targets, gains: PidGains, params: UavParams, dt: float,
         duration: float):
    """Fly the UavStates ``states`` as (N, 3) arrays toward ``targets(t)``,
    the ``(positions, headings)`` at tick time t. Returns ``(times (n,),
    positions (N, n, 3))``; raises ValueError naming the tick time at which
    a state overflows."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if dt >= MAX_DT:
        raise ValueError(f"dt must be < {MAX_DT:.6g}: the attitude loop "
                         "diverges at larger steps")
    times = np.arange(int(round(duration / dt)) + 1) * dt
    state = tuple(np.array([getattr(s, name) for s in states]).reshape(-1, 3)
                  for name in ("position", "velocity", "euler", "euler_rates"))
    tracks = np.empty((len(states), len(times), 3))
    tracks[:, 0] = state[0]
    try:
        with np.errstate(over="raise", invalid="raise"):
            for k in range(len(times) - 1):
                state = step_states(*state, *movement_steps(
                    *state, *targets(times[k]), gains, params), params, dt)
                tracks[:, k + 1] = state[0]
    except FloatingPointError:
        raise ValueError(f"the flight overflows at {times[k]:g} s") from None
    return times, tracks


def simulate_position_hold(initial: UavState, target: Pose, gains: PidGains,
                           params: UavParams, dt: float, duration: float):
    """Fly one UAV toward a fixed pose target.

    Returns ``(times, positions)`` with positions of shape (n, 3).
    """
    hold = (target.position, target.heading)
    times, (track,) = _fly([initial], lambda t: hold, gains, params, dt,
                           duration)
    return times, track


def straight_line_leader(start, velocity, heading: float = 0.0):
    """Leader path factory: constant-velocity straight line."""
    start = np.asarray(start, dtype=float)
    velocity = np.asarray(velocity, dtype=float)

    def path(t: float) -> Pose:
        return Pose(position=start + velocity * t, heading=heading)

    return path


@dataclass
class FormationTrace:
    """Per-tick poses of the leader and every follower."""

    times: np.ndarray
    leader_positions: np.ndarray            # (n, 3)
    follower_positions: dict[str, np.ndarray]

    def offset_error(self, follower: str, target_offsets: np.ndarray):
        """Norm of (follower - leader - expected offset) per tick."""
        gap = (self.follower_positions[follower] - self.leader_positions
               - np.asarray(target_offsets, dtype=float))
        return np.linalg.norm(gap, axis=1)


def simulate_formation(leader_path, roles: RoleGraph,
                       initial_states: dict[str, UavState],
                       gains: PidGains, params: UavParams,
                       dt: float, duration: float) -> FormationTrace:
    """Run a leader-follower formation scenario.

    ``leader_path`` maps time to the root Pose; ``initial_states`` holds
    one UavState per follower id in the role graph.
    """
    missing = [f for f in roles.followers if f not in initial_states]
    if missing:
        raise ValueError(f"missing initial states for {missing}")
    leader_positions = []

    def targets(t):
        leader = leader_path(t)
        leader_positions.append(leader.position)
        return roles.targets(leader)

    times, tracks = _fly([initial_states[f] for f in roles.followers],
                         targets, gains, params, dt, duration)
    leader_positions.append(leader_path(times[-1]).position)
    return FormationTrace(times, np.array(leader_positions),
                          dict(zip(roles.followers, tracks)))
