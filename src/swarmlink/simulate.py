"""Closed-loop desk-scale simulators: single-UAV position hold and
multi-UAV leader-follower formation flight.

The formation simulator advances every follower in lockstep per tick: the
kinematic leader pose is updated, follower targets are recomputed from the
role tree, and every follower applies one movement-layer command followed
by one dynamics step. The followers are held as (N, 3) arrays, so a tick
is one pass of each batched kernel (:meth:`TargetPlan.targets`,
:func:`movement_steps`, :func:`step_states`) whatever N is.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import PidGains, UavParams, UavState, step_state, step_states
# formation_targets is not called here; bench/inproc.py wraps
# simulate.formation_targets by name, so the name stays importable from it
from .formation import (Pose, RoleGraph, TargetPlan,
                        formation_targets, movement_step, movement_steps)

__all__ = [
    "simulate_position_hold",
    "FormationTrace",
    "simulate_formation",
    "straight_line_leader",
]


def simulate_position_hold(initial: UavState, target: Pose, gains: PidGains,
                           params: UavParams, dt: float, duration: float):
    """Fly one UAV toward a fixed pose target.

    Returns ``(times, positions)`` with positions of shape (n, 3).
    """
    n_steps = int(round(duration / dt))
    state = initial
    times = np.arange(n_steps + 1) * dt
    positions = np.empty((n_steps + 1, 3))
    positions[0] = state.position
    for k in range(n_steps):
        control = movement_step(state, target, gains, params, dt)
        state = step_state(state, control, params, dt)
        positions[k + 1] = state.position
    return times, positions


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
    if dt <= 0:
        raise ValueError("dt must be > 0")
    plan = TargetPlan(roles)
    followers = plan.followers
    missing = [f for f in followers if f not in initial_states]
    if missing:
        raise ValueError(f"missing initial states for {missing}")
    n_steps = int(round(duration / dt))
    times = np.arange(n_steps + 1) * dt
    start = [initial_states[f] for f in followers]
    position, velocity, euler, euler_rates = (
        np.array([getattr(state, name) for state in start]).reshape(-1, 3)
        for name in ("position", "velocity", "euler", "euler_rates"))
    leader_positions = np.empty((n_steps + 1, 3))
    tracks = np.empty((len(followers), n_steps + 1, 3))
    leader = leader_path(0.0)
    leader_positions[0], tracks[:, 0] = leader.position, position
    for k in range(n_steps):
        target_positions, target_headings = plan.targets(leader)
        thrust, moments = movement_steps(
            position, velocity, euler, euler_rates, target_positions,
            target_headings, gains, params, dt)
        position, velocity, euler, euler_rates = step_states(
            position, velocity, euler, euler_rates, thrust, moments, params,
            dt)
        tracks[:, k + 1] = position
        leader = leader_path(times[k + 1])
        leader_positions[k + 1] = leader.position
    return FormationTrace(times=times, leader_positions=leader_positions,
                          follower_positions=dict(zip(followers, tracks)))
