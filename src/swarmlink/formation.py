"""Leader-follower formation keeping.

Target generation implements two movement-layer rules: Fixed Global
Difference (constant world-frame offset from the leader) and Double
Fixation (constant offset and bearing in the leader's own frame, realised
by rotating the offset about the vertical axis by the leader's heading).
Role assignment is a directed tree of (leader, follower) edges; the
movement layer turns a pose target into a thrust/moment command for the
dynamics module.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter

import numpy as np

from .dynamics import (ControlInput, PidGains, UavParams, UavState,
                       normalize_angle)

__all__ = [
    "FormationMode",
    "Pose",
    "FormationSpec",
    "RoleGraph",
    "fgd_target",
    "df_target",
    "formation_targets",
    "movement_step",
]


class FormationMode(enum.Enum):
    FIXED_GLOBAL_DIFFERENCE = "fgd"
    DOUBLE_FIXATION = "df"


@dataclass(frozen=True)
class Pose:
    """Position plus heading about the vertical axis."""

    position: np.ndarray
    heading: float = 0.0

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        if pos.shape != (3,):
            raise ValueError("position must be a 3-vector")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "heading",
                           float(normalize_angle(self.heading)))


@dataclass(frozen=True)
class FormationSpec:
    """Offset of a follower relative to its leader.

    For FGD the offset is expressed in the world frame; for DF it is
    expressed in the leader's frame and ``relative_heading`` fixes the
    follower heading relative to the leader's.
    """

    mode: FormationMode
    offset: np.ndarray
    relative_heading: float = 0.0

    def __post_init__(self):
        off = np.asarray(self.offset, dtype=float)
        if off.shape != (3,) or not np.all(np.isfinite(off)):
            raise ValueError("offset must be a finite 3-vector")
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "relative_heading",
                           float(normalize_angle(self.relative_heading)))


@dataclass(frozen=True)
class RoleGraph:
    """Directed tree of follow relations rooted at the formation leader."""

    root_id: str
    edges: tuple = field(default_factory=tuple)

    def __post_init__(self):
        edges = tuple(self.edges)
        object.__setattr__(self, "edges", edges)
        followers = [f for _, f, _ in edges]
        if len(set(followers)) != len(followers):
            raise ValueError("every follower must have exactly one leader")
        if self.root_id in followers:
            raise ValueError("root must not follow anyone")
        self.topological_followers()  # raises on cycles

    def topological_followers(self) -> list[str]:
        """Follower ids ordered so every follower appears after its leader."""
        sorter = TopologicalSorter()
        for leader, follower, _ in self.edges:
            sorter.add(follower, leader)
        try:
            order = list(sorter.static_order())
        except CycleError as exc:
            raise ValueError("role graph contains a cycle") from exc
        followers = {f for _, f, _ in self.edges}
        return [n for n in order if n in followers]


def fgd_target(leader: Pose, spec: FormationSpec) -> Pose:
    """Fixed Global Difference target: leader position plus the constant
    world-frame offset; heading copied from the leader."""
    if spec.mode is not FormationMode.FIXED_GLOBAL_DIFFERENCE:
        raise ValueError("spec mode must be FIXED_GLOBAL_DIFFERENCE")
    return Pose(position=leader.position + spec.offset,
                heading=leader.heading)


def df_target(leader: Pose, spec: FormationSpec) -> Pose:
    """Double Fixation target: the offset rides in the leader's frame, so
    it is rotated about the vertical axis by the leader's heading; the
    follower heading is fixed relative to the leader's."""
    if spec.mode is not FormationMode.DOUBLE_FIXATION:
        raise ValueError("spec mode must be DOUBLE_FIXATION")
    c, s = math.cos(leader.heading), math.sin(leader.heading)
    ox, oy, oz = spec.offset
    rotated = np.array([c * ox - s * oy, s * ox + c * oy, oz])
    return Pose(position=leader.position + rotated,
                heading=normalize_angle(leader.heading
                                        + spec.relative_heading))


def follower_target(leader: Pose, spec: FormationSpec) -> Pose:
    if spec.mode is FormationMode.FIXED_GLOBAL_DIFFERENCE:
        return fgd_target(leader, spec)
    return df_target(leader, spec)


def formation_targets(leader_poses: dict[str, Pose],
                      roles: RoleGraph) -> dict[str, Pose]:
    """Compute every follower's target pose, walking the role tree from
    the root so chained offsets compose."""
    if roles.root_id not in leader_poses:
        raise ValueError(f"missing pose for root {roles.root_id!r}")
    poses = dict(leader_poses)
    spec_by_follower = {f: (l, s) for l, f, s in roles.edges}
    targets: dict[str, Pose] = {}
    for follower in roles.topological_followers():
        leader_id, spec = spec_by_follower[follower]
        if leader_id not in poses:
            raise ValueError(f"missing pose for leader {leader_id!r}")
        target = follower_target(poses[leader_id], spec)
        targets[follower] = target
        poses[follower] = target
    return targets


# Attitude inner loop and tilt limit for movement_step. The attitude loop
# must be much faster than the position loop for the cascade to hold.
_ATT_KP = 400.0
_ATT_KD = 40.0
_MAX_TILT = 0.4


def movement_step(current: UavState, target: Pose, gains: PidGains,
                  params: UavParams, dt: float) -> ControlInput:
    """PD goal-seeking command toward ``target``.

    The desired horizontal acceleration is rotated into the body's heading
    frame by the current yaw and mapped to pitch/roll setpoints, which a
    fast attitude PD loop tracks together with the target heading;
    altitude is held by a thrust PD loop.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    err = target.position - current.position
    a_des = gains.kp * err - gains.kd * current.velocity
    g = params.gravity
    az = a_des[2] + g
    # thrust from the vertical channel; tilt assumed small
    psi, theta, phi = current.euler
    u = params.mass * max(az, 0.0) / max(math.cos(theta) * math.cos(phi), 0.5)
    u = max(u, 0.0)
    denom = max(az, 1e-6)
    # inverse of rigid_body_accel's small-angle thrust projection:
    # (ax, ay) = g * R(psi) @ (theta, -phi)
    c, s = math.cos(psi), math.sin(psi)
    theta_des = math.atan2(c * a_des[0] + s * a_des[1], denom)
    phi_des = math.atan2(s * a_des[0] - c * a_des[1], denom)
    theta_des = max(-_MAX_TILT, min(_MAX_TILT, theta_des))
    phi_des = max(-_MAX_TILT, min(_MAX_TILT, phi_des))
    psi_des = target.heading
    angle_err = normalize_angle(np.array([psi_des - psi,
                                          theta_des - theta,
                                          phi_des - phi]))
    moments = _ATT_KP * angle_err - _ATT_KD * current.euler_rates
    return ControlInput(total_thrust=u, moments=moments)
