"""Leader-follower formation keeping.

Target generation implements two movement-layer rules: Fixed Global
Difference (constant world-frame offset from the leader) and Double
Fixation (constant offset and bearing in the leader's own frame, realised
by rotating the offset about the vertical axis by the leader's heading).
Role assignment is a directed tree of (leader, follower) edges; the
movement layer turns a pose target into a thrust/moment command for the
dynamics module.

The kernels work on N followers at once, or on one given as (3,) arrays
and scalars: :class:`RoleGraph` holds the role tree as arrays, built from
the one topological sort that checks it, and :meth:`RoleGraph.targets`
fills them one depth level at a time through :func:`follower_targets`;
:func:`movement_steps` commands every follower in one pass.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter

import numpy as np

from .dynamics import PidGains, UavParams, UavState, normalize_angle

__all__ = [
    "MAX_DT",
    "FormationMode",
    "Pose",
    "FormationSpec",
    "RoleGraph",
    "follower_targets",
    "formation_targets",
    "movement_step",
    "movement_steps",
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
    """Directed tree of follow relations rooted at the formation leader.

    ``followers`` lists the follower ids by depth, so each depth level is
    one contiguous block of rows and every leader comes before its
    followers. In the working arrays of :meth:`targets`, row 0 is the root
    and follower ``i`` is row ``i + 1``.
    """

    root_id: str
    edges: tuple = field(default_factory=tuple)
    followers: tuple = field(init=False, repr=False, compare=False)
    # (rows, leader rows, offsets, relative headings, DF mask) per level
    levels: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        edges = tuple(self.edges)
        object.__setattr__(self, "edges", edges)
        edge_of = {f: (l, s) for l, f, s in edges}
        if len(edge_of) != len(edges):
            raise ValueError("every follower must have exactly one leader")
        if self.root_id in edge_of:
            raise ValueError("root must not follow anyone")
        outside = {l for l, _, _ in edges} - {self.root_id, *edge_of}
        if outside:
            raise ValueError(f"leaders {sorted(outside)} are neither the "
                             "root nor a follower")
        order = self.topological_followers()  # raises on cycles
        depth = {self.root_id: 0}
        for follower in order:
            depth[follower] = depth[edge_of[follower][0]] + 1
        followers = sorted(order, key=depth.__getitem__)
        row = {self.root_id: 0, **{f: i + 1 for i, f in enumerate(followers)}}
        specs = [edge_of[f][1] for f in followers]
        leaders = np.array([row[edge_of[f][0]] for f in followers], dtype=int)
        offsets = np.array([s.offset for s in specs]).reshape(-1, 3)
        relative = np.array([s.relative_heading for s in specs], dtype=float)
        df = np.array([s.mode is FormationMode.DOUBLE_FIXATION
                       for s in specs], dtype=bool)
        depths = [depth[f] for f in followers]
        starts = np.searchsorted(depths, range(1, max(depths, default=0) + 2))
        object.__setattr__(self, "followers", tuple(followers))
        object.__setattr__(self, "levels", [
            (slice(i + 1, j + 1), leaders[i:j], offsets[i:j], relative[i:j],
             df[i:j]) for i, j in zip(starts[:-1], starts[1:])])

    def topological_followers(self) -> list[str]:
        """Follower ids ordered so every follower appears after its leader."""
        sorter = TopologicalSorter()
        for leader, follower, _ in self.edges:
            sorter.add(follower, leader)
        try:
            order = list(sorter.static_order())
        except CycleError as exc:
            raise ValueError("role graph contains a cycle") from exc
        return [n for n in order if n != self.root_id]

    def targets(self, root: Pose):
        """Every follower's target ``(positions (N, 3), headings (N,))``
        for the root pose ``root``, in :attr:`followers` order."""
        n = len(self.followers) + 1
        positions, headings = np.empty((n, 3)), np.empty(n)
        positions[0], headings[0] = root.position, root.heading
        for rows, leaders, offsets, relative, df in self.levels:
            positions[rows], headings[rows] = follower_targets(
                positions[leaders], headings[leaders], offsets, relative, df)
        return positions[1:], headings[1:]


def follower_targets(leader_positions: np.ndarray,
                     leader_headings: np.ndarray, offsets: np.ndarray,
                     relative_headings: np.ndarray, df: np.ndarray):
    """Target poses of N followers from their leaders' poses.

    Rows where ``df`` is set follow Double Fixation: the offset is rotated
    about the vertical axis by the leader's heading and the heading is
    fixed relative to the leader's. The other rows follow Fixed Global
    Difference: the world-frame offset is added and the leader's heading
    copied. Returns ``(positions (N, 3), headings (N,))``; one follower
    may be given as (3,) arrays and scalars.
    """
    df = np.asarray(df)
    c, s = np.cos(leader_headings), np.sin(leader_headings)
    ox, oy, oz = offsets.T
    rotated = np.array([c * ox - s * oy, s * ox + c * oy, oz]).T
    positions = leader_positions + np.where(df[..., None], rotated, offsets)
    headings = np.where(df, normalize_angle(leader_headings
                                            + relative_headings),
                        leader_headings)
    return positions, headings


# kept only for bench/inproc.py, which wraps it by name (ROADMAP item 1)
def formation_targets(leader_poses: dict[str, Pose],
                      roles: RoleGraph) -> dict[str, Pose]:
    """Compute every follower's target pose, walking the role tree from
    the root so chained offsets compose."""
    if roles.root_id not in leader_poses:
        raise ValueError(f"missing pose for root {roles.root_id!r}")
    positions, headings = roles.targets(leader_poses[roles.root_id])
    return {f: Pose(position=p, heading=h)
            for f, p, h in zip(roles.followers, positions, headings)}


# Attitude inner loop and tilt limit for movement_steps. The attitude loop
# must be much faster than the position loop for the cascade to hold.
_ATT_KP = 400.0
_ATT_KD = 40.0
_MAX_TILT = 0.4
# Under step_states' semi-implicit Euler, an angle error e with rate r steps
# as r' = r - dt*(KP*e + KD*r), e' = e + dt*r'. The step matrix has trace
# 2 - KD*dt - KP*dt**2 and determinant 1 - KD*dt, so by the Jury criterion
# the loop decays only while KD*dt < 2 and KP*dt**2 < 4 - 2*KD*dt: for dt
# below the positive root of KP*dt**2 + 2*KD*dt - 4, about 0.0414 s.
MAX_DT = (math.sqrt(_ATT_KD ** 2 + 4.0 * _ATT_KP) - _ATT_KD) / _ATT_KP
_ATAN2 = np.frompyfunc(math.atan2, 2, 1)


def _atan2(y, x):
    """math.atan2 elementwise: np.arctan2 differs from it by an ulp on a
    few percent of inputs."""
    return np.asarray(_ATAN2(y, x), dtype=float)


def movement_steps(position, velocity, euler, euler_rates,
                   target_positions, target_headings, gains: PidGains,
                   params: UavParams):
    """PD goal-seeking commands for N followers toward their targets.

    State and target positions are (N, 3) arrays, ``target_headings`` is
    (N,). The desired horizontal acceleration is rotated into the body's
    heading frame by the current yaw and mapped to pitch/roll setpoints,
    which a fast attitude PD loop tracks together with the target heading;
    altitude is held by a thrust PD loop. Returns ``(thrust (N,),
    moments (N, 3))``; one follower may be given as (3,) arrays and a
    scalar heading. Rows are independent.
    """
    err = target_positions - position
    a_des = gains.kp * err - gains.kd * velocity
    g = params.gravity
    az = a_des[..., 2] + g
    # thrust from the vertical channel; tilt assumed small
    psi, theta, phi = euler.T
    u = params.mass * np.maximum(az, 0.0) / np.maximum(
        np.cos(theta) * np.cos(phi), 0.5)
    denom = np.maximum(az, 1e-6)
    # inverse of the dynamics' small-angle thrust projection:
    # (ax, ay) = g * R(psi) @ (theta, -phi)
    c, s = np.cos(psi), np.sin(psi)
    theta_des = _atan2(c * a_des[..., 0] + s * a_des[..., 1], denom)
    phi_des = _atan2(s * a_des[..., 0] - c * a_des[..., 1], denom)
    theta_des = np.maximum(np.minimum(theta_des, _MAX_TILT), -_MAX_TILT)
    phi_des = np.maximum(np.minimum(phi_des, _MAX_TILT), -_MAX_TILT)
    angle_err = normalize_angle(np.array([target_headings - psi,
                                          theta_des - theta,
                                          phi_des - phi]).T)
    moments = _ATT_KP * angle_err - _ATT_KD * euler_rates
    return u, moments


# kept only for bench/inproc.py, which wraps it by name (ROADMAP item 1)
def movement_step(current: UavState, target: Pose, gains: PidGains,
                  params: UavParams):
    """:func:`movement_steps` on one :class:`UavState` toward ``target``:
    ``(thrust, moments (3,))``."""
    return movement_steps(current.position, current.velocity, current.euler,
                          current.euler_rates, target.position,
                          target.heading, gains, params)
