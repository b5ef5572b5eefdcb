"""Population metaheuristics over box-bounded continuous domains:
particle swarm optimization (PSO), the wolf pack algorithm (WPA) and the
grey wolf optimizer (GWO).

All three minimize a user-supplied fitness function, called with one
point at a time. Runs are fully deterministic for a given seed: the RNG
stream is consumed in a fixed order regardless of how fitness evaluations
are scheduled, and each GWO step draws all of its random numbers in one
call, in the order of a per-wolf, per-leader loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SearchSpace",
    "PsoConfig",
    "WpaConfig",
    "GwoConfig",
    "OptimizerRun",
    "pso_step",
    "pso_optimize",
    "gwo_step",
    "gwo_optimize",
    "wpa_optimize",
    "sphere",
    "rastrigin",
]

Fitness = Callable[[np.ndarray], float]


def sphere(x: np.ndarray) -> float:
    return float((np.asarray(x) ** 2).sum())


def rastrigin(x: np.ndarray) -> float:
    x = np.asarray(x)
    return float(10.0 * x.size + (x ** 2 - 10.0 * np.cos(2 * np.pi * x)).sum())


@dataclass(frozen=True)
class SearchSpace:
    """Axis-aligned box of feasible solutions: at least one dimension,
    finite bounds and a finite extent on every axis."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-D and the same shape")
        if lower.size == 0:
            raise ValueError("the box needs at least one dimension")
        if not np.all(lower < upper):
            raise ValueError("lower must be < upper componentwise")
        # inf or nan unless both bounds are finite and the extent fits a
        # float; sample() draws over the extent
        with np.errstate(over="ignore", invalid="ignore"):
            extent = upper - lower
        if not np.all(np.isfinite(extent)):
            raise ValueError("lower, upper and upper - lower must be finite")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def span(self) -> np.ndarray:
        return self.upper - self.lower

    def clamp(self, positions: np.ndarray) -> np.ndarray:
        # the method np.clip dispatches to, without its wrapper layers
        return positions.clip(self.lower, self.upper)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(n, self.dim))


@dataclass(frozen=True)
class PsoConfig:
    """PSO settings.

    ``paper_literal=True`` uses the bare update (no random factor on the
    social term, no inertia damping). The default adds the social random
    factor and a linearly decreasing inertia weight, without which the
    swarm does not settle to high precision.
    """

    n_particles: int = 40
    c1: float = 2.0
    c2: float = 2.0
    max_iters: int = 500
    seed: int = 0
    paper_literal: bool = False
    inertia_start: float = 0.9
    inertia_end: float = 0.4

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("n_particles must be >= 2")
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError("c1 and c2 must be >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class WpaConfig:
    """Wolf pack algorithm settings."""

    n_wolves: int = 30
    max_iters: int = 500
    step_coeff: float = 0.1
    distance_threshold: float = 0.5
    scout_max_repeats: int = 4
    renew_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.n_wolves < 3:
            raise ValueError("n_wolves must be >= 3")
        if not 0 < self.renew_fraction < 1:
            raise ValueError("renew_fraction must be in (0, 1)")
        for name in ("step_coeff", "distance_threshold"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.scout_max_repeats < 1 or self.max_iters < 1:
            raise ValueError("iteration counts must be >= 1")


@dataclass(frozen=True)
class GwoConfig:
    """Grey wolf optimizer settings; needs at least alpha/beta/delta plus
    one omega wolf."""

    n_wolves: int = 30
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.n_wolves < 4:
            raise ValueError("n_wolves must be >= 4")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class OptimizerRun:
    """Result of one optimizer run: best point found and the per-iteration
    best-so-far trace (monotonically non-increasing)."""

    best_position: np.ndarray
    best_value: float
    trace: list[float] = field(default_factory=list)


def pso_step(positions: np.ndarray, velocities: np.ndarray,
             personal_bests: np.ndarray, global_best: np.ndarray,
             config: PsoConfig, rng: np.random.Generator,
             inertia: float = 1.0,
             space: SearchSpace | None = None):
    """One PSO velocity-and-position update.

    Returns new ``(positions, velocities)``. The cognitive term always
    carries a fresh uniform random vector R1; the social term carries R2
    unless ``config.paper_literal``.
    """
    if positions.shape != velocities.shape or positions.shape != personal_bests.shape:
        raise ValueError("positions, velocities and personal_bests must share shape")
    if global_best.shape != positions.shape[1:]:
        raise ValueError("global_best dimension mismatch")
    r1 = rng.uniform(size=positions.shape)
    cognitive = config.c1 * r1 * (personal_bests - positions)
    if config.paper_literal:
        social = config.c2 * (global_best - positions)
    else:
        r2 = rng.uniform(size=positions.shape)
        social = config.c2 * r2 * (global_best - positions)
    velocities = inertia * velocities + cognitive + social
    if space is not None:
        vmax = space.span  # keep one step from crossing the whole box twice
        velocities = np.clip(velocities, -vmax, vmax)
    positions = positions + velocities
    if space is not None:
        positions = space.clamp(positions)
    return positions, velocities


def pso_optimize(fitness: Fitness, space: SearchSpace,
                 config: PsoConfig) -> OptimizerRun:
    """Run PSO to minimize ``fitness`` over ``space``."""
    rng = np.random.default_rng(config.seed)
    positions = space.sample(rng, config.n_particles)
    velocities = rng.uniform(-1.0, 1.0, size=positions.shape) * space.span * 0.1
    values = np.array([fitness(p) for p in positions])
    personal_bests = positions.copy()
    personal_values = values.copy()
    g = int(np.argmin(personal_values))
    best_position = personal_bests[g].copy()
    best_value = float(personal_values[g])
    trace = [best_value]
    for it in range(config.max_iters):
        if config.paper_literal:
            inertia = 1.0
        else:
            frac = it / max(config.max_iters - 1, 1)
            inertia = config.inertia_start + frac * (config.inertia_end
                                                     - config.inertia_start)
        positions, velocities = pso_step(
            positions, velocities, personal_bests, best_position,
            config, rng, inertia=inertia, space=space)
        values = np.array([fitness(p) for p in positions])
        improved = values < personal_values
        personal_bests[improved] = positions[improved]
        personal_values[improved] = values[improved]
        g = int(np.argmin(personal_values))
        if personal_values[g] < best_value:
            best_value = float(personal_values[g])
            best_position = personal_bests[g].copy()
        trace.append(best_value)
    return OptimizerRun(best_position=best_position, best_value=best_value,
                        trace=trace)


def gwo_step(positions: np.ndarray, alpha: np.ndarray, beta: np.ndarray,
             delta: np.ndarray, a: float,
             rng: np.random.Generator) -> np.ndarray:
    """One GWO encircling update driven by the three leaders.

    Per wolf and leader: D = |C*X_leader - X|, X_i = X_leader - A*D with
    A = 2*a*r1 - a and C = 2*r2; the new position is the mean of the three
    leader-anchored points. One ``rng.uniform`` call draws every r1 and r2
    of the step, shaped (wolf, leader, r1/r2, dim), so the stream is
    consumed as by a loop over wolves, then leaders (alpha, beta, delta),
    drawing r1 then r2 for each.
    """
    if not 0.0 <= a <= 2.0:
        raise ValueError("a must be in [0, 2]")
    leaders = np.stack((alpha, beta, delta))
    r = rng.uniform(size=(len(positions), 3, 2, *positions.shape[1:]))
    big_a = 2.0 * a * r[:, :, 0] - a
    big_c = 2.0 * r[:, :, 1]
    d = np.abs(big_c * leaders - positions[:, None])
    anchors = leaders - big_a * d
    return (anchors[:, 0] + anchors[:, 1] + anchors[:, 2]) / 3.0


def gwo_optimize(fitness: Fitness, space: SearchSpace,
                 config: GwoConfig) -> OptimizerRun:
    """Run the grey wolf optimizer; the control parameter ``a`` decreases
    linearly from 2 to 0 across the iterations."""
    rng = np.random.default_rng(config.seed)
    positions = space.sample(rng, config.n_wolves)
    values = np.array([fitness(p) for p in positions])

    def leaders():
        order = np.argsort(values, kind="stable")
        return order[0], order[1], order[2]

    ia, ib, idl = leaders()
    best_position = positions[ia].copy()
    best_value = float(values[ia])
    trace = [best_value]
    for it in range(config.max_iters):
        a = 2.0 * (1.0 - it / config.max_iters)
        positions = gwo_step(positions, positions[ia], positions[ib],
                             positions[idl], a, rng)
        positions = space.clamp(positions)
        values = np.array([fitness(p) for p in positions])
        ia, ib, idl = leaders()
        if values[ia] < best_value:
            best_value = float(values[ia])
            best_position = positions[ia].copy()
        trace.append(best_value)
    return OptimizerRun(best_position=best_position, best_value=best_value,
                        trace=trace)


def wpa_optimize(fitness: Fitness, space: SearchSpace,
                 config: WpaConfig) -> OptimizerRun:
    """Run the wolf pack algorithm.

    Each iteration: non-lead wolves scout with small random probes, then
    run toward the lead with the largest step until within the closing
    distance, then besiege with a small step; winner-take-all replaces the
    lead; the worst renew_fraction of the pack respawns near the best wolf.

    Step sizes derive from ``step_coeff``: scouting uses
    S * span / dim, calling 4x that, besieging 0.5x (ordering per the
    behaviour description; exact ratios are a toolkit choice). Steps decay
    geometrically with iteration so late besieging can refine the optimum.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n_wolves
    dim = space.dim
    base_step = config.step_coeff * np.mean(space.span) / dim
    positions = space.sample(rng, n)
    values = np.array([fitness(p) for p in positions])
    lead = int(np.argmin(values))
    best_position = positions[lead].copy()
    best_value = float(values[lead])
    trace = [best_value]
    for it in range(config.max_iters):
        decay = 0.99 ** it
        scout_step = base_step * decay
        call_step = 4.0 * scout_step
        besiege_step = 0.5 * scout_step
        for i in range(n):
            if i == lead:
                continue
            # scouting: directed probes, keep the first improving one
            for _ in range(config.scout_max_repeats):
                direction = rng.standard_normal(dim)
                norm = math.sqrt(direction.dot(direction))
                if norm == 0:
                    continue
                probe = space.clamp(positions[i] + scout_step * direction / norm)
                y = fitness(probe)
                if y < values[i]:
                    positions[i] = probe
                    values[i] = y
                if values[i] < values[lead]:
                    break
            # calling: run toward the lead until within distance_threshold
            while values[i] >= values[lead]:
                gap = positions[lead] - positions[i]
                dist = math.sqrt(gap.dot(gap))
                if dist <= config.distance_threshold:
                    break
                move = min(call_step, dist)
                positions[i] = space.clamp(positions[i] + move * gap / dist)
                values[i] = fitness(positions[i])
            # besieging: one small random step around the prey (lead)
            direction = rng.standard_normal(dim)
            norm = math.sqrt(direction.dot(direction))
            if norm > 0:
                probe = space.clamp(positions[i] + besiege_step * direction / norm)
                y = fitness(probe)
                if y < values[i]:
                    positions[i] = probe
                    values[i] = y
        # winner-take-all lead replacement
        challenger = int(np.argmin(values))
        if values[challenger] < values[lead]:
            lead = challenger
        if values[lead] < best_value:
            best_value = float(values[lead])
            best_position = positions[lead].copy()
        # renewal: respawn the worst wolves near the best wolf
        n_renew = math.ceil(config.renew_fraction * n)
        worst = np.argsort(values, kind="stable")[::-1]
        worst = [int(w) for w in worst if int(w) != lead][:n_renew]
        half = config.distance_threshold
        for w in worst:
            positions[w] = space.clamp(
                positions[lead] + rng.uniform(-half, half, size=dim))
            values[w] = fitness(positions[w])
            if values[w] < best_value:
                best_value = float(values[w])
                best_position = positions[w].copy()
                lead = w
        trace.append(best_value)
    return OptimizerRun(best_position=best_position, best_value=best_value,
                        trace=trace)
