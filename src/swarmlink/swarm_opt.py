"""Population metaheuristics over box-bounded continuous domains:
particle swarm optimization (PSO), the wolf pack algorithm (WPA) and the
grey wolf optimizer (GWO).

All three minimize a user-supplied fitness function, called with one
point at a time; ``_evaluate`` evaluates every population, and a run
keeps its best so far in :class:`OptimizerRun`. Runs are deterministic for
a given seed: the RNG stream is consumed in a fixed order regardless of
how fitness evaluations are scheduled, and each GWO step draws all of its
random numbers in one call, in the order of a per-wolf, per-leader loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

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


# PSO: c1 = c2 = 2 (Kennedy & Eberhart, ICNN 1995) and an inertia weight
# falling linearly (Shi & Eberhart, IEEE CEC 1998), without which the swarm
# does not settle to high precision.
PSO_C1 = PSO_C2 = 2.0
PSO_INERTIA_START, PSO_INERTIA_END = 0.9, 0.4
# WPA: step coefficient S, distance threshold, scouting repeats T_max and
# renewal fraction beta (Wu & Zhang, Math. Probl. Eng. 2014); the values
# are this toolkit's choices.
WPA_STEP_COEFF = 0.1
WPA_DISTANCE_THRESHOLD = 0.5
WPA_SCOUT_MAX_REPEATS = 4
WPA_RENEW_FRACTION = 0.2


@dataclass(frozen=True)
class PsoConfig:
    """PSO settings; the update's coefficients are the ``PSO_*`` constants."""

    n_particles: int = 40
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("n_particles must be >= 2")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class WpaConfig:
    """Wolf pack settings; its tuning values are the ``WPA_*`` constants."""

    n_wolves: int = 30
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.n_wolves < 3:
            raise ValueError("n_wolves must be >= 3")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


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

    @classmethod
    def _start(cls, position: np.ndarray, value: float) -> OptimizerRun:
        """A run whose best so far is the evaluated ``position``."""
        return cls(position.copy(), float(value), [float(value)])

    def _keep(self, position: np.ndarray, value: float) -> bool:
        """Keep a strictly better point; return whether it was kept."""
        better = bool(value < self.best_value)
        if better:
            self.best_position, self.best_value = position.copy(), float(value)
        return better


def _evaluate(fitness: Fitness, points: np.ndarray) -> np.ndarray:
    """Fitness of every row of ``points``, one call per point in order."""
    return np.array([fitness(p) for p in points])


def pso_step(positions: np.ndarray, velocities: np.ndarray,
             personal_bests: np.ndarray, global_best: np.ndarray,
             inertia: float, space: SearchSpace,
             rng: np.random.Generator):
    """One PSO update: v = inertia*v + PSO_C1*R1*(p - x) + PSO_C2*R2*(g - x)
    with fresh uniform R1 and R2, clipped to the box's span per axis, and
    x + v clamped to the box. Returns new ``(positions, velocities)``."""
    if positions.shape != velocities.shape or positions.shape != personal_bests.shape:
        raise ValueError("positions, velocities and personal_bests must share shape")
    if global_best.shape != positions.shape[1:]:
        raise ValueError("global_best dimension mismatch")
    r1 = rng.uniform(size=positions.shape)
    cognitive = PSO_C1 * r1 * (personal_bests - positions)
    r2 = rng.uniform(size=positions.shape)
    social = PSO_C2 * r2 * (global_best - positions)
    velocities = inertia * velocities + cognitive + social
    vmax = space.span  # keep one step from crossing the whole box twice
    velocities = np.clip(velocities, -vmax, vmax)
    return space.clamp(positions + velocities), velocities


def pso_optimize(fitness: Fitness, space: SearchSpace,
                 config: PsoConfig) -> OptimizerRun:
    """Run PSO to minimize ``fitness`` over ``space``."""
    rng = np.random.default_rng(config.seed)
    positions = space.sample(rng, config.n_particles)
    velocities = rng.uniform(-1.0, 1.0, size=positions.shape) * space.span * 0.1
    personal_bests = positions.copy()
    personal_values = _evaluate(fitness, positions)
    g = int(np.argmin(personal_values))
    run = OptimizerRun._start(personal_bests[g], personal_values[g])
    for it in range(config.max_iters):
        inertia = PSO_INERTIA_START + it / max(config.max_iters - 1, 1) * (
            PSO_INERTIA_END - PSO_INERTIA_START)
        positions, velocities = pso_step(
            positions, velocities, personal_bests, run.best_position, inertia,
            space, rng)
        values = _evaluate(fitness, positions)
        improved = values < personal_values
        personal_bests[improved] = positions[improved]
        personal_values[improved] = values[improved]
        g = int(np.argmin(personal_values))
        run._keep(personal_bests[g], personal_values[g])
        run.trace.append(run.best_value)
    return run


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
    values = _evaluate(fitness, positions)
    order = np.argsort(values, kind="stable")
    run = OptimizerRun._start(positions[order[0]], values[order[0]])
    for it in range(config.max_iters):
        a = 2.0 * (1.0 - it / config.max_iters)
        positions = space.clamp(
            gwo_step(positions, *positions[order[:3]], a, rng))
        values = _evaluate(fitness, positions)
        order = np.argsort(values, kind="stable")
        run._keep(positions[order[0]], values[order[0]])
        run.trace.append(run.best_value)
    return run


def wpa_optimize(fitness: Fitness, space: SearchSpace,
                 config: WpaConfig) -> OptimizerRun:
    """Run the wolf pack algorithm.

    Each iteration: non-lead wolves scout with small random probes, run toward
    the lead with the largest step until within ``WPA_DISTANCE_THRESHOLD`` and
    besiege with a small step; winner-take-all replaces the lead, and the worst
    ``WPA_RENEW_FRACTION`` of the pack respawns near the best wolf.

    Step sizes derive from ``WPA_STEP_COEFF`` S: scouting uses
    S * span / dim, calling 4x that, besieging 0.5x (ordering per the
    behaviour description; exact ratios are a toolkit choice). Steps decay
    geometrically with iteration so late besieging can refine the optimum.
    """
    rng = np.random.default_rng(config.seed)
    dim = space.dim
    base_step = WPA_STEP_COEFF * np.mean(space.span) / dim
    positions = space.sample(rng, config.n_wolves)
    values = _evaluate(fitness, positions)
    lead = int(np.argmin(values))
    run = OptimizerRun._start(positions[lead], values[lead])
    n_renew = math.ceil(WPA_RENEW_FRACTION * config.n_wolves)
    half = WPA_DISTANCE_THRESHOLD

    def probe(i: int, step: float) -> bool:
        """A unit random step from wolf i, kept if better; False if zero."""
        direction = rng.standard_normal(dim)
        norm = math.sqrt(direction.dot(direction))
        if norm == 0:
            return False
        point = space.clamp(positions[i] + step * direction / norm)
        y = fitness(point)
        if y < values[i]:
            positions[i], values[i] = point, y
        return True

    for it in range(config.max_iters):
        scout_step = base_step * 0.99 ** it
        for i in range(config.n_wolves):
            if i == lead:
                continue
            # scouting: directed probes, keep the first improving one
            for _ in range(WPA_SCOUT_MAX_REPEATS):
                if probe(i, scout_step) and values[i] < values[lead]:
                    break
            # calling: run toward the lead until within the threshold
            while values[i] >= values[lead]:
                gap = positions[lead] - positions[i]
                dist = math.sqrt(gap.dot(gap))
                if dist <= WPA_DISTANCE_THRESHOLD:
                    break
                move = min(4.0 * scout_step, dist)
                positions[i] = space.clamp(positions[i] + move * gap / dist)
                values[i] = fitness(positions[i])
            # besieging: one small random step around the prey (lead)
            probe(i, 0.5 * scout_step)
        # winner-take-all lead replacement
        challenger = int(np.argmin(values))
        if values[challenger] < values[lead]:
            lead = challenger
        run._keep(positions[lead], values[lead])
        # renewal: respawn the worst wolves near the best wolf
        worst = [int(w) for w in np.argsort(values, kind="stable")[::-1]
                 if w != lead][:n_renew]
        for w in worst:
            positions[w] = space.clamp(
                positions[lead] + rng.uniform(-half, half, size=dim))
            values[w] = fitness(positions[w])
            if run._keep(positions[w], values[w]):
                lead = w
        run.trace.append(run.best_value)
    return run
