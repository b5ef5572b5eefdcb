"""Optimizer tests: scalar replay oracles for the update rules, plus
convergence, monotonicity and determinism properties."""
import numpy as np
import pytest

from swarmlink.swarm_opt import (PSO_C1, PSO_C2, GwoConfig, PsoConfig,
                                 SearchSpace, WpaConfig, gwo_optimize,
                                 gwo_step, pso_optimize, pso_step, rastrigin,
                                 sphere, wpa_optimize)

SPACE_10 = SearchSpace(lower=np.full(10, -5.0), upper=np.full(10, 5.0))
SPACE_5 = SearchSpace(lower=np.full(5, -5.0), upper=np.full(5, 5.0))


def test_benchmark_functions():
    assert sphere(np.zeros(4)) == 0.0
    assert sphere(np.array([1.0, 2.0])) == 5.0
    assert rastrigin(np.zeros(6)) == pytest.approx(0.0, abs=1e-12)
    # rastrigin at integer points reduces to the sphere value
    assert rastrigin(np.array([1.0, -2.0])) == pytest.approx(5.0, abs=1e-9)


def test_search_space_helpers():
    space = SearchSpace(lower=[-1.0, 0.0], upper=[1.0, 4.0])
    assert space.dim == 2
    np.testing.assert_array_equal(space.span, [2.0, 4.0])
    clamped = space.clamp(np.array([[5.0, -3.0]]))
    np.testing.assert_array_equal(clamped, [[1.0, 0.0]])
    rng = np.random.default_rng(0)
    pts = space.sample(rng, 100)
    assert pts.shape == (100, 2)
    assert np.all(pts >= space.lower) and np.all(pts <= space.upper)
    with pytest.raises(ValueError):
        SearchSpace(lower=[0.0], upper=[0.0])


def test_pso_step_scalar_replay():
    """Replay one PSO update by drawing the same random numbers from an
    identically seeded generator, in a box wide enough that neither the
    velocity clip nor the position clamp binds."""
    space = SearchSpace(lower=[-100.0], upper=[100.0])
    positions = np.array([[1.0], [2.0]])
    velocities = np.array([[0.1], [-0.2]])
    pbest = np.array([[0.5], [1.5]])
    gbest = np.array([0.0])
    rng = np.random.default_rng(123)
    new_p, new_v = pso_step(positions, velocities, pbest, gbest, 0.7, space,
                            rng)
    oracle = np.random.default_rng(123)
    r1 = oracle.uniform(size=(2, 1))
    r2 = oracle.uniform(size=(2, 1))
    v_expect = (0.7 * velocities + PSO_C1 * r1 * (pbest - positions)
                + PSO_C2 * r2 * (gbest - positions))
    np.testing.assert_allclose(new_v, v_expect, rtol=1e-15)
    np.testing.assert_allclose(new_p, positions + v_expect, rtol=1e-15)


def test_gwo_step_scalar_replay():
    rng = np.random.default_rng(77)
    positions = np.array([[3.0], [-2.0]])
    alpha, beta, delta = (np.array([0.5]), np.array([1.0]), np.array([-1.0]))
    a = 1.2
    new = gwo_step(positions, alpha, beta, delta, a, rng)
    oracle = np.random.default_rng(77)
    expect = np.empty_like(positions)
    for i, x in enumerate(positions):
        anchors = []
        for leader in (alpha, beta, delta):
            r1 = oracle.uniform(size=1)
            r2 = oracle.uniform(size=1)
            big_a = 2.0 * a * r1 - a
            d = np.abs(2.0 * r2 * leader - x)
            anchors.append(leader - big_a * d)
        expect[i] = sum(anchors) / 3.0
    np.testing.assert_allclose(new, expect, rtol=1e-15)


def test_gwo_step_rejects_bad_a():
    with pytest.raises(ValueError):
        gwo_step(np.zeros((4, 1)), np.zeros(1), np.zeros(1), np.zeros(1),
                 2.5, np.random.default_rng(0))


def test_pso_converges_on_sphere():
    run = pso_optimize(sphere, SPACE_10,
                       PsoConfig(n_particles=40, max_iters=500, seed=42))
    assert run.best_value < 1e-3
    assert sphere(run.best_position) == pytest.approx(run.best_value)


def test_gwo_converges_on_sphere():
    run = gwo_optimize(sphere, SPACE_10,
                       GwoConfig(n_wolves=30, max_iters=500, seed=42))
    assert run.best_value < 1e-3


def test_wpa_converges_on_sphere():
    run = wpa_optimize(sphere, SPACE_5,
                       WpaConfig(n_wolves=20, max_iters=200, seed=42))
    assert run.best_value < 1e-2


@pytest.mark.parametrize("optimize,config", [
    (pso_optimize, PsoConfig(n_particles=20, max_iters=100, seed=3)),
    (gwo_optimize, GwoConfig(n_wolves=12, max_iters=100, seed=3)),
    (wpa_optimize, WpaConfig(n_wolves=10, max_iters=50, seed=3)),
])
def test_trace_monotone_and_consistent(optimize, config):
    run = optimize(rastrigin, SPACE_5, config)
    trace = np.asarray(run.trace)
    assert trace.size == config.max_iters + 1
    assert np.all(np.diff(trace) <= 0)
    assert trace[-1] == run.best_value
    assert run.best_value == pytest.approx(rastrigin(run.best_position))


@pytest.mark.parametrize("optimize,config", [
    (pso_optimize, PsoConfig(n_particles=20, max_iters=60, seed=9)),
    (gwo_optimize, GwoConfig(n_wolves=12, max_iters=60, seed=9)),
    (wpa_optimize, WpaConfig(n_wolves=10, max_iters=30, seed=9)),
])
def test_identical_seeds_bit_identical(optimize, config):
    a = optimize(sphere, SPACE_5, config)
    b = optimize(sphere, SPACE_5, config)
    assert a.trace == b.trace
    assert np.array_equal(a.best_position, b.best_position)


def test_different_seeds_differ():
    a = pso_optimize(sphere, SPACE_5, PsoConfig(max_iters=20, seed=1))
    b = pso_optimize(sphere, SPACE_5, PsoConfig(max_iters=20, seed=2))
    assert a.trace != b.trace


def test_results_stay_in_bounds():
    space = SearchSpace(lower=[1.0, 1.0], upper=[2.0, 3.0])
    for run in (
        pso_optimize(sphere, space, PsoConfig(max_iters=50, seed=0)),
        gwo_optimize(sphere, space, GwoConfig(max_iters=50, seed=0)),
        wpa_optimize(sphere, space, WpaConfig(max_iters=50, seed=0)),
    ):
        assert np.all(run.best_position >= space.lower - 1e-12)
        assert np.all(run.best_position <= space.upper + 1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        PsoConfig(n_particles=1)
    with pytest.raises(ValueError):
        GwoConfig(n_wolves=3)
    with pytest.raises(ValueError):
        WpaConfig(n_wolves=2)


@pytest.mark.parametrize("lower,upper", [
    ([], []), (np.zeros(0), np.zeros(0)),
    ([-1e308], [1e308]), ([-np.inf], [0.0]), ([0.0], [np.inf]),
    ([0.0, -1e308], [1.0, 1e308])])
def test_search_space_rejects_empty_and_unbounded_boxes(lower, upper):
    with pytest.raises(ValueError):
        SearchSpace(lower=lower, upper=upper)
