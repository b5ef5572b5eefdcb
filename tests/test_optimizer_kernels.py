"""The population-batched GWO step and the lean stochastic path against the
forms they replaced: the per-wolf, per-leader GWO loop, ``np.sum``
fitness reductions, ``np.clip`` and ``np.linalg.norm``, the channel
built from ``re + 1j * im`` temporaries, and the Monte Carlo BER that drew
and held every bit and channel sample at once. Outputs and generator states
must match bit for bit, and a GWO step must draw its random numbers in one
call."""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmlink import channel, swarm_opt
from swarmlink.channel import FadingKind, FadingParams
from swarmlink.swarm_opt import (GwoConfig, PsoConfig, SearchSpace, WpaConfig,
                                 gwo_optimize, gwo_step, pso_optimize,
                                 rastrigin, sphere, wpa_optimize)


# ------------------------------------------------------ reference forms

def reference_sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


def reference_rastrigin(x):
    x = np.asarray(x)
    return float(10.0 * x.size + np.sum(x ** 2 - 10.0 * np.cos(2 * np.pi * x)))


def reference_clamp(space, positions):
    return np.clip(positions, space.lower, space.upper)


def reference_gwo_step(positions, alpha, beta, delta, a, rng):
    """Two draws per wolf and leader, in a Python loop."""
    new = np.empty_like(positions)
    for i, x in enumerate(positions):
        anchors = []
        for leader in (alpha, beta, delta):
            r1 = rng.uniform(size=x.shape)
            r2 = rng.uniform(size=x.shape)
            big_a = 2.0 * a * r1 - a
            big_c = 2.0 * r2
            d = np.abs(big_c * leader - x)
            anchors.append(leader - big_a * d)
        new[i] = (anchors[0] + anchors[1] + anchors[2]) / 3.0
    return new


def reference_pso(fitness, space, config):
    rng = np.random.default_rng(config.seed)
    positions = space.sample(rng, config.n_particles)
    velocities = (rng.uniform(-1.0, 1.0, size=positions.shape)
                  * space.span * 0.1)
    values = np.array([fitness(p) for p in positions])
    personal_bests = positions.copy()
    personal_values = values.copy()
    g = int(np.argmin(personal_values))
    best_position = personal_bests[g].copy()
    best_value = float(personal_values[g])
    trace = [best_value]
    for it in range(config.max_iters):
        frac = it / max(config.max_iters - 1, 1)
        inertia = swarm_opt.PSO_INERTIA_START + frac * (
            swarm_opt.PSO_INERTIA_END - swarm_opt.PSO_INERTIA_START)
        r1 = rng.uniform(size=positions.shape)
        cognitive = swarm_opt.PSO_C1 * r1 * (personal_bests - positions)
        r2 = rng.uniform(size=positions.shape)
        social = swarm_opt.PSO_C2 * r2 * (best_position - positions)
        velocities = inertia * velocities + cognitive + social
        velocities = np.clip(velocities, -space.span, space.span)
        positions = reference_clamp(space, positions + velocities)
        values = np.array([fitness(p) for p in positions])
        improved = values < personal_values
        personal_bests[improved] = positions[improved]
        personal_values[improved] = values[improved]
        g = int(np.argmin(personal_values))
        if personal_values[g] < best_value:
            best_value = float(personal_values[g])
            best_position = personal_bests[g].copy()
        trace.append(best_value)
    return best_position, trace


def reference_gwo(fitness, space, config):
    rng = np.random.default_rng(config.seed)
    positions = space.sample(rng, config.n_wolves)
    values = np.array([fitness(p) for p in positions])
    order = np.argsort(values, kind="stable")
    best_position = positions[order[0]].copy()
    best_value = float(values[order[0]])
    trace = [best_value]
    for it in range(config.max_iters):
        a = 2.0 * (1.0 - it / config.max_iters)
        positions = reference_gwo_step(positions, *positions[order[:3]], a,
                                       rng)
        positions = reference_clamp(space, positions)
        values = np.array([fitness(p) for p in positions])
        order = np.argsort(values, kind="stable")
        if values[order[0]] < best_value:
            best_value = float(values[order[0]])
            best_position = positions[order[0]].copy()
        trace.append(best_value)
    return best_position, trace


def reference_wpa(fitness, space, config):
    rng = np.random.default_rng(config.seed)
    n = config.n_wolves
    dim = space.dim
    base_step = swarm_opt.WPA_STEP_COEFF * np.mean(space.span) / dim
    positions = space.sample(rng, n)
    values = np.array([fitness(p) for p in positions])
    lead = int(np.argmin(values))
    best_position = positions[lead].copy()
    best_value = float(values[lead])
    trace = [best_value]
    for it in range(config.max_iters):
        scout_step = base_step * 0.99 ** it
        call_step = 4.0 * scout_step
        besiege_step = 0.5 * scout_step
        for i in range(n):
            if i == lead:
                continue
            for _ in range(swarm_opt.WPA_SCOUT_MAX_REPEATS):
                direction = rng.standard_normal(dim)
                norm = np.linalg.norm(direction)
                if norm == 0:
                    continue
                probe = reference_clamp(
                    space, positions[i] + scout_step * direction / norm)
                y = fitness(probe)
                if y < values[i]:
                    positions[i] = probe
                    values[i] = y
                if values[i] < values[lead]:
                    break
            while values[i] >= values[lead]:
                gap = positions[lead] - positions[i]
                dist = np.linalg.norm(gap)
                if dist <= swarm_opt.WPA_DISTANCE_THRESHOLD:
                    break
                move = min(call_step, dist)
                positions[i] = reference_clamp(
                    space, positions[i] + move * gap / dist)
                values[i] = fitness(positions[i])
            direction = rng.standard_normal(dim)
            norm = np.linalg.norm(direction)
            if norm > 0:
                probe = reference_clamp(
                    space, positions[i] + besiege_step * direction / norm)
                y = fitness(probe)
                if y < values[i]:
                    positions[i] = probe
                    values[i] = y
        challenger = int(np.argmin(values))
        if values[challenger] < values[lead]:
            lead = challenger
        if values[lead] < best_value:
            best_value = float(values[lead])
            best_position = positions[lead].copy()
        n_renew = math.ceil(swarm_opt.WPA_RENEW_FRACTION * n)
        worst = np.argsort(values, kind="stable")[::-1]
        worst = [int(w) for w in worst if int(w) != lead][:n_renew]
        half = swarm_opt.WPA_DISTANCE_THRESHOLD
        for w in worst:
            positions[w] = reference_clamp(
                space, positions[lead] + rng.uniform(-half, half, size=dim))
            values[w] = fitness(positions[w])
            if values[w] < best_value:
                best_value = float(values[w])
                best_position = positions[w].copy()
                lead = w
        trace.append(best_value)
    return best_position, trace


def reference_apply_channel(symbols, fading, ebn0_db):
    symbols = np.asarray(symbols, dtype=complex)
    rng = np.random.default_rng(fading.seed)
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    sigma = math.sqrt(1.0 / (2.0 * (2.0 * ebn0)))
    if fading.kind is FadingKind.AWGN:
        h = np.ones(symbols.shape)
    else:
        k = fading.rician_k if fading.kind is FadingKind.RICIAN else 0.0
        scatter = (rng.standard_normal(symbols.shape)
                   + 1j * rng.standard_normal(symbols.shape)) / math.sqrt(2.0)
        h = (math.sqrt(k / (k + 1.0))
             + math.sqrt(1.0 / (k + 1.0)) * scatter)
    noise = sigma * (rng.standard_normal(symbols.shape)
                     + 1j * rng.standard_normal(symbols.shape))
    return (h * symbols + noise) / h


def reference_ber_monte_carlo(fading, ebn0_db, n_bits):
    """The whole-array Monte Carlo: every bit in one draw, the arithmetic
    QPSK map, all four channel components through
    :func:`reference_apply_channel`, and int decisions."""
    bit_ss, chan_ss = np.random.SeedSequence(fading.seed).spawn(2)
    tx = np.random.default_rng(bit_ss).integers(0, 2, size=n_bits)
    i = 1.0 - 2.0 * tx[0::2]
    q = 1.0 - 2.0 * tx[1::2]
    symbols = (1.0 / math.sqrt(2.0)) * (i + 1j * q)
    chan = replace(fading, seed=int(chan_ss.generate_state(1)[0]))
    received = reference_apply_channel(symbols, chan, ebn0_db)
    decided = np.empty(n_bits, dtype=int)
    decided[0::2] = received.real < 0
    decided[1::2] = received.imag < 0
    n_errors = int(np.count_nonzero(decided != tx))
    return n_errors / n_bits, n_errors


def bits(x):
    """Bit patterns, so that -0.0 and 0.0 differ and NaN equals NaN."""
    x = np.asarray(x, dtype=float)
    return x.view(np.int64).tolist()


def complex_bits(z):
    return np.ascontiguousarray(z, dtype=complex).view(np.int64).tolist()


# ------------------------------------------------------------- GWO step

@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 40), dim=st.integers(1, 30),
       a=st.floats(0.0, 2.0), seed=st.integers(0, 2 ** 32 - 1))
def test_gwo_step_matches_per_wolf_loop(n, dim, a, seed):
    setup = np.random.default_rng([seed, 1])
    positions = setup.uniform(-10.0, 10.0, size=(n, dim))
    alpha, beta, delta = setup.uniform(-10.0, 10.0, size=(3, dim))
    rng = np.random.default_rng(seed)
    oracle = np.random.default_rng(seed)
    new = gwo_step(positions, alpha, beta, delta, a, rng)
    expect = reference_gwo_step(positions, alpha, beta, delta, a, oracle)
    assert new.shape == expect.shape
    assert bits(new) == bits(expect)
    assert rng.bit_generator.state == oracle.bit_generator.state


class CountingGenerator:
    """Passes every call to a real generator and records each ``uniform``
    call's keyword arguments."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.uniform_calls = []

    def uniform(self, *args, **kwargs):
        self.uniform_calls.append(kwargs)
        return self.rng.uniform(*args, **kwargs)


@pytest.mark.parametrize("n,dim", [(4, 1), (30, 10), (7, 25)])
def test_gwo_step_draws_once(n, dim):
    positions = np.random.default_rng(0).uniform(-1.0, 1.0, size=(n, dim))
    rng = CountingGenerator(5)
    gwo_step(positions, *positions[:3], 1.5, rng)
    assert rng.uniform_calls == [{"size": (n, 3, 2, dim)}]


# ------------------------------------------------------ per-agent calls

finite = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(x=st.lists(finite, min_size=1, max_size=60))
def test_fitness_reductions_match_np_sum(x):
    x = np.array(x)
    assert bits(sphere(x)) == bits(reference_sphere(x))
    assert bits(rastrigin(x)) == bits(reference_rastrigin(x))


@settings(max_examples=200, deadline=None)
@given(x=st.lists(finite, min_size=1, max_size=60))
def test_dot_norm_matches_linalg_norm(x):
    x = np.array(x)
    assert bits(math.sqrt(x.dot(x))) == bits(np.linalg.norm(x))


SIGNED = [-0.0, 0.0, math.nan, -2.0, 2.0, -1e-300, 1e-300]


@pytest.mark.parametrize("lower,upper", [
    ([0.0, -0.0, -1.0], [1.0, 1.0, 0.0]),
    ([-1.0, -1.0, 0.0], [-0.0, 0.0, 1.0]),
    ([0.0], [1.0]), ([-0.0], [1.0]), ([-1.0], [-0.0]), ([-1.0], [0.0])])
def test_clamp_matches_np_clip_on_signed_zeros_and_nan(lower, upper):
    space = SearchSpace(lower=lower, upper=upper)
    grid = np.array(np.meshgrid(*[SIGNED] * space.dim))
    grid = grid.reshape(space.dim, -1).T
    for points in (grid, grid[0], grid[-1], grid[::3]):
        assert bits(space.clamp(points)) == \
            bits(reference_clamp(space, points))


# ---------------------------------------------------- whole optimizers

FITNESS = [(sphere, reference_sphere), (rastrigin, reference_rastrigin)]


def _space(dim, lower, width):
    return SearchSpace(lower=np.full(dim, lower),
                       upper=np.full(dim, lower + width))


runs = dict(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 20),
            lower=st.floats(-50.0, 0.0), width=st.floats(0.5, 100.0),
            which=st.sampled_from(FITNESS))


@settings(max_examples=25, deadline=None)
@given(**runs)
def test_pso_run_matches_parent(seed, dim, lower, width, which):
    space = _space(dim, lower, width)
    config = PsoConfig(n_particles=6, max_iters=15, seed=seed)
    run = pso_optimize(which[0], space, config)
    position, trace = reference_pso(which[1], space, config)
    assert bits(run.trace) == bits(trace)
    assert bits(run.best_position) == bits(position)


@settings(max_examples=25, deadline=None)
@given(**runs)
def test_gwo_run_matches_parent(seed, dim, lower, width, which):
    space = _space(dim, lower, width)
    config = GwoConfig(n_wolves=6, max_iters=15, seed=seed)
    run = gwo_optimize(which[0], space, config)
    position, trace = reference_gwo(which[1], space, config)
    assert bits(run.trace) == bits(trace)
    assert bits(run.best_position) == bits(position)


@settings(max_examples=25, deadline=None)
@given(**runs)
def test_wpa_run_matches_parent(seed, dim, lower, width, which):
    space = _space(dim, lower, width)
    config = WpaConfig(n_wolves=5, max_iters=8, seed=seed)
    run = wpa_optimize(which[0], space, config)
    position, trace = reference_wpa(which[1], space, config)
    assert bits(run.trace) == bits(trace)
    assert bits(run.best_position) == bits(position)


def test_full_size_runs_match_parent():
    """The sizes the benchmark's stochastic workload runs, on the 10-D
    box."""
    space = _space(10, -5.0, 10.0)
    sizes = [(pso_optimize, reference_pso,
              PsoConfig(n_particles=40, max_iters=600)),
             (gwo_optimize, reference_gwo,
              GwoConfig(n_wolves=30, max_iters=400)),
             (wpa_optimize, reference_wpa,
              WpaConfig(n_wolves=20, max_iters=200))]
    for optimize, oracle, config in sizes:
        for seed, (fitness, reference) in zip((3, 4), FITNESS):
            config = replace(config, seed=seed)
            run = optimize(fitness, space, config)
            position, trace = oracle(reference, space, config)
            assert bits(run.trace) == bits(trace)
            assert bits(run.best_position) == bits(position)


# -------------------------------------------------------- Monte Carlo

CHANNELS = [FadingParams(FadingKind.AWGN, seed=11),
            FadingParams(FadingKind.RICIAN, rician_k=0.0, seed=12),
            FadingParams(FadingKind.RICIAN, rician_k=10.0, seed=13),
            FadingParams(FadingKind.RICIAN, rician_k=0.3, seed=14),
            FadingParams(FadingKind.RAYLEIGH, seed=15)]


@pytest.mark.parametrize("fading", CHANNELS, ids=lambda f: f.kind.value)
@pytest.mark.parametrize("ebn0_db", [-5.0, 0.0, 7.5, 20.0])
def test_apply_channel_matches_parent(fading, ebn0_db):
    rng = np.random.default_rng(0)
    qpsk = channel.qpsk_modulate(rng.integers(0, 2, size=4000))
    arbitrary = (rng.standard_normal((7, 9))
                 + 1j * rng.standard_normal((7, 9)))
    for symbols in (qpsk, arbitrary, qpsk[:1]):
        assert complex_bits(channel.apply_channel(symbols, fading, ebn0_db)) \
            == complex_bits(reference_apply_channel(symbols, fading, ebn0_db))


@pytest.mark.parametrize("fading", CHANNELS, ids=lambda f: f.kind.value)
def test_ber_monte_carlo_matches_parent(fading):
    points = [(ebn0_db, seeded) for ebn0_db in (0.0, 4.0, 10.0)
              for seeded in (fading, replace(fading, seed=99))]
    results = [channel.ber_monte_carlo(seeded, ebn0_db, 100_000)
               for ebn0_db, seeded in points]
    expect = [reference_ber_monte_carlo(seeded, ebn0_db, 100_000)
              for ebn0_db, seeded in points]
    assert results == expect
    assert all(isinstance(n, int) for _, n in results)


# ------------------------------------------------- streamed Monte Carlo

BLOCK = channel._BLOCK
STREAMED = [FadingParams(FadingKind.AWGN, seed=21),
            FadingParams(FadingKind.RICIAN, rician_k=0.0, seed=22),
            FadingParams(FadingKind.RICIAN, rician_k=50.0, seed=23),
            FadingParams(FadingKind.RAYLEIGH, seed=24)]


def _fading_id(fading):
    return f"{fading.kind.value}-{fading.rician_k:g}"


@pytest.mark.parametrize("fading", STREAMED, ids=_fading_id)
@pytest.mark.parametrize("ebn0_db", [-3.0, 6.0])
@pytest.mark.parametrize("n_bits", [2, 2 * BLOCK - 2, 2 * BLOCK,
                                    2 * BLOCK + 2, 4 * BLOCK + 6])
def test_streamed_monte_carlo_matches_whole_array_at_block_edges(
        fading, ebn0_db, n_bits):
    result = channel.ber_monte_carlo(fading, ebn0_db, n_bits)
    assert result == reference_ber_monte_carlo(fading, ebn0_db, n_bits)
    assert type(result[0]) is float and type(result[1]) is int


@pytest.mark.parametrize("fading", STREAMED, ids=_fading_id)
@pytest.mark.parametrize("n_bits", [2, 2 * BLOCK - 2, 2 * BLOCK,
                                    2 * BLOCK + 2, 4 * BLOCK + 6])
def test_grid_of_points_matches_scalar_calls_and_whole_array(fading, n_bits):
    """One call decides a shared draw at every point, in the given order."""
    grid = [6.0, -3.0, 2.5, -3.0]
    results = channel.ber_monte_carlo(fading, grid, n_bits)
    assert results == [channel.ber_monte_carlo(fading, e, n_bits)
                       for e in grid]
    assert results == [reference_ber_monte_carlo(fading, e, n_bits)
                       for e in grid]
    assert all(type(ber) is float and type(n) is int for ber, n in results)


def test_empty_grid_draws_nothing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew for an empty grid")

    monkeypatch.setattr(np.random, "SeedSequence", no_draws)
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    assert channel.ber_monte_carlo(STREAMED[3], [], 2 * BLOCK) == []


def test_monte_carlo_memory_does_not_grow_with_bits():
    """The whole-array form peaks near 100 MiB at 8M bits."""
    fading = FadingParams(FadingKind.RAYLEIGH, seed=5)

    def peak(n_bits):
        tracemalloc.start()
        try:
            channel.ber_monte_carlo(fading, [0.0, 8.0], n_bits)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(500_000), peak(8_000_000)
    assert large < 16 * 2 ** 20
    assert large <= 1.2 * small


@settings(max_examples=40, deadline=None)
@given(half=st.integers(1, 3 * BLOCK), fading=st.sampled_from(STREAMED),
       ebn0_db=st.floats(-10.0, 15.0), seed=st.integers(0, 2 ** 32 - 1))
def test_streamed_monte_carlo_matches_whole_array_any_size(half, fading,
                                                          ebn0_db, seed):
    fading = replace(fading, seed=seed)
    assert channel.ber_monte_carlo(fading, ebn0_db, 2 * half) == \
        reference_ber_monte_carlo(fading, ebn0_db, 2 * half)


@pytest.mark.parametrize("seed", range(8))
def test_generator_draws_split_into_blocks_equal_one_draw(seed):
    """The streamed Monte Carlo rests on this: numpy's bounded integers and
    ziggurat normals give the same values whether drawn in blocks of any
    size or in one call, so a block loop reproduces the whole draw."""
    sizes = [1, 7, BLOCK, 3, BLOCK + 1, 2, 2 * BLOCK - 5]
    for draw in (lambda rng, n: rng.integers(0, 2, size=n),
                 lambda rng, n: rng.standard_normal(n)):
        whole = draw(np.random.default_rng(seed), sum(sizes))
        rng = np.random.default_rng(seed)
        blocks = np.concatenate([draw(rng, n) for n in sizes])
        assert whole.dtype == blocks.dtype
        assert whole.tobytes() == blocks.tobytes()
