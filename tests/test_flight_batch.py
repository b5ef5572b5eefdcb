"""Batched flight loop tests: the struct-of-arrays formation and
position-hold loops against the per-UAV loops they replaced, row
independence of the batched kernels, one kernel tick against a scalar
oracle written from the model, the step size bound of the attitude loop,
and a structural guard that neither loop's per-tick cost has per-UAV or
per-tick graph work in it."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmlink import simulate
from swarmlink.dynamics import (PidGains, UavParams, UavState,
                                normalize_angle, step_state, step_states)
from swarmlink.formation import (MAX_DT, FormationMode, FormationSpec, Pose,
                                 RoleGraph, follower_targets, movement_step,
                                 movement_steps)

PARAMS = UavParams(mass=1.0, thrust_coeff=1e-5)
GAINS = PidGains(kp=16.0, kd=8.0)
DT = 0.01

headings = st.floats(-math.pi, math.pi, exclude_min=True)
coords = st.floats(-20.0, 20.0)


def arrays_of(state: UavState):
    """The (position, velocity, euler, euler_rates) arrays of one UAV."""
    return state.position, state.velocity, state.euler, state.euler_rates


def oracle_targets(root: Pose, roles: RoleGraph) -> dict:
    """Target ``(position, heading)`` by one follower_targets call on one
    row per edge, in topological order, so chained offsets compose."""
    poses = {roles.root_id: (root.position, root.heading)}
    edge_of = {f: (leader, spec) for leader, f, spec in roles.edges}
    for f in roles.topological_followers():
        leader, spec = edge_of[f]
        poses[f] = follower_targets(
            *poses[leader], spec.offset, spec.relative_heading,
            spec.mode is FormationMode.DOUBLE_FIXATION)
    del poses[roles.root_id]
    return poses


def oracle_formation(leader_path, roles, initial_states, gains, params, dt,
                     duration):
    """The per-UAV formation loop, from the kernels on one row: per tick,
    one target per edge, then one command and one dynamics step per
    follower. Returns each follower's (n + 1, 3) positions."""
    followers = roles.topological_followers()
    n_steps = int(round(duration / dt))
    times = np.arange(n_steps + 1) * dt
    states = {f: arrays_of(initial_states[f]) for f in followers}
    positions = {f: [states[f][0]] for f in followers}
    for k in range(n_steps):
        targets = oracle_targets(leader_path(times[k]), roles)
        for f in followers:
            command = movement_steps(*states[f], *targets[f], gains, params)
            states[f] = step_states(*states[f], *command, params, dt)
            positions[f].append(states[f][0])
    return {f: np.array(p) for f, p in positions.items()}


def oracle_position_hold(initial, target, gains, params, dt, duration):
    """The per-tick position-hold loop, from the kernels on one row: one
    command and one dynamics step per tick."""
    n_steps = int(round(duration / dt))
    state = arrays_of(initial)
    positions = np.empty((n_steps + 1, 3))
    positions[0] = state[0]
    for k in range(n_steps):
        command = movement_steps(*state, target.position, target.heading,
                                 gains, params)
        state = step_states(*state, *command, params, dt)
        positions[k + 1] = state[0]
    return np.arange(n_steps + 1) * dt, positions


def turning_leader(start, velocity, heading0, turn_rate):
    """Leader path whose heading turns at ``turn_rate`` rad/s, so it passes
    through every angle and wraps at +-pi on long enough runs."""
    start, velocity = np.asarray(start, float), np.asarray(velocity, float)

    def path(t):
        return Pose(position=start + velocity * t,
                    heading=heading0 + turn_rate * t)

    return path


@st.composite
def role_trees(draw):
    """A role tree of 0-12 followers and depth 1-4 with mixed FGD and DF
    edges, and an initial state per follower."""
    n = draw(st.integers(0, 12))
    max_depth = draw(st.integers(1, 4))
    ids = [f"u{k}" for k in draw(st.permutations(range(n)))]
    depth = {"L": 0}
    edges = []
    for follower in ids:
        leader = draw(st.sampled_from(
            [node for node, d in depth.items() if d < max_depth]))
        depth[follower] = depth[leader] + 1
        spec = FormationSpec(
            mode=draw(st.sampled_from(list(FormationMode))),
            offset=draw(st.tuples(coords, coords, st.floats(-2.0, 2.0))),
            relative_heading=draw(headings))
        edges.append((leader, follower, spec))
    states = {f: UavState(
        position=np.array(draw(st.tuples(coords, coords, coords))),
        velocity=np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3))),
        euler=np.array([draw(headings), draw(st.floats(-0.3, 0.3)),
                        draw(st.floats(-0.3, 0.3))]),
        euler_rates=np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3))))
        for f in ids}
    return RoleGraph(root_id="L", edges=tuple(edges)), states


@settings(max_examples=60, deadline=None)
@given(role_trees(), st.tuples(coords, coords, coords), headings,
       st.floats(-2.0, 2.0).filter(lambda w: abs(w) > 0.05),
       st.integers(1, 40))
def test_batched_formation_equals_per_uav_loop(tree, start, heading0,
                                               turn_rate, n_steps):
    roles, states = tree
    leader = turning_leader(start, (0.4, -0.2, 0.05), heading0, turn_rate)
    trace = simulate.simulate_formation(leader, roles, states, GAINS, PARAMS,
                                        DT, n_steps * DT)
    expected = oracle_formation(leader, roles, states, GAINS, PARAMS, DT,
                                n_steps * DT)
    assert trace.follower_positions.keys() == expected.keys()
    for f, positions in expected.items():
        assert np.array_equal(trace.follower_positions[f], positions), f


def test_deep_chain_equals_per_uav_loop():
    """A 12-deep chain takes one kernel pass per tree level."""
    edges, leader_id = [], "L"
    for k in range(12):
        mode = (FormationMode.DOUBLE_FIXATION if k % 2
                else FormationMode.FIXED_GLOBAL_DIFFERENCE)
        edges.append((leader_id, f"c{k}", FormationSpec(
            mode, (-2.0, 0.5 * k, 0.1), relative_heading=0.4 * k - 2.0)))
        leader_id = f"c{k}"
    roles = RoleGraph(root_id="L", edges=tuple(edges))
    leader = turning_leader((0.0, 0.0, 10.0), (0.3, 0.1, 0.0), 3.0, 0.8)
    states = {f: UavState.at_rest(p) for f, p in
              zip(roles.followers, roles.targets(leader(0.0))[0])}
    trace = simulate.simulate_formation(leader, roles, states, GAINS, PARAMS,
                                        DT, 1.0)
    for f, positions in oracle_formation(leader, roles, states, GAINS,
                                         PARAMS, DT, 1.0).items():
        assert np.array_equal(trace.follower_positions[f], positions), f


def test_no_followers_and_bad_dt():
    roles = RoleGraph(root_id="L")
    leader = turning_leader((1.0, 2.0, 3.0), (0.5, 0.0, 0.0), 0.0, 0.1)
    trace = simulate.simulate_formation(leader, roles, {}, GAINS, PARAMS,
                                        DT, 0.5)
    assert trace.follower_positions == {}
    assert trace.leader_positions.shape == (51, 3)
    np.testing.assert_array_equal(trace.leader_positions[-1],
                                  leader(trace.times[-1]).position)
    for dt in (0.0, -0.01):
        with pytest.raises(ValueError, match="dt"):
            simulate.simulate_formation(leader, roles, {}, GAINS, PARAMS, dt,
                                        0.5)
        # position hold raised ZeroDivisionError at dt = 0
        with pytest.raises(ValueError, match="dt"):
            simulate.simulate_position_hold(
                UavState.at_rest(), Pose(position=(1.0, 0.0, 0.0)), GAINS,
                PARAMS, dt, 0.5)


target_coords = st.one_of(st.just(-0.0), st.just(0.0), coords)


@settings(max_examples=60, deadline=None)
@given(st.tuples(coords, coords, coords),
       st.tuples(*[st.floats(-1.0, 1.0)] * 3),
       st.tuples(headings, st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
       st.tuples(*[st.floats(-1.0, 1.0)] * 3),
       st.tuples(target_coords, target_coords, target_coords), headings,
       st.floats(0.5, 40.0), st.floats(0.5, 20.0), st.floats(0.2, 5.0),
       st.integers(0, 150))
def test_position_hold_equals_per_tick_loop(position, velocity, euler,
                                            euler_rates, target, heading,
                                            kp, kd, mass, n_steps):
    start = UavState(position=np.array(position),
                     velocity=np.array(velocity), euler=np.array(euler),
                     euler_rates=np.array(euler_rates))
    pose = Pose(position=target, heading=heading)
    gains = PidGains(kp=kp, kd=kd)
    params = UavParams(mass=mass, thrust_coeff=1e-5)
    times, positions = simulate.simulate_position_hold(
        start, pose, gains, params, DT, n_steps * DT)
    expected_times, expected = oracle_position_hold(
        start, pose, gains, params, DT, n_steps * DT)
    assert np.array_equal(times, expected_times)
    assert positions.tobytes() == expected.tobytes()


@st.composite
def body_rows(draw):
    """N = 0-8 rows of state, command and target arrays; angles already
    wrapped into (-pi, pi], as UavState and Pose keep them."""
    n = draw(st.integers(0, 8))

    def block(lo, hi, shape):
        flat = draw(st.lists(st.floats(lo, hi), min_size=int(np.prod(shape)),
                             max_size=int(np.prod(shape))))
        return np.array(flat, dtype=float).reshape(shape)

    return {"position": block(-50, 50, (n, 3)),
            "velocity": block(-3, 3, (n, 3)),
            "euler": normalize_angle(block(-4, 4, (n, 3))),
            "euler_rates": block(-2, 2, (n, 3)),
            "thrust": block(0, 30, (n,)), "moments": block(-50, 50, (n, 3)),
            "target_positions": block(-50, 50, (n, 3)),
            "target_headings": normalize_angle(block(-4, 4, (n,)))}


def _state(rows, i):
    return UavState(position=rows["position"][i],
                    velocity=rows["velocity"][i], euler=rows["euler"][i],
                    euler_rates=rows["euler_rates"][i])


@settings(max_examples=200, deadline=None)
@given(body_rows())
def test_step_states_rows_equal_step_state(rows):
    batch = step_states(rows["position"], rows["velocity"], rows["euler"],
                        rows["euler_rates"], rows["thrust"], rows["moments"],
                        PARAMS, DT)
    for i in range(len(rows["thrust"])):
        one = step_state(_state(rows, i), rows["thrust"][i],
                         rows["moments"][i], PARAMS, DT)
        for got, name in zip(batch, ("position", "velocity", "euler",
                                     "euler_rates")):
            assert np.array_equal(got[i], getattr(one, name)), name


@settings(max_examples=200, deadline=None)
@given(body_rows())
def test_movement_steps_rows_equal_movement_step(rows):
    thrust, moments = movement_steps(
        rows["position"], rows["velocity"], rows["euler"],
        rows["euler_rates"], rows["target_positions"],
        rows["target_headings"], GAINS, PARAMS)
    for i in range(len(thrust)):
        one_thrust, one_moments = movement_step(_state(rows, i), Pose(
            position=rows["target_positions"][i],
            heading=rows["target_headings"][i]), GAINS, PARAMS)
        assert thrust[i] == one_thrust
        assert np.array_equal(moments[i], one_moments)


# The movement layer's fixed attitude PD gains and tilt limit.
ATT_KP, ATT_KD, MAX_TILT = 400.0, 40.0, 0.4


def wrap(angle):
    """``angle`` wrapped into (-pi, pi]."""
    return -((math.pi - angle) % (2.0 * math.pi) - math.pi)


def oracle_tick(position, velocity, euler, rates, target, heading, gains,
                params, dt):
    """One tick of one UAV from the model, in scalar ``math``: the PD
    position law with the tilt clip, the attitude PD, the thrust along the
    body z axis under the ZYX rotation minus gravity, and one
    semi-implicit Euler step. Returns (position, velocity, euler, rates)
    as lists."""
    m, g = params.mass, params.gravity
    psi, theta, phi = euler
    a = [gains.kp * (t - p) - gains.kd * v
         for t, p, v in zip(target, position, velocity)]
    az = a[2] + g
    thrust = m * max(az, 0.0) / max(math.cos(theta) * math.cos(phi), 0.5)
    # the horizontal demand in the heading frame gives pitch and roll
    forward = math.cos(psi) * a[0] + math.sin(psi) * a[1]
    left = math.sin(psi) * a[0] - math.cos(psi) * a[1]
    theta_des, phi_des = (
        min(max(math.atan2(x, max(az, 1e-6)), -MAX_TILT), MAX_TILT)
        for x in (forward, left))
    moments = [ATT_KP * wrap(want - have) - ATT_KD * rate
               for want, have, rate in zip((heading, theta_des, phi_des),
                                           euler, rates)]
    cps, sps = math.cos(psi), math.sin(psi)
    cth, sth = math.cos(theta), math.sin(theta)
    cph, sph = math.cos(phi), math.sin(phi)
    body_z = (cps * sth * cph + sps * sph, sps * sth * cph - cps * sph,
              cth * cph)
    accel = [thrust / m * z for z in body_z]
    accel[2] -= g
    velocity = [v + dv * dt for v, dv in zip(velocity, accel)]
    rates = [r + dr * dt for r, dr in zip(rates, moments)]
    position = [p + v * dt for p, v in zip(position, velocity)]
    euler = [wrap(e + r * dt) for e, r in zip(euler, rates)]
    return position, velocity, euler, rates


@settings(max_examples=200, deadline=None)
@given(body_rows(), st.floats(0.5, 40.0), st.floats(0.5, 20.0),
       st.floats(0.2, 5.0), st.floats(1e-4, 0.04))
def test_kernel_tick_matches_scalar_oracle(rows, kp, kd, mass, dt):
    gains = PidGains(kp=kp, kd=kd)
    params = UavParams(mass=mass, thrust_coeff=1e-5)
    state = [rows[name] for name in ("position", "velocity", "euler",
                                     "euler_rates")]
    thrust, moments = movement_steps(*state, rows["target_positions"],
                                     rows["target_headings"], gains, params)
    ticked = step_states(*state, thrust, moments, params, dt)
    for i in range(len(thrust)):
        want = oracle_tick(*(x[i].tolist() for x in state),
                           rows["target_positions"][i].tolist(),
                           float(rows["target_headings"][i]), gains, params,
                           dt)
        for k, name in enumerate(("position", "velocity", "euler",
                                  "rates")):
            for got, expected in zip(ticked[k][i].tolist(), want[k]):
                gap = got - expected
                if name == "euler":
                    gap = wrap(gap)
                assert abs(gap) <= 1e-12 * max(1.0, abs(expected)), name


def test_hold_converges_below_max_dt_and_is_rejected_at_it():
    """Under semi-implicit Euler the attitude PD loop is stable only below
    MAX_DT (about 0.0414 s); at dt = 0.045 a 1 m hold ended 4e11 m off."""
    assert 0.041 < MAX_DT < 0.042
    target = Pose(position=(1.0, 0.0, 0.0))
    _, positions = simulate.simulate_position_hold(
        UavState.at_rest(), target, GAINS, PARAMS, 0.041, 20.0)
    assert np.linalg.norm(positions[-1] - target.position) < 1e-12
    roles = RoleGraph(root_id="L")
    leader = turning_leader((0.0, 0.0, 10.0), (0.5, 0.0, 0.0), 0.0, 0.1)
    for dt in (MAX_DT, 0.05):
        with pytest.raises(ValueError, match="dt"):
            simulate.simulate_position_hold(UavState.at_rest(), target,
                                            GAINS, PARAMS, dt, 1.0)
        with pytest.raises(ValueError, match="dt"):
            simulate.simulate_formation(leader, roles, {}, GAINS, PARAMS, dt,
                                        1.0)


def test_formation_loop_has_no_per_uav_or_per_tick_graph_work(monkeypatch):
    """Both loops run with the one-row functions disabled, build no
    UavState, and sort no role graph: the graph sorts once, when it is
    built."""
    def disabled(*args, **kwargs):
        raise AssertionError("one-row function called by the batched loop")

    for name in ("step_state", "movement_step", "formation_targets"):
        monkeypatch.setattr(simulate, name, disabled)
    sorts, built = [], []
    original = RoleGraph.topological_followers

    def counted(self):
        sorts.append(self.root_id)
        return original(self)

    monkeypatch.setattr(RoleGraph, "topological_followers", counted)
    roles = RoleGraph(root_id="L", edges=(
        ("L", "a", FormationSpec(FormationMode.FIXED_GLOBAL_DIFFERENCE,
                                 (-5.0, 5.0, 0.0))),
        ("a", "b", FormationSpec(FormationMode.DOUBLE_FIXATION,
                                 (-5.0, 0.0, 0.0), 0.3))))
    assert sorts == ["L"]
    leader = turning_leader((0.0, 0.0, 10.0), (0.5, 0.0, 0.0), 0.2, 0.1)
    states = {f: UavState.at_rest((0.0, 0.0, 10.0)) for f in ("a", "b")}
    hold_start, hold_target = UavState.at_rest(), Pose(position=(1.0, 2.0,
                                                                 3.0))
    monkeypatch.setattr(UavState, "__post_init__",
                        lambda self: built.append(UavState))
    counts = []
    for duration in (0.1, 2.0):
        sorts.clear()
        trace = simulate.simulate_formation(leader, roles, states, GAINS,
                                            PARAMS, DT, duration)
        assert len(trace.times) == round(duration / DT) + 1
        times, _ = simulate.simulate_position_hold(
            hold_start, hold_target, GAINS, PARAMS, DT, duration)
        assert len(times) == round(duration / DT) + 1
        counts.append(len(sorts))
    assert counts == [0, 0]
    assert built == []


def test_leader_outside_the_tree_rejected():
    """Every leader must be the root or a follower, so that targets can be
    filled from the root pose alone; before, such a graph was accepted and
    formation_targets failed on every tick."""
    spec = FormationSpec(FormationMode.FIXED_GLOBAL_DIFFERENCE,
                         (1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match=r"\['X'\]"):
        RoleGraph(root_id="L", edges=(("L", "a", spec), ("X", "b", spec)))
