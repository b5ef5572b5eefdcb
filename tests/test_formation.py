"""Formation tests: target-rule oracles, equivariance properties, role
graph validation and closed-loop tracking."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmlink.dynamics import PidGains, UavParams, UavState
from swarmlink.formation import (FormationMode, FormationSpec, Pose,
                                 RoleGraph, follower_targets,
                                 formation_targets, movement_steps)
from swarmlink.simulate import (FormationTrace, simulate_formation,
                                simulate_position_hold, straight_line_leader)

PARAMS = UavParams(mass=1.0, thrust_coeff=1e-5)
GAINS = PidGains(kp=36.0, kd=9.0)

finite = st.floats(-100.0, 100.0, allow_nan=False)
angles = st.floats(-math.pi + 1e-6, math.pi)


def _fgd(offset):
    return FormationSpec(mode=FormationMode.FIXED_GLOBAL_DIFFERENCE,
                         offset=np.asarray(offset, float))


def _df(offset, rel_heading=0.0):
    return FormationSpec(mode=FormationMode.DOUBLE_FIXATION,
                         offset=np.asarray(offset, float),
                         relative_heading=rel_heading)


def target(position, heading, spec):
    """follower_targets on one follower of the leader pose (position,
    heading): ``(position (3,), heading)``."""
    return follower_targets(np.asarray(position, float), heading,
                            spec.offset, spec.relative_heading,
                            spec.mode is FormationMode.DOUBLE_FIXATION)


def test_fgd_target_hand_value():
    position, heading = target([1.0, 2.0, 3.0], 0.7, _fgd([-5.0, 5.0, 0.0]))
    np.testing.assert_array_equal(position, [-4.0, 7.0, 3.0])
    assert heading == pytest.approx(0.7)


def test_df_target_hand_value():
    # heading pi/2 rotates a +x offset onto +y
    position, heading = target(np.zeros(3), math.pi / 2,
                               _df([2.0, 0.0, 0.0], rel_heading=0.1))
    np.testing.assert_allclose(position, [0.0, 2.0, 0.0], atol=1e-12)
    assert heading == pytest.approx(math.pi / 2 + 0.1)


def test_df_zero_heading_equals_fgd():
    leader = [3.0, -1.0, 5.0]
    off = [1.0, 2.0, -0.5]
    np.testing.assert_allclose(target(leader, 0.0, _df(off))[0],
                               target(leader, 0.0, _fgd(off))[0])


@pytest.mark.parametrize("df", [False, True, 0, 1])
def test_follower_targets_takes_a_python_bool(df):
    """One follower's DF flag may be a Python bool or int, as well as a
    numpy bool; before, only np.bool_ was accepted."""
    leader = (np.array([1.0, 2.0, 3.0]), 0.7, np.array([-5.0, 2.0, 0.5]),
              0.5)
    got = follower_targets(*leader, df)
    want = follower_targets(*leader, np.bool_(df))
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    other = follower_targets(*leader, np.bool_(not df))
    assert not np.array_equal(got[0], other[0])


@settings(max_examples=1000, deadline=None)
@given(st.tuples(finite, finite, finite), st.tuples(finite, finite, finite),
       st.tuples(finite, finite, finite), angles)
def test_fgd_translation_equivariance(pos, shift, offset, heading):
    """Translating the leader translates the FGD target identically."""
    spec = _fgd(offset)
    np.testing.assert_allclose(
        target(np.add(pos, shift), heading, spec)[0],
        target(pos, heading, spec)[0] + np.array(shift), atol=1e-9)


@settings(max_examples=1000, deadline=None)
@given(st.tuples(finite, finite, finite), st.tuples(finite, finite, finite),
       angles, angles)
def test_df_rotation_equivariance(pos, offset, heading, extra):
    """Rotating the leader heading rotates the DF offset by the same
    angle about the vertical axis, and preserves the offset length."""
    spec = _df(offset)
    rel_base = target(pos, heading, spec)[0] - np.array(pos)
    rel_rot = target(pos, heading + extra, spec)[0] - np.array(pos)
    c, s = math.cos(extra), math.sin(extra)
    expect = np.array([c * rel_base[0] - s * rel_base[1],
                       s * rel_base[0] + c * rel_base[1], rel_base[2]])
    np.testing.assert_allclose(rel_rot, expect, atol=1e-7)
    assert np.linalg.norm(rel_rot) == pytest.approx(
        np.linalg.norm(np.array(offset)), abs=1e-7)


def test_role_graph_chained_targets():
    roles = RoleGraph(root_id="L", edges=(
        ("L", "a", _fgd([0.0, 1.0, 0.0])),
        ("a", "b", _fgd([0.0, 1.0, 0.0])),
    ))
    targets = formation_targets({"L": Pose(position=np.zeros(3))}, roles)
    np.testing.assert_array_equal(targets["a"].position, [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(targets["b"].position, [0.0, 2.0, 0.0])


def test_role_graph_validation():
    spec = _fgd([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):  # two leaders for one follower
        RoleGraph(root_id="L", edges=(("L", "a", spec), ("b", "a", spec)))
    with pytest.raises(ValueError):  # root follows someone
        RoleGraph(root_id="L", edges=(("a", "L", spec),))
    with pytest.raises(ValueError):  # cycle
        RoleGraph(root_id="L", edges=(("a", "b", spec), ("b", "a", spec)))
    with pytest.raises(ValueError):  # missing root pose
        formation_targets({}, RoleGraph(root_id="L", edges=(("L", "a", spec),)))


def test_movement_steps_tilt_setpoints():
    # hovering at the target with zero error commands hover thrust
    rest = (np.array([0.0, 0.0, 10.0]), *[np.zeros(3)] * 3)
    thrust, moments = movement_steps(*rest, np.array([0.0, 0.0, 10.0]), 0.0,
                                     GAINS, PARAMS)
    assert thrust == pytest.approx(PARAMS.mass * PARAMS.gravity)
    np.testing.assert_allclose(moments, 0.0, atol=1e-12)
    # a +x error pitches the craft forward (positive pitch moment)
    _, moments = movement_steps(*rest, np.array([1.0, 0.0, 10.0]), 0.0,
                                GAINS, PARAMS)
    assert moments[1] > 0.0
    with pytest.raises(ValueError, match="dt"):
        simulate_position_hold(UavState.at_rest(), Pose(position=np.zeros(3)),
                               GAINS, PARAMS, dt=0.0, duration=1.0)


def test_position_hold_step_response():
    # 1 m step in x settles to < 1% error
    initial = UavState.at_rest(position=(0.0, 0.0, 10.0))
    target = Pose(position=np.array([1.0, 0.0, 10.0]))
    _, positions = simulate_position_hold(initial, target, GAINS, PARAMS,
                                          dt=0.01, duration=10.0)
    err = np.linalg.norm(positions[-1] - target.position)
    assert err < 0.01


def test_formation_tracking_steady_state():
    """Three FGD followers behind a constant-velocity leader settle to an
    offset error below 2% of the offset norm; the residual equals the
    kd*v/kp ramp-tracking prediction."""
    offsets = {"f0": np.array([-5.0, 5.0, 0.0]),
               "f1": np.array([-5.0, -5.0, 0.0]),
               "f2": np.array([-10.0, 0.0, 0.0])}
    roles = RoleGraph(root_id="L", edges=tuple(
        ("L", f, _fgd(off)) for f, off in sorted(offsets.items())))
    v = 0.5
    leader = straight_line_leader([0.0, 0.0, 10.0], [v, 0.0, 0.0])
    states = {f: UavState.at_rest(position=np.array([0.0, 0.0, 10.0]) + off)
              for f, off in offsets.items()}
    trace = simulate_formation(leader, roles, states, GAINS, PARAMS,
                               dt=0.01, duration=20.0)
    predicted = GAINS.kd * v / GAINS.kp
    for f, off in offsets.items():
        err = trace.offset_error(f, off)
        assert err[-1] < 0.02 * np.linalg.norm(off)
        assert err[-1] == pytest.approx(predicted, rel=0.05)


def test_simulate_formation_missing_state():
    roles = RoleGraph(root_id="L", edges=(("L", "a", _fgd([1.0, 0, 0])),))
    leader = straight_line_leader([0, 0, 10], [0, 0, 0])
    with pytest.raises(ValueError):
        simulate_formation(leader, roles, {}, GAINS, PARAMS, 0.01, 0.1)


def test_formation_trace_offset_error():
    trace = FormationTrace(
        times=np.array([0.0, 1.0]),
        leader_positions=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        follower_positions={"f": np.array([[2.0, 0.0, 0.0],
                                           [3.5, 0.0, 0.0]])})
    err = trace.offset_error("f", np.array([2.0, 0.0, 0.0]))
    np.testing.assert_allclose(err, [0.0, 0.5])


@pytest.mark.parametrize("heading", [k * math.pi / 4 for k in range(-3, 5)],
                         ids=lambda h: f"{h:+.3f}")
def test_formation_tracking_any_heading(heading):
    """An FGD and a DF follower behind a leader flying along ``heading``
    over (-pi, pi] settle to an offset error below 2% of the offset norm
    (criterion 12's bound) at the kd*v/kp ramp-tracking residual."""
    c, s = math.cos(heading), math.sin(heading)
    fgd_off = np.array([-5.0, 5.0, 0.0])
    df_off = np.array([-10.0, 0.0, 0.0])
    world = {"fgd": fgd_off,
             "df": np.array([c * df_off[0] - s * df_off[1],
                             s * df_off[0] + c * df_off[1], df_off[2]])}
    roles = RoleGraph(root_id="L", edges=(
        ("L", "fgd", _fgd(fgd_off)), ("L", "df", _df(df_off, 0.5))))
    v = 0.5
    start = np.array([0.0, 0.0, 10.0])
    leader = straight_line_leader(start, [v * c, v * s, 0.0], heading)
    states = {f: UavState.at_rest(position=start + off)
              for f, off in world.items()}
    trace = simulate_formation(leader, roles, states, GAINS, PARAMS,
                               dt=0.01, duration=6.0)
    for f, off in world.items():
        err = trace.offset_error(f, off)
        assert err[-1] < 0.02 * np.linalg.norm(off), (f, err[-1])
        assert err[-1] == pytest.approx(GAINS.kd * v / GAINS.kp, rel=0.05)


small = st.floats(-0.3, 0.3)


@settings(max_examples=300, deadline=None)
@given(st.tuples(finite, finite, finite), st.tuples(small, small, small),
       angles, small, small,
       st.tuples(finite, finite, st.floats(-0.1, 0.1)),
       st.floats(-3.0, 3.0), angles)
def test_movement_steps_rotation_equivariance(pos, vel, yaw, pitch, roll,
                                              step, turn, alpha):
    """Rotating state and target about the vertical axis by ``alpha``
    leaves the body-frame command unchanged. The target is kept near the
    current altitude so the vertical acceleration command stays above
    3 m/s^2, away from the clamped free-fall case."""
    goal = np.add(pos, step)
    c, s = math.cos(alpha), math.sin(alpha)

    def rot(x):
        return np.array([c * x[0] - s * x[1], s * x[0] + c * x[1], x[2]])

    def command(r, d_yaw):
        state = UavState(position=r(pos), velocity=r(vel),
                         euler=np.array([yaw + d_yaw, pitch, roll]),
                         euler_rates=np.array([0.1, -0.2, 0.3]))
        goal_pose = Pose(position=r(goal), heading=yaw + turn + d_yaw)
        return movement_steps(state.position, state.velocity, state.euler,
                              state.euler_rates, goal_pose.position,
                              goal_pose.heading, GAINS, PARAMS)

    base = command(np.asarray, 0.0)
    turned = command(rot, alpha)
    assert turned[0] == pytest.approx(base[0], rel=1e-9)
    np.testing.assert_allclose(turned[1], base[1], rtol=1e-9, atol=1e-6)
