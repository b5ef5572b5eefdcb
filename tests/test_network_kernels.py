"""Array-backed network kernels: the mesh build and the potential field
against the per-pair and per-obstacle loops they replaced, networkx as an
independent graph oracle, and a structural guard that building a mesh does
no per-pair Python work."""
import itertools
import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from swarmlink import cli, network
from swarmlink.network import (GROUND_STATION_ID, ObstacleField,
                               TopologyError, TopologyKind, apf_plan,
                               build_topology, flood, grid_graph, route_hops,
                               route_shortest)

REPO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "reference.json"


# ------------------------------------------------------ reference loops

def reference_mesh_in_range(positions, nodes, link_range):
    """The pair loop: one norm per pair, in combinations order."""
    near = [[] for _ in nodes]
    costs = [[] for _ in nodes]
    for i, j in itertools.combinations(range(len(nodes)), 2):
        cost = float(np.linalg.norm(positions[i] - positions[j]))
        if cost <= link_range:
            near[i].append(nodes[j])
            costs[i].append(cost)
            near[j].append(nodes[i])
            costs[j].append(cost)
    return near, costs


def reference_gradient(point, fld, attract_gain, repel_gain,
                       influence_radius):
    """One obstacle at a time, in obstacle order."""
    grad = attract_gain * (point - fld.goal)
    for center, radius in fld.obstacles:
        offset = point - center
        dist = float(np.linalg.norm(offset)) - radius
        if dist <= 0:
            dist = 1e-9
        if dist < influence_radius:
            direction = offset / max(np.linalg.norm(offset), 1e-12)
            grad += (-repel_gain * (1.0 / dist - 1.0 / influence_radius)
                     / (dist * dist)) * direction
    return grad


def reference_potential(point, fld, attract_gain, repel_gain,
                        influence_radius):
    """One point, one obstacle at a time, in Python floats."""
    value = 0.5 * attract_gain * float(np.sum((point - fld.goal) ** 2))
    for center, radius in fld.obstacles:
        dist = float(np.linalg.norm(point - center)) - radius
        if dist <= 0:
            dist = 1e-9
        if dist < influence_radius:
            value += 0.5 * repel_gain * (1.0 / dist
                                         - 1.0 / influence_radius) ** 2
    return value


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def adjacency_bits(graph):
    """Every node's neighbours in order, costs as bit patterns."""
    return {a: [(b, bits(c)) for b, c in graph.near(a).items()]
            for a in graph.nodes}


# ---------------------------------------------------------------- mesh

coords = st.floats(-40.0, 40.0, allow_nan=False)


@st.composite
def swarms(draw):
    """A topology kind, sizes that fit it, positions drawn from a small
    pool so that some coincide, and a link range that is often exactly
    the distance of one pair."""
    kind = draw(st.sampled_from(list(TopologyKind)))
    n_uavs = draw(st.integers(1, 14))
    n_groups = (1 if kind is TopologyKind.SINGLE_GROUP_AD_HOC
                else draw(st.integers(1, n_uavs)))
    pool = draw(st.lists(st.tuples(coords, coords, coords), min_size=1,
                         max_size=n_uavs + 1))
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=n_uavs + 1, max_size=n_uavs + 1))
    ids = [f"u{i}" for i in range(n_uavs)] + [GROUND_STATION_ID]
    positions = {n: np.array(pool[k]) for n, k in zip(ids, picks)}
    if n_uavs > 1 and draw(st.booleans()):
        a, b = draw(st.lists(st.sampled_from(ids[:-1]), min_size=2,
                             max_size=2, unique=True))
        link_range = float(np.linalg.norm(positions[a] - positions[b]))
    else:
        link_range = draw(st.floats(0.5, 80.0))
    return kind, n_uavs, n_groups, link_range, positions


def build_both(kind, n_uavs, n_groups, link_range, positions):
    """(graph or TopologyError) from the array mesh and from the loop."""
    results = []
    for mesh in (network._mesh_in_range, reference_mesh_in_range):
        with mock.patch.object(network, "_mesh_in_range", mesh):
            try:
                results.append(build_topology(kind, n_uavs, n_groups,
                                              link_range, positions))
            except TopologyError as exc:
                results.append(exc)
    return results


@settings(max_examples=300, deadline=None)
@given(swarms())
def test_mesh_equals_pair_loop(swarm):
    built, expected = build_both(*swarm)
    assert type(built) is type(expected)
    if isinstance(expected, TopologyError):
        assert built.orphans == expected.orphans
        assert str(built) == str(expected)
    else:
        assert adjacency_bits(built) == adjacency_bits(expected)
        assert built.edges == expected.edges


def test_pairs_at_exactly_link_range_and_duplicates_are_linked():
    positions = {GROUND_STATION_ID: np.zeros(3),
                 "u0": np.array([0.0, 0.0, 10.0]),
                 "u1": np.array([3.0, 4.0, 10.0]),     # 5 m from u0
                 "u2": np.array([3.0, 4.0, 10.0]),     # on top of u1
                 "u3": np.array([3.0, 4.0, 15.0])}     # 5 m above u1
    graph = build_topology(TopologyKind.SINGLE_GROUP_AD_HOC, 4, 1, 5.0,
                           positions)
    assert graph.near("u0") == {"u1": 5.0, "u2": 5.0,
                                GROUND_STATION_ID: 10.0}
    assert graph.near("u1")["u2"] == 0.0
    assert graph.near("u3") == {"u1": 5.0, "u2": 5.0}


@pytest.fixture(scope="module")
def nx():
    """networkx, the graph oracle; only its tests skip where it is absent."""
    return pytest.importorskip("networkx")


def nx_graph(nx, graph):
    g = nx.Graph()
    g.add_nodes_from(graph.nodes)
    g.add_weighted_edges_from(graph.edges)
    return g


AD_HOC = [TopologyKind.SINGLE_GROUP_AD_HOC, TopologyKind.MULTI_GROUP_AD_HOC,
          TopologyKind.MULTI_LAYER_AD_HOC]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(AD_HOC), st.integers(2, 40), st.integers(1, 4),
       st.floats(5.0, 60.0), st.integers(0, 2 ** 32 - 1))
@example(TopologyKind.MULTI_LAYER_AD_HOC, 8, 2, 40.0, 8)   # masters split
def test_mesh_edges_equal_networkx_geometric_edges(nx, kind, n_uavs,
                                                     n_groups, link_range,
                                                     seed):
    """Each group meshes its members in range, and a multi-layer swarm its
    masters too; the first of these layers that networkx finds split
    names its orphans."""
    if kind is TopologyKind.SINGLE_GROUP_AD_HOC:
        n_groups = 1
    n_groups = min(n_groups, n_uavs)
    rng = np.random.default_rng(seed)
    positions = {f"u{i}": rng.uniform(-30.0, 30.0, 3) for i in range(n_uavs)}
    positions[GROUND_STATION_ID] = np.zeros(3)
    uavs = [f"u{i}" for i in range(n_uavs)]
    dists = [np.linalg.norm(positions[a] - positions[b])
             for a, b in itertools.combinations(uavs, 2)]
    # the oracle measures its own way; keep clear of the boundary
    assume(all(abs(d - link_range) > 1e-9 * link_range for d in dists))
    g = nx.Graph()
    g.add_nodes_from((u, {"pos": tuple(positions[u])}) for u in uavs)
    in_range = nx.geometric_edges(g, link_range)
    # the first n_uavs mod n_groups groups take one extra member
    groups = [a.tolist() for a in np.array_split(uavs, n_groups)]
    layers = [("ad hoc group", members) for members in groups]
    if kind is TopologyKind.MULTI_LAYER_AD_HOC:
        layers.append(("master layer", [members[0] for members in groups]))
    expected, split = set(), None
    for context, members in layers:
        layer = nx.Graph()
        layer.add_nodes_from(members)
        layer.add_edges_from(e for e in in_range if set(e) <= set(members))
        expected |= {frozenset(e) for e in layer.edges}
        if split is None and not nx.is_connected(layer):
            split = context, tuple(sorted(
                set(members) - nx.node_connected_component(layer,
                                                           members[0])))
    try:
        graph = build_topology(kind, n_uavs, n_groups, link_range,
                               positions)
    except TopologyError as exc:
        assert split is not None
        assert str(exc).startswith(split[0] + ":")
        assert exc.orphans == split[1]
        return
    assert split is None
    mesh = {frozenset((a, b)) for a, b, _ in graph.edges
            if GROUND_STATION_ID not in (a, b)}
    assert mesh == expected


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(TopologyKind)), st.integers(2, 30),
       st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_routes_equal_networkx(nx, kind, n_uavs, n_groups, seed):
    if kind is TopologyKind.SINGLE_GROUP_AD_HOC:
        n_groups = 1
    n_groups = min(n_groups, n_uavs)
    rng = np.random.default_rng(seed)
    positions = {f"u{i}": rng.uniform(-30.0, 30.0, 3) for i in range(n_uavs)}
    positions[GROUND_STATION_ID] = np.zeros(3)
    try:
        graph = build_topology(kind, n_uavs, n_groups, 45.0, positions)
    except TopologyError:
        return
    g = nx_graph(nx, graph)
    nodes = graph.nodes
    for _ in range(5):
        src, dst = (nodes[int(i)] for i in rng.integers(len(nodes), size=2))
        _, cost = route_shortest(graph, src, dst)
        assert cost == pytest.approx(
            nx.dijkstra_path_length(g, src, dst), rel=1e-12, abs=0.0)
        assert route_hops(graph, src, dst) == nx.shortest_path_length(
            g, src, dst)


def flood_cases():
    """Ad hoc and multi-layer swarms that build, and walled grids, some of
    them split."""
    rng = np.random.default_rng(25)
    cases = []
    while len(cases) < 12:
        kind = AD_HOC[len(cases) % 3]
        n_uavs = int(rng.integers(2, 40))
        n_groups = (1 if kind is TopologyKind.SINGLE_GROUP_AD_HOC
                    else int(rng.integers(1, min(n_uavs, 4) + 1)))
        positions = {f"u{i}": rng.uniform(-30.0, 30.0, 3)
                     for i in range(n_uavs)}
        positions[GROUND_STATION_ID] = np.zeros(3)
        try:
            cases.append(build_topology(kind, n_uavs, n_groups, 35.0,
                                        positions))
        except TopologyError:
            pass
    for _ in range(6):
        walls = rng.integers(0, 9, size=(int(rng.integers(0, 30)), 2))
        cases.append(grid_graph(9, 9, map(tuple, walls.tolist())))
    return cases


def test_flood_equals_networkx_ball_at_every_ttl(nx):
    """After ``ttl`` rounds the flood has delivered the ball of radius
    ``ttl`` around the source, at the depth of its farthest node, and every
    node within ``ttl - 1`` hops has sent on each edge but the one it
    first heard on."""
    rng = np.random.default_rng(26)
    for graph in flood_cases():
        g = nx_graph(nx, graph)
        for src in (graph.nodes[int(i)] for i in rng.integers(
                len(graph.nodes), size=3)):
            hops = nx.single_source_shortest_path_length(g, src)
            eccentricity = max(hops.values())
            for ttl in range(eccentricity + 2):
                delivered, messages, depth = flood(graph, src, ttl)
                assert delivered == set(nx.single_source_shortest_path_length(
                    g, src, cutoff=ttl))
                assert depth == min(ttl, eccentricity)
                senders = [v for v, d in hops.items() if d < ttl]
                assert messages == (sum(g.degree(v) for v in senders)
                                    - sum(hops[v] > 0 for v in senders))


# ----------------------------------------------------------------- APF

@st.composite
def fields_and_points(draw):
    """Obstacles on a half-metre grid, so that points placed inside an
    obstacle or exactly on its influence boundary are exact, plus free
    points."""
    grid = st.integers(-40, 40).map(lambda k: 0.5 * k)
    n_obstacles = draw(st.integers(0, 8))
    obstacles = [((draw(grid), draw(grid), draw(grid)),
                  0.5 * draw(st.integers(1, 10)))
                 for _ in range(n_obstacles)]
    influence = 0.5 * draw(st.integers(1, 16))
    goal = (draw(grid), draw(grid), draw(grid))
    fld = ObstacleField(goal=goal, obstacles=tuple(obstacles))
    points = draw(st.lists(st.tuples(coords, coords, coords), max_size=12))
    for (center, radius) in obstacles:
        c = np.array(center)
        axis = np.eye(3)[draw(st.integers(0, 2))]
        points += [tuple(c), tuple(c + 0.5 * radius * axis),   # inside
                   tuple(c + radius * axis),                   # surface
                   tuple(c + (radius + influence) * axis)]     # boundary
    gains = (draw(st.floats(0.1, 5.0)), draw(st.floats(1.0, 200.0)),
             influence)
    return fld, np.array(points, dtype=float).reshape(-1, 3), gains


@settings(max_examples=200, deadline=None)
@given(fields_and_points())
def test_gradient_equals_obstacle_loop(case):
    fld, points, gains = case
    for p in points:
        assert bits(network._apf_gradient(p, fld, *gains)) == bits(
            reference_gradient(p, fld, *gains))


@settings(max_examples=200, deadline=None)
@given(fields_and_points())
def test_batched_potential_equals_per_point_loop(case):
    fld, points, gains = case
    batched = network._apf_potential(points, fld, *gains)
    assert batched.shape == (len(points),)
    assert bits(batched) == bits([reference_potential(p, fld, *gains)
                                  for p in points])


def test_potential_in_every_influence_shell_equals_per_point_loop():
    """20k points, each within the influence radius of an obstacle: enough
    repulsion terms to catch a square that rounds unlike Python's ``**``
    (about 1 in 1,200 values does)."""
    rng = np.random.default_rng(11)
    centers = rng.uniform(-50.0, 50.0, (5, 3))
    radii = rng.uniform(1.0, 5.0, 5)
    fld = ObstacleField(goal=(1.0, -2.0, 3.0),
                        obstacles=tuple(zip(centers, radii)))
    # 0.5 * repel_gain == 1 and a faint attraction, so that a last-bit
    # difference in the square is not rounded away in the sum
    gains = (1e-9, 2.0, 5.0)
    k = rng.integers(5, size=20000)
    directions = rng.normal(size=(20000, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    points = centers[k] + (radii[k] + rng.uniform(-0.5, 5.0, 20000))[
        :, None] * directions
    assert bits(network._apf_potential(points, fld, *gains)) == bits(
        [reference_potential(p, fld, *gains) for p in points])
    for p in points[:2000]:
        assert bits(network._apf_gradient(p, fld, *gains)) == bits(
            reference_gradient(p, fld, *gains))


def test_influence_boundary_and_clamp_are_exercised():
    """The grid cases really hit dist == influence radius (no repulsion)
    and a point inside an obstacle (the 1e-9 clamp)."""
    fld = ObstacleField(goal=(0.0, 0.0, 0.0),
                        obstacles=(((10.0, 0.0, 0.0), 2.0),))
    gains = (1.0, 50.0, 4.0)
    on_boundary = np.array([[16.0, 0.0, 0.0]])
    assert network._apf_potential(on_boundary, fld, *gains)[0] == 128.0
    inside = np.array([[10.5, 0.0, 0.0]])
    value = network._apf_potential(inside, fld, *gains)[0]
    assert value == reference_potential(inside[0], fld, *gains)
    assert value > 1e18


def test_apf_plan_rejects_bad_step_and_max_steps():
    fld = ObstacleField(goal=(10.0, 0.0, 0.0))
    for bad in (0.0, -0.1):
        with pytest.raises(ValueError, match="step"):
            apf_plan([0.0, 0.0, 0.0], fld, step=bad)
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="influence_radius"):
            apf_plan([0.0, 0.0, 0.0], fld, influence_radius=bad)
    with pytest.raises(ValueError, match="step: the gradient or a step"):
        apf_plan([0.0, 0.0, 0.0], fld, step=1e308)
    with pytest.raises(ValueError, match="max_steps"):
        apf_plan([0.0, 0.0, 0.0], fld, max_steps=-1)
    trajectory, _ = apf_plan([0.0, 0.0, 0.0], fld, max_steps=0)
    assert trajectory.shape == (1, 3)


# ---------------------------------------------------------- structure

@pytest.mark.parametrize("n_uavs", [10, 300])
def test_mesh_build_has_no_per_pair_python_work(monkeypatch, n_uavs):
    calls = []
    original = network._euclid

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(network, "_euclid", counted)
    rng = np.random.default_rng(n_uavs)
    positions = {f"u{i}": rng.uniform(0.0, 10.0, 3) for i in range(n_uavs)}
    positions[GROUND_STATION_ID] = np.zeros(3)
    graph = build_topology(TopologyKind.SINGLE_GROUP_AD_HOC, n_uavs, 1,
                           100.0, positions)
    assert len(graph.edges) == n_uavs * (n_uavs - 1) // 2 + 1
    assert len(calls) <= 1   # the ground-station link


def test_dense_mesh_builds_in_little_memory():
    """A 600-UAV mesh with about 165,000 edges holds each node id once and
    each edge as one index and one float per end: about 4 MB, where a map
    of maps with a boxed float per edge took 11.5 MB."""
    rng = np.random.default_rng(600)
    positions = {f"u{i}": rng.uniform(0.0, 100.0, 3) for i in range(600)}
    positions[GROUND_STATION_ID] = np.zeros(3)
    tracemalloc.start()
    try:
        graph = build_topology(TopologyKind.SINGLE_GROUP_AD_HOC, 600, 1,
                               100.0, positions)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    edges = sum(len(near) for near in graph.adjacency.values()) // 2
    assert edges > 150_000
    assert peak < 6 * 2 ** 20, peak


def test_run_network_evaluates_the_potential_once(monkeypatch, tmp_path):
    calls = []
    original = network._apf_potential

    def counted(points, *args):
        calls.append(len(points))
        return original(points, *args)

    monkeypatch.setattr(network, "_apf_potential", counted)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(json.loads(REPO_CONFIG.read_text())))
    out = tmp_path / "out"
    assert cli.main(["network", "--config", str(config), "--out",
                     str(out)]) == cli.EXIT_OK
    rows = (out / "apf_trajectory.csv").read_text().splitlines()[1:]
    assert calls == [len(rows)]


def test_node_checks_do_not_list_the_swarm():
    """The config checks on ids and positions run in time bounded by the
    ids given, not by ``n_uavs``."""
    assert network.is_node(3, "u2") and network.is_node(3, GROUND_STATION_ID)
    for node in ("u3", "u02", "u-1", "u", "x1", "u٣", "u" + "9" * 5000):
        assert not network.is_node(3, node)
    with pytest.raises(ValueError) as exc:
        network.check_positions(2 ** 63, {GROUND_STATION_ID: 0, "u0": 0,
                                          "u2": 0, "relay": 0})
    assert str(exc.value) == (
        "missing positions for ['u1', 'u3', 'u4', 'u5', 'u6', 'u7', 'u8', "
        f"'u9'] and {2 ** 63 - 2 - 8} more")
    network.check_positions(2, {"u0": 0, "u1": 0, GROUND_STATION_ID: 0,
                                "relay": 0})
