"""Network tests: brute-force and BFS oracles for routing/flooding,
structural invariants of every topology kind, and APF behaviour."""
import itertools

import numpy as np
import pytest

from swarmlink.network import (GROUND_STATION_ID, ApfOutcome, NodeRole,
                               ObstacleField, TopologyError, TopologyGraph,
                               TopologyKind, apf_plan, astar, build_topology,
                               compare_propagation, flood,
                               gradient_overflow, grid_graph, route_hops,
                               route_shortest)


def _random_positions(rng, n, spread=50.0):
    pos = {GROUND_STATION_ID: np.zeros(3)}
    for i in range(n):
        pos[f"u{i}"] = rng.uniform(-spread, spread, 3)
    return pos


def _random_graph(rng, n_nodes, p_edge=0.5):
    """Arbitrary connected-ish random graph as a TopologyGraph."""
    ids = [f"u{i}" for i in range(n_nodes)]
    roles = {i: NodeRole.SLAVE_UAV for i in ids}
    positions = {i: rng.uniform(-10, 10, 3) for i in ids}
    edges = [(a, b, float(np.linalg.norm(positions[a] - positions[b])))
             for a, b in itertools.combinations(ids, 2)
             if rng.uniform() < p_edge]
    return TopologyGraph.from_edges(TopologyKind.SINGLE_GROUP_AD_HOC, roles,
                                    positions, edges)


def _rebuilt(graph, edges, nodes=None):
    """A graph of ``graph``'s ``nodes`` (all, by default) and ``edges``."""
    nodes = graph.nodes if nodes is None else nodes
    return TopologyGraph.from_edges(
        graph.kind, {n: graph.roles[graph.index[n]] for n in nodes},
        {n: graph.positions[graph.index[n]] for n in nodes}, edges)


def _brute_force_shortest(graph, src, dst):
    """Enumerate every simple path; tractable for <= 8 nodes."""
    best = None
    nodes = graph.nodes
    near = {a: graph.near(a) for a in nodes}
    others = [n for n in nodes if n not in (src, dst)]
    for r in range(len(others) + 1):
        for mid in itertools.permutations(others, r):
            path = [src, *mid, dst]
            cost = 0.0
            ok = True
            for a, b in zip(path[:-1], path[1:]):
                if b not in near[a]:
                    ok = False
                    break
                cost += near[a][b]
            if ok and (best is None or cost < best):
                best = cost
    return best


def test_dijkstra_equals_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        graph = _random_graph(rng, n, p_edge=float(rng.uniform(0.2, 0.8)))
        src, dst = "u0", f"u{n - 1}"
        expect = _brute_force_shortest(graph, src, dst)
        path, cost = route_shortest(graph, src, dst)
        if expect is None:
            assert path is None and cost is None
        else:
            assert cost == pytest.approx(expect, rel=1e-12)
            # the reported path realizes the reported cost
            path_cost = sum(graph.near(a)[b]
                            for a, b in zip(path[:-1], path[1:]))
            assert path_cost == pytest.approx(cost)


def test_astar_equals_dijkstra_on_grids():
    rng = np.random.default_rng(1)
    for _ in range(50):
        walls = {(int(x), int(y))
                 for x, y in rng.integers(0, 20, size=(60, 2))}
        walls.discard((0, 0))
        walls.discard((19, 19))
        graph = grid_graph(20, 20, walls)
        a_path, a_cost, expansions = astar(graph, "0,0", "19,19")
        d_path, d_cost = route_shortest(graph, "0,0", "19,19")
        assert (a_path is None) == (d_path is None)
        if d_path is not None:
            assert a_cost == pytest.approx(d_cost, rel=1e-12)
            assert expansions <= len(graph.roles)


def test_astar_zero_heuristic_is_dijkstra():
    graph = grid_graph(8, 8)
    _, a_cost, _ = astar(graph, "0,0", "7,7", heuristic=lambda a, b: 0.0)
    _, d_cost = route_shortest(graph, "0,0", "7,7")
    assert a_cost == pytest.approx(d_cost)


def _bfs_reachable(graph, src, max_depth):
    seen = {src}
    frontier = [src]
    for _ in range(max_depth):
        nxt = []
        for node in frontier:
            for nb in graph.near(node):
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
    return seen


def test_flood_delivered_matches_bfs_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(4, 12))
        graph = _random_graph(rng, n, p_edge=0.3)
        for ttl in (0, 1, 2, n):
            delivered, _, _ = flood(graph, "u0", ttl)
            assert delivered == _bfs_reachable(graph, "u0", ttl)


def test_flood_message_count_on_path():
    """On a 5-node path, full flooding sends exactly 4 messages: each
    node forwards only on edges other than the arrival edge."""
    ids = [f"u{i}" for i in range(5)]
    roles = {i: NodeRole.SLAVE_UAV for i in ids}
    positions = {i: np.array([float(k), 0.0, 0.0])
                 for k, i in enumerate(ids)}
    graph = TopologyGraph.from_edges(
        TopologyKind.SINGLE_GROUP_AD_HOC, roles, positions,
        [(a, b, 1.0) for a, b in zip(ids[:-1], ids[1:])])
    assert flood(graph, "u0", ttl=10) == (set(ids), 4, 4)


def test_flood_ttl_zero():
    graph = _random_graph(np.random.default_rng(3), 5, 0.5)
    assert flood(graph, "u0", 0) == ({"u0"}, 0, 0)


def test_compare_propagation_star():
    rng = np.random.default_rng(4)
    graph = build_topology(TopologyKind.STAR, 5, 1, 100.0,
                           _random_positions(rng, 5, spread=20.0))
    out = compare_propagation(graph, "u0", "u2")
    assert out["routing"]["reached"] and out["flooding"]["reached"]
    assert out["routing"]["path"] == ["u0", GROUND_STATION_ID, "u2"]
    assert out["routing"]["hops"] == 2
    # flooding reaches every node but spends more messages than routing
    assert set(out["flooding"]["delivered"]) == set(graph.ids)
    assert out["flooding"]["messages"] > out["routing"]["messages"]


def _reordered(graph, rng):
    """The same graph built from its nodes and edges given in random
    order, each edge's ends swapped at random."""
    nodes = [graph.nodes[i] for i in rng.permutation(len(graph.nodes))]
    edges = [(b, a, cost) if swap else (a, b, cost)
             for (a, b, cost), swap in zip(
                 (graph.edges[i] for i in rng.permutation(len(graph.edges))),
                 rng.integers(2, size=len(graph.edges)).tolist())]
    return _rebuilt(graph, edges, nodes)


def test_searches_do_not_depend_on_neighbour_order():
    """Every result must be the same whatever order a graph's nodes and
    edges are given in; unit costs make ties."""
    rng = np.random.default_rng(9)
    graphs = []
    for k in range(60):
        graph = _random_graph(rng, int(rng.integers(2, 16)),
                              p_edge=float(rng.uniform(0.1, 0.6)))
        if k % 2:
            graph = _rebuilt(graph, [(a, b, 1.0) for a, b, _ in graph.edges])
        graphs.append(graph)
    for _ in range(20):
        walls = rng.integers(0, 8, size=(int(rng.integers(0, 16)), 2))
        graphs.append(grid_graph(8, 8, map(tuple, walls.tolist())))
    for graph in graphs:
        shuffled = _reordered(graph, rng)
        assert shuffled.edges == graph.edges
        nodes = graph.nodes
        for _ in range(4):
            src, dst = (nodes[int(i)] for i in rng.integers(len(nodes),
                                                            size=2))
            assert astar(graph, src, dst) == astar(shuffled, src, dst)
            assert route_shortest(graph, src, dst) == route_shortest(
                shuffled, src, dst)
            assert route_hops(graph, src, dst) == route_hops(shuffled, src,
                                                             dst)
            for ttl in (0, 1, 2, 3, len(nodes)):
                assert flood(graph, src, ttl) == flood(shuffled, src, ttl)
            assert compare_propagation(graph, src, dst) == \
                compare_propagation(shuffled, src, dst)


def _check_invariants(kind, graph, n_uavs, n_groups):
    roles = dict(zip(graph.nodes, graph.roles))
    near = {a: graph.near(a) for a in graph.nodes}
    assert roles[GROUND_STATION_ID] is NodeRole.GROUND_STATION
    assert sum(1 for r in roles.values()
               if r is NodeRole.GROUND_STATION) == 1
    assert len(roles) == n_uavs + 1
    gs_degree = len(near[GROUND_STATION_ID])
    masters = [n for n, r in roles.items() if r is NodeRole.MASTER_UAV]
    # symmetric adjacency with positive costs
    for a, nbrs in near.items():
        for b, cost in nbrs.items():
            assert near[b][a] == cost
            assert cost >= 0.0
            assert a != b
    # every node can reach the ground station
    for node in roles:
        assert route_hops(graph, node, GROUND_STATION_ID) >= 0 or \
            node == GROUND_STATION_ID
    if kind is TopologyKind.STAR:
        assert not masters
        assert gs_degree == n_uavs
        for n, r in roles.items():
            if r is NodeRole.SLAVE_UAV:
                assert set(near[n]) == {GROUND_STATION_ID}
    elif kind is TopologyKind.MULTI_STAR:
        assert len(masters) == n_groups
        assert gs_degree == n_groups
        for n, r in roles.items():
            if r is NodeRole.SLAVE_UAV:
                nbrs = set(near[n])
                assert len(nbrs) == 1 and nbrs <= set(masters)
    elif kind is TopologyKind.SINGLE_GROUP_AD_HOC:
        assert masters == ["u0"]
        assert gs_degree == 1
        assert GROUND_STATION_ID in near["u0"]
    elif kind is TopologyKind.MULTI_GROUP_AD_HOC:
        assert len(masters) == n_groups
        assert gs_degree == n_groups
        assert set(near[GROUND_STATION_ID]) == set(masters)
    elif kind is TopologyKind.MULTI_LAYER_AD_HOC:
        assert len(masters) == n_groups
        assert gs_degree == 1


def test_topology_invariants_random_constructions():
    rng = np.random.default_rng(5)
    kinds = list(TopologyKind)
    built = 0
    attempts = 0
    while built < 100 and attempts < 2000:
        attempts += 1
        kind = kinds[int(rng.integers(len(kinds)))]
        n_uavs = int(rng.integers(2, 12))
        if kind is TopologyKind.SINGLE_GROUP_AD_HOC:
            n_groups = 1
        else:
            n_groups = int(rng.integers(1, min(n_uavs, 4) + 1))
        positions = _random_positions(rng, n_uavs, spread=30.0)
        try:
            graph = build_topology(kind, n_uavs, n_groups, 80.0, positions)
        except TopologyError:
            continue
        _check_invariants(kind, graph, n_uavs, n_groups)
        built += 1
    assert built == 100


def test_topology_orphan_detection():
    positions = {GROUND_STATION_ID: np.zeros(3),
                 "u0": np.array([0.0, 0.0, 10.0]),
                 "u1": np.array([0.0, 0.0, 20.0]),
                 "u2": np.array([1000.0, 0.0, 10.0])}
    with pytest.raises(TopologyError) as exc:
        build_topology(TopologyKind.SINGLE_GROUP_AD_HOC, 3, 1, 50.0,
                       positions)
    assert "u2" in exc.value.orphans


def test_topology_validation():
    positions = {GROUND_STATION_ID: np.zeros(3), "u0": np.ones(3)}
    with pytest.raises(ValueError):
        build_topology(TopologyKind.STAR, 0, 1, 10.0, positions)
    with pytest.raises(ValueError):
        build_topology(TopologyKind.MULTI_STAR, 1, 2, 10.0, positions)
    with pytest.raises(ValueError):
        build_topology(TopologyKind.STAR, 2, 1, 10.0, positions)  # missing u1
    with pytest.raises(ValueError):
        build_topology(TopologyKind.SINGLE_GROUP_AD_HOC, 1, 2, 10.0,
                       positions)


def test_graphs_hold_only_their_nodes_positions():
    positions = {GROUND_STATION_ID: (0, 0, 0), "u0": (1, 0, 0),
                 "relay": (5, 5, 5)}
    for kind in TopologyKind:
        graph = build_topology(kind, 1, 1, 10.0, positions)
        assert set(graph.ids) == {GROUND_STATION_ID, "u0"}
        assert graph.positions.shape == (len(graph.roles), 3) == (2, 3)


def test_grid_graph_links_open_neighbours():
    grid = grid_graph(3, 2, walls={(1, 1)})
    assert grid.edges == [("0,0", "0,1", 1.0), ("0,0", "1,0", 1.0),
                          ("1,0", "2,0", 1.0), ("2,0", "2,1", 1.0)]
    assert grid.ids == ["0,0", "0,1", "1,0", "2,0", "2,1"]
    assert grid.positions.shape == (len(grid.roles), 3) == (5, 3)
    assert grid.positions[grid.index["2,1"]].tolist() == [2.0, 1.0, 0.0]
    assert set(grid.roles) == {NodeRole.SLAVE_UAV}


def test_star_gs_is_single_point_of_failure():
    rng = np.random.default_rng(6)
    graph = build_topology(TopologyKind.STAR, 4, 1, 100.0,
                           _random_positions(rng, 4, spread=10.0))
    # removing gs disconnects every pair of UAVs
    graph = _rebuilt(graph, [e for e in graph.edges
                             if GROUND_STATION_ID not in e[:2]],
                     [n for n in graph.nodes if n != GROUND_STATION_ID])
    assert route_shortest(graph, "u0", "u1") == (None, None)


def test_apf_reaches_goal_in_open_space():
    fld = ObstacleField(goal=np.array([10.0, 0.0, 0.0]))
    trajectory, outcome = apf_plan([0.0, 0.0, 0.0], fld, step=0.1)
    assert outcome is ApfOutcome.REACHED_GOAL
    assert np.linalg.norm(trajectory[-1] - fld.goal) <= 0.5


def test_apf_avoids_offset_obstacle():
    fld = ObstacleField(goal=np.array([20.0, 0.0, 0.0]),
                        obstacles=((np.array([10.0, 2.0, 0.0]), 2.0),))
    trajectory, outcome = apf_plan([0.0, 0.0, 0.0], fld, repel_gain=50.0,
                                   influence_radius=4.0, step=0.05,
                                   max_steps=20000)
    assert outcome is ApfOutcome.REACHED_GOAL
    center, radius = fld.obstacles[0]
    clearance = np.linalg.norm(trajectory - center, axis=1).min()
    assert clearance > radius


def test_apf_detects_local_minimum():
    """Goal directly behind an obstacle on the approach line: the
    attraction and repulsion balance and the planner reports a local
    minimum instead of looping forever."""
    fld = ObstacleField(goal=np.array([20.0, 0.0, 0.0]),
                        obstacles=((np.array([10.0, 0.0, 0.0]), 2.0),))
    _, outcome = apf_plan([0.0, 0.0, 0.0], fld, repel_gain=100.0,
                          influence_radius=5.0, step=0.05, max_steps=50000)
    assert outcome is ApfOutcome.LOCAL_MINIMUM


def test_apf_validation():
    fld = ObstacleField(goal=np.zeros(3),
                        obstacles=((np.array([5.0, 0.0, 0.0]), 1.0),))
    with pytest.raises(ValueError):
        apf_plan([5.0, 0.0, 0.0], fld)  # inside the obstacle
    with pytest.raises(ValueError):
        apf_plan([1000.0, 0.0, 0.0], fld)  # outside the bounds
    with pytest.raises(ValueError):
        ObstacleField(goal=np.zeros(3), obstacles=((np.zeros(3), 0.0),))


def test_apf_fields_that_overflow_are_rejected():
    fld = ObstacleField(goal=np.array([20.0, 0.0, 0.0]),
                        obstacles=((np.array([10.0, 2.0, 0.0]), 2.0),))
    assert gradient_overflow(fld, 1.0, 1e100, 4.0, 0.05) is None
    assert gradient_overflow(fld, 1.0, 1e300, 4.0, 0.05) == "repel_gain"
    # no point is within an influence radius below the surface floor
    assert gradient_overflow(fld, 1.0, 1e300, 1e-10, 0.05) is None
    assert gradient_overflow(fld, 1e300, 1.0, 4.0, 0.05) == "attract_gain"
    # the largest gradient is about 5e28 long here
    assert gradient_overflow(fld, 1.0, 50.0, 4.0, 1e200) is None
    assert gradient_overflow(fld, 1.0, 50.0, 4.0, 1e300) == "step"
    with pytest.raises(ValueError, match="goal lies too far"):
        ObstacleField(goal=np.array([1e300, 0.0, 0.0]))
    with pytest.raises(ValueError, match="obstacle centre lies too far"):
        ObstacleField(goal=np.zeros(3),
                      obstacles=((np.array([0.0, 1e300, 0.0]), 1.0),))
    with pytest.raises(ValueError, match="repel_gain"):
        apf_plan([0.0, 0.0, 0.0], fld, repel_gain=1e300)


def test_positions_whose_distances_overflow_are_rejected():
    positions = {GROUND_STATION_ID: [0.0, 0.0, 0.0], "u0": [1e154, 0, 0],
                 "far": [1e300, 0.0, 0.0]}   # not a node: not measured
    build_topology(TopologyKind.STAR, 1, 1, 100.0, positions)
    positions["u0"] = [1e300, 0.0, 0.0]
    with pytest.raises(ValueError, match="too far apart"):
        build_topology(TopologyKind.STAR, 1, 1, 100.0, positions)


def test_route_and_flood_unknown_nodes():
    graph = _random_graph(np.random.default_rng(7), 4, 0.5)
    for search in (route_shortest, route_hops):
        for src, dst in (("zz", "u0"), ("u0", "zz")):
            with pytest.raises(ValueError, match="unknown node 'zz'"):
                search(graph, src, dst)
    with pytest.raises(ValueError):
        flood(graph, "zz", 1)
    with pytest.raises(ValueError):
        flood(graph, "u0", -1)
