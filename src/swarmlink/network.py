"""Swarm network topologies, routing-vs-flooding propagation, and
representative path planners (Dijkstra, A*, artificial potential field).

Graphs are plain adjacency maps with Euclidean edge costs. Every graph,
the swarm topologies and the A* grid alike, is built by ``_add_node``,
``_add_edge`` and ``_mesh_in_range``, and holds only its nodes'
positions. No result depends on the order in which a node's neighbours
are visited, so no search sorts them. A*'s heap orders entries by
``(f, id)``, so ties break by id, and the relaxations of one expansion
commute. Flooding, hop counts and the connectivity check share one
breadth-first pass, whose levels and message counts do not depend on
which sender reaches a node first. Only outputs are sorted: ``nodes``,
``edges``, the delivered list and the orphan list. ``edges`` is
produced per node (:meth:`TopologyGraph.edges_by_node`): the nodes in
sorted order, each with its later neighbours sorted. The network runner
streams it into ``topology.json`` that way and never holds it as one
list.

The ad hoc mesh is a fixed-radius range search (Bentley, CACM 1975) over
the group's positions held as one (n, 3) array: one pass per node takes
the distances to every later member at once, as ``sqrt(vecdot(d, d))``
(the same bits as one ``norm(a - b)`` per pair; ``norm(d, axis=1)`` is
not), and only the pairs in range become edges, added in the order of
the pair loop they replace. No pair matrix is built.

The potential field (Khatib, IJRR 1986) keeps its obstacles as a centre
array and a radius array. The gradient measures every obstacle in one
array op and adds the repulsion of those within the influence radius in
obstacle order; the potential takes a whole trajectory and adds the
obstacle terms one obstacle at a time over all its points. Both sum in
the order of the per-obstacle loops, so their results are bitwise those
of the loops.
"""
from __future__ import annotations

import enum
import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TopologyKind",
    "NodeRole",
    "TopologyGraph",
    "TopologyError",
    "PropagationResult",
    "ObstacleField",
    "ApfOutcome",
    "GROUND_STATION_ID",
    "build_topology",
    "route_shortest",
    "flood",
    "compare_propagation",
    "astar",
    "grid_graph",
    "apf_plan",
    "is_node",
    "check_groups",
    "check_positions",
    "gradient_overflow",
]

GROUND_STATION_ID = "gs"


class TopologyKind(enum.Enum):
    STAR = "star"
    MULTI_STAR = "multi_star"
    SINGLE_GROUP_AD_HOC = "single_group"
    MULTI_GROUP_AD_HOC = "multi_group"
    MULTI_LAYER_AD_HOC = "multi_layer"


class NodeRole(enum.Enum):
    GROUND_STATION = "ground_station"
    MASTER_UAV = "master"
    SLAVE_UAV = "slave"


class TopologyError(ValueError):
    """Raised when a topology cannot be built; carries the orphaned
    nodes when link range is the cause."""

    def __init__(self, message, orphans=()):
        super().__init__(message)
        self.orphans = tuple(orphans)


@dataclass
class TopologyGraph:
    """Undirected swarm network with one ground station."""

    kind: TopologyKind
    roles: dict[str, NodeRole]
    positions: dict[str, np.ndarray]
    adjacency: dict[str, dict[str, float]]

    @property
    def nodes(self) -> list[str]:
        return sorted(self.roles)

    def edges_by_node(self):
        """Yield ``(a, [(b, cost), ...])`` for each node ``a`` in sorted
        order, with its neighbours ``b > a`` in sorted order. Each pair is
        unique, so this is ``sorted`` of every ``(a, b, cost)`` with
        ``a < b``, one node at a time."""
        for a in sorted(self.adjacency):
            near = self.adjacency[a]
            yield a, [(b, near[b]) for b in sorted(b for b in near if b > a)]

    @property
    def edges(self) -> list[tuple[str, str, float]]:
        return [(a, b, cost) for a, later in self.edges_by_node()
                for b, cost in later]


@dataclass
class PropagationResult:
    """Outcome of one routing or flooding run."""

    delivered: set[str]
    total_messages: int
    hop_count: int
    path: list[str] | None = None
    cost: float | None = None

    @property
    def reached(self) -> bool:
        return bool(self.delivered)


def _euclid(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b))


def _add_node(graph: TopologyGraph, node: str, role: NodeRole, position):
    graph.roles[node] = role
    graph.positions[node] = np.asarray(position, dtype=float)
    graph.adjacency[node] = {}


def _add_edge(graph: TopologyGraph, a: str, b: str):
    cost = _euclid(graph.positions[a], graph.positions[b])
    graph.adjacency[a][b] = cost
    graph.adjacency[b][a] = cost


def _split_groups(uav_ids: list[str], n_groups: int) -> list[list[str]]:
    # the first (n_uavs mod n_groups) groups take one extra member
    base, extra = divmod(len(uav_ids), n_groups)
    return [uav_ids[g * base + min(g, extra):
                    (g + 1) * base + min(g + 1, extra)]
            for g in range(n_groups)]


def _mesh_in_range(graph: TopologyGraph, members: list[str],
                   link_range: float):
    pos = np.array([graph.positions[m] for m in members])
    adjacency = graph.adjacency
    for k, a in enumerate(members[:-1]):
        d = pos[k] - pos[k + 1:]
        dist = np.sqrt(np.vecdot(d, d))
        hits = np.flatnonzero(dist <= link_range)
        near = adjacency[a]
        for j, cost in zip(hits.tolist(), dist[hits].tolist()):
            b = members[k + 1 + j]
            near[b] = cost
            adjacency[b][a] = cost


def _require_connected(adjacency: dict, members: list[str], context: str):
    """Raise TopologyError naming the ``members`` that a flood over
    ``adjacency`` from the first member does not reach."""
    *_, (reached, _, _) = _flood_rounds(adjacency, members[0])
    orphans = sorted(set(members) - reached)
    if orphans:
        raise TopologyError(
            f"{context}: nodes beyond link range of any neighbor: {orphans}",
            orphans=orphans)


def is_node(n_uavs: int, node: str) -> bool:
    """Whether ``node`` is ``gs`` or one of ``u0..u{n_uavs-1}``; it lists
    no ids, so its cost does not grow with ``n_uavs``."""
    digits = node[1:]
    return node == GROUND_STATION_ID or (
        node[:1] == "u" and digits.isascii() and digits.isdigit()
        and len(digits) <= len(str(n_uavs)) and node == f"u{int(digits)}"
        and int(digits) < n_uavs)


def check_groups(kind: TopologyKind, n_uavs: int, n_groups: int):
    """Raise ValueError unless ``n_uavs`` UAVs split into ``n_groups``
    groups for a topology of ``kind``."""
    if n_uavs < 1 or n_groups < 1:
        raise ValueError("n_uavs and n_groups must be >= 1")
    if n_groups > n_uavs:
        raise ValueError("cannot have more groups than UAVs")
    if kind is TopologyKind.SINGLE_GROUP_AD_HOC and n_groups != 1:
        raise ValueError("single-group topology requires n_groups == 1")


def check_positions(n_uavs: int, positions):
    """Raise ValueError naming the first nodes (UAVs in id order, then
    ``gs``) that ``positions`` leaves out, and how many more there are."""
    # takes at most len(positions) + 8 steps, however large n_uavs is
    nodes = itertools.chain(map("u{}".format, range(n_uavs)),
                            [GROUND_STATION_ID])
    shown = list(itertools.islice(
        (n for n in nodes if n not in positions), 8))
    if shown:
        more = (n_uavs + 1 - sum(is_node(n_uavs, k) for k in positions)
                - len(shown))
        raise ValueError(f"missing positions for {shown}"
                         + (f" and {more} more" if more else ""))
    # norm() squares a distance before its square root; the diagonal of
    # the box around the nodes bounds every distance between them (every
    # node has a position now, so n_uavs < len(positions))
    nodes = [positions[GROUND_STATION_ID],
             *(positions[f"u{i}"] for i in range(n_uavs))]
    with np.errstate(over="ignore", invalid="ignore"):
        box = np.ptp(nodes, axis=0)
    diagonal = math.hypot(*np.ravel(box).tolist())
    if not math.isfinite(diagonal * diagonal):
        raise ValueError("nodes lie too far apart: their distances overflow")


def build_topology(kind: TopologyKind, n_uavs: int, n_groups: int,
                   link_range: float, positions) -> TopologyGraph:
    """Build a swarm topology over ``positions`` (id -> 3-vector).

    UAV ids are ``u0..u{n-1}``; the ground station id is ``gs`` and must
    have a position. Group meshes connect members within ``link_range``;
    a disconnected group raises :class:`TopologyError` with the orphans.
    """
    check_groups(kind, n_uavs, n_groups)
    check_positions(n_uavs, positions)
    uav_ids = [f"u{i}" for i in range(n_uavs)]
    graph = TopologyGraph(kind=kind, roles={}, positions={}, adjacency={})
    _add_node(graph, GROUND_STATION_ID, NodeRole.GROUND_STATION,
              positions[GROUND_STATION_ID])

    if kind is TopologyKind.STAR:
        for u in uav_ids:
            _add_node(graph, u, NodeRole.SLAVE_UAV, positions[u])
            _add_edge(graph, u, GROUND_STATION_ID)
        return graph

    groups = _split_groups(uav_ids, n_groups)
    masters = [g[0] for g in groups]
    multi_star = kind is TopologyKind.MULTI_STAR
    for group in groups:
        master, slaves = group[0], group[1:]
        _add_node(graph, master, NodeRole.MASTER_UAV, positions[master])
        if multi_star:
            _add_edge(graph, master, GROUND_STATION_ID)
        for s in slaves:
            _add_node(graph, s, NodeRole.SLAVE_UAV, positions[s])
            if multi_star:
                _add_edge(graph, s, master)
        if not multi_star:
            # so far the members of an ad hoc group link only to each other
            _mesh_in_range(graph, group, link_range)
            _require_connected(graph.adjacency, group, "ad hoc group")

    if multi_star:
        return graph
    if kind in (TopologyKind.SINGLE_GROUP_AD_HOC,
                TopologyKind.MULTI_GROUP_AD_HOC):
        for master in masters:
            _add_edge(graph, master, GROUND_STATION_ID)
        return graph

    if kind is TopologyKind.MULTI_LAYER_AD_HOC:
        _mesh_in_range(graph, masters, link_range)
        # slaves link only inside their own group, so masters reach each
        # other over master-master edges alone
        layer = set(masters)
        _require_connected({m: [n for n in graph.adjacency[m] if n in layer]
                            for m in masters}, masters, "master layer")
        _add_edge(graph, masters[0], GROUND_STATION_ID)
        return graph

    raise ValueError(f"unknown topology kind {kind}")


def route_shortest(graph: TopologyGraph, src: str,
                   dst: str) -> PropagationResult:
    """Dijkstra shortest path by edge cost; ties break by node id.

    This is :func:`astar` with a zero heuristic.
    """
    return astar(graph, src, dst, heuristic=lambda a, b: 0.0)[0]


def _flood_rounds(adjacency: dict, src: str):
    """Flood from ``src`` over ``adjacency`` (node -> its neighbours) in
    synchronous rounds; yield ``(delivered, messages, depth)`` before the
    first round and after each round until no node forwards.
    ``delivered`` is one set, updated in place."""
    delivered = {src}
    frontier: list[tuple[str, str | None]] = [(src, None)]
    messages = depth = 0
    while frontier:
        yield delivered, messages, depth
        next_frontier = []
        for sender, came_from in frontier:
            for nb in adjacency[sender]:
                if nb == came_from:
                    continue
                messages += 1
                if nb not in delivered:
                    delivered.add(nb)
                    next_frontier.append((nb, sender))
        if next_frontier:
            depth += 1
        frontier = next_frontier
    yield delivered, messages, depth


def flood(graph: TopologyGraph, src: str, ttl: int) -> PropagationResult:
    """Synchronous-rounds flooding with duplicate suppression.

    The source transmits on every incident edge; each node that first
    receives the message retransmits next round on all incident edges
    except the one it arrived on. Nodes that have already seen the
    message drop duplicates without forwarding. ``total_messages`` counts
    one transmission per (sender, edge) forwarding event.
    """
    if src not in graph.roles:
        raise ValueError(f"unknown node {src!r}")
    if ttl < 0:
        raise ValueError("ttl must be >= 0")
    # the state after ttl rounds, or after the last if the flood ends first
    rounds = _flood_rounds(graph.adjacency, src)
    *_, (_, (delivered, messages, depth)) = zip(range(ttl + 1), rounds)
    return PropagationResult(delivered=delivered, total_messages=messages,
                             hop_count=depth)


def compare_propagation(graph: TopologyGraph, src: str, dst: str) -> dict:
    """Side-by-side routing vs flooding metrics for one (src, dst) pair."""
    routed = route_shortest(graph, src, dst)
    # flood just deep enough to reach dst (whole graph if unreachable)
    for delivered, messages, depth in _flood_rounds(graph.adjacency, src):
        if dst in delivered:
            break
    return {
        "routing": {
            "reached": routed.reached,
            "hops": routed.hop_count,
            "messages": routed.total_messages,
            "path": routed.path,
            "cost": routed.cost,
        },
        "flooding": {
            "reached": dst in delivered,
            "depth": depth,
            "messages": messages,
            "delivered": sorted(delivered),
        },
    }


def route_hops(graph: TopologyGraph, src: str, dst: str) -> int:
    """Minimum hop count between two nodes (BFS); -1 if unreachable."""
    for delivered, _, depth in _flood_rounds(graph.adjacency, src):
        if dst in delivered:
            return depth
    return -1


def astar(graph: TopologyGraph, src: str, dst: str,
          heuristic=None) -> tuple[PropagationResult, int]:
    """A* over the graph; returns (result, node expansions).

    The default heuristic is the straight-line distance between node
    positions, which is admissible for Euclidean edge costs. A zero
    heuristic degenerates to Dijkstra (:func:`route_shortest`).
    """
    for node in (src, dst):
        if node not in graph.roles:
            raise ValueError(f"unknown node {node!r}")
    if heuristic is None:
        def heuristic(a, b):
            return _euclid(graph.positions[a], graph.positions[b])
    dist = {src: 0.0}
    prev: dict[str, str] = {}
    heap = [(heuristic(src, dst), src)]
    done = set()
    expansions = 0
    while heap:
        _, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        expansions += 1
        if node == dst:
            path = [dst]
            while path[-1] != src:
                path.append(prev[path[-1]])
            path.reverse()
            hops = len(path) - 1
            return PropagationResult(delivered={dst}, total_messages=hops,
                                     hop_count=hops, path=path,
                                     cost=dist[dst]), expansions
        for nb, cost in graph.adjacency[node].items():
            cand = dist[node] + cost
            if nb not in dist or cand < dist[nb] - 1e-15:
                dist[nb] = cand
                prev[nb] = node
                heapq.heappush(heap, (cand + heuristic(nb, dst), nb))
    return PropagationResult(delivered=set(), total_messages=0, hop_count=0,
                             path=None, cost=None), expansions


def grid_graph(width: int, height: int, walls=()) -> TopologyGraph:
    """4-connected unit grid as a TopologyGraph; ``walls`` is a set of
    blocked (x, y) cells. Node ids are ``x,y`` strings."""
    walls = set(walls)
    cells = [(x, y) for x in range(width) for y in range(height)
             if (x, y) not in walls]
    graph = TopologyGraph(kind=TopologyKind.SINGLE_GROUP_AD_HOC, roles={},
                          positions={}, adjacency={})
    for x, y in cells:
        _add_node(graph, f"{x},{y}", NodeRole.SLAVE_UAV, (x, y, 0.0))
    for x, y in cells:
        for nx_, ny_ in ((x + 1, y), (x, y + 1)):
            if nx_ < width and ny_ < height and (nx_, ny_) not in walls:
                _add_edge(graph, f"{x},{y}", f"{nx_},{ny_}")
    return graph


class ApfOutcome(enum.Enum):
    REACHED_GOAL = "reached_goal"
    LOCAL_MINIMUM = "local_minimum"
    STEP_LIMIT = "step_limit"


_APF_BOUND = 100.0        # the APF box is [-100, 100] m on every axis
_GOAL_TOLERANCE = 0.5     # m from the goal at which apf_plan has reached it
_STALL_TOLERANCE = 1e-4   # m, a step so short that apf_plan has stalled
_SURFACE_FLOOR = 1e-9     # m, the distance of a point on or in an obstacle


def _reach(point: np.ndarray) -> float:
    """The largest distance from ``point`` to a point of the APF box."""
    return math.hypot(*(abs(x) + _APF_BOUND for x in point.tolist()))


@dataclass(frozen=True)
class ObstacleField:
    """Spherical obstacles plus the goal point inside the APF box."""

    goal: np.ndarray
    obstacles: tuple = ()          # (center 3-vector, radius) pairs
    # the obstacles as an (m, 3) centre array and an (m,) radius array
    centers: np.ndarray = field(init=False, repr=False, compare=False)
    radii: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "goal", np.asarray(self.goal, dtype=float))
        obstacles = tuple((np.asarray(c, dtype=float), float(r))
                          for c, r in self.obstacles)
        if any(r <= 0 for _, r in obstacles):
            raise ValueError("obstacle radii must be > 0")
        # norm() squares the distances of the goal and of every centre from
        # the points of the box
        centres = (("an obstacle centre", c) for c, _ in obstacles)
        for what, point in (("goal", self.goal), *centres):
            reach = _reach(point)
            if not math.isfinite(reach * reach):
                raise ValueError(f"{what} lies too far from the bounds: its "
                                 "distance overflows")
        object.__setattr__(self, "obstacles", obstacles)
        object.__setattr__(self, "centers", np.array(
            [c for c, _ in obstacles]).reshape(-1, 3))
        object.__setattr__(self, "radii", np.array(
            [r for _, r in obstacles], dtype=float))

    def check_start(self, point):
        """Raise ValueError unless ``point`` is a start for :func:`apf_plan`:
        inside the bounds and outside every obstacle."""
        point = np.asarray(point, dtype=float)
        if np.any(np.abs(point) > _APF_BOUND):
            raise ValueError("start must lie inside the bounds")
        offsets = point - self.centers
        inside = np.sqrt(np.vecdot(offsets, offsets)) <= self.radii
        if inside.any():
            raise ValueError("start must lie outside every obstacle")


def _apf_gradient(point: np.ndarray, fld: ObstacleField, attract_gain: float,
                  repel_gain: float, influence_radius: float) -> np.ndarray:
    # quadratic attraction; inverse-distance repulsion inside the
    # influence radius, measured from the obstacle surface
    grad = attract_gain * (point - fld.goal)
    offsets = point - fld.centers
    norms = np.sqrt(np.vecdot(offsets, offsets))
    dist = norms - fld.radii
    dist[dist <= 0] = _SURFACE_FLOOR
    near = dist < influence_radius
    if near.any():
        d = dist[near]
        scale = -repel_gain * (1.0 / d - 1.0 / influence_radius) / (d * d)
        directions = offsets[near] / np.maximum(norms[near], 1e-12)[:, None]
        for term in scale[:, None] * directions:
            grad += term
    return grad


def _apf_potential(points: np.ndarray, fld: ObstacleField,
                   attract_gain: float, repel_gain: float,
                   influence_radius: float) -> np.ndarray:
    """Potential at each row of the (n, 3) ``points``, as an (n,) array."""
    value = 0.5 * attract_gain * np.sum((points - fld.goal) ** 2, axis=1)
    for center, radius in zip(fld.centers, fld.radii):
        offsets = points - center
        dist = np.sqrt(np.vecdot(offsets, offsets)) - radius
        dist[dist <= 0] = _SURFACE_FLOOR
        near = dist < influence_radius
        # float_power is libm pow, as Python's float ** 2 is; the square
        # that ndarray ** 2 computes rounds differently on some values
        value[near] += 0.5 * repel_gain * np.float_power(
            1.0 / dist[near] - 1.0 / influence_radius, 2)
    return value


def gradient_overflow(fld: ObstacleField, attract_gain: float,
                      repel_gain: float, influence_radius: float):
    """``attract_gain`` or ``repel_gain``, the first at which the
    gradient's length where it is largest overflows as norm() squares it,
    or None. Largest is the attraction at the box corner farthest from the
    goal plus every obstacle's repulsion at the surface floor."""
    pull = abs(attract_gain) * _reach(fld.goal)
    push = 0.0
    if influence_radius > _SURFACE_FLOOR:
        push = (len(fld.radii) * abs(repel_gain) / _SURFACE_FLOOR ** 2
                * (1.0 / _SURFACE_FLOOR - 1.0 / influence_radius))
    for name, length in (("attract_gain", pull), ("repel_gain", pull + push)):
        if not math.isfinite(length * length):
            return name
    return None


def apf_plan(start, fld: ObstacleField, attract_gain: float = 1.0,
             repel_gain: float = 100.0, influence_radius: float = 5.0,
             step: float = 0.05, max_steps: int = 10000):
    """Gradient descent on the combined potential.

    Returns ``(trajectory, outcome)`` where trajectory is an (n, 3) array.
    A local minimum is declared when the per-step displacement drops below
    ``_STALL_TOLERANCE`` while the goal is farther than ``_GOAL_TOLERANCE``.
    """
    if step <= 0:
        raise ValueError("step must be > 0")
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    overflow = gradient_overflow(fld, attract_gain, repel_gain,
                                 influence_radius)
    if overflow:
        raise ValueError(f"{overflow}: the gradient overflows")
    point = np.asarray(start, dtype=float).copy()
    fld.check_start(point)
    trajectory = [point.copy()]
    outcome = ApfOutcome.STEP_LIMIT
    for _ in range(max_steps):
        if np.linalg.norm(point - fld.goal) <= _GOAL_TOLERANCE:
            outcome = ApfOutcome.REACHED_GOAL
            break
        grad = _apf_gradient(point, fld, attract_gain, repel_gain,
                             influence_radius)
        norm = float(np.linalg.norm(grad))
        if norm < 1e-12:
            outcome = ApfOutcome.LOCAL_MINIMUM
            break
        move = min(step, norm * step)  # shrink near stationary points
        point = point - move * grad / norm
        point = np.clip(point, -_APF_BOUND, _APF_BOUND)
        displacement = float(np.linalg.norm(point - trajectory[-1]))
        trajectory.append(point.copy())
        if displacement < _STALL_TOLERANCE:
            outcome = (ApfOutcome.REACHED_GOAL
                       if np.linalg.norm(point - fld.goal) <= _GOAL_TOLERANCE
                       else ApfOutcome.LOCAL_MINIMUM)
            break
    return np.array(trajectory), outcome
