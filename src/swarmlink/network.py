"""Swarm network topologies, routing-vs-flooding propagation, and
representative path planners (Dijkstra, A*, artificial potential field).

Graphs are plain adjacency maps with Euclidean edge costs. No result
depends on the order in which a node's neighbours are visited, so no
search sorts them. A*'s heap orders entries by ``(f, id)``, so ties
break by id, and the relaxations of one expansion commute. Flooding,
hop counts and the connectivity check share one breadth-first pass,
whose levels and message counts do not depend on which sender reaches
a node first. Only outputs are sorted: ``nodes``, ``edges``, the
delivered list and the orphan list.

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

    @property
    def edges(self) -> list[tuple[str, str, float]]:
        return sorted((a, b, cost) for a, near in self.adjacency.items()
                      for b, cost in near.items() if a < b)


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


def _empty_graph(kind: TopologyKind, positions) -> TopologyGraph:
    roles = {GROUND_STATION_ID: NodeRole.GROUND_STATION}
    adjacency = {GROUND_STATION_ID: {}}
    return TopologyGraph(kind=kind, roles=roles, positions=dict(positions),
                         adjacency=adjacency)


def _add_node(graph: TopologyGraph, node: str, role: NodeRole):
    graph.roles[node] = role
    graph.adjacency.setdefault(node, {})


def _add_edge(graph: TopologyGraph, a: str, b: str):
    cost = _euclid(graph.positions[a], graph.positions[b])
    graph.adjacency[a][b] = cost
    graph.adjacency[b][a] = cost


def _split_groups(uav_ids: list[str], n_groups: int) -> list[list[str]]:
    # first (n_uavs mod n_groups) groups take one extra member
    base, extra = divmod(len(uav_ids), n_groups)
    groups, start = [], 0
    for g in range(n_groups):
        size = base + (1 if g < extra else 0)
        groups.append(uav_ids[start:start + size])
        start += size
    return groups


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


def _require_connected(graph: TopologyGraph, members: list[str],
                       context: str):
    # a walk that leaves the members returns by the member it left by (a
    # master's own group), so the whole graph joins the same members
    *_, (reached, _, _) = _flood_rounds(graph, members[0])
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


def build_topology(kind: TopologyKind, n_uavs: int, n_groups: int,
                   link_range: float, positions) -> TopologyGraph:
    """Build a swarm topology over ``positions`` (id -> 3-vector).

    UAV ids are ``u0..u{n-1}``; the ground station id is ``gs`` and must
    have a position. Group meshes connect members within ``link_range``;
    a disconnected group raises :class:`TopologyError` with the orphans.
    """
    check_groups(kind, n_uavs, n_groups)
    check_positions(n_uavs, positions)
    positions = {k: np.asarray(v, dtype=float) for k, v in positions.items()}
    uav_ids = [f"u{i}" for i in range(n_uavs)]
    graph = _empty_graph(kind, positions)

    if kind is TopologyKind.STAR:
        for u in uav_ids:
            _add_node(graph, u, NodeRole.SLAVE_UAV)
            _add_edge(graph, u, GROUND_STATION_ID)
        return graph

    groups = _split_groups(uav_ids, n_groups)
    masters = [g[0] for g in groups]

    if kind is TopologyKind.MULTI_STAR:
        for group in groups:
            master, slaves = group[0], group[1:]
            _add_node(graph, master, NodeRole.MASTER_UAV)
            _add_edge(graph, master, GROUND_STATION_ID)
            for s in slaves:
                _add_node(graph, s, NodeRole.SLAVE_UAV)
                _add_edge(graph, s, master)
        return graph

    # the ad hoc kinds share the per-group meshes (single-group has one)
    for group in groups:
        master, slaves = group[0], group[1:]
        _add_node(graph, master, NodeRole.MASTER_UAV)
        for s in slaves:
            _add_node(graph, s, NodeRole.SLAVE_UAV)
        _mesh_in_range(graph, group, link_range)
        _require_connected(graph, group, "ad hoc group")

    if kind in (TopologyKind.SINGLE_GROUP_AD_HOC,
                TopologyKind.MULTI_GROUP_AD_HOC):
        for master in masters:
            _add_edge(graph, master, GROUND_STATION_ID)
        return graph

    if kind is TopologyKind.MULTI_LAYER_AD_HOC:
        _mesh_in_range(graph, masters, link_range)
        _require_connected(graph, masters, "master layer")
        _add_edge(graph, masters[0], GROUND_STATION_ID)
        return graph

    raise ValueError(f"unknown topology kind {kind}")


def route_shortest(graph: TopologyGraph, src: str,
                   dst: str) -> PropagationResult:
    """Dijkstra shortest path by edge cost; ties break by node id.

    This is :func:`astar` with a zero heuristic.
    """
    return astar(graph, src, dst, heuristic=lambda a, b: 0.0)[0]


def _flood_rounds(graph: TopologyGraph, src: str):
    """Flood from ``src`` in synchronous rounds; yield ``(delivered,
    messages, depth)`` before the first round and after each round until
    no node forwards. ``delivered`` is one set, updated in place."""
    delivered = {src}
    frontier: list[tuple[str, str | None]] = [(src, None)]
    messages = depth = 0
    while frontier:
        yield delivered, messages, depth
        next_frontier = []
        for sender, came_from in frontier:
            for nb in graph.adjacency[sender]:
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
    *_, (_, (delivered, messages, depth)) = zip(range(ttl + 1),
                                              _flood_rounds(graph, src))
    return PropagationResult(delivered=delivered, total_messages=messages,
                             hop_count=depth)


def compare_propagation(graph: TopologyGraph, src: str, dst: str) -> dict:
    """Side-by-side routing vs flooding metrics for one (src, dst) pair."""
    routed = route_shortest(graph, src, dst)
    # flood just deep enough to reach dst (whole graph if unreachable)
    for delivered, messages, depth in _flood_rounds(graph, src):
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
    for delivered, _, depth in _flood_rounds(graph, src):
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
    roles = {}
    positions = {}
    adjacency = {}
    for x in range(width):
        for y in range(height):
            if (x, y) in walls:
                continue
            node = f"{x},{y}"
            roles[node] = NodeRole.SLAVE_UAV
            positions[node] = np.array([float(x), float(y), 0.0])
            adjacency[node] = {}
    graph = TopologyGraph(kind=TopologyKind.SINGLE_GROUP_AD_HOC, roles=roles,
                          positions=positions, adjacency=adjacency)
    for x in range(width):
        for y in range(height):
            if (x, y) in walls:
                continue
            for dx, dy in ((1, 0), (0, 1)):
                nx_, ny_ = x + dx, y + dy
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
        with np.errstate(over="ignore"):   # an infinite distance is clear
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
    dist[dist <= 0] = 1e-9
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
        dist[dist <= 0] = 1e-9
        near = dist < influence_radius
        # float_power is libm pow, as Python's float ** 2 is; the square
        # that ndarray ** 2 computes rounds differently on some values
        value[near] += 0.5 * repel_gain * np.float_power(
            1.0 / dist[near] - 1.0 / influence_radius, 2)
    return value


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
