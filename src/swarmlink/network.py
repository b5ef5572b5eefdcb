"""Swarm network topologies, routing-vs-flooding propagation, and
representative path planners (Dijkstra, A*, artificial potential field).

Graphs hold arrays (:class:`TopologyGraph`): the node ids once, in
sorted order, so that a node's index is its id's rank; positions as one
(n, 3) array; and for each node its neighbours' indices in ascending order
with a parallel array of Euclidean edge costs. Each search returns what it
computes: ``astar`` ``(path, cost, expansions)`` and ``route_shortest``
``(path, cost)``, path and cost None when ``dst`` is unreachable;
``flood`` ``(delivered, messages, depth)`` after ``ttl`` rounds;
``route_hops`` the hop count, -1 when unreachable.

Every graph, the swarm topologies and the A* grid alike, goes straight to
these arrays: its edges are gathered per node, as single links
(``_link``) and mesh rows (``_mesh_in_range``), and each node's are
sorted once (``_assemble``). A* relaxes all the edges of one expansion in
one array op, and its heap orders entries by ``(f, index)``, which is
``(f, id)``, so ties break by id. Flooding, hop counts and the
connectivity check share one breadth-first pass over a boolean frontier:
a round's messages are the degrees of its senders, less one for each
sender but the source (the edge it first heard on). No result depends on
the order in which edges were given. ``edges`` is produced per node
(:meth:`TopologyGraph.edges_by_node`): the nodes in order, each with its
later neighbours, found by ``searchsorted``. The network runner streams
it into ``topology.json`` that way and never holds it as one list.

The ad hoc mesh is a fixed-radius range search (Bentley, CACM 1975) over
the group's positions held as one (n, 3) array: one pass per member takes
its distances to every member at once, as ``sqrt(vecdot(d, d))`` (the same
bits as one ``norm(a - b)`` per pair, either way round; ``norm(d,
axis=1)`` is not), and the members in range become its neighbour row. No
pair matrix is built.

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
    "ObstacleField",
    "ApfOutcome",
    "GROUND_STATION_ID",
    "build_topology",
    "route_shortest",
    "route_hops",
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


@dataclass(eq=False)
class TopologyGraph:
    """Undirected swarm network with one ground station, held as arrays.

    Node ``k`` is ``ids[k]``; the ids are in sorted order, so index order
    is id order. ``roles[k]`` is its role and ``positions[k]`` its row of
    the (n, 3) position array. ``neighbours[k]`` holds the indices of its
    neighbours in ascending order, as int32, and ``costs[k]`` the float64
    cost of each of those edges. ``index`` maps each id to its index.
    Graphs come from :func:`build_topology`, :func:`grid_graph` or
    :meth:`from_edges`."""

    kind: TopologyKind
    ids: list[str]
    roles: list[NodeRole]
    positions: np.ndarray
    neighbours: list[np.ndarray]
    costs: list[np.ndarray]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {n: k for k, n in enumerate(self.ids)}

    @classmethod
    def from_edges(cls, kind: TopologyKind, roles, positions, edges):
        """The graph of the nodes of ``roles`` (id -> role) at
        ``positions`` (id -> 3-vector), linked by ``edges``: ``(a, b,
        cost)`` triples, one per pair."""
        ids, pos = _nodes(roles, positions)
        index = {n: k for k, n in enumerate(ids)}
        links = [[] for _ in ids]
        for a, b, cost in edges:
            _link(links, index[a], index[b], cost)
        return cls(kind, ids, [roles[n] for n in ids], pos, *_assemble(links))

    @property
    def nodes(self) -> list[str]:
        return list(self.ids)

    @property
    def adjacency(self) -> dict[str, np.ndarray]:
        """Each node's id -> the index array of its neighbours."""
        return dict(zip(self.ids, self.neighbours))

    def near(self, node: str) -> dict[str, float]:
        """The neighbours of ``node`` as id -> edge cost, in id order."""
        k = self.index[node]
        return dict(zip(_named(self.ids, self.neighbours[k]),
                        self.costs[k].tolist()))

    def edges_by_node(self):
        """Yield ``(k, later, costs)`` for each node index ``k`` in order:
        the indices of its neighbours after it, in order, and the costs of
        those edges, as lists. In ids this is ``sorted`` of every ``(a, b,
        cost)`` with ``a < b``, one node at a time."""
        for k, (near, cost) in enumerate(zip(self.neighbours, self.costs)):
            start = int(np.searchsorted(near, k, side="right"))
            yield k, near[start:].tolist(), cost[start:].tolist()

    @property
    def edges(self) -> list[tuple[str, str, float]]:
        ids = self.ids
        return [(ids[a], ids[b], cost) for a, later, costs
                in self.edges_by_node() for b, cost in zip(later, costs)]


def _euclid(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b))


def _lengths(d: np.ndarray) -> np.ndarray:
    """The length of each row of ``d``: the bits of one ``norm`` per row,
    which ``norm(d, axis=1)`` does not give."""
    return np.sqrt(np.vecdot(d, d))


def _named(ids: list[str], nodes: np.ndarray) -> list[str]:
    """The ids of the node index array ``nodes``."""
    return [ids[k] for k in nodes.tolist()]


def _nodes(roles, positions) -> tuple[list[str], np.ndarray]:
    """The ids of ``roles`` in sorted order and their positions as one
    (n, 3) array."""
    ids = sorted(roles)
    return ids, np.array([positions[n] for n in ids],
                         dtype=float).reshape(-1, 3)


def _link(links: list, a: int, b: int, cost: float):
    """Add the edge between nodes ``a`` and ``b`` to ``links``, each
    node's list of ``(neighbour indices, costs)`` chunks."""
    links[a].append(([b], [cost]))
    links[b].append(([a], [cost]))


def _assemble(links: list) -> tuple[list, list]:
    """Each node's neighbour index array, sorted, and cost array, from its
    chunks in ``links``. A node's chunks are dropped as its arrays are
    made, so the two never both hold the whole graph."""
    neighbours, costs = [], []
    for k, chunks in enumerate(links):
        links[k] = None
        chunks = chunks or [((), ())]
        near = np.concatenate([i for i, _ in chunks]).astype(np.int32,
                                                            copy=False)
        cost = np.concatenate([c for _, c in chunks]).astype(float,
                                                             copy=False)
        order = np.argsort(near)
        neighbours.append(near[order])
        costs.append(cost[order])
    return neighbours, costs


def _split_groups(uav_ids: list[str], n_groups: int) -> list[list[str]]:
    # the first (n_uavs mod n_groups) groups take one extra member
    base, extra = divmod(len(uav_ids), n_groups)
    return [uav_ids[g * base + min(g, extra):
                    (g + 1) * base + min(g + 1, extra)]
            for g in range(n_groups)]


def _mesh_in_range(positions: np.ndarray, nodes: np.ndarray,
                   link_range: float):
    """For each of ``nodes`` (ascending node indices) at the rows of the
    (m, 3) ``positions``: the indices of the others within ``link_range``,
    ascending, and their distances."""
    near, costs = [], []
    for k in range(len(nodes)):
        dist = _lengths(positions[k] - positions)
        within = dist <= link_range
        within[k] = False
        hits = np.flatnonzero(within)
        near.append(nodes[hits])
        costs.append(dist[hits])
    return near, costs


def _mesh(links: list, ids: list[str], positions: np.ndarray,
          members: list[int], link_range: float, context: str):
    """Link the ``members`` (node indices) within ``link_range`` of each
    other. Raise TopologyError naming the members that a flood over this
    mesh from the first member does not reach."""
    nodes = np.sort(np.array(members, dtype=np.int32))
    near, costs = _mesh_in_range(positions[nodes], nodes, link_range)
    view = [nodes[:0]] * len(ids)
    for k, nb in zip(nodes.tolist(), near):
        view[k] = nb
    *_, (reached, _, _) = _flood_rounds(view, members[0])
    orphans = _named(ids, nodes[~reached[nodes]])
    if orphans:
        raise TopologyError(
            f"{context}: nodes beyond link range of any neighbor: {orphans}",
            orphans=orphans)
    for k, nb, cost in zip(nodes.tolist(), near, costs):
        links[k].append((nb, cost))


def _check_nodes(graph: TopologyGraph, *nodes: str):
    for node in nodes:
        if node not in graph.index:
            raise ValueError(f"unknown node {node!r}")


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
    groups = ([] if kind is TopologyKind.STAR
              else _split_groups(uav_ids, n_groups))
    masters = [g[0] for g in groups]
    roles = {GROUND_STATION_ID: NodeRole.GROUND_STATION,
             **dict.fromkeys(uav_ids, NodeRole.SLAVE_UAV),
             **dict.fromkeys(masters, NodeRole.MASTER_UAV)}
    ids, pos = _nodes(roles, positions)
    index = {n: k for k, n in enumerate(ids)}
    links = [[] for _ in ids]

    def link(a: str, b: str):
        i, j = index[a], index[b]
        _link(links, i, j, _euclid(pos[i], pos[j]))

    if kind is TopologyKind.STAR:
        for u in uav_ids:
            link(u, GROUND_STATION_ID)
    elif kind is TopologyKind.MULTI_STAR:
        for master, *slaves in groups:
            link(master, GROUND_STATION_ID)
            for s in slaves:
                link(s, master)
    else:
        for group in groups:
            # the members of an ad hoc group link only to each other
            _mesh(links, ids, pos, [index[m] for m in group], link_range,
                  "ad hoc group")
        if kind is TopologyKind.MULTI_LAYER_AD_HOC:
            # slaves link only inside their own group, so masters reach
            # each other over master-master edges alone
            _mesh(links, ids, pos, [index[m] for m in masters], link_range,
                  "master layer")
            masters = masters[:1]   # the one master the ground station links
        elif kind not in (TopologyKind.SINGLE_GROUP_AD_HOC,
                          TopologyKind.MULTI_GROUP_AD_HOC):
            raise ValueError(f"unknown topology kind {kind}")
        for master in masters:
            link(master, GROUND_STATION_ID)
    return TopologyGraph(kind, ids, [roles[n] for n in ids], pos,
                         *_assemble(links))


def route_shortest(graph: TopologyGraph, src: str, dst: str):
    """Dijkstra shortest path by edge cost as ``(path, cost)``; ties break
    by node id. This is :func:`astar` with a zero heuristic."""
    return astar(graph, src, dst, heuristic=lambda a, b: 0.0)[:2]


def _flood_rounds(neighbours: list, src: int):
    """Flood from node ``src`` over ``neighbours`` (node index -> index
    array of its neighbours) in synchronous rounds; yield ``(delivered,
    messages, depth)`` before the first round and after each round until
    no node forwards. ``delivered`` is one boolean array over the nodes,
    updated in place."""
    degree = np.array([len(near) for near in neighbours])
    delivered = np.zeros(len(neighbours), dtype=bool)
    delivered[src] = True
    frontier = delivered.copy()
    messages = depth = 0
    while frontier.any():
        yield delivered, messages, depth
        senders = np.flatnonzero(frontier)
        # each sender transmits on every edge but the one it first heard
        # on; the source heard on none
        messages += (int(degree[senders].sum()) - len(senders)
                     + int(frontier[src]))
        frontier = np.zeros_like(delivered)
        for k in senders.tolist():
            frontier[neighbours[k]] = True
        frontier &= ~delivered
        delivered |= frontier
        if frontier.any():
            depth += 1
    yield delivered, messages, depth


def flood(graph: TopologyGraph, src: str, ttl: int):
    """Synchronous-rounds flooding with duplicate suppression; returns
    ``(delivered, messages, depth)`` after ``ttl`` rounds.

    The source transmits on every incident edge; each node that first
    receives the message retransmits next round on all incident edges
    except the one it arrived on. Nodes that have already seen the
    message drop duplicates without forwarding. ``messages`` counts one
    transmission per (sender, edge) forwarding event."""
    _check_nodes(graph, src)
    if ttl < 0:
        raise ValueError("ttl must be >= 0")
    # the state after ttl rounds, or after the last if the flood ends first
    rounds = _flood_rounds(graph.neighbours, graph.index[src])
    *_, (_, (delivered, messages, depth)) = zip(range(ttl + 1), rounds)
    return set(_named(graph.ids, np.flatnonzero(delivered))), messages, depth


def compare_propagation(graph: TopologyGraph, src: str, dst: str) -> dict:
    """Side-by-side routing vs flooding metrics for one (src, dst) pair."""
    path, cost = route_shortest(graph, src, dst)
    hops = len(path) - 1 if path else 0
    target = graph.index[dst]
    # flood just deep enough to reach dst (whole graph if unreachable)
    for delivered, messages, depth in _flood_rounds(graph.neighbours,
                                                    graph.index[src]):
        if delivered[target]:
            break
    return {
        "routing": {
            "reached": path is not None,
            "hops": hops,
            "messages": hops,  # a route sends one message per hop
            "path": path,
            "cost": cost,
        },
        "flooding": {
            "reached": bool(delivered[target]),
            "depth": depth,
            "messages": messages,
            "delivered": _named(graph.ids, np.flatnonzero(delivered)),
        },
    }


def route_hops(graph: TopologyGraph, src: str, dst: str) -> int:
    """Minimum hop count between two nodes (BFS); -1 if unreachable."""
    _check_nodes(graph, src, dst)
    target = graph.index[dst]
    for delivered, _, depth in _flood_rounds(graph.neighbours,
                                             graph.index[src]):
        if delivered[target]:
            return depth
    return -1


def astar(graph: TopologyGraph, src: str, dst: str, heuristic=None):
    """A* over the graph; returns ``(path, cost, expansions)``, with path
    and cost None if ``dst`` is unreachable.

    The default heuristic is the straight-line distance between node
    positions, which is admissible for Euclidean edge costs. A given
    ``heuristic(node, dst)`` is called once for each node. A zero
    heuristic degenerates to Dijkstra (:func:`route_shortest`)."""
    _check_nodes(graph, src, dst)
    s, t = graph.index[src], graph.index[dst]
    if heuristic is None:
        h = _lengths(graph.positions - graph.positions[t])
    else:
        h = np.array([heuristic(n, dst) for n in graph.ids], dtype=float)
    n = len(graph.ids)
    dist = np.full(n, np.inf)
    dist[s] = 0.0
    prev = [-1] * n
    done = [False] * n
    # heap entries are (f, node index); index order is id order
    heap = [(float(h[s]), s)]
    expansions = 0
    while heap:
        _, k = heapq.heappop(heap)
        if done[k]:
            continue
        done[k] = True
        expansions += 1
        if k == t:
            path = [t]
            while path[-1] != s:
                path.append(prev[path[-1]])
            path = [graph.ids[j] for j in reversed(path)]
            return path, float(dist[t]), expansions
        # relax every edge of the expansion at once
        near = graph.neighbours[k]
        cand = dist[k] + graph.costs[k]
        better = cand < dist[near] - 1e-15
        near, cand = near[better], cand[better]
        dist[near] = cand
        for j, f in zip(near.tolist(), (cand + h[near]).tolist()):
            prev[j] = k
            heapq.heappush(heap, (f, j))
    return None, None, expansions


def grid_graph(width: int, height: int, walls=()) -> TopologyGraph:
    """4-connected unit grid as a TopologyGraph; ``walls`` is a set of
    blocked (x, y) cells. Node ids are ``x,y`` strings."""
    walls = set(walls)
    cells = [(x, y) for x in range(width) for y in range(height)
             if (x, y) not in walls]
    edges = [(f"{x},{y}", f"{nx_},{ny_}", 1.0) for x, y in cells
             for nx_, ny_ in ((x + 1, y), (x, y + 1))
             if nx_ < width and ny_ < height and (nx_, ny_) not in walls]
    return TopologyGraph.from_edges(
        TopologyKind.SINGLE_GROUP_AD_HOC,
        {f"{x},{y}": NodeRole.SLAVE_UAV for x, y in cells},
        {f"{x},{y}": (x, y, 0.0) for x, y in cells}, edges)


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
        inside = _lengths(offsets) <= self.radii
        if inside.any():
            raise ValueError("start must lie outside every obstacle")


def _apf_gradient(point: np.ndarray, fld: ObstacleField, attract_gain: float,
                  repel_gain: float, influence_radius: float) -> np.ndarray:
    # quadratic attraction; inverse-distance repulsion inside the
    # influence radius, measured from the obstacle surface
    grad = attract_gain * (point - fld.goal)
    offsets = point - fld.centers
    norms = _lengths(offsets)
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
        dist = _lengths(offsets) - radius
        dist[dist <= 0] = _SURFACE_FLOOR
        near = dist < influence_radius
        # float_power is libm pow, as Python's float ** 2 is; the square
        # that ndarray ** 2 computes rounds differently on some values
        value[near] += 0.5 * repel_gain * np.float_power(
            1.0 / dist[near] - 1.0 / influence_radius, 2)
    return value


def gradient_overflow(fld: ObstacleField, attract_gain: float,
                      repel_gain: float, influence_radius: float,
                      step: float):
    """``attract_gain``, ``repel_gain`` or ``step``, the first at which the
    gradient's length where it is largest overflows as norm() squares it,
    or a step of ``step`` times that length overflows; else None. Largest
    is the attraction at the box corner farthest from the goal plus every
    obstacle's repulsion at the surface floor."""
    pull = abs(attract_gain) * _reach(fld.goal)
    push = 0.0
    if influence_radius > _SURFACE_FLOOR:
        push = (len(fld.radii) * abs(repel_gain) / _SURFACE_FLOOR ** 2
                * (1.0 / _SURFACE_FLOOR - 1.0 / influence_radius))
    length = pull + push
    for name, size in (("attract_gain", pull * pull),
                       ("repel_gain", length * length),
                       ("step", step * length)):
        if not math.isfinite(size):
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
    if step <= 0 or influence_radius <= 0:
        raise ValueError("step and influence_radius must be > 0")
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    overflow = gradient_overflow(fld, attract_gain, repel_gain,
                                 influence_radius, step)
    if overflow:
        raise ValueError(f"{overflow}: the gradient or a step along it "
                         "overflows")
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
