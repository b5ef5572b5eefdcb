"""The column writer and the JSON writers against the writers they
replaced: a row writer that formats each cell with ``_fmt``, and
``json.dumps``. Each must give the same bytes for every column kind the
runners pass and for every topology kind."""
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from swarmlink import cli
from swarmlink.network import (GROUND_STATION_ID, TopologyError,
                               TopologyKind, build_topology, grid_graph)
from test_network_kernels import swarms

BLOCK = cli._BLOCK_ROWS


# ------------------------------------------------------ reference writers

def reference_fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def reference_csv(path: Path, header, rows) -> Path:
    lines = [",".join(header),
             *(",".join(map(reference_fmt, row)) for row in rows)]
    path.write_text("\n".join(lines) + "\n")
    return path


def reference_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def reference_topology(path: Path, graph) -> Path:
    """``topology.json`` as the network runner wrote it through
    ``_write_json``, from one sorted list of every edge."""
    return reference_json(path, {
        "kind": graph.kind.value,
        "nodes": {n: role.value for n, role in zip(graph.nodes, graph.roles)},
        "edges": sorted((a, b, cost) for a in graph.nodes
                        for b, cost in graph.near(a).items() if a < b)})


def written(writer, *args) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        return writer(Path(tmp) / "out", *args).read_bytes()


# ------------------------------------------------------------ strategies

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               2.225073858507201e-308, 1e16, -1e16, 9999999999999998.0,
               math.nextafter(1e16, math.inf), 1e-4, -1e-4,
               math.nextafter(1e-4, 0.0), 0.0001000000000000001, 1e-5,
               math.inf, -math.inf, math.nan, 1.7976931348623157e308, 0.1]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
finite_floats = st.one_of(
    st.sampled_from([x for x in EDGE_FLOATS if math.isfinite(x)]),
    st.floats(allow_nan=False, allow_infinity=False))
row_counts = st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                              2 * BLOCK + 1])
ids = st.text(st.characters(blacklist_categories=("Cs",),
                            blacklist_characters=",\n\r"), max_size=6)


def tiled(values, n):
    """``values`` repeated to length ``n``: long columns from few draws."""
    return (values * (n // len(values) + 1))[:n]


@st.composite
def columns(draw):
    """(header, columns) with one column of each kind the runners pass."""
    n = draw(row_counts)
    float_col = np.array(tiled(draw(st.lists(floats, min_size=1,
                                             max_size=20)), n))
    int_col = np.array(tiled(draw(st.lists(
        st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=20)), n),
        dtype=np.int64)
    id_col = tiled(draw(st.lists(ids, min_size=1, max_size=20)), n)
    mixed_col = tiled(draw(st.lists(st.one_of(st.integers(), floats),
                                    min_size=1, max_size=20)), n)
    strided = np.array([tiled(draw(st.lists(floats, min_size=1,
                                            max_size=5)), 3 * n)]) \
        .reshape(-1, 3).T[1]
    cols = [range(n), float_col, int_col, id_col, mixed_col, strided]
    order = draw(st.permutations(range(len(cols))))
    return [f"c{i}" for i in order], [cols[i] for i in order]


def json_payloads(numbers):
    leaves = st.one_of(st.none(), st.booleans(), st.integers(), numbers,
                       st.text(max_size=8))
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.tuples(children, children),
            st.dictionaries(st.text(max_size=8), children, max_size=5)),
        max_leaves=40)


# ----------------------------------------------------------------- tests

@settings(max_examples=60, deadline=None)
@given(columns())
def test_csv_matches_row_writer(case):
    header, cols = case
    assert written(cli._write_csv, header, *cols) == \
        written(reference_csv, header, zip(*cols))


@settings(max_examples=200, deadline=None)
@given(json_payloads(finite_floats))
def test_json_matches_dumps(payload):
    assert written(cli._write_json, payload) == \
        written(reference_json, payload)


@settings(max_examples=100, deadline=None)
@given(json_payloads(floats))
def test_json_refuses_what_is_not_json(payload):
    """A payload with an inf or nan would write ``Infinity`` or ``NaN``,
    which RFC 8259 does not allow: refused as
    ``json.dumps(allow_nan=False)`` refuses it; any other keeps the bytes
    of ``json.dumps``."""
    try:
        json.dumps(payload, allow_nan=False)
    except ValueError:
        with pytest.raises(ValueError, match="not JSON compliant"):
            written(cli._write_json, payload)
    else:
        assert written(cli._write_json, payload) == \
            written(reference_json, payload)


def test_mixed_python_list_keeps_ints():
    data = written(cli._write_csv, ["ebn0_db", "ber"], [0, 2.5],
                   np.array([0.5, 0.25]))
    assert data == b"ebn0_db,ber\n0,0.5\n2.5,0.25\n"


def test_empty_columns_write_the_header_only():
    assert written(cli._write_csv, ["a", "b"], np.empty(0), []) == b"a,b\n"


def test_edges_as_tuples_match_lists():
    edges = [("gs", "u0", np.float64(1.5)), ("u0", "u1", 0.1 + 0.2)]
    payload = {"edges": edges, "kind": "star"}
    as_lists = {"edges": [[a, b, float(c)] for a, b, c in edges],
                "kind": "star"}
    assert written(cli._write_json, payload) == \
        written(reference_json, as_lists)


def _at(*xyz):
    return np.array(xyz, dtype=float)


# ids u10..u11 sort before u2; u1 and u2 coincide, and 5.0 is exactly the
# distance from u0 to u1
TWELVE = {GROUND_STATION_ID: _at(0, 0, 0), "u0": _at(0, 0, 10),
          "u1": _at(3, 4, 10), "u2": _at(3, 4, 10),
          **{f"u{i}": _at(i % 3, i // 3, 12) for i in range(3, 12)}}


@settings(max_examples=200, deadline=None)
@given(swarms())
@example((TopologyKind.SINGLE_GROUP_AD_HOC, 1, 1, 1.0,
          {GROUND_STATION_ID: _at(0, 0, 0), "u0": _at(1, 2, 3)}))
@example((TopologyKind.MULTI_GROUP_AD_HOC, 12, 3, 5.0, TWELVE))
@example((TopologyKind.MULTI_LAYER_AD_HOC, 12, 3, 5.0, TWELVE))
@example((TopologyKind.MULTI_STAR, 12, 5, 5.0, TWELVE))
@example((TopologyKind.STAR, 12, 1, 5.0, TWELVE))
def test_topology_matches_dumps(swarm):
    try:
        graph = build_topology(*swarm)
    except TopologyError:
        assume(False)
    assert written(cli._write_topology, graph) == \
        written(reference_topology, graph)


def test_topology_edge_cases_match_dumps():
    # one edge, u0-gs; no edges at all; nodes with no later neighbour
    one = build_topology(TopologyKind.SINGLE_GROUP_AD_HOC, 1, 1, 1.0,
                         {GROUND_STATION_ID: _at(0, 0, 0), "u0": _at(1, 2, 3)})
    assert len(one.edges) == 1
    for graph in (one, grid_graph(1, 1), grid_graph(3, 3, walls={(1, 1)}),
                  grid_graph(4, 1, walls={(1, 0), (2, 0)})):
        assert written(cli._write_topology, graph) == \
            written(reference_topology, graph)
    # string order, not numeric order
    graph = build_topology(TopologyKind.MULTI_GROUP_AD_HOC, 12, 3, 5.0,
                           TWELVE)
    data = written(cli._write_topology, graph)
    firsts = [a for a, _, _ in json.loads(data)["edges"]]
    assert firsts.index("u10") < firsts.index("u2")
    assert data == written(reference_topology, graph)


def test_topology_streams_in_little_memory():
    """Writing a 300-UAV complete graph (44,851 edges, 2.9 MB) holds no
    list of every edge and no whole file in memory."""
    rng = np.random.default_rng(300)
    positions = {f"u{i}": rng.uniform(0.0, 10.0, 3) for i in range(300)}
    positions[GROUND_STATION_ID] = np.zeros(3)
    graph = build_topology(TopologyKind.SINGLE_GROUP_AD_HOC, 300, 1, 100.0,
                           positions)
    with tempfile.TemporaryDirectory() as tmp:
        tracemalloc.start()
        try:
            path = cli._write_topology(Path(tmp) / "topology.json", graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
    assert size > 2_800_000
    assert peak < 0.1 * size, (peak, size)


def test_csv_streams_in_little_memory():
    """30,000 rows of four float columns (2.3 MB): the writer holds one
    block's cells and text at a time, well under the file's size."""
    rng = np.random.default_rng(30)
    cols = [rng.standard_normal(30_000) * 10.0 ** rng.uniform(-5, 5, 30_000)
            for _ in range(4)]
    with tempfile.TemporaryDirectory() as tmp:
        tracemalloc.start()
        try:
            path = cli._write_csv(Path(tmp) / "table.csv", list("abcd"),
                                  *cols)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
    assert size > 2_000_000
    assert peak < 0.25 * size, (peak, size)
