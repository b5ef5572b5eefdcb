"""The column writer and the JSON writer against the writers they replaced:
a row writer that formats each cell with ``_fmt``, and ``json.dumps``.
Both must give the same bytes for every column kind the runners pass."""
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from swarmlink import cli

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


json_leaves = st.one_of(st.none(), st.booleans(), st.integers(), floats,
                        st.text(max_size=8))
payloads = st.recursive(
    json_leaves,
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
@given(payloads)
def test_json_matches_dumps(payload):
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
