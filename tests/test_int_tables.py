"""Conversion of operation tables to int64 arrays (``heaps._int_table``).

A nested list of ints is accepted after one orjson serializer pass; any other
table takes the per-entry type scan.  The differential test holds the result
to the scan-only conversion, kept here as the oracle.
"""

import enum
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trusskit import (
    AbGroup,
    brace_from_truss,
    dihedral_group,
    extend,
    group_ring,
    heap_from_group,
    heaps,
    jsonio,
    regular_module,
    za_truss,
    zn_ring,
    zn_truss,
)
from trusskit.cli import main


def scan_only_int_table(table, what):
    """``heaps._int_table`` with every nested-list table checked by the
    per-entry type scan: the oracle."""
    try:
        arr = np.ascontiguousarray(table, dtype=np.int64)
    except (TypeError, OverflowError) as exc:
        raise ValueError("%s table must hold integers: %s" % (what, exc)) from exc
    if isinstance(table, np.ndarray):
        kinds = {table.dtype.type}
    elif arr.ndim in (2, 3):
        entries = itertools.chain.from_iterable(table)
        if arr.ndim == 3:
            entries = itertools.chain.from_iterable(entries)
        kinds = set(map(type, entries))
    else:
        kinds = ()
    bad = sorted(k.__name__ for k in kinds
                 if issubclass(k, bool) or not issubclass(k, (int, np.integer)))
    if bad and arr.size:
        raise ValueError("%s table must hold integers: found %s" % (what, bad[0]))
    return arr


class Colour(enum.IntEnum):
    RED = 3


INT64_EDGES = [0, -1, 2 ** 63 - 1, -2 ** 63]
# entries numpy converts to int64, so that only the type check rejects them
CASTABLE = [True, False, 1.0, 2.0, -0.0, 0.5, -3.25, "1", Colour.RED,
            np.int64(2), np.int32(-1), np.uint8(7), np.bool_(True), np.float64(1.0)]
UNCASTABLE = [2 ** 63, 2 ** 64, 2 ** 80, -2 ** 80, -2 ** 63 - 1, 1e300, float("nan"),
              float("inf"), "a", None, {}, {"a": 1}]
odd_entries = st.sampled_from(CASTABLE) | st.sampled_from(CASTABLE) | st.sampled_from(UNCASTABLE)
entries = st.integers(-5, 5) | st.sampled_from(INT64_EDGES)


def _lists(node):
    """Every list in a nested table, the table itself first."""
    yield node
    for value in node:
        if isinstance(value, list):
            yield from _lists(value)


@st.composite
def tables(draw):
    """A 2-D or 3-D nested table of lists and tuples: ints, with a few cells
    made odd entries and a few rows made ragged or empty."""
    ndim = draw(st.sampled_from([2, 3]))
    shape = draw(st.lists(st.integers(0, 4), min_size=ndim, max_size=ndim))

    def build(dims):
        if not dims:
            return draw(entries)
        return [build(dims[1:]) for _ in range(dims[0])]

    table = build(shape)
    for _ in range(draw(st.integers(0, 3))):
        nodes = list(_lists(table))
        how = draw(st.sampled_from(["odd"] * 6 + ["shorten", "empty", "extend"]))
        if how == "odd":
            leaves = [node for node in nodes if node and not isinstance(node[0], list)]
            row = draw(st.sampled_from(leaves or nodes))
        else:
            row = draw(st.sampled_from(nodes))
        if not row:
            row.append(draw(entries))
        elif how == "odd":
            row[draw(st.integers(0, len(row) - 1))] = draw(odd_entries)
        elif how == "shorten":
            row.pop()
        elif how == "empty":
            row[draw(st.integers(0, len(row) - 1))] = []
        else:
            row.append(list(row[0]) if isinstance(row[0], list) else draw(entries))

    def freeze(node):
        if not isinstance(node, list):
            return node
        node = [freeze(v) for v in node]
        return tuple(node) if draw(st.booleans()) else node

    return freeze(table)


def outcome(convert, table):
    """What ``convert`` makes of ``table``: the array's dtype, shape, values
    and contiguity, or the exception's type and message."""
    try:
        arr = convert(table, "test")
    except Exception as exc:  # the exception is the outcome compared
        return "raised", type(exc), str(exc)
    return "array", arr.dtype, arr.shape, arr.tolist(), arr.flags.c_contiguous


@settings(max_examples=400, deadline=None)
@given(table=tables())
def test_same_outcome_as_the_per_entry_scan(table):
    assert outcome(heaps._int_table, table) == outcome(scan_only_int_table, table)


@pytest.mark.parametrize("table", [
    [[0, 1], [1, 0]], ((0, -1), (2 ** 63 - 1, -2 ** 63)), [[Colour.RED]], [[1, 2], [3]],
    [[2 ** 63]], [[2 ** 80]], [[0, True]], [[1.0]], [[-0.0]], [[float("nan")]],
    [["1"]], [[None]], [[{}]], [[np.int64(2)]], [[np.bool_(True)]], [], [[]], [[], []],
    [[[0, 1], [1, 0]], [[1, 0], [0, 1]]], [[[0, False]]], [1, True], np.array([[True]]),
    np.array([[1.5]]), np.array([[1, 2], [3, 4]], dtype=np.int8),
])
def test_same_outcome_on_edge_tables(table):
    assert outcome(heaps._int_table, table) == outcome(scan_only_int_table, table)


@pytest.fixture
def entry_scans(monkeypatch):
    """The tables the per-entry type scan runs on, in order."""
    seen = []

    def counted(table, ndim):
        seen.append(table)
        return real(table, ndim)

    real = heaps._entry_types
    monkeypatch.setattr(heaps, "_entry_types", counted)
    return seen


def _own_files():
    za24 = za_truss(2, 4)
    return {
        "zn256": zn_truss(256),
        "z2d8": group_ring(zn_ring(2), dihedral_group(8)).ring.truss(),
        "brace16": brace_from_truss(extend(za24, regular_module(za24), 0).truss),
        "heap": heap_from_group(AbGroup.cyclic(6)),
        "abgroup": AbGroup.cyclic(5),
        "group": dihedral_group(8),
        "tmodule": regular_module(za24),
    }


@pytest.mark.parametrize("name, obj", sorted(_own_files().items()))
def test_written_files_skip_the_entry_scan(name, obj, tmp_path, entry_scans):
    path = tmp_path / (name + ".json")
    jsonio.write_file(path, obj)
    _, report = jsonio.validate(jsonio.read_doc(path))
    assert report.ok
    assert entry_scans == []


def test_bool_cell_reaches_the_entry_scan(tmp_path, entry_scans, capsys):
    doc = jsonio.to_jsonable(zn_truss(16))
    doc["mul"][3][5] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("input error: ") and "found bool" in err[0]
    assert len(entry_scans) == 1
