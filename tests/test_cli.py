import contextlib
import copy
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from trusskit import jsonio, regular_module, za_truss, zn_truss
from trusskit.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture()
def z4_file(tmp_path):
    path = tmp_path / "z4.json"
    jsonio.write_file(path, zn_truss(4))
    return str(path)


@pytest.fixture()
def za24_files(tmp_path):
    base = za_truss(2, 4)
    bpath = tmp_path / "za24.json"
    mpath = tmp_path / "mod.json"
    jsonio.write_file(bpath, base)
    jsonio.write_file(mpath, regular_module(base))
    return str(bpath), str(mpath)


class TestValidate:
    def test_pass(self, z4_file, capsys):
        code, out = run_cli(["validate", z4_file], capsys)
        assert code == 0
        assert "result: PASS" in out

    def test_corrupted_entry_fails_with_witness(self, z4_file, tmp_path, capsys):
        doc = json.loads(Path(z4_file).read_text())
        doc["mul"][2][3] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out = run_cli(["validate", str(bad)], capsys)
        assert code == 1
        assert "FAIL" in out and "witness" in out

    def test_left_truss_notes_skip(self, tmp_path, capsys):
        from trusskit.catalog import left_translation_truss

        path = tmp_path / "left.json"
        jsonio.write_file(path, left_translation_truss())
        code, out = run_cli(["validate", str(path)], capsys)
        assert code == 0
        assert "right distributivity skipped (left truss)" in out

    def test_parse_error_has_byte_offset(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "truss", ')
        for cmd in ("validate", "identify"):
            assert main([cmd, str(path)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("input error: parse error in ")
            assert "at byte 18" in err[0]

    def test_brace_and_group_files(self, tmp_path, capsys):
        from trusskit import brace_from_truss, dihedral_group

        bpath = tmp_path / "brace.json"
        jsonio.write_file(bpath, brace_from_truss(za_truss(2, 4)))
        code, out = run_cli(["validate", str(bpath)], capsys)
        assert code == 0
        gpath = tmp_path / "group.json"
        jsonio.write_file(gpath, dihedral_group(8))
        code, out = run_cli(["validate", str(gpath)], capsys)
        assert code == 0

    def test_module_file(self, za24_files, capsys):
        _, mpath = za24_files
        code, out = run_cli(["validate", mpath], capsys)
        assert code == 0


class TestScanUnits:
    def test_power_of_two_law(self, capsys):
        code, out = run_cli(["scan-units", "--max", "16"], capsys)
        assert code == 0
        assert "paragon at n = [2, 4, 8, 16]" in out

    def test_bound(self, capsys):
        with pytest.raises(SystemExit):
            main(["scan-units", "--max", "100"])


class TestExtendQuotientBrace:
    def test_extend_pipeline(self, za24_files, tmp_path, capsys):
        bpath, mpath = za24_files
        out_json = tmp_path / "ext.json"
        code, out = run_cli(
            ["--json", str(out_json), "extend", bpath, mpath, "0"], capsys
        )
        assert code == 0
        assert "D8xC2" in out and "C4xC4" in out
        doc = json.loads(out_json.read_text())
        assert doc["order"] == 16 and doc["extension"]["anchor"] == 0
        # file round-trips through the loader
        ext = jsonio.read_file(out_json)
        assert ext.truss.order == 16

    def test_extend_mismatched_module(self, z4_file, za24_files, capsys):
        _, mpath = za24_files
        with pytest.raises(SystemExit, match="not a module over"):
            main(["extend", z4_file, mpath, "0"])

    def test_quotient_named_match(self, z4_file, capsys):
        code, out = run_cli(["quotient", z4_file, "1,3"], capsys)
        assert code == 0
        assert "isomorphic to T(Z_2)" in out

    def test_quotient_by_labels(self, z4_file, capsys):
        code, out = run_cli(["quotient", z4_file, "0,2"], capsys)
        assert code == 0

    def test_quotient_non_paragon(self, z4_file, capsys):
        code, out = run_cli(["quotient", z4_file, "1,2"], capsys)
        assert code == 1

    def test_brace_command(self, za24_files, capsys):
        bpath, _ = za24_files
        code, out = run_cli(["brace", bpath], capsys)
        assert code == 0
        assert "socle (0, 2)" in out
        assert "additive group C4" in out
        assert "multiplicative group C2xC2" in out

    def test_identify_group(self, tmp_path, capsys):
        from trusskit import cyclic_group, dihedral_group, direct_product

        path = tmp_path / "g.json"
        jsonio.write_file(path, direct_product(dihedral_group(8), cyclic_group(2)))
        code, out = run_cli(["identify", str(path)], capsys)
        assert code == 0
        assert "named_match=D8xC2" in out


class TestCatalog:
    @pytest.mark.parametrize(
        "argv",
        [
            ["catalog", "zn", "4"],
            ["catalog", "za", "2", "4"],
            ["catalog", "trunc-poly", "1", "2"],
            ["catalog", "group-ring", "2", "cyclic:2"],
            ["catalog", "end", "2"],
            ["catalog", "end", "2,2"],
        ],
    )
    def test_families(self, argv, capsys):
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert "result: PASS" in out

    def test_unknown_family(self, capsys):
        with pytest.raises(SystemExit):
            main(["catalog", "sporadic", "1"])

    def test_json_emission(self, tmp_path, capsys):
        out_json = tmp_path / "zn.json"
        code, _ = run_cli(["--json", str(out_json), "catalog", "zn", "6"], capsys)
        assert code == 0
        assert jsonio.read_file(out_json).order == 6


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_repeat_runs_byte_identical(self, fmt, z4_file, capsys):
        argv = ["--format", fmt, "scan-units", "--max", "12"]
        _, first = run_cli(argv, capsys)
        _, second = run_cli(argv, capsys)
        assert first == second
        _, third = run_cli(["--format", fmt, "validate", z4_file], capsys)
        _, fourth = run_cli(["--format", fmt, "validate", z4_file], capsys)
        assert third == fourth


class TestJsonRoundTrips:
    def test_all_kinds(self, tmp_path):
        from trusskit import (
            AbGroup,
            brace_from_truss,
            dihedral_group,
            heap_from_group,
        )

        objs = [
            AbGroup.cyclic(6),
            heap_from_group(AbGroup.cyclic(4)),
            zn_truss(4),
            regular_module(za_truss(2, 4)),
            brace_from_truss(za_truss(2, 4)),
            dihedral_group(8),
        ]
        for i, obj in enumerate(objs):
            path = tmp_path / ("obj%d.json" % i)
            jsonio.write_file(path, obj)
            back = jsonio.read_file(path)
            assert type(back).__name__ == type(obj).__name__

    def test_declared_identity_checked(self, tmp_path, z4_file):
        doc = json.loads(Path(z4_file).read_text())
        doc["identity"] = 3
        path = tmp_path / "bad_id.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(Exception):
            jsonio.read_file(path)


def _fuzz_documents():
    from trusskit import (
        AbGroup,
        brace_from_truss,
        dihedral_group,
        extend,
        heap_from_group,
    )

    z2 = zn_truss(2)
    return [
        jsonio.to_jsonable(obj)
        for obj in (
            AbGroup.cyclic(4),
            heap_from_group(AbGroup.cyclic(3)),
            zn_truss(4),
            regular_module(za_truss(2, 4)),
            brace_from_truss(za_truss(2, 4)),
            dihedral_group(6),
            extend(z2, regular_module(z2), 1),
        )
    ] + [{"kind": "heap", "order": 0}]


FUZZ_DOCS = _fuzz_documents()

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.integers(-2**80, 2**80)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                              max_size=4),
    max_leaves=12,
)


def _paths(node, path=()):
    """Every (container path, key) inside a document, nested ones included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path, key
        yield from _paths(value, path + (key,))


def _run_main(argv):
    """(exit code, stderr) of one cli.main call; anything but SystemExit escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit:
            code = None
    return code, err.getvalue()


class TestErrorBoundary:
    """Malformed documents and arguments never escape ``main`` as a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_documents(self, data):
        doc = copy.deepcopy(data.draw(st.sampled_from(FUZZ_DOCS)))
        path, key = data.draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for step in path:
            parent = parent[step]
        how = data.draw(st.sampled_from(["drop", "replace", "shorten"]))
        if how == "drop":
            del parent[key]
        elif how == "replace":
            parent[key] = data.draw(json_values)
        elif isinstance(parent[key], list) and parent[key]:
            parent[key] = parent[key][:-1]
        with tempfile.TemporaryDirectory() as tmp:
            doc_file = os.path.join(tmp, "doc.json")
            with open(doc_file, "w") as fh:
                json.dump(doc, fh)
            for command in ("validate", "identify"):
                code, err = _run_main([command, doc_file])
                assert code in (None, 0, 1, 2)
                if code == 2:
                    assert err.startswith("input error: ") and err.count("\n") == 1

    @settings(max_examples=200, deadline=None)
    @given(
        family=st.sampled_from(["zn", "za", "group-ring", "trunc-poly", "end", "ring"]),
        params=st.lists(
            st.sampled_from(["-1", "0", "1", "2", "3", "5", "x", "", "2x3", "3,0",
                             "cyclic", "cyclic:3", "cyclic:0", "dihedral:4", "dihedral:3",
                             "cyclic:2*cyclic:2", "quaternion", "direct-product:2", "q:1"]),
            max_size=3,
        ),
    )
    def test_catalog_arguments(self, family, params):
        code, err = _run_main(["catalog", family] + params)
        assert code in (None, 0, 1, 2)
        if code == 2:
            assert err.startswith("input error: ") and err.count("\n") == 1

    def test_empty_heap_is_an_input_error_for_identify(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"kind": "heap", "order": 0}))
        assert _run_main(["validate", str(path)])[0] == 0
        code, err = _run_main(["identify", str(path)])
        assert code == 2 and err.startswith("input error: ")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_truncated_and_garbled_text(self, data):
        text = json.dumps(data.draw(st.sampled_from(FUZZ_DOCS)))
        cut = data.draw(st.integers(0, len(text) - 1))
        if data.draw(st.booleans()):
            text = text[:cut]
        else:  # a control character is invalid JSON inside and outside strings
            junk = data.draw(st.sampled_from("\x00\x01\x07\x0b\x0c\x1f"))
            text = text[:cut] + junk + text[cut + 1:]
        self._assert_input_error(text)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_non_integral_table_entries(self, data):
        doc = copy.deepcopy(data.draw(st.sampled_from(FUZZ_DOCS[:-1])))
        cells = [(path, key) for path, key in _paths(doc)
                 if len(path) >= 2 and isinstance(path[-1], int) and isinstance(key, int)]
        path, key = data.draw(st.sampled_from(cells))
        row = doc
        for step in path:
            row = row[step]
        row[key] = data.draw(st.booleans() | st.floats(allow_nan=False, allow_infinity=False)
                             .filter(lambda v: v != int(v)))
        self._assert_input_error(json.dumps(doc))

    @staticmethod
    def _assert_input_error(text):
        with tempfile.TemporaryDirectory() as tmp:
            doc_file = os.path.join(tmp, "doc.json")
            Path(doc_file).write_text(text)
            for command in ("validate", "identify"):
                code, err = _run_main([command, doc_file])
                assert code == 2, (command, text, err)
                assert err.startswith("input error: ") and err.count("\n") == 1, err

    def test_seed_option_is_gone(self):
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
            main(["--seed", "0", "scan-units"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["catalog", "zn"], "catalog zn: expected 1 parameter(s), got 0"),
        (["catalog", "za", "2"], "catalog za: expected 2 parameter(s), got 1"),
    ])
    def test_catalog_parameter_count(self, argv, message):
        code, err = _run_main(argv)
        assert code == 2 and message in err
