import contextlib
import copy
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trusskit import jsonio, regular_module, za_truss, zn_truss
from trusskit import cli
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

    @pytest.mark.parametrize("data, offset", [
        ('{"α": [1,'.encode(), 10),  # the decoder counts 9 characters
        ('{"α": [1, x]}'.encode(), 11),
        ('{"😀": [1, x]}'.encode(), 13),
        (b'{"a": "\xff"}', 7),  # not UTF-8: the first invalid byte, where the decoder says 0
        (b'{"\xce\xb1": "\xce"}', 8),  # a truncated two-byte sequence after a whole one
    ])
    def test_parse_error_offset_counts_utf8_bytes(self, data, offset, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_bytes(data)
        assert data[offset:offset + 1] in (b"", b"x", b"\xff", b"\xce")
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error: parse error in ")
        assert "at byte %d:" % offset in err[0]

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

    def test_bound(self):
        code, err = _run_main(["scan-units", "--max", "100"])
        assert code == 2 and err == "input error: scan bound is 64\n"

    @pytest.mark.parametrize("n_max,code,error", [
        ("65", 2, "input error: scan bound is 64\n"), ("64", 0, ""),
        ("2", 0, ""), ("1", 2, "input error: scan starts at n = 2\n"),
        ("-5", 2, "input error: scan starts at n = 2\n")])
    def test_both_bounds(self, n_max, code, error):
        got, out, err = _main_streams(["scan-units", "--max", n_max])
        assert got == code
        if error:
            assert (out, err) == ("", error)
        else:
            assert "result: PASS" in out and err.startswith("elapsed ")


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

    def test_extend_mismatched_module(self, z4_file, za24_files):
        _, mpath = za24_files
        code, err = _run_main(["extend", z4_file, mpath, "0"])
        assert code == 2
        assert err == "input error: module file is not a module over the base file\n"

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

    def test_unknown_family(self):
        code, err = _run_main(["catalog", "sporadic", "1"])
        assert code == 2
        assert err == ("input error: unknown catalog family 'sporadic' "
                       "(families: zn, za, group-ring, trunc-poly, end)\n")

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


def _main_streams(argv):
    """(exit code, stdout, stderr) of one cli.main call; anything but SystemExit escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit:
            code = None
    return code, out.getvalue(), err.getvalue()


def _run_main(argv):
    """(exit code, stderr) of one cli.main call."""
    code, _, err = _main_streams(argv)
    return code, err


def _mutated(data, values=json_values):
    """A copy of one of ``FUZZ_DOCS`` with one entry, nested or not, dropped,
    replaced by one of ``values`` or shortened."""
    doc = copy.deepcopy(data.draw(st.sampled_from(FUZZ_DOCS)))
    path, key = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for step in path:
        parent = parent[step]
    how = data.draw(st.sampled_from(["drop", "replace", "shorten"]))
    if how == "drop":
        del parent[key]
    elif how == "replace":
        parent[key] = data.draw(values)
    elif isinstance(parent[key], list) and parent[key]:
        parent[key] = parent[key][:-1]
    return doc


class TestErrorBoundary:
    """Malformed documents and arguments never escape ``main`` as a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_documents(self, data):
        doc = _mutated(data)
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

    @pytest.mark.parametrize("argv, message", [
        (["catalog", "end", "x"], "empty abelian group spec"),
        (["quotient", "Z4", "foo"], "subset member 'foo' is neither an index nor a label"),
        (["extend", "Z4", "Z4", "0"], "extend needs a truss file and a tmodule file"),
        (["quotient", "MOD", "0"], "quotient needs a truss file"),
        (["brace", "MOD"], "brace needs a truss or brace file"),
        (["identify", "MOD"], "cannot identify this structure kind"),
    ])
    def test_malformed_argument_is_an_input_error(self, argv, message, z4_file, za24_files):
        files = {"Z4": z4_file, "MOD": za24_files[1]}
        code, out, err = _main_streams([files.get(a, a) for a in argv])
        assert code == 2 and out == ""
        assert err.startswith("input error: " + message) and err.count("\n") == 1, err

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


def _stdlib_read_doc(path):
    """``jsonio.read_doc`` on the stdlib decoder, which accepts NaN, Infinity,
    1e999 and lone surrogates and keeps integers of any size."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError("parse error in %s at byte %d: %s" % (path, exc.pos, exc.msg)) from exc


def _verdict(doc):
    """What ``jsonio.validate`` makes of a document: its checks, or the input error."""
    try:
        obj, report = jsonio.validate(doc)
    except ValueError:
        return "input error"
    return type(obj).__name__, [(c.name, c.passed, c.witness) for c in report.checks]


def _beyond_64_bits_as_floats(node):
    """``node`` with each integer outside [-2**63, 2**64) made a float."""
    if isinstance(node, dict):
        return {k: _beyond_64_bits_as_floats(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_beyond_64_bits_as_floats(v) for v in node]
    if type(node) is int and not -2 ** 63 <= node < 2 ** 64:
        return float(node)
    return node


# JSON values plus what the stdlib writes and reads but standard JSON lacks
lax_values = json_values | st.sampled_from([float("nan"), float("inf"), -float("inf"), "\ud800",
                                            "a\udfff"])


class TestReaderDifferential:
    """The orjson reader against the stdlib decoder it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_same_verdicts_where_both_parse(self, data):
        if data.draw(st.booleans()):
            doc = _mutated(data, lax_values)
        else:
            doc = data.draw(st.sampled_from(FUZZ_DOCS))
        text = json.dumps(doc, ensure_ascii=data.draw(st.booleans()))
        with tempfile.TemporaryDirectory() as tmp:
            doc_file = os.path.join(tmp, "doc.json")
            try:
                Path(doc_file).write_bytes(text.encode())
            except UnicodeEncodeError:  # a lone surrogate has no raw UTF-8 form
                Path(doc_file).write_text(json.dumps(doc))
            old = _stdlib_read_doc(doc_file)
            try:
                new = jsonio.read_doc(doc_file)
            except ValueError:  # NaN, infinities and lone surrogates fail at parse
                self._assert_one_input_error(doc_file)
                return
            assert new == _beyond_64_bits_as_floats(old)
            assert _verdict(new) == _verdict(old)
            for command in ("validate", "identify"):
                with mock.patch.object(jsonio, "read_doc", _stdlib_read_doc):
                    before = _main_streams([command, doc_file])
                assert _main_streams([command, doc_file])[:2] == before[:2]

    @pytest.mark.parametrize("where, value", [
        ("labels", "NaN"), ("labels", "Infinity"), ("labels", "-Infinity"),
        ("labels", "1e999"), ("labels", '"\\ud800"'), ("zero", "NaN"),
        ("add", str(2 ** 80)), ("mul", "1e999"),
    ])
    def test_non_standard_numbers_and_lone_surrogates_are_input_errors(self, where, value,
                                                                      tmp_path):
        doc = jsonio.to_jsonable(zn_truss(4))
        if where == "labels":
            doc["labels"] = ["SLOT", "1", "2", "3"]
        elif where == "zero":
            doc["heap"]["zero"] = "SLOT"
        else:  # a table entry
            (doc["heap"] if where == "add" else doc)[where][1][2] = "SLOT"
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc).replace('"SLOT"', value))
        self._assert_one_input_error(str(path))

    @staticmethod
    def _assert_one_input_error(doc_file):
        for command in ("validate", "identify"):
            code, out, err = _main_streams([command, doc_file])
            assert code == 2 and out == ""
            assert err.startswith("input error: ") and err.count("\n") == 1, err

    def test_raw_utf8_labels_read_as_their_escaped_twin(self, tmp_path):
        doc = jsonio.to_jsonable(zn_truss(4))
        doc["labels"] = doc["heap"]["labels"] = ["α", "β", "γ", "δ"]
        escaped, raw = tmp_path / "escaped.json", tmp_path / "raw.json"
        escaped.write_text(json.dumps(doc))
        raw.write_bytes(json.dumps(doc, ensure_ascii=False).encode())
        assert "\\u03b1" in escaped.read_text() and "α".encode() in raw.read_bytes()
        docs = [jsonio.read_doc(str(p)) for p in (escaped, raw)]
        assert docs[0] == docs[1] == doc
        assert _verdict(docs[0]) == _verdict(docs[1])
        assert jsonio.read_file(raw).labels == ("α", "β", "γ", "δ")
        assert jsonio.dumps(jsonio.read_file(raw)) == jsonio.dumps(jsonio.read_file(escaped))
        outs = [_main_streams(["validate", str(p)])[1].replace(str(p), "PATH") for p in (escaped, raw)]
        assert outs[0] == outs[1] and "result: PASS" in outs[0]


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built, real = [], cli.build_parser

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        outs = [run_cli(["scan-units", "--max", "4"], capsys) for _ in range(3)]
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert outs[0] == outs[1] == outs[2] and outs[0][0] == 0
    assert real() is not real()  # build_parser itself still returns a fresh parser


# ``validate`` stdout on documents with a corrupted group table, pinned byte
# for byte: a heap whose group laws fail still gets its Mal'cev grids
# scanned; a truss or module over a failing heap block is not built; a brace
# lists both groups' reports and its own laws.
_PINNED_VALIDATE = {
    "abgroup": """command: validate {path}
structure structure: {{"kind": "abgroup", "order": 6, "zero": 0}}
report: validate abgroup
  [FAIL] group.commutative  witness=(2, 3)
  [FAIL] group.associative  witness=(1, 1, 3)
  [ok  ] group.inverse
  [ok  ] declared_zero
  result: FAIL
""",
    "heap": """command: validate {path}
structure structure: {{"basepoint": 0, "kind": "heap", "order": 6}}
report: validate heap
  [ok  ] heap.malcev
  [FAIL] heap.malcev_right  witness=(2, 3)
  [FAIL] group.commutative  witness=(2, 3)
  [FAIL] group.associative  witness=(1, 1, 3)
  [ok  ] group.inverse
  [ok  ] declared_zero
  result: FAIL
""",
    "truss": """command: validate {path}
report: validate truss
  [ok  ] heap.malcev
  [FAIL] heap.malcev_right  witness=(2, 3)
  [FAIL] group.commutative  witness=(2, 3)
  [FAIL] group.associative  witness=(1, 1, 3)
  [ok  ] group.inverse
  [ok  ] declared_zero
  result: FAIL
""",
    "tmodule": """command: validate {path}
report: validate tmodule
  [ok  ] heap.malcev
  [ok  ] heap.malcev_right
  [ok  ] group.commutative
  [ok  ] group.associative
  [ok  ] group.inverse
  [ok  ] declared_zero
  [ok  ] truss.associative
  [ok  ] truss.left_distributive
  [ok  ] truss.right_distributive
  [ok  ] truss.identity_row
  [ok  ] truss.absorber_row
  [ok  ] declared_identity
  [ok  ] declared_absorber
  [ok  ] heap.malcev
  [FAIL] heap.malcev_right  witness=(2, 3)
  [FAIL] group.commutative  witness=(2, 3)
  [FAIL] group.associative  witness=(1, 1, 3)
  [ok  ] group.inverse
  [ok  ] declared_zero
  result: FAIL
""",
    "brace_add": """command: validate {path}
structure structure: {{"kind": "brace", "order": 16, "sided": "two-sided"}}
report: validate brace
  [FAIL] group.commutative  witness=(2, 3)
  [FAIL] group.associative  witness=(1, 1, 3)
  [ok  ] group.inverse
  [ok  ] group.associative
  [ok  ] group.inverse
  note: brace laws not decided: the additive group's laws fail
  result: FAIL
""",
    "brace_mul": """command: validate {path}
structure structure: {{"kind": "brace", "order": 16, "sided": "two-sided"}}
report: validate brace
  [ok  ] group.commutative
  [ok  ] group.associative
  [ok  ] group.inverse
  [FAIL] group.associative  witness=(1, 1, 3)
  [ok  ] group.inverse
  [FAIL] brace.left_law  witness=(2, 2, 1)
  [FAIL] brace.right_law  witness=(3, 1, 1)
  result: FAIL
""",
}


def _corrupted_document(kind):
    """The document of ``kind`` with one group-table cell changed: Z_6 with
    2 + 3 = 4 (it keeps its zero and inverses only), as a group, a heap, the
    heap block of T(Z_6) or the carrier of its regular module; or cell (2, 3)
    of the order-16 extension brace's + or . set to 5."""
    from trusskit import AbGroup, brace_from_truss, extend, heap_from_group

    z6 = zn_truss(6)
    if kind.startswith("brace_"):
        base = za_truss(2, 4)
        doc = jsonio.to_jsonable(brace_from_truss(extend(base, regular_module(base), 0).truss))
        doc[kind[len("brace_"):]][2][3] = 5
        return doc
    g = AbGroup.cyclic(6)
    structures = {"abgroup": g, "heap": heap_from_group(g), "truss": z6,
                  "tmodule": regular_module(z6)}
    doc = jsonio.to_jsonable(structures[kind])
    (doc if kind in ("abgroup", "heap") else doc["heap"])["add"][2][3] = 4
    return doc


@pytest.mark.parametrize("kind", sorted(_PINNED_VALIDATE))
def test_validate_corrupted_group_documents_pinned(kind, tmp_path, capsys):
    doc = _corrupted_document(kind)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["validate", str(path)], capsys)
    assert code == 1
    assert out == _PINNED_VALIDATE[kind].format(path=path)


# The order-128 and order-256 files of the CLI battery: each corrupted copy
# changes one cell on the anti-diagonal, off the identity and absorber rows
# and columns, so every law scan runs before the witness.  Pinned per order:
# the identify names and the three [FAIL] lines.
_LARGE_PINNED = {
    128: (("C128", "C2xC32"), ("[FAIL] truss.associative  witness=(2, 21, 85)",
                               "[FAIL] truss.left_distributive  witness=(42, 84, 0, 1)",
                               "[FAIL] truss.right_distributive  witness=(85, 41, 0, 1)")),
    256: (("C256", "C2xC64"), ("[FAIL] truss.associative  witness=(2, 85, 170)",
                               "[FAIL] truss.left_distributive  witness=(85, 169, 0, 1)",
                               "[FAIL] truss.right_distributive  witness=(170, 84, 0, 1)")),
}


@pytest.mark.parametrize("n", sorted(_LARGE_PINNED))
def test_cli_battery_on_large_files(n, tmp_path):
    from trusskit import units

    t = zn_truss(n)
    good, bad = str(tmp_path / "good.json"), str(tmp_path / "bad.json")
    jsonio.write_file(good, t)
    doc = jsonio.to_jsonable(t)
    row = n // 3
    assert {row, n - 1 - row}.isdisjoint({t.identity, t.absorber})
    doc["mul"][row][n - 1 - row] = (doc["mul"][row][n - 1 - row] + 5) % n
    Path(bad).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    members = ",".join(map(str, units(t)))
    names, fails = _LARGE_PINNED[n]

    code, out, _ = _main_streams(["validate", good])
    assert code == 0 and "[FAIL]" not in out and "result: PASS" in out
    code, out, _ = _main_streams(["identify", good])
    assert code == 0
    assert "additive: named_match=%s " % names[0] in out
    assert "units: named_match=%s " % names[1] in out
    code, out, _ = _main_streams(["quotient", good, members])
    assert code == 0 and "note: quotient isomorphic to T(Z_2)" in out

    code, out, _ = _main_streams(["validate", bad])
    assert code == 1
    assert tuple(line.strip() for line in out.splitlines() if "[FAIL]" in line) == fails
    witness = fails[0].split("witness=")[1]
    for argv in (["identify", bad], ["quotient", bad, members]):
        code, out, err = _main_streams(argv)
        assert code == 1 and out == ""
        assert err == "validation error: truss.associative fails at %s\n" % witness


# Fields with a JSON type: the anchor must be an integer (not null), the
# declared zero, identity and absorber an integer or null, the labels a list
# or null.  A bool is no integer.  Each document validated with exit 0 before.
def _typed_field_documents():
    from trusskit import extend

    z2, z4 = zn_truss(2), jsonio.to_jsonable(zn_truss(4))
    ext = jsonio.to_jsonable(extend(z2, regular_module(z2), 1))
    return {
        "anchor_true": (dict(ext, extension=dict(ext["extension"], anchor=True)),
                        "document.extension.anchor must be int, not bool"),
        "identity_true": (dict(z4, identity=True), "document.identity must be int, not bool"),
        "absorber_false": (dict(z4, absorber=False), "document.absorber must be int, not bool"),
        "zero_float": (dict(z4, heap=dict(z4["heap"], zero=0.0)),
                       "document.heap.zero must be int, not float"),
        "labels_string": (dict(z4, labels="wxyz"), "document.labels must be list, not str"),
    }


_TYPED_FIELDS = _typed_field_documents()


@pytest.mark.parametrize("case", sorted(_TYPED_FIELDS))
def test_field_of_the_wrong_json_type_is_an_input_error(case, tmp_path):
    doc, message = _TYPED_FIELDS[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "identify"):
        code, out, err = _main_streams([command, str(path)])
        assert (code, out, err) == (2, "", "input error: %s\n" % message)


def test_null_fields_are_not_declared(tmp_path):
    doc = dict(jsonio.to_jsonable(zn_truss(4)), identity=None, absorber=None, labels=None)
    doc["heap"]["zero"] = None
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _main_streams(["validate", str(path)])
    assert code == 0 and "declared_" not in out


# Each family's order is worked out from its parameters before a table is
# built.  These values stay out of the hypothesis parameter list above, so
# that a regression fails here instead of allocating.
@pytest.mark.parametrize("argv, message", [
    (["zn", "257"], None),
    (["zn", "100000"], None),
    (["za", "2", "257"], None),
    (["za", "2", "100000"], None),
    (["group-ring", "257", "cyclic:2"], None),
    (["group-ring", "100000", "cyclic:2"], None),
    (["group-ring", "2", "cyclic:257"], None),
    (["group-ring", "1", "cyclic:100000"], None),
    (["group-ring", "2", "cyclic:9"], "group ring order 512 exceeds the bound 256"),
    (["trunc-poly", "257", "2"], "carrier order 2^514 exceeds the bound 256"),
    (["trunc-poly", "100000", "2"], "carrier order 2^200000 exceeds the bound 256"),
    (["trunc-poly", "1", "9"], "carrier order 2^9 exceeds the bound 256"),
    (["end", "257"], None),
    (["end", "100000"], None),
    (["end", "2x2x2"], None),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_catalog_order_past_the_bound_is_an_input_error(argv, message):
    """None: the bound the command checks before it builds anything."""
    message = message or "catalog %s: order exceeds the bound 256" % " ".join(argv)
    code, out, err = _main_streams(["catalog"] + argv)
    assert (code, out, err) == (2, "", "input error: %s\n" % message)


@pytest.mark.parametrize("argv", [["zn", "256"], ["za", "2", "256"], ["trunc-poly", "1", "8"]])
def test_catalog_order_at_the_bound_is_built(argv):
    code, out, _ = _main_streams(["catalog"] + argv)
    assert code == 0 and "result: PASS" in out


def test_empty_structures_round_trip():
    from trusskit import AbGroup, Heap, TModule, Truss, heap_from_group

    empty = Truss(Heap.empty(), np.zeros((0, 0), dtype=np.int64))
    over_empty = TModule(empty, heap_from_group(AbGroup.cyclic(3)),
                         np.zeros((0, 3), dtype=np.int64))
    onto_empty = TModule(zn_truss(2), Heap.empty(), np.zeros((2, 0), dtype=np.int64))
    for obj in (Heap.empty(), empty, over_empty, onto_empty):
        back = jsonio.loads(jsonio.dumps(obj))
        assert type(back) is type(obj) and jsonio.dumps(back) == jsonio.dumps(obj)
    assert jsonio.loads(jsonio.dumps(empty)) == empty
    assert jsonio.loads(jsonio.dumps(over_empty)).action.shape == (0, 3)


def _input_error_cases():
    """name -> (call, exception type, message, document for ``validate`` or
    None, its exit code)."""
    from trusskit import (AbGroup, Brace, TModule, Truss, cyclic_group, end_truss,
                          heap_from_group, inverse_in, product_module, quotient_truss,
                          validate_ternary_table)
    from trusskit.lawcheck import ValidationError
    from trusskit.modules import quotient_module, shift_submodule

    z4 = zn_truss(4)
    doc = jsonio.to_jsonable(z4)
    no_identity = Truss(heap_from_group(AbGroup.cyclic(3)), np.zeros((3, 3), dtype=np.int64))
    small = jsonio.to_jsonable(Brace(AbGroup.cyclic(2), cyclic_group(2)))
    return {
        "truss_sided": (lambda: Truss(z4.heap, z4.mul, sided="right"), ValueError,
                        "sided must be 'two-sided' or 'left'", dict(doc, sided="right"), 2),
        "truss_size": (lambda: Truss(z4.heap, z4.mul[:3, :3]), ValueError,
                       "multiplication table does not match the heap order",
                       dict(doc, mul=[row[:3] for row in doc["mul"][:3]]), 2),
        "module_shape": (lambda: TModule(z4, z4.heap, z4.mul[:, :3]), ValidationError,
                         "action table must be n x m",
                         {"kind": "tmodule", "truss": doc, "heap": doc["heap"],
                          "action": [row[:3] for row in doc["mul"]]}, 1),
        "module_closure": (lambda: TModule(z4, z4.heap, np.full((4, 4), 4)), ValidationError,
                           "module.closure fails at (0, 0)",
                           {"kind": "tmodule", "truss": doc, "heap": doc["heap"],
                            "action": [[4] * 4] * 4}, 1),
        "quotient_truss_left_paragon": (
            lambda: quotient_truss(end_truss(AbGroup.cyclic(2)).truss, [0, 2]), ValueError,
            "subset is not a paragon of the required kind", None, None),
        "inverse_in_no_identity": (lambda: inverse_in(no_identity, 0), ValueError,
                                   "truss has no identity; inverses undefined", None, None),
        "quotient_module": (lambda: quotient_module(regular_module(z4), [0, 1]), ValueError,
                            "quotient needs an induced submodule; failed subheap at (0, 1, 0)",
                            None, None),
        "shift_submodule": (lambda: shift_submodule(regular_module(z4), [0, 1], 0, 2),
                            ValueError,
                            "shift needs an induced submodule; failed subheap at (0, 1, 0)",
                            None, None),
        "product_module": (lambda: product_module(regular_module(z4),
                                                  regular_module(zn_truss(2))), ValueError,
                           "product module needs both factors over the same truss", None, None),
        "brace_sizes": (lambda: Brace(AbGroup.cyclic(2), cyclic_group(3)), ValueError,
                        "additive and multiplicative tables differ in size",
                        dict(small, mul=[[0, 1, 2], [1, 2, 0], [2, 0, 1]], labels=None), 2),
        "ternary_not_cubic": (lambda: validate_ternary_table(np.zeros((2, 2, 3), dtype=int)),
                              ValidationError, "expected an n*n*n table", None, None),
        "ternary_out_of_range": (lambda: validate_ternary_table(np.full((2, 2, 2), 2)),
                                 ValidationError, "ternary.closure fails at (0, 0, 0)",
                                 None, None),
        "ternary_empty_list": (lambda: validate_ternary_table([]), ValidationError,
                               "expected an n*n*n table", None, None),
        "jsonio_nested_heap": (lambda: jsonio.validate(dict(doc, heap=[1, 2])), ValueError,
                               "document.heap is not a heap document (kind None)",
                               dict(doc, heap=[1, 2]), 2),
        "jsonio_nested_extension": (lambda: jsonio.validate(dict(doc, extension=[0])),
                                    ValueError, "document.extension is not a JSON object",
                                    dict(doc, extension=[0]), 2),
    }


_INPUT_ERRORS = _input_error_cases()


@pytest.mark.parametrize("case", sorted(_INPUT_ERRORS))
def test_input_error_paths(case, tmp_path):
    call, kind, message, doc, code = _INPUT_ERRORS[case]
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind and str(err.value) == message
    if doc is None:
        return
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    got, out, stderr = _main_streams(["validate", str(path)])
    assert got == code
    if code == 2:
        assert (out, stderr) == ("", "input error: %s\n" % message)
    else:  # the constructor's ValidationError is the report's failing check
        assert "[FAIL] %s" % err.value.law in out


def test_ternary_table_of_order_zero_is_the_empty_heap():
    from trusskit import Heap, validate_ternary_table

    assert validate_ternary_table(np.zeros((0, 0, 0), dtype=int)) == Heap.empty()


def test_brace_command_on_a_brace_file(tmp_path, capsys):
    from trusskit import brace_from_truss

    path = tmp_path / "brace.json"
    jsonio.write_file(path, brace_from_truss(za_truss(2, 4)))
    code, out = run_cli(["brace", str(path)], capsys)
    assert code == 0
    for line in ("[ok  ] brace.left_law", "[ok  ] brace.right_law", "note: socle (0, 2)",
                 "note: additive group C4", "note: multiplicative group C2xC2",
                 "[ok  ] socle_is_ideal", "result: PASS"):
        assert line in out


def test_quotient_by_label_names(tmp_path, capsys):
    doc = dict(jsonio.to_jsonable(zn_truss(4)), labels=["a", "b", "c", "d"])
    path = tmp_path / "z4.json"
    path.write_text(json.dumps(doc))
    by_name = run_cli(["quotient", str(path), "b, d"], capsys)
    by_index = run_cli(["quotient", str(path), "1,3"], capsys)
    assert by_name[0] == by_index[0] == 0
    assert by_name[1].splitlines()[1:] == by_index[1].splitlines()[1:]
    assert "quotient by (1, 3)" in by_name[1] and "isomorphic to T(Z_2)" in by_name[1]


def test_quotient_by_digit_labels_that_are_not_their_indices(tmp_path, capsys):
    """A name that is a label names that element, before it is read as an index:
    on Z_2[x]/(x^2), labelled 0, x, 1, 1+x, the units 1 and 1+x are (2, 3)."""
    from trusskit import trunc_poly_truss

    t = trunc_poly_truss(1, 2).truss
    assert t.labels == ("0", "x", "1", "1+x")
    path = tmp_path / "poly1_2.json"
    jsonio.write_file(path, t)
    code, out = run_cli(["quotient", str(path), "1,1+x"], capsys)
    assert code == 0
    for line in ("report: quotient by (2, 3)", "[ok  ] subset_is_paragon (two-sided)",
                 "note: quotient isomorphic to T(Z_2)"):
        assert line in out
    # an integer that is no label is still an index: 3 names 1+x
    by_index = run_cli(["quotient", str(path), "1,3"], capsys)
    assert by_index[0] == 0 and by_index[1].splitlines()[1:] == out.splitlines()[1:]


def test_quotient_by_digits_on_a_file_labelled_by_its_indices(z4_file, capsys):
    """On Z_4 every label is its own index, so a digit reads the same either way."""
    assert jsonio.read_file(z4_file).labels == ("0", "1", "2", "3")
    code, out = run_cli(["quotient", z4_file, "1,3"], capsys)
    assert code == 0 and "report: quotient by (1, 3)" in out
