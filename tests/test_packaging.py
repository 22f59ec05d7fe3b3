"""Every third-party module that trusskit imports is a declared dependency,
and every name a trusskit module imports is used or exported there."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports():
    """Top-level names of the modules imported under src/trusskit, outside the stdlib."""
    names = set()
    for path in sorted((ROOT / "src" / "trusskit").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"trusskit"}


def _declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in project["dependencies"]}


def test_every_third_party_import_is_a_declared_dependency():
    imports = _third_party_imports()
    assert {"numpy", "orjson"} <= imports  # the scan sees the imports it should
    assert imports <= _declared_dependencies()


MODULES = sorted(p for p in (ROOT / "src" / "trusskit").glob("*.py") if p.name != "__init__.py")


def _unused_imports(path):
    """Names ``path`` imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used_or_exported(path):
    assert _unused_imports(path) == []


def test_the_unused_import_scan_sees_an_unused_name(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import numpy as np\nfrom .heaps import AbGroup, Heap\n"
                    "__all__ = ['Heap']\n", encoding="utf-8")
    assert _unused_imports(path) == ["AbGroup", "np"]


def _sorted_set_calls(path):
    """(function, line) of every ``sorted`` call on a set comprehension in ``path``,
    the function being the innermost one around the call (None at module level)."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sorted" and node.args and isinstance(node.args[0], ast.SetComp)):
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_only_heaps_members_normalises_a_member_set():
    # ``sorted({int(v) for v in s})`` reads a subset; ``heaps._members`` is the one reader
    calls = [(path.stem, where) for path in sorted((ROOT / "src" / "trusskit").glob("*.py"))
             for where, _ in _sorted_set_calls(path)]
    assert calls == [("heaps", "_members")]


def test_the_member_set_scan_sees_every_copy(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("top = sorted({v for v in range(3)})\n\n"
                    "def f(s):\n    def g():\n        return sorted({int(v) for v in s})\n"
                    "    return g(), sorted(set(s)), sorted([v for v in s])\n", encoding="utf-8")
    assert _sorted_set_calls(path) == [(None, 1), ("g", 5)]


def _paragon_builds(path):
    """(function, line) of every ``Paragon(...)`` call in ``path``, the function
    being the innermost one around the call (None at module level)."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "Paragon"
                or isinstance(node.func, ast.Attribute) and node.func.attr == "Paragon"):
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_only_paragon_reports_builds_a_paragon():
    # a Paragon is trusted as classified; ``trusses._paragon_reports`` is the one classifier
    calls = [(path.stem, where) for path in sorted((ROOT / "src" / "trusskit").glob("*.py"))
             for where, _ in _paragon_builds(path)]
    assert calls == [("trusses", "_paragon_reports")]


def test_the_paragon_scan_sees_every_build(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("top = Paragon(t, [0], 'ideal')\n\n"
                    "def f(t):\n    def g():\n        return trusses.Paragon(t, [0], 'left')\n"
                    "    return g(), ParagonReport('none'), Paragon\n", encoding="utf-8")
    assert _paragon_builds(path) == [(None, 1), ("g", 5)]


def test_a_hand_built_paragon_is_read_as_its_members():
    from trusskit import ValidationError, is_normal_paragon, quotient_truss, zn_truss
    from trusskit.trusses import Paragon

    t = zn_truss(4)
    p = Paragon(t, [0, 1], "ideal")  # {0, 1} is no sub-heap of Z_4
    with pytest.raises(ValueError, match="normality is defined on sub-heaps"):
        is_normal_paragon(t, p)
    with pytest.raises(ValidationError) as err:
        quotient_truss(t, p)
    assert err.value.law == "subheap.closure"
