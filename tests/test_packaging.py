"""Every third-party module that trusskit imports is a declared dependency."""

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
