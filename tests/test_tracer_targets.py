"""The benchmark tracer's targets name functions that exist.

``perfbench/tracer.py`` resolves each ``TARGETS`` entry with ``getattr``
only when a traced run starts, so a renamed function would break
``--trace 1`` at benchmark time.  The dict is read from the file's syntax
tree, without importing or editing the tracer.
"""

import ast
import functools
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS assignment in %s" % TRACER)


def test_every_target_resolves():
    targets = _targets()
    assert targets
    for module, attr in targets:
        obj = functools.reduce(getattr, attr.split("."), importlib.import_module(module))
        assert callable(obj), (module, attr)
    assert any("." in attr for _, attr in targets)  # Class.method entries are covered
