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


def test_c10_classifies_through_one_is_paragon_call(monkeypatch):
    """The tracer wraps ``is_paragon`` in each namespace that binds it, so C10's
    classification is timed as ``trusses.paragon`` only while
    ``ideal_iff_normal_paragon`` reaches it through ``trusskit.braces.is_paragon``,
    once per call, rather than through a private classifier that would leave it
    in ``braces.equiv``."""
    import trusskit.braces as braces
    from trusskit import brace_from_truss, za_truss

    assert _targets()[("trusskit.trusses", "is_paragon")] == "trusses.paragon"
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return is_paragon(*args, **kwargs)

    is_paragon = braces.is_paragon
    monkeypatch.setattr(braces, "is_paragon", counted)
    b = brace_from_truss(za_truss(2, 8))
    for subset in ([0, 4], [1, 2, 3], [0, 1, 2, 3, 4, 5, 6, 7]):  # an ideal, no sub-heap, B
        calls.clear()
        braces.ideal_iff_normal_paragon(b, subset, truss=b.truss)
        assert len(calls) == 1, subset
