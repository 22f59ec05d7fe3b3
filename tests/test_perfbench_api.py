"""The benchmark workloads call trusskit names that exist, with arguments
their signatures accept.

``perfbench/workloads.py`` reaches the library through module aliases
(``import trusskit as tk`` and the like) and is only run at benchmark time,
so a moved or renamed function, or a dropped keyword, would fail there
first.  The file is read from its syntax tree, without importing it.
"""

import ast
import functools
import importlib
import inspect
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _tree():
    return ast.parse(WORKLOADS.read_text())


def _aliases(tree):
    """alias -> module for every ``import trusskit... as alias``."""
    return {a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
            for a in node.names if a.asname and a.name.split(".")[0] == "trusskit"}


def _dotted(node, aliases):
    """(module, attribute path) of an ``alias.a.b`` expression, else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not attrs or not isinstance(node, ast.Name) or node.id not in aliases:
        return None
    return aliases[node.id], tuple(reversed(attrs))


def _resolve(module, attrs):
    return functools.reduce(getattr, attrs, importlib.import_module(module))


def test_the_aliases_are_the_three_modules():
    assert sorted(_aliases(_tree()).items()) == [
        ("tk", "trusskit"), ("tk_cli", "trusskit.cli"), ("tk_jsonio", "trusskit.jsonio")]


def test_every_name_resolves():
    tree = _tree()
    aliases = _aliases(tree)
    names = {_dotted(node, aliases) for node in ast.walk(tree)} - {None}
    assert len(names) > 30
    for module, attrs in sorted(names):
        try:
            _resolve(module, attrs)
        except AttributeError:
            raise AssertionError("%s.%s does not resolve" % (module, ".".join(attrs)))


def test_every_call_binds():
    """Each call's keywords, and its positional count where no ``*args``
    hides it, bind to the callee's signature."""
    tree = _tree()
    aliases = _aliases(tree)
    keywords = set()
    for node in ast.walk(tree):
        name = _dotted(node.func, aliases) if isinstance(node, ast.Call) else None
        if name is None or any(k.arg is None for k in node.keywords):
            continue
        kwargs = {k.arg: None for k in node.keywords}
        keywords |= set(kwargs)
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        args = [] if starred else [None] * len(node.args)
        signature = inspect.signature(_resolve(*name))
        try:
            signature.bind_partial(*args, **kwargs)
        except TypeError as exc:
            raise AssertionError("line %d: %s.%s: %s"
                                 % (node.lineno, name[0], ".".join(name[1]), exc))
    assert {"seed", "truss", "check", "sided", "labels"} <= keywords
