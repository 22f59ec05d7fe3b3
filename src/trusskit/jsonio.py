"""JSON interchange for every structure kind.

Tables are row-major nested lists; carriers are index sets 0..n-1 with an
optional parallel list of labels.  The kinds:

    {"kind": "abgroup", "order": n, "add": [[...]], "zero": z, "labels": [...]}
    {"kind": "heap", "order": n, "add": [[...]], "zero": z, "labels": [...]}
    {"kind": "truss", "order": n, "heap": {...}, "mul": [[...]],
     "sided": "two-sided"|"left", "identity": i|null, "absorber": a|null}
    {"kind": "tmodule", "truss": {...}, "heap": {...}, "action": [[...]]}
    {"kind": "brace", "order": n, "add": [[...]], "mul": [[...]], "sided": ...}
    {"kind": "group", "order": n, "mul": [[...]]}

An extension truss serialises as its truss plus an "extension" block naming
the base, module, anchor and pairing convention.

``validate(doc)`` is the one reader.  It first checks that the document, and
every document nested in it, is an object of a known kind with that kind's
required fields, each field of ``_TYPES`` null or of its JSON type, and raises
``ValueError`` naming what is wrong.  Then it builds the structure once with
``check=False``, reading ``[]`` as an empty table of the expected shape, and
returns it with a report: the kind's law reports, the declared ``zero``,
``identity`` and ``absorber``, and the ``extension`` (compared with T[M; e],
not rebuilt) as named checks, and a law a constructor rejects as a failing
check with its witness.
``from_jsonable`` is ``validate`` followed by ``Report.raise_invalid``.

Files are read as bytes and decoded by ``orjson`` as strict UTF-8 JSON: NaN,
Infinity, 1e999 and lone surrogates fail to parse, and integers beyond 64
bits decode as floats.  Writing keeps the stdlib encoder's byte-stable output.
"""

from __future__ import annotations

import json

import numpy as np
import orjson

from .braces import Brace, _brace_laws
from .extensions import ExtTruss, as_extension
from .groups import FiniteGroup
from .heaps import AbGroup, Heap, heap_from_group, heap_law_report
from .lawcheck import Report, ValidationError
from .modules import TModule, module_law_report
from .trusses import TWO_SIDED, Truss, truss_law_report


def _labels(obj):
    return None if obj.labels is None else list(obj.labels)


def to_jsonable(obj):
    if isinstance(obj, (AbGroup, Heap)):  # a heap is stored as its basepoint's retract
        group = obj if isinstance(obj, AbGroup) else obj.retract
        return {
            "kind": "abgroup" if group is obj else "heap",
            "order": obj.order,
            "add": [] if group is None else group.add.tolist(),
            "zero": None if group is None else group.zero,
            "labels": _labels(obj),
        }
    if isinstance(obj, Truss):
        return {
            "kind": "truss",
            "order": obj.order,
            "heap": to_jsonable(obj.heap),
            "mul": obj.mul.tolist(),
            "sided": obj.sided,
            "identity": obj.identity,
            "absorber": obj.absorber,
            "labels": _labels(obj),
        }
    if isinstance(obj, TModule):
        return {
            "kind": "tmodule",
            "truss": to_jsonable(obj.truss),
            "heap": to_jsonable(obj.heap),
            "action": obj.action.tolist(),
            "labels": _labels(obj),
        }
    if isinstance(obj, Brace):
        return {
            "kind": "brace",
            "order": obj.order,
            "add": obj.add.add.tolist(),
            "mul": obj.mul.mul.tolist(),
            "sided": obj.sided,
            "labels": _labels(obj),
        }
    if isinstance(obj, FiniteGroup):
        return {
            "kind": "group",
            "order": obj.order,
            "mul": obj.mul.tolist(),
            "labels": _labels(obj),
        }
    if isinstance(obj, ExtTruss):
        doc = to_jsonable(obj.truss)
        doc["extension"] = {
            "base": to_jsonable(obj.base),
            "module": to_jsonable(obj.module),
            "anchor": obj.anchor,
            "pairing": "row-major",
        }
        return doc
    raise TypeError("cannot serialise %r" % type(obj).__name__)


# kind -> required fields; a field that names a kind holds a nested document
_FIELDS = {
    "abgroup": {"add": None},
    "heap": {"add": None},
    "truss": {"heap": "heap", "mul": None},
    "tmodule": {"truss": "truss", "heap": "heap", "action": None},
    "brace": {"add": None, "mul": None},
    "group": {"mul": None},
}
_EXTENSION = {"base": "truss", "module": "tmodule", "anchor": None}
# the JSON type of each field that holds an integer or the labels; null is "not declared"
_TYPES = {"order": int, "zero": int, "identity": int, "absorber": int, "anchor": int, "labels": list}


def _check_fields(obj, fields, where):
    if not isinstance(obj, dict):
        raise ValueError("%s is not a JSON object" % where)
    for field, kind in fields.items():
        if obj.get(field) is None:
            raise ValueError("%s lacks the field %r" % (where, field))
        if kind is not None:
            _check_document(obj[field], "%s.%s" % (where, field), kind)
    for field, kind in _TYPES.items():  # a bool is no integer: its type is bool
        if obj.get(field) is not None and type(obj[field]) is not kind:
            raise ValueError("%s.%s must be %s, not %s"
                             % (where, field, kind.__name__, type(obj[field]).__name__))


def _check_document(doc, where="document", expect=None):
    """Raise ``ValueError`` unless ``doc`` is an object of a known kind
    (``expect`` when given) with that kind's fields, nested documents included."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str) or kind not in _FIELDS or expect not in (None, kind):
        raise ValueError("%s is not a %s document (kind %r)"
                         % (where, expect or "structure", kind))
    empty_heap = kind == "heap" and doc.get("order") == 0
    _check_fields(doc, {} if empty_heap else _FIELDS[kind], where)
    if kind == "truss" and "extension" in doc:
        _check_fields(doc["extension"], _EXTENSION, where + ".extension")


def _table(rows, shape):
    """A table as read: ``[]``, the written form of every empty table, has ``shape``."""
    return np.empty(shape, dtype=np.int64) if rows == [] and 0 in shape else rows


def _declared(report, doc, field, value):
    if doc.get(field) is not None:
        report.add("declared_" + field, doc[field] == value)


def _read(doc):
    """The one dispatch on a checked document's kind: build with
    ``check=False`` and collect the law reports, whose verdicts the
    structures keep, so that a quotient of one inherits them."""
    kind, labels = doc["kind"], doc.get("labels") or None
    report = Report("validate %s" % kind)

    def part(sub):  # a nested document's structure, or None if it failed
        obj, rep = _read(sub)
        report.extend(rep)
        if not rep.ok:
            return None
        return obj.truss if isinstance(obj, ExtTruss) else obj

    try:
        if kind in ("abgroup", "heap"):
            if kind == "heap" and doc.get("order") == 0:
                obj = Heap.empty()
                return obj, report.extend(heap_law_report(obj))
            g = AbGroup(doc["add"], labels=labels, check=False)
            obj = g if kind == "abgroup" else heap_from_group(g)
            report.extend(g.law_report() if obj is g else heap_law_report(obj))
            _declared(report, doc, "zero", g.zero)
            return obj, report
        if kind == "truss":
            heap = part(doc["heap"])
            if heap is None:
                return None, report
            t = Truss(heap, _table(doc["mul"], (heap.order,) * 2),
                      sided=doc.get("sided", TWO_SIDED), labels=labels, check=False)
            report.extend(truss_law_report(t))
            _declared(report, doc, "identity", t.identity)
            _declared(report, doc, "absorber", t.absorber)
            if "extension" not in doc:
                return t, report
            ext = doc["extension"]
            base, module = part(ext["base"]), part(ext["module"])
            if base is None or module is None:
                return None, report
            wrapped = as_extension(t, base, module, ext["anchor"])
            return (wrapped if report.add("declared_extension", wrapped is not None) else t), report
        if kind == "tmodule":
            truss, heap = part(doc["truss"]), part(doc["heap"])
            if truss is None or heap is None:
                return None, report
            mod = TModule(truss, heap, _table(doc["action"], (truss.order, heap.order)),
                          labels=labels, check=False)
            return mod, report.extend(module_law_report(mod))
        if kind == "brace":
            add = AbGroup(doc["add"], labels=labels, check=False)
            mul = FiniteGroup(doc["mul"], labels=labels, check=False)
            report.extend(add.law_report()).extend(mul.law_report())
            b = Brace(add, mul, sided=doc.get("sided", TWO_SIDED), labels=labels, check=False)
            return b, _brace_laws(b, report)  # both groups' reports are listed in full
        g = FiniteGroup(doc["mul"], labels=labels, check=False)
        return g, report.extend(g.law_report())
    except ValidationError as exc:
        report.add(exc.law, False, exc.witness)
        return None, report


def validate(doc):
    """(structure or None, report) for a structure document.

    Raises ``ValueError`` when the document is malformed; a law the
    structure breaks is a failing check in the report instead.
    """
    _check_document(doc)
    return _read(doc)


def from_jsonable(doc):
    """The structure of a document whose every check passes."""
    obj, report = validate(doc)
    report.raise_invalid()
    return obj


def dumps(obj):
    return json.dumps(to_jsonable(obj), indent=2, sort_keys=True) + "\n"


def loads(text):
    return from_jsonable(orjson.loads(text))


def write_file(path, obj):
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def read_doc(path):
    """The JSON document in ``path``; ``ValueError`` with the byte offset if it does not parse."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        try:  # orjson counts characters; the message gives the UTF-8 byte offset
            pos = len(data.decode()[:exc.pos].encode())
        except UnicodeDecodeError as bad:  # not UTF-8: the offset of its first invalid byte
            pos = bad.start
        raise ValueError("parse error in %s at byte %d: %s" % (path, pos, exc.msg)) from exc


def read_file(path):
    return from_jsonable(read_doc(path))
