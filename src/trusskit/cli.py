"""Command-line surface: constructions, verification campaigns, JSON emission.

Subcommands: validate, scan-units, extend, quotient, brace, identify,
catalog.  Structure I/O uses the JSON formats from ``jsonio``.  Every check
is exhaustive, so reports are deterministic for fixed inputs (timing goes to
stderr only).

Exit codes: 0 when every asserted claim passed, 1 when a claim failed, 2 when
a document or argument is malformed (one ``input error`` line on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

from . import jsonio
from .braces import Brace, brace_from_truss, brace_law_report, socle
from .catalog import (
    MAX_ORDER,
    end_truss,
    group_ring,
    group_ring_paragon_report,
    trunc_poly_truss,
    za_truss,
    zn_ring,
    zn_truss,
)
from .extensions import ExtTruss, extension_clause_report
from .groups import FiniteGroup, group_from_spec, identification_report, spec_order
from .heaps import AbGroup, Heap
from .lawcheck import Report, ValidationError
from .modules import TModule
from .trusses import (
    Truss,
    group_from_units,
    is_brace_type,
    is_paragon,
    is_zn_truss,
    quotient_truss,
    units_paragon_report,
)


def _structure_summary(obj):
    if isinstance(obj, ExtTruss):
        inner = _structure_summary(obj.truss)
        inner["extension"] = {"base_order": obj.base.order, "module_order": obj.m,
                              "anchor": obj.anchor}
        return inner
    out = {"kind": type(obj).__name__.lower(), "order": getattr(obj, "order", None)}
    if isinstance(obj, Truss):
        out.update(kind="truss", sided=obj.sided, identity=obj.identity,
                   absorber=obj.absorber)
    elif isinstance(obj, Brace):
        out.update(kind="brace", sided=obj.sided)
    elif isinstance(obj, TModule):
        out.update(kind="tmodule", truss_order=obj.truss.order, unital=obj.unital)
    elif isinstance(obj, Heap):
        out.update(kind="heap", basepoint=obj.basepoint)
    elif isinstance(obj, AbGroup):
        out.update(kind="abgroup", zero=obj.zero)
    elif isinstance(obj, FiniteGroup):
        out.update(kind="group", identity=obj.id)
    return out


def cmd_validate(args):
    obj, report = jsonio.validate(jsonio.read_doc(args.file))
    return report, {} if obj is None else {"structure": obj}


def cmd_scan_units(args):
    n_max = args.max
    if n_max > 64:
        raise ValueError("scan bound is 64")
    if n_max < 2:
        raise ValueError("scan starts at n = 2")
    report = Report("units paragon scan n = 2..%d" % n_max)
    hits = []
    for n in range(2, n_max + 1):
        rep = units_paragon_report(zn_truss(n))
        power_of_two = n & (n - 1) == 0
        if rep.is_paragon:
            hits.append(n)
        report.add("n=%d paragon %s expected %s" % (n, rep.is_paragon, power_of_two),
                   rep.is_paragon == power_of_two)
    report.note("paragon at n = %s" % hits)
    return report, {}


def _read_structure(path):
    """The structure in a file; an extension is read as its truss."""
    obj = jsonio.read_file(path)
    return obj.truss if isinstance(obj, ExtTruss) else obj


def cmd_extend(args):
    base = _read_structure(args.base)
    module = jsonio.read_file(args.module)
    if not isinstance(base, Truss) or not isinstance(module, TModule):
        raise ValueError("extend needs a truss file and a tmodule file")
    if module.truss != base:
        raise ValueError("module file is not a module over the base file")
    ext, report = extension_clause_report(base, module, args.anchor)
    artifacts = {"extension": ext}
    if is_brace_type(ext.truss):
        b = brace_from_truss(ext.truss)
        artifacts["brace"] = b
        report.note("brace-type: additive %s, multiplicative %s" % (
            identification_report(FiniteGroup.from_abgroup(b.add))["named_match"],
            identification_report(b.mul)["named_match"],
        ))
    return report, artifacts


def _parse_subset(t, text):
    names = [s.strip() for s in text.split(",") if s.strip()]
    members = []
    for name in names:
        if t.labels and name in t.labels:  # a label first: "1" may name index 2
            members.append(t.labels.index(name))
        elif name.isdigit() or (name.startswith("-") and name[1:].isdigit()):
            members.append(int(name))
        else:
            raise ValueError("subset member %r is neither an index nor a label" % name)
    return members


def cmd_quotient(args):
    t = _read_structure(args.file)
    if not isinstance(t, Truss):
        raise ValueError("quotient needs a truss file")
    members = _parse_subset(t, args.subset)
    report = Report("quotient by %s" % (tuple(members),))
    result = is_paragon(t, members)
    report.add("subset_is_paragon (%s)" % result.kind, result.is_paragon,
               None if not result.failures else next(iter(result.failures.values())))
    if not result.is_paragon:
        return report, {}
    q, _ = quotient_truss(t, result.paragon)
    report.note("quotient order %d" % q.order)
    if is_zn_truss(q):
        report.note("quotient isomorphic to T(Z_%d)" % q.order)
    report.add("quotient_constructed", True)
    return report, {"quotient": q}


def cmd_brace(args):
    obj = _read_structure(args.file)
    report = Report("brace bridge")
    if isinstance(obj, Truss):
        b = brace_from_truss(obj)
        report.add("truss_is_brace_type", True)
    elif isinstance(obj, Brace):
        b = obj
        report.extend(brace_law_report(b))
    else:
        raise ValueError("brace needs a truss or brace file")
    soc = socle(b)
    report.note("socle %s" % (soc,))
    report.note("additive group %s" % identification_report(
        FiniteGroup.from_abgroup(b.add))["named_match"])
    report.note("multiplicative group %s" % identification_report(b.mul)["named_match"])
    report.add("socle_is_ideal", True)
    return report, {"brace": b}


def cmd_identify(args):
    obj = _read_structure(args.file)
    report = Report("identify")
    out = {}
    if isinstance(obj, FiniteGroup):
        out["group"] = identification_report(obj)
    elif isinstance(obj, Truss):
        out["additive"] = identification_report(FiniteGroup.from_abgroup(obj.heap.retract))
        if obj.identity is not None:
            out["units"] = identification_report(group_from_units(obj))
    elif isinstance(obj, Brace):
        out["additive"] = identification_report(FiniteGroup.from_abgroup(obj.add))
        out["multiplicative"] = identification_report(obj.mul)
    elif isinstance(obj, (Heap, AbGroup)):
        if obj.order == 0:
            raise ValueError("the empty heap has no retract to identify")
        g = obj.retract if isinstance(obj, Heap) else obj
        out["additive"] = identification_report(FiniteGroup.from_abgroup(g))
    else:
        raise ValueError("cannot identify this structure kind")
    for name, rep in sorted(out.items()):
        report.note("%s: named_match=%s fingerprint=%s" % (
            name, rep["named_match"], json.dumps(rep["fingerprint"], sort_keys=True)))
    report.add("identified", True)
    return report, {}


def _end_group(spec, bound):
    """The abelian group of a spec like '2x4', once ``bound`` passes the order of
    its endomorphism extension, |G| |End(G)|: |End(+ Z_a)| is the product of gcd(a, b)."""
    parts = [int(p) for p in spec.replace("x", ",").split(",") if p]
    if not parts:
        raise ValueError("empty abelian group spec")
    bound(math.prod(parts) * math.prod(math.gcd(a, b) for a in parts for b in parts))
    return functools.reduce(AbGroup.direct_sum, map(AbGroup.cyclic, parts))


CATALOG_ARITY = {"zn": 1, "za": 2, "group-ring": 2, "trunc-poly": 2, "end": 1}


def cmd_catalog(args):
    family = args.family
    params = args.params
    if family not in CATALOG_ARITY:
        raise ValueError("unknown catalog family %r (families: %s)"
                         % (family, ", ".join(CATALOG_ARITY)))
    if len(params) != CATALOG_ARITY[family]:
        raise ValueError("catalog %s: expected %d parameter(s), got %d"
                         % (family, CATALOG_ARITY[family], len(params)))
    title = "catalog %s %s" % (family, " ".join(params))

    def bound(order):  # a member's order, from its parameters, before any table is built
        if order > MAX_ORDER:
            raise ValueError("%s: order exceeds the bound %d" % (title, MAX_ORDER))

    # Each constructor raises on a broken law, so its laws held once it returns.
    report = Report(title)
    if family in ("zn", "za"):
        bound(int(params[-1]))
        build = zn_truss if family == "zn" else za_truss
        t = build(*map(int, params))
        report.add("construction_laws", True)
        return report, {"truss": t}
    if family == "group-ring":
        bound(int(params[0]))  # the two tables group_ring reads; it bounds the ring itself
        bound(spec_order(params[1]))
        gr = group_ring(zn_ring(int(params[0])), group_from_spec(params[1]))
        report.extend(group_ring_paragon_report(gr))
        return report, {"truss": gr.ring.truss()}
    if family == "trunc-poly":
        tp = trunc_poly_truss(int(params[0]), int(params[1]))
        report.add("construction_laws", True)
        inverses_ok = all(
            int(tp.truss.mul[p, tp.inverse(p)]) == tp.truss.identity
            for p in range(tp.order)
            if tp.is_unit(p)
        )
        report.add("unit_inverse_series", inverses_ok)
        return report, {"truss": tp.truss}
    ext = end_truss(_end_group(params[0], bound))
    report.add("evaluation_extension_product_formula", True)
    report.add("construction_laws", True)
    return report, {"truss": ext}


def _emit(args, report, artifacts):
    primary = None
    for key in ("truss", "extension", "brace", "quotient", "structure"):
        if key in artifacts:
            primary = artifacts[key]
            break
    if args.json_out and primary is not None:
        jsonio.write_file(args.json_out, primary)
        report.note("wrote %s" % args.json_out)
    doc = {
        "command": args.echo,
        "structures": {
            name: _structure_summary(obj) for name, obj in sorted(artifacts.items())
        },
        "report": report.to_dict(),
        "ok": report.ok,
    }
    if args.format == "json":
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        lines = ["command: %s" % " ".join(args.echo)]
        for name, summary in sorted(doc["structures"].items()):
            lines.append("structure %s: %s" % (name, json.dumps(summary, sort_keys=True)))
        lines.extend(report.lines())
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if report.ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trusskit",
        description="finite heaps, trusses, braces: construction and brute-force verification",
    )
    parser.add_argument("--json", dest="json_out", metavar="PATH",
                        help="write the principal structure as JSON to PATH")
    parser.add_argument("--format", choices=("table", "json"), default="table")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="law-by-law check of a structure file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("scan-units", help="units-paragon scan of the mod-n ring trusses")
    p.add_argument("--max", type=int, default=64)
    p.set_defaults(fn=cmd_scan_units)

    p = sub.add_parser("extend", help="extension truss with the full clause suite")
    p.add_argument("base")
    p.add_argument("module")
    p.add_argument("anchor", type=int)
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("quotient", help="quotient a truss by a paragon")
    p.add_argument("file")
    p.add_argument("subset", help="comma-separated indices or labels")
    p.set_defaults(fn=cmd_quotient)

    p = sub.add_parser("brace", help="brace bridge, socle and group identification")
    p.add_argument("file")
    p.set_defaults(fn=cmd_brace)

    p = sub.add_parser("identify", help="fingerprint and named-group match")
    p.add_argument("file")
    p.set_defaults(fn=cmd_identify)

    p = sub.add_parser("catalog", help="build a named family member")
    p.add_argument("family", help="zn | za | group-ring | trunc-poly | end")
    p.add_argument("params", nargs="*")
    p.set_defaults(fn=cmd_catalog)
    return parser


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    args.echo = argv
    start = time.perf_counter()
    try:
        report, artifacts = args.fn(args)
    except ValidationError as exc:  # a ValueError too, so it goes first
        sys.stderr.write("validation error: %s\n" % exc)
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return 2
    code = _emit(args, report, artifacts)
    sys.stderr.write("elapsed %.3fs\n" % (time.perf_counter() - start))
    return code


if __name__ == "__main__":
    sys.exit(main())
