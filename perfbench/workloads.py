"""The two workloads: seeded inputs, their operations and expected verdicts.

``build(name, seed, workdir)`` runs after trusskit is imported and is the
timed set-up.  It returns the operation list of one pass.  Each ``Op`` takes
the pass context (a dict that lets an operation hand a fresh object to the
ones after it) and returns a verdict, which is compared with the verdict the
paper or the acceptance tests (C01-C12) give.  The seed only picks inputs
that cost the same and get the same verdicts (anchors, corrupted entries,
law-sampling seeds), so figures and failure counts from different seeds are
comparable.  It also shuffles the operations, so that operations of one kind
are spread over the pass and do not all meet the machine in one state.

``laws`` is built from three parts (the catalog, extension clause reports
and the command line), each with its own reason below; ``ideals`` is one.

Known defects stay in the inputs and are counted as failed operations.  A
mismatch that a known-defect classifier does not claim makes the run
incorrect.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import trusskit as tk
import trusskit.cli as tk_cli
import trusskit.jsonio as tk_jsonio

KNOWN_DEFECTS = {
    "normality": "ideal_iff_normal_paragon tests clause (2) with the set-wise tP = Pt "
                 "predicate, so off-centre singletons and ideal cosets of the order-16 "
                 "brace fail C10",
    "error_boundary": "a malformed structure file escapes cli.main as a KeyError or "
                      "ValueError instead of a nonzero exit",
}


@dataclass
class Op:
    kind: str
    run: Callable
    expected: object
    defect: Callable | None = None  # verdict -> KNOWN_DEFECTS key, or None


def build(name, seed, workdir):
    rng = random.Random(seed)
    first, rest = BUILDERS[name](rng, workdir)
    rng.shuffle(rest)
    return first + rest


# --------------------------------------------------------------------- laws
# Why: this is the law layer, through the library and through the command
# line.  Law-check algorithms, deduplication of repeated checks and
# fail-fast witness finding all move it; the ideals workload stays flat.

def _laws(rng, workdir):
    return [], _catalog(rng, workdir) + _extend(rng, workdir) + _cli(rng, workdir)


# Catalog.  Why: every input is valid, so every law check scans in full; the
# order-256 members set the working set.  Each table is checked once, so
# caching across calls does not act here.

def _c01(n, ctx):
    return tk.units_paragon_report(tk.zn_truss(n)).is_paragon


def _lawful(t, law_seed):
    return (tk.truss_law_report(t, seed=law_seed).ok,
            tk.module_law_report(tk.regular_module(t), seed=law_seed).ok)


def _za_member(a, order, law_seed, ctx):
    return _lawful(tk.za_truss(a, order, seed=law_seed), law_seed)


def _trunc_member(k, n, law_seed, ctx):
    return _lawful(tk.trunc_poly_truss(k, n).truss, law_seed)


def _end_member(cyclic_orders, law_seed, ctx):
    g = tk.AbGroup.cyclic(cyclic_orders[0])
    for n in cyclic_orders[1:]:
        g = g.direct_sum(tk.AbGroup.cyclic(n))
    return _lawful(tk.end_truss(g).truss, law_seed)


def _group_ring_member(q, spec, law_seed, ctx):
    gr = tk.group_ring(tk.zn_ring(q), tk.group_from_spec(spec))
    return _lawful(gr.ring.truss(), law_seed) + (tk.group_ring_paragon_report(gr).ok,)


def _catalog(rng, workdir):
    law_seed = rng.randrange(2 ** 31)
    ops = [Op("c01", functools.partial(_c01, n), n & (n - 1) == 0) for n in range(2, 65)]
    for order in (8, 16, 32, 64, 128, 256):
        ops.append(Op("za", functools.partial(_za_member, rng.randrange(1, 5), order, law_seed),
                      (True, True)))
    for k in range(1, 9):
        for n in range(1, 9):
            if 2 ** (k * n) <= 256:
                ops.append(Op("trunc_poly", functools.partial(_trunc_member, k, n, law_seed),
                              (True, True)))
    for orders in ((2,), (3,), (4,), (2, 2), (2, 4)):
        ops.append(Op("end", functools.partial(_end_member, orders, law_seed), (True, True)))
    for q, spec in ((2, "cyclic:2"), (3, "cyclic:2"), (2, "cyclic:4"), (2, "cyclic:2*cyclic:2"),
                    (2, "dihedral:6"), (2, "dihedral:8")):
        ops.append(Op("group_ring", functools.partial(_group_ring_member, q, spec, law_seed),
                      (True, True, True)))
    return ops


# Extension clause reports.  Why: one report validates the same tables many
# times (17 truss_law_report calls at order 64), so deduplication or caching
# of law checks shows here and not in the catalog part.

def _clause(base, module, e, ctx):
    ext, report = tk.extension_clause_report(base, module, e)
    return ext.order == base.order * module.order and report.ok


def _extend(rng, workdir):
    z2, z3, z4, z5, z6, z7, z8 = (tk.zn_truss(n) for n in range(2, 9))
    za24, za28 = tk.za_truss(2, 4), tk.za_truss(2, 8)
    z2c2 = tk.group_ring(tk.zn_ring(2), tk.cyclic_group(2)).ring.truss()
    reg = tk.regular_module

    def trivial(t, n):
        return tk.trivial_module(t, tk.heap_from_group(tk.AbGroup.cyclic(n)))

    instances = [  # the C07 suite
        (z2, reg(z2), 0), (z2, reg(z2), 1), (z4, reg(z4), 0), (z3, reg(z3), 1),
        (za24, reg(za24), 0), (z2c2, reg(z2c2), 0), (z2, trivial(z2, 3), 0),
        (z2, trivial(z2, 1), 0), (za28, reg(za28), 0),
    ]
    # Small and order-16 reports at every anchor, so that the median operation
    # falls inside the order-16 cluster, not at its edge.
    for base, module in ((z3, reg(z3)), (z2, trivial(z2, 3)), (z2, trivial(z2, 4)),
                         (z3, trivial(z3, 4)), (z4, reg(z4)), (za24, reg(za24)),
                         (z2c2, reg(z2c2))):
        instances += [(base, module, e) for e in range(module.order)]
    for base, n in ((za24, 4), (z3, 9), (z4, 8), (za24, 8), (z2c2, 8), (z6, 6)):
        instances.append((base, trivial(base, n), rng.randrange(n)))
    for base in (z5, z6, z7):
        instances.append((base, reg(base), rng.randrange(base.order)))
    # order 32 at every anchor: enough alike mid-size reports that the tail
    # (the 11th largest) falls inside one cluster, not at its edge
    for base in (z8, za28):
        module = trivial(base, 4)
        instances += [(base, module, e) for e in range(4)]
    instances.append((z8, reg(z8), rng.randrange(8)))  # order 64, ring-type base
    return [Op("clause_%d" % (b.order * m.order), functools.partial(_clause, b, m, e), True)
            for b, m, e in instances]


# Command line.  Why: half the truss files carry one corrupted table entry,
# so the law layer fails fast and reports witnesses, while JSON parsing and
# report output dominate the small files.  A change that speeds up passing
# scans but slows witness finding or error handling shows here.

def _cli_main(argv):
    """(exit code, stdout) of one in-process cli.main call."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = tk_cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _validate(path, ctx):
    code, out = _cli_main(["validate", path])
    witness = any("[FAIL]" in line and "witness=" in line for line in out.splitlines())
    return code, witness


def _identify(path, keys, ctx):
    code, out = _cli_main(["--format", "json", "identify", path])
    if code != 0:
        return code, None
    names = {}
    for note in json.loads(out)["report"]["notes"]:
        key, rest = note.split(": ", 1)
        names[key] = rest.split(" ")[0].split("=", 1)[1]
    return code, tuple((k, names.get(k)) for k in keys)


def _quotient(path, members, out_path, ctx):
    code, out = _cli_main(["--json", out_path, "quotient", path, members])
    return code, "quotient isomorphic to T(Z_2)" in out


def _malformed(path, ctx):
    code, _ = _cli_main(["validate", path])
    return "nonzero" if code != 0 else "zero"


def _error_boundary_defect(verdict):
    raised = isinstance(verdict, tuple) and verdict[0] == "raised"
    return "error_boundary" if raised and verdict[1] in ("KeyError", "ValueError") else None


def _write_json(path, doc):
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _cli(rng, workdir):
    def cyclic_name(n):
        return "C%d" % n

    def units_z2k(n):  # U(Z_{2^k}) = C2 x C_{2^(k-2)}
        return "C2" if n == 4 else "C2xC%d" % (n // 4)

    trusses = []  # (name, truss, identify expectations, quotient by the units?)
    for n in (4, 8, 16, 32, 64, 128, 256):
        trusses.append(("zn%d" % n, tk.zn_truss(n),
                        (("additive", cyclic_name(n)), ("units", units_z2k(n))), True))
    for n in (16, 64):  # C05: the units of za(2, 2^(k+1)) are C2 x C_{2^k}
        trusses.append(("za%d" % n, tk.za_truss(2, n),
                        (("additive", cyclic_name(n)), ("units", "C2xC%d" % (n // 2))), False))
    for k, n in ((1, 4), (2, 3)):  # C03: units of Z_{2^k}[x]/(x^n) give a Z_2 quotient
        additive = "x".join([cyclic_name(2 ** k)] * n)
        trusses.append(("poly%d_%d" % (k, n), tk.trunc_poly_truss(k, n).truss,
                         (("additive", additive),), True))
    trusses.append(("z2c4", tk.group_ring(tk.zn_ring(2), tk.cyclic_group(4)).ring.truss(),
                    (("additive", "C2xC2xC2xC2"),), False))

    ops = []
    quotient_out = str(workdir / "quotient.json")
    for name, t, ident, quotient in trusses:
        good, bad = str(workdir / (name + ".json")), str(workdir / (name + "_bad.json"))
        doc = tk_jsonio.to_jsonable(t)
        _write_json(good, doc)
        # The entry sits on the anti-diagonal, so the left and right
        # distributivity scans together always walk n - 1 rows before the
        # witness, and off the identity and absorber rows and columns, whose
        # scans would reject the file before any law check.  Its row and value
        # come from the seed; the cost of rejecting the file does not.
        special = {t.identity, t.absorber}
        rows = [r for r in range(t.order) if special.isdisjoint((r, t.order - 1 - r))]
        row = rng.choice(rows or range(t.order))
        col = t.order - 1 - row
        doc["mul"][row][col] = (doc["mul"][row][col] + rng.randrange(1, t.order)) % t.order
        _write_json(bad, doc)
        ops.append(Op("validate", functools.partial(_validate, good), (0, False)))
        ops.append(Op("validate_bad", functools.partial(_validate, bad), (1, True)))
        ops.append(Op("identify", functools.partial(_identify, good, [k for k, _ in ident]),
                      (0, ident)))
        ops.append(Op("identify_bad", functools.partial(_identify, bad, []), (1, None)))
        if quotient:
            members = ",".join(str(u) for u in tk.units(t))
            ops.append(Op("quotient", functools.partial(_quotient, good, members, quotient_out),
                          (0, True)))
            ops.append(Op("quotient_bad", functools.partial(_quotient, bad, members, quotient_out),
                          (1, False)))

    za24 = tk.za_truss(2, 4)  # C06: the order-16 brace and its unit group
    brace16 = tk.brace_from_truss(tk.extend(za24, tk.regular_module(za24), 0).truss)
    group16 = tk.direct_product(tk.dihedral_group(8), tk.cyclic_group(2))
    for name, obj, ident in (
            ("brace16", brace16, (("additive", "C4xC4"), ("multiplicative", "D8xC2"))),
            ("group16", group16, (("group", "D8xC2"),))):
        path = str(workdir / (name + ".json"))
        tk_jsonio.write_file(path, obj)
        ops.append(Op("validate", functools.partial(_validate, path), (0, False)))
        ops.append(Op("identify", functools.partial(_identify, path, [k for k, _ in ident]),
                      (0, ident)))

    z16 = tk_jsonio.to_jsonable(tk.zn_truss(16))
    short_labels = dict(z16, labels=["a", "b"])
    ragged = dict(z16, mul=z16["mul"][:-1])
    malformed = {"truncated": None, "no_heap": {"kind": "truss"},
                 "unknown_kind": {"kind": "ring", "order": 2},
                 "short_labels": short_labels, "ragged": ragged}
    for name, doc in malformed.items():
        path = str(workdir / (name + ".json"))
        if doc is None:
            with open(path, "w") as fh:
                fh.write(json.dumps(z16, indent=2)[:200])
        else:
            _write_json(path, doc)
        ops.append(Op("malformed", functools.partial(_malformed, path), "nonzero",
                      _error_boundary_defect))
    return ops


# ------------------------------------------------------------------- ideals
# Why: almost no law scanning, so law-check changes should leave it flat;
# the congruence engine (brace ideals, module congruences) moves it most.
# The order-64 brace_ideals call dominates each pass.

def _brace_ideals(brace, count, ctx):
    """brace_ideals on a fresh Brace (users pay the search once per brace),
    then socle and the cosets of every ideal."""
    fresh = tk.Brace(brace.add, brace.mul, sided=brace.sided, labels=brace.labels, check=False)
    ctx[brace.order] = fresh
    ideals = tk.brace_ideals(fresh)
    soc = tk.socle(fresh)
    everything = list(range(fresh.order))
    cosets_partition = all(
        sorted(x for c in tk.ideal_cosets(fresh, i) for x in c) == everything for i in ideals
    )
    return (len(ideals) if count else None,
            fresh.identity in soc and soc in ideals,
            cosets_partition)


def _equiv(order, truss, subset, ctx):
    report = tk.ideal_iff_normal_paragon(ctx[order], subset, truss=truss)
    return tuple(c.name for c in report.failures())


def _normality_defect(verdict):
    return "normality" if verdict == ("quotient_member_iff_normal_paragon",) else None


def _units_quotient(t, us, z2, ctx):
    result = tk.is_paragon(t, us)
    if not result.is_paragon:
        return (False, None, None)
    q, _ = tk.quotient_truss(t, result.paragon)
    return (True, q.order, tk.truss_isomorphism(q, z2) is not None)


def _ideals(rng, workdir):
    za24, za28 = tk.za_truss(2, 4), tk.za_truss(2, 8)
    ext16 = tk.extend(za24, tk.regular_module(za24), 0)
    ext64 = tk.extend(za28, tk.regular_module(za28), 0)
    b8, b16, b64 = (tk.brace_from_truss(t) for t in (za28, ext16.truss, ext64.truss))
    t8, t16 = tk.truss_from_brace(b8), tk.truss_from_brace(b16)
    z2 = tk.zn_truss(2)

    # the equivalence checks below use the fresh braces these two put in the context
    first = [Op("brace_ideals_16", functools.partial(_brace_ideals, b16, False), (None, True, True)),
             Op("brace_ideals_8", functools.partial(_brace_ideals, b8, False), (None, True, True))]
    ops = [Op("brace_ideals_64", functools.partial(_brace_ideals, b64, True), (19, True, True))]

    for r in range(1, 1 << 8):  # C10: every subset at order 8
        subset = [i for i in range(8) if r >> i & 1]
        ops.append(Op("equiv_8", functools.partial(_equiv, 8, t8, subset), ()))
    ideals16 = tk.brace_ideals(b16)  # b16 itself; each pass searches a fresh copy
    subsets16 = [list(i) for i in ideals16]
    subsets16 += [list(c) for i in ideals16 for c in tk.ideal_cosets(b16, i)]
    # Few enough random subsets that the median operation stays inside the
    # order-8 class.  They come from a fixed generator, not from the seed:
    # some of them hit the C10 defect, and the number of failed operations
    # must be the same for every seed.
    subset_rng = random.Random(16)
    for _ in range(40):
        subsets16.append(sorted(subset_rng.sample(range(16), subset_rng.randint(1, 16))))
    for subset in subsets16:
        ops.append(Op("equiv_16", functools.partial(_equiv, 16, t16, subset), (),
                      _normality_defect))

    klein = tk.AbGroup([[a ^ b for b in range(4)] for a in range(4)])
    z3, z4 = tk.zn_truss(3), tk.zn_truss(4)
    z2c2 = tk.group_ring(tk.zn_ring(2), tk.cyclic_group(2)).ring.truss()
    for mod in (tk.regular_module(z2), tk.regular_module(z4), tk.regular_module(z2c2),
                tk.trivial_module(z2, tk.heap_from_group(tk.AbGroup.cyclic(6))),
                tk.trivial_module(z3, tk.heap_from_group(klein)),
                tk.trivial_module(z2, tk.heap_from_group(tk.AbGroup.cyclic(8)))):  # C08
        ops.append(Op("congruence", functools.partial(
            lambda m, ctx: tk.congruence_correspondence_report(m).ok, mod), True))

    for n in (2, 4, 8, 16, 32, 64, 6, 12, 24, 48):  # C01/C02: U(Z_n)
        t = tk.zn_truss(n)
        power = n & (n - 1) == 0
        ops.append(Op("units_quotient", functools.partial(_units_quotient, t, tk.units(t), z2),
                      (True, 2, True) if power else (False, None, None)))

    g16 = tk.group_from_units(ext16.truss)  # C06: units D8 x C2, additive C4 x C4
    add16 = tk.FiniteGroup.from_abgroup(b16.add)
    d8c2 = tk.direct_product(tk.dihedral_group(8), tk.cyclic_group(2))
    q8c2 = tk.direct_product(tk.quaternion_group(), tk.cyclic_group(2))
    ops += [Op("named_match", lambda ctx: tk.named_match(g16), "D8xC2"),
            Op("named_match", lambda ctx: tk.named_match(add16), "C4xC4"),
            Op("is_isomorphic", lambda ctx: tk.is_isomorphic(g16, d8c2) is not None, True),
            Op("is_isomorphic", lambda ctx: tk.is_isomorphic(g16, q8c2) is not None, False)]

    # change of anchor is a truss isomorphism
    for base, ext, m in ((za24, ext16, 4), (za28, ext64, 8)):
        other = tk.extend(base, tk.regular_module(base), rng.randrange(1, m))
        ops.append(Op("truss_isomorphism", functools.partial(
            lambda a, b, ctx: tk.truss_isomorphism(a, b) is not None, ext.truss, other.truss),
            True))
    return first, ops


BUILDERS = {"laws": _laws, "ideals": _ideals}
