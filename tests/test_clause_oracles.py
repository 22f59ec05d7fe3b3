"""The batched extension clause suite against the loops it replaced.

The oracles below are the per-anchor and per-fiber bodies the clause suite
ran before it checked each family in one array pass: ``anchor_iso`` at one
anchor, the per-e2 induced-action loop, ``fiber_paragon`` through
``is_paragon``, the per-fiber split sequence, and the report that loops over
them.  Their verdicts and failure notes must equal the batched suite's, on
valid instances and on corrupted ones.
"""

import tracemalloc

import numpy as np
import pytest

from trusskit import (
    AbGroup,
    ConsistencyError,
    Report,
    TModule,
    anchor_iso,
    base_subtruss,
    ext_units,
    extend,
    extension_clause_report,
    fiber_paragon,
    group_ring,
    cyclic_group,
    heap_from_group,
    is_paragon,
    regular_module,
    ring_type_check,
    split_sequence_check,
    subheap_relation_classes,
    trivial_module,
    za_truss,
    zn_ring,
    zn_truss,
)
from trusskit import extensions, modules, trusses
from trusskit.catalog import left_translation_truss, trunc_poly_truss
from trusskit.extensions import ExtTruss
from trusskit.heaps import induced_table, morphism_witness
from trusskit.lawcheck import grid_witness
from trusskit.trusses import LEFT


# ---------------------------------------------------------------- oracles

def oracle_anchor_iso(ext, e2):
    n, m = ext.base.order, ext.m
    t1, table = ext.truss, extensions._ext_mul(ext.base, ext.module, e2)
    shift = ext.module.heap.bracket_arrays(np.arange(m), ext.anchor, e2)
    phi = (np.arange(n)[:, None] * m + shift[None, :]).reshape(-1)
    if sorted(int(v) for v in phi) != list(range(n * m)):
        raise ConsistencyError("anchor change is not a bijection")
    if grid_witness(phi[t1.mul], table[phi[:, None], phi[None, :]]) is not None:
        raise ConsistencyError("anchor change is not multiplicative")
    if morphism_witness(phi, t1.heap, t1.heap) is not None:
        raise ConsistencyError("anchor change is not a heap morphism")
    return table, phi


def oracle_module_over_extension(ext):
    n, m = ext.base.order, ext.m
    act, br = ext.module.action, ext.module.heap.bracket_arrays
    table = br(np.arange(m)[None, :, None], act[:, ext.anchor][:, None, None],
               act[:, None, :]).reshape(n * m, m)
    mod = TModule(ext.truss, ext.module.heap, table, labels=ext.module.labels)
    if grid_witness(table[:, ext.anchor].reshape(n, m), np.arange(m)[None, :]) is not None:
        raise ConsistencyError("(t, x).e = x failed")
    for e2 in range(m):
        ext_ind = br(table, table[:, e2][:, None], e2)
        base_ind = br(act, act[:, e2][:, None], e2)
        if grid_witness(ext_ind.reshape(n, m, m), base_ind[:, None, :]) is not None:
            raise ConsistencyError("induced actions of the extension do not collapse to the base")
    return mod


def oracle_fiber_paragon(ext, a, build_quotient=True):
    n, m = ext.base.order, ext.m
    result = is_paragon(ext.truss, a * m + np.arange(m))
    if ext.base.sided == LEFT:
        if result.kind != "left":
            raise ConsistencyError("fiber {a} x M is not a left paragon: %s" % result.kind)
        return result.paragon, None, None, None
    if result.kind not in ("two-sided", "ideal"):
        raise ConsistencyError("fiber {a} x M failed to classify as a paragon: %s" % result.kind)
    if (result.kind == "ideal") != (ext.base.absorber == a):
        raise ConsistencyError("fiber ideal test disagrees with base absorber test")
    if not build_quotient:
        return result.paragon, None, None, None
    quotient, proj = extensions.quotient_truss(ext.truss, result.paragon)
    if quotient.order != n:
        raise ConsistencyError("fiber quotient has the wrong order")
    iso, w = induced_table(proj, np.arange(n * m) // m)
    if w is not None:
        raise ConsistencyError("fiber class mixes base elements")
    if grid_witness(iso[quotient.mul], ext.base.mul[iso[:, None], iso[None, :]]) is not None:
        raise ConsistencyError("fiber quotient is not isomorphic to the base")
    if morphism_witness(iso, quotient.heap, ext.base.heap) is not None:
        raise ConsistencyError("fiber quotient bracket differs from the base bracket")
    return result.paragon, quotient, proj, iso


def oracle_split_sequence_check(ext, a, relation):
    n, m, t = ext.base.order, ext.m, ext.truss
    report = Report("split sequence at fiber %d" % a)
    emb = a * m + np.arange(m)
    report.add("fiber_embedding_is_heap_morphism",
               morphism_witness(emb, ext.module.heap, t.heap) is None)
    report.add("fiber_embedding_injective", len(set(emb.tolist())) == m)
    idx_n = np.arange(n)
    sec = idx_n * m + ext.anchor
    report.add("section_multiplicative",
               grid_witness(t.mul[sec[:, None], sec[None, :]], sec[ext.base.mul]) is None)
    report.add("section_heap_morphism", morphism_witness(sec, ext.base.heap, t.heap) is None)
    report.add("section_injective", len(set(sec.tolist())) == n)
    pi = np.arange(n * m) // m
    report.add("projection_multiplicative",
               grid_witness(pi[t.mul], ext.base.mul[pi[:, None], pi[None, :]]) is None)
    report.add("projection_heap_morphism", morphism_witness(pi, t.heap, ext.base.heap) is None)
    report.add("projection_surjective", len(set(pi.tolist())) == n)
    report.add("projection_section_is_identity", bool((pi[sec] == idx_n).all()))
    report.add("kernel_matches_fiber_relation",
               np.array_equal(np.arange(n * m).reshape(n, m), relation))
    return report


def oracle_clause_report(base, module, e, relation=subheap_relation_classes):
    """The clause suite as loops over anchors and fibers.  Each fiber's
    relation is compared with the kernel blocks {t} x M (the loop compared
    it with fiber 0's, which is the kernel on every valid extension)."""
    ext = extend(base, module, e)
    n, m = base.order, ext.m
    blocks = [tuple(range(t * m, t * m + m)) for t in range(n)]
    relations = [relation(ext.truss.heap, a * m + np.arange(m)) for a in range(n)]
    report = Report("extension clauses (base %d, module %d, anchor %d)" % (n, m, e))
    report.add("construction_laws", True)

    def clause(name, run):
        try:
            run()
        except ConsistencyError as exc:
            report.note("%s: %s" % (name, exc))
            return report.add(name, False)
        return report.add(name, True)

    def fibers():
        for a in range(n):
            oracle_fiber_paragon(ext, a, build_quotient=a == 0)
            if list(relations[a]) != blocks:
                raise ConsistencyError("fiber %d has another sub-heap relation" % a)

    clause("anchor_isomorphisms", lambda: [oracle_anchor_iso(ext, e2) for e2 in range(m)])
    clause("module_over_extension", lambda: oracle_module_over_extension(ext))
    clause("fiber_paragons_and_quotients", fibers)
    clause("base_subtruss_and_module_quotient", lambda: base_subtruss(ext))
    failed = [(a, c.name) for a in range(n)
              for c in oracle_split_sequence_check(ext, a, relations[a]).failures()]
    report.add("split_sequences", not failed, failed[0][:1] if failed else None)
    if failed:
        report.note("split_sequences: fiber %d fails %s" % failed[0])
    clause("ring_type_criterion", lambda: ring_type_check(ext))
    if base.identity is not None and module.unital:
        clause("unit_group_product_law", lambda: ext_units(ext))
    else:
        report.note("unit clause skipped (needs unital base and module)")
    return ext, report


# ---------------------------------------------------------------- instances

BASES = {
    "z2": lambda: zn_truss(2), "z3": lambda: zn_truss(3), "z4": lambda: zn_truss(4),
    "z5": lambda: zn_truss(5), "z6": lambda: zn_truss(6), "z7": lambda: zn_truss(7),
    "z8": lambda: zn_truss(8), "za24": lambda: za_truss(2, 4), "za28": lambda: za_truss(2, 8),
    "z2c2": lambda: group_ring(zn_ring(2), cyclic_group(2)).ring.truss(),
    "left4": left_translation_truss,
}


def build(base, module):
    """A base truss by name and its regular module ("reg") or the trivial
    module on the cyclic group of the given order."""
    t = BASES[base]()
    if module == "reg":
        return t, regular_module(t)
    return t, trivial_module(t, heap_from_group(AbGroup.cyclic(module)))


# the acceptance C07 triples
C07 = [("z2", "reg", 0), ("z2", "reg", 1), ("z4", "reg", 0), ("z3", "reg", 1),
       ("za24", "reg", 0), ("z2c2", "reg", 0), ("z2", 3, 0), ("z2", 1, 0), ("za28", "reg", 0)]
# the benchmark's clause-report families (taken here at every anchor) and a left base
FAMILIES = [("z3", "reg"), ("z2", 3), ("z2", 4), ("z3", 4), ("z4", "reg"), ("za24", "reg"),
            ("z2c2", "reg"), ("za24", 4), ("z3", 9), ("z4", 8), ("za24", 8), ("z2c2", 8),
            ("z6", 6), ("z5", "reg"), ("z6", "reg"), ("z7", "reg"), ("z8", 4), ("za28", 4),
            ("z8", "reg"), ("left4", "reg")]


def assert_same(base, module, e):
    ext, got = extension_clause_report(base, module, e)
    _, want = oracle_clause_report(base, module, e)
    assert got.to_dict() == want.to_dict()
    return ext, got


@pytest.mark.parametrize("base,module,e", C07, ids=lambda v: str(v))
def test_c07_reports_match_the_loops(base, module, e):
    assert assert_same(*build(base, module), e)[1].ok


@pytest.mark.parametrize("base,module", FAMILIES, ids=lambda v: str(v))
def test_clause_reports_match_the_loops_at_every_anchor(base, module):
    base, module = build(base, module)
    for e in range(module.order):
        ext, report = assert_same(base, module, e)
        assert report.ok
        for e2 in range(module.order):
            ext2, phi = anchor_iso(ext, e2)
            table, want = oracle_anchor_iso(ext, e2)
            assert np.array_equal(phi, want) and np.array_equal(ext2.truss.mul, table)
        for a in range(base.order):
            got, want = fiber_paragon(ext, a), oracle_fiber_paragon(ext, a)
            assert got[0].members == want[0].members and got[0].kind == want[0].kind
            assert all(g is w is None or np.array_equal(g, w) or g == w
                       for g, w in zip(got[1:], want[1:]))
            relation = subheap_relation_classes(ext.truss.heap, a * ext.m + np.arange(ext.m))
            assert (split_sequence_check(ext, a).to_dict()
                    == oracle_split_sequence_check(ext, a, relation).to_dict())


def _relabelled(build_quotient):
    """``build_quotient`` with classes 0 and 1 of its projection swapped."""
    def wrapped(*args):
        quotient, proj = build_quotient(*args)
        swap = np.arange(int(proj.max()) + 1)
        swap[[0, 1]] = [1, 0]
        return quotient, swap[proj]
    return wrapped


def _reversed_at(*hit):
    """The batched and the per-fiber relation, each with the classes of the
    fibers ``hit`` in another order."""
    batched_relation = extensions._fiber_relations

    def batched(ext, fibers):
        rows = batched_relation(ext, fibers)
        at = np.isin(fibers, hit)
        rows[at] = rows[at][:, ::-1]
        return rows

    def per_fiber(h, s):
        classes = subheap_relation_classes(h, s)
        return classes[::-1] if s[0] // len(s) in hit else classes

    return batched, per_fiber


def _corrupt_anchor(at):
    """``_ext_mul`` with one product wrong in the table of anchor ``at``."""
    ext_mul = extensions._ext_mul

    def wrapped(base, module, e):
        tables = ext_mul(base, module, e)
        flat = tables.reshape((-1,) + tables.shape[-2:]).copy()
        hit = np.ravel(e) == at
        flat[hit, 0, 0] = (flat[hit, 0, 0] + 1) % flat.shape[-1]
        return flat.reshape(tables.shape)
    return wrapped


# corruption -> (quotient relabelled, module quotient relabelled, fibers whose
# relation is reversed, anchor with a wrong product, the failing clauses)
CORRUPTIONS = {
    "quotient": (True, False, (), None, ("fiber_paragons_and_quotients",)),
    "module_quotient": (False, True, (), None, ("base_subtruss_and_module_quotient",)),
    "relation_at_1": (False, False, (1,), None,
                      ("fiber_paragons_and_quotients", "split_sequences")),
    "relation_at_0": (False, False, (0,), None,
                      ("fiber_paragons_and_quotients", "split_sequences")),
    "relations_at_0_and_1": (False, False, (0, 1), None,
                             ("fiber_paragons_and_quotients", "split_sequences")),
    "quotient_and_relation": (True, False, (1,), None,
                              ("fiber_paragons_and_quotients", "split_sequences")),
    "anchor_1": (False, False, (), 1, ("anchor_isomorphisms",)),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("base,module", [("z4", "reg"), ("za24", "reg"), ("z2", 3),
                                         ("z2c2", "reg")], ids=lambda v: str(v))
def test_corrupted_reports_match_the_loops(monkeypatch, corruption, base, module):
    quotient, module_quotient, fibers, anchor, failing = CORRUPTIONS[corruption]
    base, module = build(base, module)
    per_fiber = subheap_relation_classes
    if quotient:
        monkeypatch.setattr(extensions, "quotient_truss", _relabelled(trusses.quotient_truss))
    if module_quotient:
        monkeypatch.setattr(extensions, "quotient_module", _relabelled(modules.quotient_module))
    if fibers:
        batched, per_fiber = _reversed_at(*fibers)
        monkeypatch.setattr(extensions, "_fiber_relations", batched)
    if anchor is not None:
        monkeypatch.setattr(extensions, "_ext_mul", _corrupt_anchor(anchor))
    _, got = extension_clause_report(base, module, 0)
    _, want = oracle_clause_report(base, module, 0, relation=per_fiber)
    assert got.to_dict() == want.to_dict()
    assert tuple(c.name for c in got.failures()) == failing
    assert len(got.notes) >= len(failing)


@pytest.mark.parametrize("anchor", [None, 1, 2])
@pytest.mark.parametrize("per_chunk", [1, 2])
def test_anchor_chunks_report_as_the_loop(monkeypatch, per_chunk, anchor):
    """Anchors checked a chunk at a time fail at the anchor the loop fails at."""
    base, module = build("z2", 3)
    monkeypatch.setattr(extensions, "_STACK", per_chunk * 36)  # tables of 6 x 6 entries
    if anchor is not None:
        monkeypatch.setattr(extensions, "_ext_mul", _corrupt_anchor(anchor))
    _, got = extension_clause_report(base, module, 0)
    _, want = oracle_clause_report(base, module, 0)
    assert got.to_dict() == want.to_dict()
    assert got.ok == (anchor is None)


def test_anchor_chunks_keep_the_peak_within_a_few_tables():
    """128 anchors of an extension of order 256: the peak traced memory stays
    within a few of its 256 x 256 tables, not 128 of them at once."""
    base = zn_truss(2)
    ext = extend(base, trivial_module(base, heap_from_group(AbGroup.cyclic(128))), 0)
    tracemalloc.start()
    try:
        extensions._anchor_isos(ext, np.arange(128))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * ext.order ** 2 * 8


def _other_trusses():
    """Trusses on the heap of Z_4 x Z_4 (or, for Z_16, another heap) whose
    blocks {4a, ..., 4a + 3} are paragons of every kind or none."""
    z4c2 = group_ring(zn_ring(4), cyclic_group(2)).ring.truss()
    za24 = za_truss(2, 4)
    ext16 = extend(za24, regular_module(za24), 0).truss
    swap = (np.arange(16) % 4) * 4 + np.arange(16) // 4  # (t, x) -> (x, t): blocks T x {x}
    swapped = trusses.Truss(ext16.heap, swap[ext16.mul[np.ix_(swap, swap)]])
    return {
        "ext16-swapped": (za24, swapped),
        "ext16-swapped-opposite": (za24, trusses.opposite_truss(swapped)),
        "ext16-swapped-left": (left_translation_truss(),
                               trusses.Truss(swapped.heap, swapped.mul, sided=LEFT)),
        "Z4[C2]": (zn_truss(4), z4c2),
        "Z4[C2]-left": (left_translation_truss(),
                        trusses.Truss(z4c2.heap, z4c2.mul, sided=LEFT)),
        "Z4[x]/(x^2)": (zn_truss(4), trunc_poly_truss(2, 2).truss),
        "Z16": (zn_truss(4), zn_truss(16)),
    }


@pytest.mark.parametrize("name", sorted(_other_trusses()))
def test_fiber_kinds_match_is_paragon_on_other_trusses(name):
    base, truss = _other_trusses()[name]
    ext = ExtTruss(base, regular_module(base), 0, truss)
    reports, _ = extensions._fiber_kinds(ext, np.arange(4))
    assert [r.kind for r in reports] == [is_paragon(truss, 4 * a + np.arange(4)).kind
                                         for a in range(4)]
    for a in range(4):
        outcomes = []
        for fiber in (fiber_paragon, oracle_fiber_paragon):
            try:
                paragon = fiber(ext, a)[0]
                outcomes.append((paragon.members, paragon.kind))
            except ConsistencyError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
