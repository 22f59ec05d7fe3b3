"""Extensions of a truss by a one-sided module.

Given a truss T, a left T-module M and an anchor e in M, the product heap
T x M carries the associative multiplication

    (t, x)(t', x') = (tt', [x, t.e, t.x'])

making it a truss (two-sided when T is, left when T is a left truss).  This
module builds that truss, the canonical structure around it -- the change of
anchor isomorphisms, the module structure of M over the extension, the fiber
paragons {a} x M with quotient T, the base copy T x {e} with quotient M, the
split sequence, and the unit group law U(T x M) = U(T) x M -- and verifies
each piece at construction time.  The clause suite checks each family in
array passes, all n fibers at once and the m anchors in chunks of bounded
size, and reports the error a loop over the family would raise first;
``anchor_iso``, ``fiber_paragon`` and ``split_sequence_check`` are that code
at one anchor or fiber.
"""

from __future__ import annotations

import numpy as np

from .heaps import _members, induced_table, morphism_witness, product_heap
from .lawcheck import ConsistencyError, Report, grid_witness, inherit
from .modules import TModule, product_module, quotient_module, regular_module
from .trusses import (
    LEFT,
    Truss,
    _paragon_reports,
    inverse_in,
    is_paragon,
    quotient_truss,
    units,
)


class ExtTruss:
    """The extension truss on T x M with anchor e; pair (t, x) has index t*m + x."""

    def __init__(self, base, module, anchor, truss):
        self.base = base
        self.module = module
        self.anchor = anchor
        self.truss = truss
        self.m = module.order

    def pair(self, t, x):
        return int(t) * self.m + int(x)

    def unpair(self, i):
        return divmod(int(i), self.m)

    @property
    def order(self):
        return self.truss.order

    def __repr__(self):
        return "ExtTruss(base=%d, module=%d, anchor=%d)" % (
            self.base.order,
            self.m,
            self.anchor,
        )


def _ext_mul(base, module, e):
    """mul[(t,x),(t',x')] = (t t', [x, t.e, t.x']) on pairs t*m + x; an array
    of anchors gives one table per anchor, stacked."""
    e = np.asarray(e)
    n, m = base.order, module.order
    act = module.action
    second = module.heap.bracket_arrays(np.arange(m)[:, None, None],
                                        act.T[e][..., None, None, None], act[:, None, None, :])
    return (base.mul[:, None, :, None] * m + second).reshape(e.shape + (n * m, n * m))


def extend(base, module, e):
    """Build T[M; e] and verify the truss laws at construction.

    The laws are a theorem for a valid base and module, so a failure raises
    ``ConsistencyError`` rather than a validation error.
    """
    if module.truss is not base and module.truss != base:
        raise ValueError("module is not a module over the given base truss")
    (e,) = _members([e], module.order)
    mul = _ext_mul(base, module, e)
    heap = product_heap(base.heap, module.heap)
    try:
        truss = Truss(heap, mul, sided=base.sided, labels=heap.labels)
    except Exception as exc:
        raise ConsistencyError("extension truss failed its law check: %s" % exc) from exc
    return ExtTruss(base, module, e, truss)


def as_extension(truss, base, module, e):
    """A checked ``truss`` as T[M; e] if its heap and table are the extension's,
    else None: one comparison instead of ``extend``'s rebuild and law scan."""
    if module.truss is not base and module.truss != base:
        raise ValueError("module is not a module over the given base truss")
    (e,) = _members([e], module.order)
    mul = _ext_mul(base, module, e)
    same = (truss.sided == base.sided and np.array_equal(truss.mul, mul)
            and truss.heap == product_heap(base.heap, module.heap))
    return ExtTruss(base, module, e, truss) if same else None


def _first(fails):
    """The position of the first True in a boolean array, or None."""
    hits = np.flatnonzero(fails)
    return int(hits[0]) if hits.size else None


def _raise_first(failures):
    """Raise the error a loop over a family would raise first, given (first
    failing member or None, message) per check in the loop body's order."""
    hits = [(pos, i) for i, (pos, _) in enumerate(failures) if pos is not None]
    if hits:
        raise ConsistencyError(failures[min(hits)[1]][1])


_STACK = 1 << 16  # table entries per anchor chunk: every anchor of an extension of order 64


def _anchor_isos(ext, anchors):
    """Verify the maps phi (t, x) -> (t, [x, e, e2]) onto the extension tables
    at the anchors e2, in order, in chunks of at most ``_STACK`` table entries
    (one anchor when a table is larger): per chunk, the tables stacked and
    the maps as rows, bijective (one sort), multiplicative (one grid) and
    bracket-preserving (one ``morphism_witness``) in full.  Returns the last
    chunk's (tables, phis)."""
    n, m, nm = ext.base.order, ext.m, ext.order
    anchors, step = np.asarray(anchors), max(1, _STACK // nm ** 2)
    for chunk in np.split(anchors, np.arange(step, len(anchors), step)):
        tables = _ext_mul(ext.base, ext.module, chunk)
        shift = ext.module.heap.bracket_arrays(np.arange(m), ext.anchor, chunk[:, None])
        phis = (np.arange(n)[:, None] * m + shift[:, None, :]).reshape(len(chunk), nm)
        mul = grid_witness(phis[:, ext.truss.mul], tables[np.arange(len(chunk))[:, None, None],
                                                          phis[:, :, None], phis[:, None, :]])
        hom = morphism_witness(phis, ext.truss.heap, ext.truss.heap)
        _raise_first([
            (_first((np.sort(phis, axis=1) != np.arange(nm)).any(axis=1)),
             "anchor change is not a bijection"),
            (None if mul is None else mul[0], "anchor change is not multiplicative"),
            (None if hom is None else hom[0], "anchor change is not a heap morphism"),
        ])
    return tables, phis


def anchor_iso(ext, e2):
    """(ext2, phi): the isomorphism (t, x) -> (t, [x, e, e2]) onto the e2-anchored extension,
    verified by ``_anchor_isos``.  The e2-anchored table gets no law scan:
    phi carries every law over, so it keeps the extension's verdict when that holds.
    """
    (e2,) = _members([e2], ext.m)
    tables, phis = _anchor_isos(ext, [e2])
    t1 = ext.truss
    # phi is a verified isomorphism, so t2 is lawful when t1 is; unscanned otherwise
    t2 = inherit(Truss(t1.heap, tables[0], sided=t1.sided, labels=t1.labels, check=False),
                 t1.lawful)
    return ExtTruss(ext.base, ext.module, e2, t2), phis[0]


def ext_action(ext, pair, x):
    """(t, x).x' = [x, t.e, t.x']; the module action of the extension on M."""
    t, mval = ext.unpair(pair)
    act = ext.module.act
    return ext.module.heap.bracket(mval, act(t, ext.anchor), act(t, x))


def module_over_extension(ext):
    """M as a validated module over the extension truss.

    Also asserts the anchor facts: (t, x).e = x, and every induced action of
    the extension on M coincides with the induced action of the base.
    """
    n, m = ext.base.order, ext.m
    act = ext.module.action
    br = ext.module.heap.bracket_arrays
    table = br(
        np.arange(m)[None, :, None],
        act[:, ext.anchor][:, None, None],
        act[:, None, :],
    ).reshape(n * m, m)
    mod = TModule(ext.truss, ext.module.heap, table, labels=ext.module.labels)
    if grid_witness(table[:, ext.anchor].reshape(n, m), np.arange(m)[None, :]) is not None:
        raise ConsistencyError("(t, x).e = x failed")
    # induced actions [p.x, p.e2, e2] and [t.x, t.e2, e2], p = (t, y), agree at
    # every e2 iff p.x - t.x does not depend on x: the anchor e decides every e2
    e = ext.anchor
    ext_ind, base_ind = br(table, table[:, e][:, None], e), br(act, act[:, e][:, None], e)
    if grid_witness(ext_ind.reshape(n, m, m), base_ind[:, None, :]) is not None:
        raise ConsistencyError("induced actions of the extension do not collapse to the base")
    return mod


def _fiber_kinds(ext, fibers):
    """(reports, failures) of the fibers {a} x M, a in ``fibers``: their
    ``is_paragon`` reports, all fibers at once (``_paragon_reports``), and the
    checks ``fiber_paragon`` makes of them, for ``_raise_first``."""
    a = np.asarray(fibers)
    reports = _paragon_reports(ext.truss, a[:, None] * ext.m + np.arange(ext.m))
    kinds = [r.kind for r in reports]
    if ext.base.sided == LEFT:
        bad = _first([kind != "left" for kind in kinds])
        return reports, [(bad, "fiber {a} x M is not a left paragon: %s" % kinds[bad or 0])]
    bad = _first([kind not in ("two-sided", "ideal") for kind in kinds])
    return reports, [
        (bad, "fiber {a} x M failed to classify as a paragon: %s" % kinds[bad or 0]),
        (_first((np.array(kinds) == "ideal") != (a == ext.base.absorber)),
         "fiber ideal test disagrees with base absorber test")]


def _fiber_quotient(ext, paragon):
    """(quotient, projection, iso) of the extension by a fiber paragon, iso
    sending each class to the base element its members share (``induced_table``)."""
    n, m = ext.base.order, ext.m
    quotient, proj = quotient_truss(ext.truss, paragon)
    if quotient.order != n:
        raise ConsistencyError("fiber quotient has the wrong order")
    iso, w = induced_table(proj, np.arange(n * m) // m)
    if w is not None:
        raise ConsistencyError("fiber class mixes base elements")
    if grid_witness(iso[quotient.mul], ext.base.mul[iso[:, None], iso[None, :]]) is not None:
        raise ConsistencyError("fiber quotient is not isomorphic to the base")
    if morphism_witness(iso, quotient.heap, ext.base.heap) is not None:
        raise ConsistencyError("fiber quotient bracket differs from the base bracket")
    return quotient, proj, iso


def fiber_paragon(ext, a):
    """The fiber {a} x M as a verified paragon (``_fiber_kinds`` at one fiber),
    with quotient isomorphic to the base over a two-sided base.

    Returns (paragon, quotient, projection, iso) (``_fiber_quotient``).  The
    fiber is an ideal exactly when a is an absorber of the base.
    """
    reports, failures = _fiber_kinds(ext, [a])
    _raise_first(failures)
    paragon = reports[0].paragon
    if ext.base.sided == LEFT:
        return paragon, None, None, None
    return (paragon,) + _fiber_quotient(ext, paragon)


def base_subtruss(ext, ext_mod=None):
    """T x {e}: a sub-truss and left paragon whose module quotient returns M.

    Returns (paragon, quotient_module, projection, iso) with iso sending each
    class to the module element its members share (``induced_table``); iso
    is checked to be a module isomorphism onto M with the extension action,
    ``ext_mod`` (``module_over_extension``, built here unless passed).
    """
    n, m = ext.base.order, ext.m
    members = np.arange(n) * m + ext.anchor
    result = is_paragon(ext.truss, members)  # a failed sub-heap test is failures["subheap"]
    closed_mul = np.isin(ext.truss.mul[np.ix_(members, members)], members).all()
    if not closed_mul or "subheap" in result.failures:
        raise ConsistencyError("T x {e} is not a sub-truss")
    if result.kind not in ("left", "two-sided", "ideal"):
        raise ConsistencyError("T x {e} is not a left paragon")

    regular = regular_module(ext.truss)
    qmod, proj = quotient_module(regular, members)
    if qmod.order != m:
        raise ConsistencyError("module quotient by T x {e} has the wrong order")
    iso, w = induced_table(proj, np.arange(n * m) % m)
    if w is not None:
        raise ConsistencyError("T x {e} class mixes module elements")
    if morphism_witness(iso, qmod.heap, ext.module.heap) is not None:
        raise ConsistencyError("quotient-by-base is not heap-isomorphic to M")
    # equivariance against the extension action on M
    ext_mod = module_over_extension(ext) if ext_mod is None else ext_mod
    if grid_witness(iso[qmod.action], ext_mod.action[:, iso]) is not None:
        raise ConsistencyError("quotient-by-base is not module-isomorphic to M")
    return result.paragon, qmod, proj, iso


def _fiber_relations(ext, fibers):
    """Layer i, row x: the class of x under the sub-heap relation of the fiber
    {a} x M, a = fibers[i], i.e. the coset {[x, am, am + y] : y in M}, sorted."""
    a = np.asarray(fibers)[:, None, None] * ext.m
    rows = ext.truss.bracket_arrays(np.arange(ext.order)[:, None], a, a + np.arange(ext.m))
    return np.sort(rows, axis=2)


def _split_failures(ext, fibers):
    """(check, position of its first failing fiber or None) for the split
    sequence at each of ``fibers``, in report order.  The section and the
    projection do not depend on the fiber and are checked once; the
    embeddings are one ``morphism_witness``, the kernel relation, whose
    class of x is its block {x // m} x M, one comparison."""
    n, m, t = ext.base.order, ext.m, ext.truss
    emb = np.asarray(fibers)[:, None] * m + np.arange(m)
    hom = morphism_witness(emb, ext.module.heap, t.heap)
    blocks = (np.arange(n * m) // m * m)[:, None] + np.arange(m)
    emb, idx_n = np.sort(emb, axis=1), np.arange(n)
    sec, pi = idx_n * m + ext.anchor, np.arange(n * m) // m
    once = {
        "section_multiplicative":
            grid_witness(t.mul[sec[:, None], sec[None, :]], sec[ext.base.mul]) is None,
        "section_heap_morphism": morphism_witness(sec, ext.base.heap, t.heap) is None,
        "section_injective": len(set(sec.tolist())) == n,
        "projection_multiplicative":
            grid_witness(pi[t.mul], ext.base.mul[pi[:, None], pi[None, :]]) is None,
        "projection_heap_morphism": morphism_witness(pi, t.heap, ext.base.heap) is None,
        "projection_surjective": len(set(pi.tolist())) == n,
        "projection_section_is_identity": bool((pi[sec] == idx_n).all()),
    }
    return ([("fiber_embedding_is_heap_morphism", None if hom is None else hom[0]),
             ("fiber_embedding_injective", _first((emb[:, 1:] == emb[:, :-1]).any(axis=1)))]
            + [(name, None if ok else 0) for name, ok in once.items()]
            + [("kernel_matches_fiber_relation",
                _first((_fiber_relations(ext, fibers) != blocks).any(axis=(1, 2))))])


def split_sequence_check(ext, a):
    """The split sequence M >--> T[M;e] -->> T with section t -> (t, e) at
    the fiber a: each arrow's defining property, and the kernel relation of
    the projection, the blocks {t} x M, as the sub-heap relation of the
    fiber (``_split_failures`` at one fiber)."""
    (a,) = _members([a], ext.base.order)
    report = Report("split sequence at fiber %d" % a)
    for name, bad in _split_failures(ext, [a]):
        report.add(name, bad is None)
    return report


def ring_type_check(ext):
    """True iff the extension has an absorber; asserted equivalent to
    (module is a single point and the base is ring-type)."""
    has = ext.truss.absorber is not None
    expected = ext.m == 1 and ext.base.absorber is not None
    if has != expected:
        raise ConsistencyError("ring-type extension criterion failed")
    return has


def ext_units(ext):
    """U(T[M;e]) with the product law and the explicit inverse formula.

    Asserts that the extension is unital iff the base is unital and the
    module is unital, that the unit set is exactly U(T) x M, and that
    (u, x) has inverse (u^{-1}, [e, u^{-1}.x, u^{-1}.e]).
    """
    base_unital = ext.base.identity is not None
    module_unital = base_unital and ext.module.unital
    if (ext.truss.identity is not None) != (base_unital and module_unital):
        raise ConsistencyError("unitality of the extension disagrees with base/module unitality")
    if not (base_unital and module_unital):
        raise ValueError("ext_units needs a unital base and a unital module")
    us = units(ext.truss)
    base_units = units(ext.base)
    expected = sorted(ext.pair(u, x) for u in base_units for x in range(ext.m))
    if list(us) != expected:
        raise ConsistencyError("U(T[M;e]) differs from U(T) x M")

    m, act, u = ext.m, ext.module.action, np.array(base_units)
    uinv = np.array([inverse_in(ext.base, v) for v in base_units])[:, None]
    p = u[:, None] * m + np.arange(m)
    v = uinv * m + ext.module.heap.bracket_arrays(ext.anchor, act[uinv, np.arange(m)],
                                                  act[uinv, ext.anchor])
    if not ((ext.truss.mul[p, v] == ext.truss.identity).all()
            and (ext.truss.mul[v, p] == ext.truss.identity).all()):
        raise ConsistencyError("inverse formula for extension units failed")
    return us


def extension_clause_report(base, module, e):
    """Run the whole clause suite for one (base, module, anchor) instance.

    Each clause checks its family in one array pass: the m anchor changes,
    the n fibers {a} x M with one shared quotient, and the split sequence at
    every fiber, whose relation must be the kernel block {t} x M (one
    computation for both fiber clauses).  A failing clause keeps its error
    as a note; ``split_sequences`` names its first failing fiber (the
    witness) and sub-check.
    """
    ext = extend(base, module, e)
    n, m = base.order, ext.m
    split = [(bad, i, name) for i, (name, bad) in enumerate(_split_failures(ext, np.arange(n)))
             if bad is not None]
    report = Report("extension clauses (base %d, module %d, anchor %d)" % (n, m, e))
    report.add("construction_laws", True)

    def clause(name, run):  # a clause fails by raising ConsistencyError
        try:
            value = run()
        except ConsistencyError as exc:
            report.add(name, False)
            return report.note("%s: %s" % (name, exc))
        report.add(name, True)
        return value

    def fibers():  # as a loop over the fibers would: the quotient at a = 0
        reports, failures = _fiber_kinds(ext, np.arange(n))
        _raise_first([f for f in failures if f[0] == 0])
        if base.sided != LEFT:
            _fiber_quotient(ext, reports[0].paragon)
        bad = next((a for a, _, name in split if name == "kernel_matches_fiber_relation"), None)
        _raise_first(failures + [(bad, "fiber %s has another sub-heap relation" % bad)])

    clause("anchor_isomorphisms", lambda: _anchor_isos(ext, np.arange(m)))
    ext_mod = clause("module_over_extension", lambda: module_over_extension(ext))
    clause("fiber_paragons_and_quotients", fibers)
    clause("base_subtruss_and_module_quotient", lambda: base_subtruss(ext, ext_mod))
    first = min(split, default=None)  # (fiber, check position, check name)
    report.add("split_sequences", first is None, None if first is None else first[:1])
    if first is not None:
        report.note("split_sequences: fiber %d fails %s" % (first[0], first[2]))
    clause("ring_type_criterion", lambda: ring_type_check(ext))
    if base.identity is not None and module.unital:
        clause("unit_group_product_law", lambda: ext_units(ext))
    else:
        report.note("unit clause skipped (needs unital base and module)")
    return ext, report


def iterated_extension_matches_product(base, module, e):
    """Extending the extension by M again equals extending by M x M.

    Pair ((t, x), y) has index (t m + x) m + y = t m^2 + (x m + y), the index
    of (t, (x, y)), and as (t, x).e = x both products have second coordinate
    [y, t.e, t.y'].  So the heaps and tables are equal, and the identity map
    is the isomorphism returned.
    """
    ext1 = extend(base, module, e)
    ext2 = extend(ext1.truss, module_over_extension(ext1), e)
    flat = extend(base, product_module(module, module), module.order * e + e)
    if ext2.truss != flat.truss:
        raise ConsistencyError("iterated extension differs from the product-module extension")
    return list(range(flat.order))
