"""Extensions of a truss by a one-sided module.

Given a truss T, a left T-module M and an anchor e in M, the product heap
T x M carries the associative multiplication

    (t, x)(t', x') = (tt', [x, t.e, t.x'])

making it a truss (two-sided when T is, left when T is a left truss).  This
module builds that truss, the canonical structure around it -- the change of
anchor isomorphisms, the module structure of M over the extension, the fiber
paragons {a} x M with quotient T, the base copy T x {e} with quotient M, the
split sequence, and the unit group law U(T x M) = U(T) x M -- and verifies
each piece at construction time.
"""

from __future__ import annotations

import numpy as np

from .heaps import induced_table, morphism_witness, product_heap, subheap_relation_classes
from .lawcheck import (
    ConsistencyError,
    Report,
    grid_witness,
)
from .modules import TModule, product_module, quotient_module, regular_module
from .trusses import (
    LEFT,
    TWO_SIDED,
    Truss,
    inverse_in,
    is_paragon,
    quotient_truss,
    truss_isomorphism,
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
    """mul[(t,x),(t',x')] = (t t', [x, t.e, t.x']) on pairs t*m + x."""
    if not 0 <= e < module.order:
        raise ValueError("anchor out of range")
    n, m = base.order, module.order
    act = module.action
    second = module.heap.bracket_arrays(
        np.arange(m)[None, :, None, None],
        act[:, e][:, None, None, None],
        act[:, None, None, :],
    )
    return (base.mul[:, None, :, None] * m + second).reshape(n * m, n * m)


def extend(base, module, e):
    """Build T[M; e] and verify the truss laws at construction.

    The laws are a theorem for a valid base and module, so a failure raises
    ``ConsistencyError`` rather than a validation error.
    """
    if module.truss is not base and module.truss != base:
        raise ValueError("module is not a module over the given base truss")
    mul = _ext_mul(base, module, e)
    heap = product_heap(base.heap, module.heap)
    try:
        truss = Truss(heap, mul, sided=base.sided, labels=heap.labels)
    except Exception as exc:
        raise ConsistencyError("extension truss failed its law check: %s" % exc) from exc
    return ExtTruss(base, module, int(e), truss)


def as_extension(truss, base, module, e):
    """A checked ``truss`` as T[M; e] if its heap and table are the extension's,
    else None: one comparison instead of ``extend``'s rebuild and law scan."""
    if module.truss is not base and module.truss != base:
        raise ValueError("module is not a module over the given base truss")
    mul = _ext_mul(base, module, e)
    same = (truss.sided == base.sided and np.array_equal(truss.mul, mul)
            and truss.heap == product_heap(base.heap, module.heap))
    return ExtTruss(base, module, int(e), truss) if same else None


def anchor_iso(ext, e2):
    """(ext2, phi): the isomorphism (t, x) -> (t, [x, e, e2]) onto the e2-anchored extension.

    Verified bijective, bracket-preserving and multiplicative in full.  The
    e2-anchored table is built without a law scan: phi is an isomorphism
    from the validated extension, so it carries every law over.
    """
    t1 = ext.truss
    t2 = Truss(t1.heap, _ext_mul(ext.base, ext.module, e2), sided=t1.sided,
               labels=t1.labels, check=False)
    ext2 = ExtTruss(ext.base, ext.module, int(e2), t2)
    n, m = ext.base.order, ext.m
    shift = ext.module.heap.bracket_arrays(np.arange(m), ext.anchor, e2)
    phi = (np.arange(n)[:, None] * m + shift[None, :]).reshape(-1)
    if sorted(int(v) for v in phi) != list(range(n * m)):
        raise ConsistencyError("anchor change is not a bijection")
    if grid_witness(phi[t1.mul], t2.mul[phi[:, None], phi[None, :]]) is not None:
        raise ConsistencyError("anchor change is not multiplicative")
    if morphism_witness(phi, t1.heap, t2.heap) is not None:
        raise ConsistencyError("anchor change is not a heap morphism")
    return ext2, phi


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
    # induced actions at every anchor agree with the base module's
    for e2 in range(m):
        ext_ind = br(table, table[:, e2][:, None], e2)
        base_ind = br(act, act[:, e2][:, None], e2)
        if grid_witness(ext_ind.reshape(n, m, m), base_ind[:, None, :]) is not None:
            raise ConsistencyError("induced actions of the extension do not collapse to the base")
    return mod


def fiber_paragon(ext, a):
    """The fiber {a} x M as a verified paragon, with quotient isomorphic to the base.

    Returns (paragon, quotient, projection, iso) where iso maps each class
    to the base element all its members share (``induced_table``).  The
    fiber is an ideal exactly when a is an absorber of the base.
    """
    n, m = ext.base.order, ext.m
    members = [ext.pair(a, x) for x in range(m)]
    result = is_paragon(ext.truss, members)
    if ext.base.sided == LEFT:
        if result.kind != "left":
            raise ConsistencyError("fiber {a} x M is not a left paragon: %s" % result.kind)
    elif result.kind not in ("two-sided", "ideal"):
        raise ConsistencyError("fiber {a} x M failed to classify as a paragon: %s" % result.kind)
    if ext.base.sided == TWO_SIDED:
        is_ideal = result.kind == "ideal"
        if is_ideal != (ext.base.absorber == a):
            raise ConsistencyError("fiber ideal test disagrees with base absorber test")
        quotient, proj = quotient_truss(ext.truss, result.paragon)
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
    return result.paragon, None, None, None


def base_subtruss(ext):
    """T x {e}: a sub-truss and left paragon whose module quotient returns M.

    Returns (paragon, quotient_module, projection, iso) with iso sending each
    class to the module element its members share (``induced_table``); iso
    is checked to be a module isomorphism onto M with the extension action.
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
    ext_mod = module_over_extension(ext)
    if grid_witness(iso[qmod.action], ext_mod.action[:, iso]) is not None:
        raise ConsistencyError("quotient-by-base is not module-isomorphic to M")
    return result.paragon, qmod, proj, iso


def split_sequence_check(ext, a):
    """The split sequence M >--> T[M;e] -->> T with section t -> (t, e).

    Checks each arrow's defining property and that the kernel relation of the
    projection, the blocks {t} x M, is the sub-heap relation of the fiber at a.
    """
    n, m = ext.base.order, ext.m
    report = Report("split sequence at fiber %d" % a)
    emb = a * m + np.arange(m)
    report.add("fiber_embedding_is_heap_morphism",
               morphism_witness(emb, ext.module.heap, ext.truss.heap) is None)
    report.add("fiber_embedding_injective", len(set(emb.tolist())) == m)

    idx_n = np.arange(n)
    sec = idx_n * m + ext.anchor
    report.add(
        "section_multiplicative",
        grid_witness(ext.truss.mul[sec[:, None], sec[None, :]], sec[ext.base.mul]) is None,
    )
    report.add("section_heap_morphism",
               morphism_witness(sec, ext.base.heap, ext.truss.heap) is None)
    report.add("section_injective", len(set(sec.tolist())) == n)

    pi = np.arange(n * m) // m
    report.add(
        "projection_multiplicative",
        grid_witness(pi[ext.truss.mul], ext.base.mul[pi[:, None], pi[None, :]]) is None,
    )
    report.add("projection_heap_morphism",
               morphism_witness(pi, ext.truss.heap, ext.base.heap) is None)
    report.add("projection_surjective", len(set(pi.tolist())) == n)
    report.add("projection_section_is_identity", bool((pi[sec] == idx_n).all()))
    kernel = np.arange(n * m).reshape(n, m)  # classes of pi by smallest member
    report.add("kernel_matches_fiber_relation",
               np.array_equal(kernel, subheap_relation_classes(ext.truss.heap, emb)))
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

    one = ext.truss.identity
    act = ext.module.act
    br = ext.module.heap.bracket
    for u in base_units:
        uinv = inverse_in(ext.base, u)
        for x in range(ext.m):
            v = ext.pair(uinv, br(ext.anchor, act(uinv, x), act(uinv, ext.anchor)))
            p = ext.pair(u, x)
            if int(ext.truss.mul[p, v]) != one or int(ext.truss.mul[v, p]) != one:
                raise ConsistencyError("inverse formula for extension units failed")
    return us


def extension_clause_report(base, module, e):
    """Run the whole clause suite for one (base, module, anchor) instance."""
    ext = extend(base, module, e)
    n, m = base.order, ext.m
    report = Report("extension clauses (base %d, module %d, anchor %d)" % (n, m, e))
    report.add("construction_laws", True)

    def clause(name, run):  # a clause fails by raising ConsistencyError
        try:
            run()
        except ConsistencyError:
            return report.add(name, False)
        return report.add(name, True)

    clause("anchor_isomorphisms", lambda: [anchor_iso(ext, e2) for e2 in range(m)])
    clause("module_over_extension", lambda: module_over_extension(ext))
    clause("fiber_paragons_and_quotients", lambda: [fiber_paragon(ext, a) for a in range(n)])
    clause("base_subtruss_and_module_quotient", lambda: base_subtruss(ext))
    report.add("split_sequences", all(split_sequence_check(ext, a).ok for a in range(n)))
    clause("ring_type_criterion", lambda: ring_type_check(ext))
    if base.identity is not None and module.unital:
        clause("unit_group_product_law", lambda: ext_units(ext))
    else:
        report.note("unit clause skipped (needs unital base and module)")
    return ext, report


def iterated_extension_matches_product(base, module, e):
    """Extending the extension by M again matches extending by M x M.

    Returns the isomorphism found by backtracking (the two constructions are
    equal only up to re-pairing).
    """
    ext1 = extend(base, module, e)
    mod2 = module_over_extension(ext1)
    ext2 = extend(ext1.truss, mod2, e)
    prod = product_module(module, module)
    flat = extend(base, prod, module.order * e + e)
    phi = truss_isomorphism(ext2.truss, flat.truss)
    if phi is None:
        raise ConsistencyError("iterated extension is not isomorphic to the product-module extension")
    return phi
