"""Left modules over trusses.

An abelian heap M with an action of a truss T that is associative and
distributes over both brackets.  Over a left truss the action is not assumed
to distribute over the bracket of T itself (the truss could not act on
itself otherwise), so that law is checked only in the two-sided case.

Right modules are left modules over the opposite truss; the opposite
constructor lives in ``trusses``.  Congruences are found by the closure
engine ``heaps.closed_subheaps`` (one congruence per closed sub-heap through
the basepoint, at every order) and verified, like the quotient module, by
``heaps.induced_table``; the equivalence between congruence classes and
induced submodules is packaged as a report.
"""

from __future__ import annotations

import numpy as np

from .heaps import (
    SubHeap,
    _int_table,
    _norm_labels,
    closed_subheaps,
    heap_generators,
    induced_table,
    morphism_witness,
    pair_table,
    product_heap,
    quotient_heap,
    subheap_relation_classes,
    subheap_witness,
)
from .lawcheck import (
    ConsistencyError,
    Report,
    ValidationError,
    associativity_witness,
    grid_witness,
)
from .trusses import TWO_SIDED


class TModule:
    """Left module over a truss: heap carrier plus an action table (t, x) -> t.x."""

    def __init__(self, truss, heap, action, labels=None, check=True):
        self.truss = truss
        self.heap = heap
        action = _int_table(action, "module")
        if action.shape != (truss.order, heap.order):
            raise ValidationError("module.shape", None, "action table must be n x m")
        if heap.order and ((action < 0).any() or (action >= heap.order).any()):
            bad = np.argwhere((action < 0) | (action >= heap.order))[0]
            raise ValidationError("module.closure", tuple(bad))
        action.setflags(write=False)
        self.action = action
        self.order = heap.order
        self.labels = _norm_labels(labels, self.order) or heap.labels
        if check:
            module_law_report(self).raise_invalid()
        self.unital = (
            truss.identity is not None
            and bool((action[truss.identity] == np.arange(heap.order)).all())
        )

    def act(self, t, x):
        return int(self.action[t, x])

    def label_of(self, x):
        return self.labels[x] if self.labels else str(x)

    def __repr__(self):
        return "TModule(truss_order=%d, order=%d)" % (self.truss.order, self.order)


def module_law_report(mod, seed=None):
    """Action associativity and distributivity over both brackets, exhaustively.

    Distributivity over the carrier's bracket says each row x -> t.x of the
    action is a heap morphism M -> M; over the truss's bracket, each column
    t -> t.x is a heap morphism T -> M.  ``morphism_witness`` decides both;
    the witnesses are the failing law instances (t, x, e, y) and
    (s, e, t, x).  Once the carrier law holds, x -> s.(t.x) and x -> (st).x
    are heap morphisms, so associativity needs x only at the basepoint and
    the retract's generators (``associativity_witness``).  The truss-side
    law is skipped for left trusses, where it is not part of the definition.
    ``seed`` is ignored.
    """
    t, m = mod.truss.order, mod.order
    act = mod.action
    report = Report("module laws (truss %d on carrier %d)" % (t, m))
    if m == 0:
        report.note("empty carrier: laws hold vacuously")
        return report
    carrier = morphism_witness(act, mod.heap, mod.heap)
    w = associativity_witness(mod.truss.mul, act,
                              lasts=None if carrier else heap_generators(mod.heap))
    report.add("module.associative", w is None, w)
    if mod.truss.sided == TWO_SIDED:
        w = morphism_witness(act.T, mod.truss.heap, mod.heap)
        report.add("module.truss_bracket", w is None, None if w is None else w[1:] + w[:1])
    else:
        report.note("truss-side bracket law skipped (left truss)")
    report.add("module.carrier_bracket", carrier is None, carrier)
    return report


def regular_module(t, check=False):
    """The truss acting on itself by multiplication.

    Lawful whenever the truss is (its laws are exactly the module laws), so
    validation defaults to off.
    """
    return TModule(t, t.heap, t.mul, labels=t.labels, check=check)


def trivial_module(t, heap, check=True):
    """Every truss element acts as the identity map."""
    action = np.tile(np.arange(heap.order), (t.order, 1))
    return TModule(t, heap, action, check=check)


def zero_module(t, heap, e=None, check=True):
    """Every truss element sends everything to ``e`` (default: the basepoint)."""
    if e is None:
        e = heap.basepoint
    action = np.full((t.order, heap.order), e, dtype=np.int64)
    return TModule(t, heap, action, check=check)


def product_module(m1, m2, check=False):
    """Componentwise action on the product heap; both factors share a truss."""
    if m1.truss is not m2.truss and m1.truss != m2.truss:
        raise ValueError("product module needs both factors over the same truss")
    heap = product_heap(m1.heap, m2.heap)
    action = pair_table(m1.action, m2.action)[:: m1.truss.order + 1]  # rows (t, t) of T x T
    return TModule(m1.truss, heap, action, check=check)


def induced_action(mod, t, e, x):
    """t ._e x = [t.x, t.e, e]: the action re-anchored so that e absorbs."""
    return mod.heap.bracket(mod.act(t, x), mod.act(t, e), e)


def induced_module(mod, e, check=True):
    """The module (M, ._e); its carrier is unchanged and e is an absorber."""
    act = mod.action
    action = mod.heap.bracket_arrays(act, act[:, e][:, None], e)
    return TModule(mod.truss, mod.heap, action, labels=mod.labels, check=check)


def absorbers(mod):
    """All e with t.e = e for every t; may be empty or have several members."""
    fixed = (mod.action == np.arange(mod.order)[None, :]).all(axis=0)
    return tuple(int(v) for v in np.flatnonzero(fixed))


def is_submodule(mod, s):
    """Plain submodule: a sub-heap closed under the action itself."""
    members = tuple(sorted({int(v) for v in s}))
    if not members:
        return False
    try:
        SubHeap(mod.heap, members)
    except ValidationError:
        return False
    mask = np.zeros(mod.order, dtype=bool)
    mask[list(members)] = True
    return bool(mask[mod.action[:, list(members)]].all())


def is_induced_submodule(mod, s):
    """(ok, witness): a sub-heap closed under every induced action.

    The witness names the first failing law instance: ("subheap", (a, b, c))
    or ("induced", (t, e, e2)).  Closure is tested at e = the first member:
    [t.x, t.e', e'] = [[t.x, t.e, e], [t.e', t.e, e], e'] in any heap, so on
    a sub-heap one e decides every e' (whatever the action table).
    """
    members = tuple(sorted({int(v) for v in s}))
    if not members:
        raise ValueError("the empty set is not an induced submodule candidate")
    w = subheap_witness(mod.heap, members)
    if w is not None:
        return False, ("subheap", w)
    sarr, e, act = np.array(members), members[0], mod.action
    mask = np.zeros(mod.order, dtype=bool)
    mask[sarr] = True
    w = grid_witness(mask[mod.heap.bracket_arrays(act[:, sarr], act[:, e][:, None], e)], True)
    if w is not None:
        return False, ("induced", (w[0], e, members[w[1]]))
    return True, None


def congruences(mod):
    """All partitions of the carrier that are heap and action congruences.

    A congruence is fixed by its class S through the basepoint e, a sub-heap
    closed under x -> [t.x, t.e, e] for every t; each such S gives x ~ y iff
    [x, y, e] in S.  So these are the ``subheap_relation_classes`` of the
    ``closed_subheaps``, each re-verified by ``induced_table`` on + (as in
    ``quotient_heap``) and the action: a table that breaks the module laws
    never yields a false congruence.  Blocks are ordered by smallest member
    and the list by class-index tuple, the restricted-growth order of set
    partitions.
    """
    found = []
    for s in closed_subheaps(mod.heap, mod.heap.basepoint, mod.action) if mod.order else ():
        classes = subheap_relation_classes(mod.heap, s)
        proj = np.empty(mod.order, dtype=np.int64)
        proj[np.array(classes)] = np.arange(len(classes))[:, None]  # equal-size cosets
        if (induced_table(proj, proj[mod.heap.retract.add])[1] is None
                and induced_table(proj, proj[mod.action], axes=(1,))[1] is None):
            found.append((tuple(proj.tolist()), tuple(classes)))
    return [classes for _, classes in sorted(found)]


def _by_bitmask(blocks):
    return sorted(blocks, key=lambda s: sum(1 << x for x in s))


def all_induced_submodules(mod):
    """Every induced submodule, as the classes of every congruence, sorted by
    the bitmask sum of 2^x over the members.  Completeness holds by theorem:
    an induced submodule S is a class of the congruence ~_S."""
    return _by_bitmask({block for cong in congruences(mod) for block in cong})


def congruence_correspondence_report(mod):
    """The class/submodule correspondence on one module.

    Checked directly: (a) every class of every congruence passes
    ``is_induced_submodule``; (b) each induced submodule's sub-heap relation
    is the congruence (verified by ``congruences``) it is a class of.  By
    theorem, as the report notes: (c) the collections coincide, and neither
    misses a member, as a congruence is fixed by its class through e.
    """
    report = Report("congruence classes vs induced submodules (order %d)" % mod.order)
    cong_of = {block: cong for cong in congruences(mod) for block in cong}
    submods = _by_bitmask(cong_of)  # all_induced_submodules without a second engine run
    bad = next((c for c in sorted(cong_of) if not is_induced_submodule(mod, c)[0]), None)
    report.add("classes_are_induced_submodules", bad is None, bad)
    bad = next((s for s in submods
                if tuple(subheap_relation_classes(mod.heap, s)) != cong_of[s]), None)
    report.add("submodules_are_congruence_classes", bad is None, bad)
    report.add("collections_coincide", set(cong_of) == set(submods))
    report.note("collections_coincide and completeness hold by theorem: every induced "
                "submodule is a class of the congruence it fixes")
    return report


def shift_submodule(mod, s, e, x):
    """Translate an induced submodule along [.., e, x]; returns the image set.

    Asserts the translate facts: the image is again an induced submodule of
    the same size, it is a plain submodule exactly when every t.x lands in
    it, and it is disjoint from the original when x lies outside.
    """
    members = tuple(sorted({int(v) for v in s}))
    if int(e) not in members:
        raise ValueError("shift anchor e must belong to the submodule")
    ok, witness = is_induced_submodule(mod, members)
    if not ok:
        raise ValueError("shift needs an induced submodule; failed %s at %s" % witness)
    sarr = np.array(members)
    image = tuple(sorted(int(v) for v in mod.heap.bracket_arrays(sarr, e, x)))
    if len(image) != len(members):
        raise ConsistencyError("translate failed to stay a bijection")
    ok, witness = is_induced_submodule(mod, image)
    if not ok:
        raise ConsistencyError("shifted set is not an induced submodule")
    tx_inside = all(mod.act(t, x) in set(image) for t in range(mod.truss.order))
    if is_submodule(mod, image) != tx_inside:
        raise ConsistencyError("plain-submodule criterion for the shift failed")
    if int(x) not in members and set(image) & set(members):
        raise ConsistencyError("shift by an outside point must be disjoint")
    return image


def quotient_module(mod, s):
    """Quotient by an induced submodule, plus the projection map."""
    members = tuple(sorted({int(v) for v in s}))
    ok, witness = is_induced_submodule(mod, members)
    if not ok:
        raise ValueError("quotient needs an induced submodule; failed %s at %s" % witness)
    qheap, proj = quotient_heap(mod.heap, SubHeap(mod.heap, members, check=False))
    qact, w = induced_table(proj, proj[mod.action], axes=(1,))
    if w is not None:
        raise ConsistencyError("class action depends on representatives")
    qmod = TModule(mod.truss, qheap, qact, labels=qheap.labels)
    return qmod, proj
