"""Left modules over trusses.

An abelian heap M with an action of a truss T that is associative and
distributes over both brackets.  Over a left truss the action is not assumed
to distribute over the bracket of T itself (the truss could not act on
itself otherwise), so that law is checked only in the two-sided case.

Right modules are left modules over the opposite truss; the opposite
constructor lives in ``trusses``.  Congruences on small modules are found by
direct partition enumeration, and the equivalence between congruence classes
and induced submodules is packaged as a report.
"""

from __future__ import annotations

import numpy as np

from .heaps import (
    SubHeap,
    _int_table,
    _norm_labels,
    morphism_witness,
    product_heap,
    quotient_heap,
    subheap_relation_classes,
)
from .lawcheck import (
    ConsistencyError,
    Report,
    ValidationError,
    associativity_witness,
    grid_witness,
)
from .trusses import TWO_SIDED

CONGRUENCE_MAX_ORDER = 8


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
    (s, e, t, x).  The truss-side law is skipped for left trusses, where it
    is not part of the definition.  ``seed`` is accepted and ignored, since
    nothing is sampled.
    """
    t, m = mod.truss.order, mod.order
    act = mod.action
    report = Report("module laws (truss %d on carrier %d)" % (t, m))
    if m == 0:
        report.note("empty carrier: laws hold vacuously")
        return report
    w = associativity_witness(mod.truss.mul, act)
    report.add("module.associative", w is None, w)
    if mod.truss.sided == TWO_SIDED:
        w = morphism_witness(act.T, mod.truss.heap, mod.heap)
        report.add("module.truss_bracket", w is None, None if w is None else w[1:] + w[:1])
    else:
        report.note("truss-side bracket law skipped (left truss)")
    w = morphism_witness(act, mod.heap, mod.heap)
    report.add("module.carrier_bracket", w is None, w)
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
    k = m2.order
    action = (m1.action[:, :, None] * k + m2.action[:, None, :]).reshape(
        m1.truss.order, m1.order * k
    )
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
    or ("induced", (t, e, e2)).
    """
    members = tuple(sorted({int(v) for v in s}))
    if not members:
        raise ValueError("the empty set is not an induced submodule candidate")
    sarr = np.array(members)
    mask = np.zeros(mod.order, dtype=bool)
    mask[sarr] = True
    vals = mod.heap.bracket_arrays(sarr[:, None, None], sarr[None, :, None], sarr[None, None, :])
    w = grid_witness(mask[vals], True)
    if w is not None:
        return False, ("subheap", tuple(members[i] for i in w))
    act = mod.action
    idx_t = np.arange(mod.truss.order)
    for e in members:
        got = mod.heap.bracket_arrays(act[:, sarr], act[:, e][:, None], e)
        w = grid_witness(mask[got], True)
        if w is not None:
            return False, ("induced", (int(idx_t[w[0]]), e, members[w[1]]))
    return True, None


def _partitions(m):
    """All set partitions of range(m) in restricted-growth-string order."""
    rgs = [0] * m

    def rec(i, maxseen):
        if i == m:
            blocks = [[] for _ in range(maxseen + 1)]
            for pos, b in enumerate(rgs):
                blocks[b].append(pos)
            yield [tuple(b) for b in blocks]
            return
        for b in range(maxseen + 2):
            rgs[i] = b
            yield from rec(i + 1, max(maxseen, b))

    if m == 0:
        return
    yield from rec(1, 0)


def _is_heap_congruence(heap, cls_of, rep_of):
    br = heap.bracket_arrays
    idx = np.arange(heap.order)
    full = cls_of[br(idx[:, None, None], idx[None, :, None], idx[None, None, :])]
    folded = full[np.ix_(rep_of, rep_of, rep_of)][
        cls_of[:, None, None], cls_of[None, :, None], cls_of[None, None, :]
    ]
    return bool((full == folded).all())


def _is_action_congruence(mod, cls_of, rep_of):
    img = cls_of[mod.action]
    return bool((img == img[:, rep_of][:, cls_of]).all())


def congruences(mod):
    """All partitions of the carrier that are heap and action congruences.

    Enumeration is bounded at order 8 (4140 partitions); larger carriers
    should be probed through ``is_induced_submodule`` instead.
    """
    m = mod.order
    if m > CONGRUENCE_MAX_ORDER:
        raise ValueError(
            "congruence enumeration is bounded at order %d; "
            "use is_induced_submodule for larger carriers" % CONGRUENCE_MAX_ORDER
        )
    found = []
    for blocks in _partitions(m):
        cls_of = np.empty(m, dtype=np.int64)
        for i, block in enumerate(blocks):
            cls_of[list(block)] = i
        rep_of = np.array([b[0] for b in blocks])
        if not _is_heap_congruence(mod.heap, cls_of, rep_of):
            continue
        if not _is_action_congruence(mod, cls_of, rep_of):
            continue
        found.append(tuple(sorted(blocks, key=min)))
    return found


def all_induced_submodules(mod):
    """Every nonempty subset that is an induced submodule (subset enumeration)."""
    m = mod.order
    if m > CONGRUENCE_MAX_ORDER:
        raise ValueError("subset enumeration is bounded at order %d" % CONGRUENCE_MAX_ORDER)
    out = []
    for bits in range(1, 1 << m):
        subset = tuple(i for i in range(m) if bits >> i & 1)
        ok, _ = is_induced_submodule(mod, subset)
        if ok:
            out.append(subset)
    return out


def congruence_correspondence_report(mod):
    """Oracle for the class/submodule correspondence on one module.

    Verifies, by two independent enumerations, that (a) every class of every
    congruence is an induced submodule, (b) every induced submodule is a
    class of its own sub-heap relation and that relation is a congruence,
    and (c) the two collections coincide as sets.
    """
    report = Report("congruence classes vs induced submodules (order %d)" % mod.order)
    congs = congruences(mod)
    classes = {frozenset(block) for cong in congs for block in cong}
    submods = {frozenset(s) for s in all_induced_submodules(mod)}

    bad = next((c for c in sorted(classes, key=sorted) if frozenset(c) not in submods), None)
    report.add("classes_are_induced_submodules", bad is None,
               tuple(sorted(bad)) if bad else None)

    cong_set = {tuple(sorted(c, key=min)) for c in congs}
    witness = None
    for s in sorted(submods, key=sorted):
        parts = tuple(sorted(subheap_relation_classes(mod.heap, sorted(s)), key=min))
        if s not in {frozenset(p) for p in parts} or parts not in cong_set:
            witness = tuple(sorted(s))
            break
    report.add("submodules_are_congruence_classes", witness is None, witness)

    report.add("collections_coincide", classes == submods)
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
    k = qheap.order
    reps = np.array([int(np.flatnonzero(proj == i)[0]) for i in range(k)])
    composed = proj[mod.action]
    qact = composed[:, reps]
    if grid_witness(composed, qact[:, proj]) is not None:
        raise ConsistencyError("class action depends on representatives")
    qmod = TModule(mod.truss, qheap, qact, labels=qheap.labels)
    return qmod, proj
