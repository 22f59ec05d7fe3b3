"""Finite abelian groups and abelian heaps.

A heap is a set with a ternary bracket satisfying associativity,
the Mal'cev identities [a,a,b] = b = [b,a,a] and, in the abelian case,
[a,b,c] = [c,b,a].  Freezing the middle slot at a basepoint e turns a heap
into an abelian group (its e-retract, with neutral element e) and the two
views are interchangeable: [a,b,c] = a - b + c in any retract.

Canonical storage is the retract plus its basepoint.  That makes every
constructed heap lawful by construction, keeps memory at O(n^2) instead of
the n^3 bracket table, and leaves raw ternary tables to a single validating
entry point, ``validate_ternary_table``.  A heap morphism is an additive map
of retracts, so ``morphism_witness`` decides it on a generating set; every
distributivity-type law reduces to that check and runs exhaustively.

Every quotient (heaps, trusses, modules, groups) and congruence test goes
through ``induced_table``: the table a projection induces on its classes,
read at their smallest members, and the first cell where it is ill-defined.
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

from .lawcheck import (
    ConsistencyError,
    Report,
    ValidationError,
    associativity_witness,
    grid_witness,
)


def _int_table(table, what):
    """``table`` as a contiguous int64 array.

    A float, bool or string entry is a ValueError, not cast to an integer.
    Entries are checked when the table is 2-D or 3-D; the callers reject any
    other shape.
    """
    try:
        arr = np.ascontiguousarray(table, dtype=np.int64)
    except (TypeError, OverflowError) as exc:
        raise ValueError("%s table must hold integers: %s" % (what, exc)) from exc
    if isinstance(table, np.ndarray):
        kinds = {table.dtype.type}
    elif arr.ndim in (2, 3):
        entries = itertools.chain.from_iterable(table)
        if arr.ndim == 3:
            entries = itertools.chain.from_iterable(entries)
        kinds = set(map(type, entries))
    else:
        kinds = ()
    bad = sorted(k.__name__ for k in kinds
                 if issubclass(k, bool) or not issubclass(k, (int, np.integer)))
    if bad and arr.size:
        raise ValueError("%s table must hold integers: found %s" % (what, bad[0]))
    return arr


def _square_table(table, what):
    arr = _int_table(table, what)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError("%s.shape" % what, None, "%s table must be square" % what)
    n = arr.shape[0]
    if n and ((arr < 0).any() or (arr >= n).any()):
        bad = np.argwhere((arr < 0) | (arr >= n))[0]
        raise ValidationError("%s.closure" % what, tuple(bad))
    arr.setflags(write=False)
    return arr


def _norm_labels(labels, n):
    if labels is None:
        return None
    try:
        labels = tuple(str(x) for x in labels)
    except TypeError as exc:
        raise ValueError("labels must be a list: %s" % exc) from exc
    if len(labels) != n:
        raise ValueError("expected %d labels, got %d" % (n, len(labels)))
    return labels


class AbGroup:
    """Finite abelian group on indices 0..n-1 given by its addition table."""

    def __init__(self, add, labels=None, check=True):
        self.add = _square_table(add, "group")
        self.order = self.add.shape[0]
        if self.order == 0:
            raise ValidationError("group.empty", None, "a group needs at least one element")
        self.labels = _norm_labels(labels, self.order)
        self.zero = self._find_zero()
        self.neg = self._find_neg()
        if check:
            self.law_report().raise_invalid()

    def _find_zero(self):
        hits = np.flatnonzero((self.add == np.arange(self.order)).all(axis=1))
        if hits.size == 0:
            raise ValidationError("group.identity", None, "no identity element")
        return int(hits[0])

    def _find_neg(self):
        neg = np.full(self.order, -1, dtype=np.int64)
        rows, cols = np.nonzero(self.add == self.zero)
        neg[rows] = cols
        if (neg < 0).any():
            a = int(np.flatnonzero(neg < 0)[0])
            raise ValidationError("group.inverse", (a,))
        neg.setflags(write=False)
        return neg

    def law_report(self):
        """Commutativity, inverses, and associativity by Light's test:
        (xa)y = x(ay) for a in {zero} plus ``generators`` decides it."""
        report = Report("group laws (order %d)" % self.order)
        w = grid_witness(self.add, self.add.T)
        report.add("group.commutative", w is None, w)
        w = associativity_witness(self.add, self.add,
                                  mids=np.concatenate(([self.zero], self.generators)))
        report.add("group.associative", w is None, w)
        report.add(
            "group.inverse",
            bool((self.add[np.arange(self.order), self.neg] == self.zero).all()),
        )
        return report

    @cached_property
    def generators(self):
        """A generating set with at most log2(order) members.

        Each pick is the smallest element outside the span so far, and the
        span grows by whole cosets of it, so it at least doubles per pick.
        """
        in_span = np.zeros(self.order, dtype=bool)
        in_span[self.zero] = True
        span = np.array([self.zero])
        gens = []
        while not in_span.all():
            g = int(np.argmin(in_span))
            gens.append(g)
            parts, coset = [span], self.add[span, g]
            while not in_span[coset[0]]:
                in_span[coset] = True
                parts.append(coset)
                coset = self.add[coset, g]
            span = np.concatenate(parts)
        gens = np.array(gens, dtype=np.int64)
        gens.setflags(write=False)
        return gens

    def sum_of(self, a, b):
        return int(self.add[a, b])

    def neg_of(self, a):
        return int(self.neg[a])

    def element_orders(self):
        return _element_orders(self.add, self.zero)

    @classmethod
    def cyclic(cls, n, labels=None):
        if n < 1:
            raise ValueError("a cyclic group needs order n >= 1, got %d" % n)
        idx = np.arange(n, dtype=np.int64)
        add = (idx[:, None] + idx[None, :]) % n
        if labels is None:
            labels = [str(k) for k in range(n)]
        return cls(add, labels=labels, check=False)

    def direct_sum(self, other):
        add = pair_table(self.add, other.add)
        labels = None
        if self.labels and other.labels:
            labels = ["(%s,%s)" % (a, b) for a in self.labels for b in other.labels]
        return AbGroup(add, labels=labels, check=False)

    def __eq__(self, other):
        return (
            isinstance(other, AbGroup)
            and self.order == other.order
            and self.zero == other.zero
            and np.array_equal(self.add, other.add)
        )

    def __repr__(self):
        return "AbGroup(order=%d, zero=%d)" % (self.order, self.zero)


def _element_orders(op, e):
    """The order of each element under the group table ``op`` with identity ``e``."""
    n = len(op)
    orders, cur = np.zeros(n, dtype=np.int64), np.full(n, e)
    for k in range(1, n + 1):
        cur = op[cur, np.arange(n)]  # x^k
        orders[(orders == 0) & (cur == e)] = k
        if orders.all():
            return orders
    raise ConsistencyError("element order exceeds group order")


def pair_table(a, b):
    """The componentwise table ((i, x), (j, y)) -> (a[i, j], b[x, y]) on pairs,
    the pair (u, v) at index u * k + v where b's values lie in range(k),
    k = b.shape[1].  Serves group tables and module actions alike."""
    k = b.shape[1]
    return (a[:, None, :, None] * k + b[None, :, None, :]).reshape(len(a) * len(b), -1)


class Heap:
    """Finite abelian heap, stored as a retract group plus its basepoint.

    The empty heap is representable (``Heap.empty()``); every operation that
    needs an element rejects it explicitly.
    """

    def __init__(self, retract=None, labels=None):
        if retract is None:
            self.retract = None
            self.basepoint = None
            self.order = 0
            self.labels = None
            return
        self.retract = retract
        self.basepoint = retract.zero
        self.order = retract.order
        self.labels = _norm_labels(labels, self.order) or retract.labels

    @classmethod
    def empty(cls):
        return cls(None)

    def _require_nonempty(self, op):
        if self.order == 0:
            raise ValueError("%s needs an element; the empty heap has none" % op)

    def bracket(self, a, b, c):
        self._require_nonempty("bracket")
        add, neg = self.retract.add, self.retract.neg
        return int(add[add[a, neg[b]], c])

    def bracket_arrays(self, a, b, c):
        self._require_nonempty("bracket")
        add, neg = self.retract.add, self.retract.neg
        return add[add[a, neg[b]], c]

    def label_of(self, a):
        return self.labels[a] if self.labels else str(a)

    def __eq__(self, other):
        if not isinstance(other, Heap) or self.order != other.order:
            return False
        if self.order == 0:
            return True
        return self.basepoint == other.basepoint and np.array_equal(
            self.retract.add, other.retract.add
        )

    def __repr__(self):
        return "Heap(order=%d, basepoint=%s)" % (self.order, self.basepoint)


def heap_from_group(g):
    """The heap with bracket [a,b,c] = a - b + c computed in ``g``."""
    return Heap(g)


def retract(h, e):
    """The group [-, e, -] on the heap's carrier, with neutral element ``e``."""
    h._require_nonempty("retract")
    if e == h.basepoint:
        return h.retract
    idx = np.arange(h.order)
    add = h.bracket_arrays(idx[:, None], e, idx[None, :])
    # Lawful for any e by the heap axioms; revalidated by the property suite.
    return AbGroup(add, labels=h.labels, check=False)


def heap_generators(h):
    """The basepoint and its retract's generators: heap morphisms agreeing there agree."""
    return np.concatenate(([h.basepoint], h.retract.generators))


def translate(h, e, e2):
    """The bijection a -> [a, e, e2]; an isomorphism of the e- and e2-retracts."""
    h._require_nonempty("translate")
    return h.bracket_arrays(np.arange(h.order), e, e2)


def heap_law_report(h):
    """Mal'cev identities of the bracket plus the laws of its retract.

    The bracket is stored as [a, b, c] = a - b + c in a retract, and a
    ternary operation of that form is an abelian heap exactly when the
    retract is an abelian group: heap associativity and [a, b, c] = [c, b, a]
    are then group identities.  So the group law report decides the heap
    laws exhaustively; the Mal'cev checks (n^2) guard the stored negation.
    """
    n = h.order
    report = Report("heap laws (order %d)" % n)
    if n == 0:
        report.note("empty heap: laws hold vacuously")
        return report
    br = h.bracket_arrays
    idx = np.arange(n)
    w = grid_witness(br(idx[:, None], idx[:, None], idx[None, :]), idx[None, :])
    report.add("heap.malcev", w is None, w)
    w = grid_witness(br(idx[:, None], idx[None, :], idx[None, :]), idx[:, None])
    report.add("heap.malcev_right", w is None, w)
    return report.extend(h.retract.law_report())


def validate_ternary_table(table):
    """Accept a raw n*n*n bracket table as a heap, or fail with a witness.

    A table is an abelian heap exactly when it satisfies the Mal'cev
    identities, its 0-retract a + b := t(a, 0, b) is an abelian group, and
    t(a, b, c) = a - b + c in that group.  These are checked in that order
    (n^2, the group laws, n^3), so every table is checked exhaustively; on
    success the rebuilt heap is returned.
    """
    t = _int_table(table, "ternary")
    if t.ndim != 3 or len(set(t.shape)) != 1:
        raise ValidationError("ternary.shape", None, "expected an n*n*n table")
    n = t.shape[0]
    if n == 0:
        return Heap.empty()
    if (t < 0).any() or (t >= n).any():
        bad = np.argwhere((t < 0) | (t >= n))[0]
        raise ValidationError("ternary.closure", tuple(bad))

    idx = np.arange(n)
    w = grid_witness(t[idx[:, None], idx[:, None], idx[None, :]], idx[None, :])
    if w is not None:
        raise ValidationError("ternary.malcev", (w[0], w[0], w[1]))
    w = grid_witness(t[idx[:, None], idx[None, :], idx[None, :]], idx[:, None])
    if w is not None:
        raise ValidationError("ternary.malcev", (w[0], w[1], w[1]))

    heap = Heap(AbGroup(t[:, 0, :]))
    rebuilt = heap.bracket_arrays(idx[:, None, None], idx[None, :, None], idx[None, None, :])
    w = grid_witness(t, rebuilt)
    if w is not None:
        raise ValidationError("ternary.retract", w, "table disagrees with its 0-retract rebuild")
    return heap


def morphism_witness(rows, dom, cod):
    """First failing (i, x, e, g) of row i of ``rows`` read as a map dom -> cod.

    Row i is a heap morphism f exactly when f([x, e, g]) = [f(x), f(e), f(g)]
    for every x and every g in ``dom.retract.generators``, where e is the
    basepoint of dom: the identity says f is additive from the e-retract of
    dom to the f(e)-retract of cod, first on x + g, then (by induction) on
    the whole group the generators span; and an additive map of retracts is
    a heap morphism (Brzezinski, Trans. AMS 372 (2019)).  So each row costs
    n * r comparisons, r <= log2 n, instead of n^3.  Returns None when every
    row is a morphism.
    """
    if dom.order == 0:
        return None
    rows = np.atleast_2d(rows)
    e, gens = dom.basepoint, dom.retract.generators
    lhs = rows[:, dom.retract.add[:, gens]]
    rhs = cod.bracket_arrays(rows[:, :, None], rows[:, e][:, None, None], rows[:, None, gens])
    w = grid_witness(lhs, rhs)
    return None if w is None else (w[0], w[1], e, int(gens[w[2]]))


def subheap_witness(h, members):
    """First (a, b, c) over ``members``, in their order, with [a, b, c] outside them.

    Returns None when the members form a sub-heap.  A nonempty S is a
    sub-heap iff [s0, x, y] = s0 - x + y lies in S for all x, y in S: then
    T = S - s0 holds 0 and u - t for all t, u in T, so -t and u + t, so T is
    a subgroup and S its coset.  So the |S|^2 slab a = s0 decides, and as
    s0 comes first, its first failure is the lexicographically first
    witness over S^3.  ``h`` is a heap or a truss (``order``, ``bracket_arrays``).
    """
    s = np.asarray(members, dtype=np.int64)
    if s.size == 0:
        return None
    mask = np.zeros(h.order, dtype=bool)
    mask[s] = True
    w = grid_witness(mask[h.bracket_arrays(s[0], s[:, None], s[None, :])], True)
    return None if w is None else (int(s[0]), int(s[w[0]]), int(s[w[1]]))


class SubHeap:
    """A subset of a heap closed under the bracket (``subheap_witness``).  May be empty."""

    def __init__(self, parent, members, check=True):
        self.parent = parent
        members = sorted({int(m) for m in members})
        if members and (members[0] < 0 or members[-1] >= parent.order):
            raise ValueError("sub-heap member out of range")
        self.members = tuple(members)
        w = subheap_witness(parent, self.members) if check else None
        if w is not None:
            raise ValidationError("subheap.closure", w)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __repr__(self):
        return "SubHeap(%s)" % (self.members,)


def subheap_relation_classes(h, s):
    """Partition of the carrier by x ~ y  iff  [x, y, p] lands in s for some p in s.

    The class of x is the coset {[x, s0, p] : p in s}, so the classes are
    the distinct rows of one |carrier| x |s| bracket array, ordered by
    smallest member.  s itself is one class and every class has cardinality
    |s|; a violation raises ``ConsistencyError`` since it cannot happen for a
    genuine sub-heap.
    """
    members = s.members if isinstance(s, SubHeap) else SubHeap(h, s).members
    if not members:
        raise ValueError("quotient by empty sub-heap undefined")
    sarr = np.array(members)
    rows = np.sort(h.bracket_arrays(np.arange(h.order)[:, None], sarr[0], sarr[None, :]), axis=1)
    if (rows[:, 1:] == rows[:, :-1]).any():
        raise ConsistencyError("sub-heap relation classes are not equal-size cosets")
    proj = np.unique(rows[:, 0], return_inverse=True)[1]  # classes by smallest member
    classes, w = induced_table(proj, rows, axes=(0,))
    if w is not None or not np.array_equal(np.sort(classes, axis=None), np.arange(h.order)):
        raise ConsistencyError("sub-heap relation classes overlap")  # a row is not its class
    classes = [tuple(int(v) for v in c) for c in classes]
    if members not in classes:
        raise ConsistencyError("sub-heap relation classes are not equal-size cosets")
    return classes


def _closer(h, e, maps):
    """close(inside, seeds): the closure (``subheap_closure``) of a closed
    mask ``inside`` and ``seeds``.  A round adds the sums and images of the
    new members only, as older pairs were summed in an earlier round."""
    add = retract(h, e).add
    rows = h.bracket_arrays(maps, maps[:, e][:, None], e)
    induced = np.array(list({r.tobytes(): r for r in rows}.values())).reshape(-1, h.order)

    def close(inside, seeds):
        inside, reached = inside.copy(), np.zeros(h.order, dtype=bool)
        reached[np.asarray(seeds, dtype=np.int64)] = True
        while (new := np.flatnonzero(reached & ~inside)).size:
            inside[new] = True
            if inside.all():
                break
            reached[add[np.ix_(new, np.flatnonzero(inside))]] = True
            reached[induced[:, new]] = True
        return inside

    return close


def subheap_closure(h, e, maps, seeds=()):
    """The smallest sub-heap S containing e and ``seeds`` that is closed under
    x -> [f(x), f(e), e] for every row f of the k x n table ``maps``.

    S is a sub-heap iff [s, e, s'] = s - e + s' lies in S for all s, s' in S
    (``subheap_witness``), so each round adds those sums and the images until
    a fixed point.  With a module's action as ``maps``, S is the class
    through e of the least congruence joining e to the seeds.
    """
    return tuple(np.flatnonzero(_closer(h, e, maps)(np.arange(h.order) == e, seeds)).tolist())


def closed_subheaps(h, e, maps):
    """Every closed sub-heap through e (``subheap_closure``), sorted by size,
    then members: the principal closures of {e, a}, then their joins until
    no new set appears (R. Freese, "Computing congruences efficiently",
    Algebra Universalis 59 (2008)).  A heap has a Mal'cev term, so a
    congruence is fixed by its class through e: one set per congruence.
    """
    close, bottom = _closer(h, e, maps), np.arange(h.order) == e
    found = {p.tobytes(): p for p in (close(bottom, [a]) for a in range(h.order))}
    principal = frontier = list(found.values())
    while frontier:
        joins = (close(x, np.flatnonzero(p & ~x)) for x in frontier for p in principal
                 if (p & ~x).any())
        frontier = [found.setdefault(j.tobytes(), j) for j in joins if j.tobytes() not in found]
    sets = (tuple(np.flatnonzero(m).tolist()) for m in found.values())
    return sorted(sets, key=lambda s: (len(s), s))


def induced_table(proj, values, axes=None):
    """``(table, witness)``: the table ``values`` induces on the classes of
    ``proj`` (class indices 0..k-1, ordered by smallest member) along
    ``axes`` (default: all), read at the smallest members.  ``witness`` is
    the first cell, row-major, where ``values`` differs from ``table`` read
    back through ``proj``, else None.  With ``values = proj[op]`` it asks
    whether the classes are a congruence of ``op`` (of a module action:
    axis 1); with a map f, whether f factors through the classes.
    """
    reps = np.unique(proj, return_index=True)[1]
    table = folded = values
    for a in range(values.ndim) if axes is None else axes:
        table = table.take(reps, axis=a)
        folded = folded.take(reps, axis=a).take(proj, axis=a)
    return table, grid_witness(values, folded)


def quotient_heap(h, s):
    """Quotient heap on the ~_s classes, plus the projection map.

    Returns ``(heap, projection)``, projection[x] the class index of x,
    classes ordered by smallest member.  The quotient's retract is the
    addition ``induced_table`` reads off the basepoint's retract: heap
    congruences are the congruences of +, as -b is a multiple of b.
    """
    classes = subheap_relation_classes(h, s)
    proj = np.empty(h.order, dtype=np.int64)
    proj[np.array(classes)] = np.arange(len(classes))[:, None]  # equal-size cosets
    addq, w = induced_table(proj, proj[h.retract.add])
    if w is not None:
        raise ConsistencyError("quotient heap bracket is ill-defined")
    labels = ["{%s}" % ",".join(h.label_of(m) for m in cls) for cls in classes]
    qheap = Heap(AbGroup(addq, labels=labels))
    if qheap.basepoint != proj[h.basepoint]:
        raise ConsistencyError("quotient basepoint is not the basepoint class")
    proj.setflags(write=False)
    return qheap, proj


def product_heap(h1, h2):
    """Cartesian product heap; pair (a, b) gets index a * h2.order + b."""
    h1._require_nonempty("product")
    h2._require_nonempty("product")
    group = h1.retract.direct_sum(h2.retract)
    labels = [
        "(%s,%s)" % (h1.label_of(a), h2.label_of(b))
        for a in range(h1.order)
        for b in range(h2.order)
    ]
    return Heap(group, labels=labels)
