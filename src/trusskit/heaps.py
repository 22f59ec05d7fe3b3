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
Every lattice of closed sets (sub-heaps, brace ideals) comes from ``_closed_sets``.
Every sub-heap witness comes from ``_subheap_witnesses``: one bracket gather
over a stack of member sets, read as lists.
Every subset argument, and every anchor element as ``[e]``, is read by
``_members``: sorted distinct ints, or ``ValueError`` for one off the carrier.
"""

from __future__ import annotations

import itertools

import numpy as np
import orjson

from .lawcheck import (HOLDS, ConsistencyError, Report, ValidationError, associativity_witness,
                       grid_witness, inherit)


def _entry_types(table, ndim):
    """The types of the entries of a 2-D or 3-D nested list, one Python step per entry."""
    entries = itertools.chain.from_iterable(table)
    if ndim == 3:
        entries = itertools.chain.from_iterable(entries)
    return set(map(type, entries))


def _int_table(table, what):
    """``table`` as a contiguous int64 array.

    A float, bool or string entry is a ValueError, not cast to an integer.
    Entries are checked when the table is 2-D or 3-D (callers reject other
    shapes): one orjson serializer pass in C accepts a nested list of ints,
    and a table it rejects takes the per-entry scan, which names the bad type.
    """
    try:
        arr = np.ascontiguousarray(table, dtype=np.int64)
    except (TypeError, OverflowError) as exc:
        raise ValueError("%s table must hold integers: %s" % (what, exc)) from exc
    if isinstance(table, np.ndarray):
        kinds = {table.dtype.type}
    elif arr.ndim in (2, 3):
        try:  # a bool, float, string or None writes bytes other than these
            ints = not orjson.dumps(table).translate(None, b"0123456789-,[]")
        except TypeError:  # a numpy scalar, an int beyond 64 bits, or no JSON type
            ints = False
        kinds = () if ints else _entry_types(table, arr.ndim)
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


def _members(s, n):
    """``s`` as a sorted tuple of distinct ints, each one in range(n)."""
    members = tuple(sorted({int(v) for v in s}))
    if members and (members[0] < 0 or members[-1] >= n):
        raise ValueError("subset member out of range")
    return members


def _norm_labels(labels, n):
    if labels is None:
        return None
    try:
        labels = tuple(map(str, labels))
    except TypeError as exc:
        raise ValueError("labels must be a list: %s" % exc) from exc
    if len(labels) != n:
        raise ValueError("expected %d labels, got %d" % (n, len(labels)))
    return labels


def _identity_and_inverses(table, two_sided):
    """(e, inv) of a group table: e the first element whose row, and with
    ``two_sided`` its column, is the identity map, and inv[x] a y with
    xy = e (and yx = e), read-only.  ``ValidationError`` "group.identity"
    when there is no such e, "group.inverse" at the first x with no such y."""

    def reads(v):  # [x, y]: xy = v[x, y], and yx too when two-sided
        return (table == v) & (table.T == v) if two_sided else table == v

    hits = np.flatnonzero(reads(np.arange(len(table))).all(axis=1))
    if hits.size == 0:
        raise ValidationError("group.identity", None, "no identity element")
    e = int(hits[0])
    inv = np.full(len(table), -1, dtype=np.int64)
    rows, cols = np.nonzero(reads(e))
    inv[rows] = cols
    if (inv < 0).any():
        raise ValidationError("group.inverse", (int(np.flatnonzero(inv < 0)[0]),))
    inv.setflags(write=False)
    return e, inv


class AbGroup:
    """Finite abelian group on indices 0..n-1 given by its addition table."""

    def __init__(self, add, labels=None, check=True):
        self.add = _square_table(add, "group")
        self.order = self.add.shape[0]
        if self.order == 0:
            raise ValidationError("group.empty", None, "a group needs at least one element")
        self.labels = _norm_labels(labels, self.order)
        self.zero, self.neg = _identity_and_inverses(self.add, two_sided=False)
        self._generators = None
        self._laws = None  # witnesses of the one law scan (``law_report``)
        if check:
            self.law_report().raise_invalid()

    @property
    def lawful(self):
        return self._laws == HOLDS

    def law_report(self):
        """Commutativity, inverses, and associativity by Light's test:
        (xa)y = x(ay) for a in {zero} plus ``generators`` decides it.  The
        witnesses are scanned on the first call (or handed on by ``inherit``)
        and kept: ``add`` is read-only.  Inverses hold once ``neg`` is found,
        as it is defined by x + neg(x) = zero."""
        if self._laws is None:
            mids = np.concatenate(([self.zero], self.generators))
            self._laws = (grid_witness(self.add, self.add.T),
                          associativity_witness(self.add, self.add, mids=mids), None)
        comm, assoc, _ = self._laws
        report = Report("group laws (order %d)" % self.order)
        report.add("group.commutative", comm is None, comm)
        report.add("group.associative", assoc is None, assoc)
        report.add("group.inverse", True)
        return report

    @property
    def generators(self):
        """A generating set with at most log2(order) members.

        Each pick is the smallest element outside the span so far, and the
        span grows by whole cosets of it, so it at least doubles per pick.
        Cached in a slot that ``__init__`` sets, so the attribute layout is fixed.
        """
        if self._generators is not None:
            return self._generators
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
        self._generators = np.array(gens, dtype=np.int64)
        self._generators.setflags(write=False)
        return self._generators

    def sum_of(self, a, b):
        return int(self.add[a, b])

    def neg_of(self, a):
        return int(self.neg[a])

    def element_orders(self):
        return _element_orders(self.add, self.zero)

    @classmethod
    def cyclic(cls, n):
        if n < 1:
            raise ValueError("a cyclic group needs order n >= 1, got %d" % n)
        idx = np.arange(n, dtype=np.int64)
        add = (idx[:, None] + idx[None, :]) % n
        labels = [str(k) for k in range(n)]
        return inherit(cls(add, labels=labels, check=False), True)  # Z_n is an abelian group

    def direct_sum(self, other):
        add = pair_table(self.add, other.add)
        labels = None
        if self.labels and other.labels:
            labels = ["(%s,%s)" % (a, b) for a in self.labels for b in other.labels]
        # a direct sum of abelian groups is an abelian group
        return inherit(AbGroup(add, labels=labels, check=False), self.lawful and other.lawful)

    def __eq__(self, other):  # the table decides the order and the zero
        return isinstance(other, AbGroup) and (self.add is other.add
                                               or np.array_equal(self.add, other.add))

    def __repr__(self):
        return "AbGroup(order=%d, zero=%d)" % (self.order, self.zero)


def _prime_powers(n):
    """[(p, a), ...]: each prime p dividing n, ascending, with p^a exactly dividing n."""
    out, p = [], 2
    while n > 1:
        if n % p == 0:  # a prime, as the smaller ones are divided out
            out.append((p, next(a for a in itertools.count() if n % p ** (a + 1))))
            n //= p ** out[-1][1]
        p += 1
    return out


def _element_orders(op, e):
    """The order of each element under the group table ``op`` with identity ``e``.

    With p^a exactly dividing n = |G|, the p-part of o(x) is the order of
    y = x^(n / p^a): the number of steps y -> y^p before y = e.
    """
    n, idx = len(op), np.arange(len(op))
    if (power(op, idx, n, e) != e).any():
        raise ConsistencyError("element order exceeds group order")
    orders = np.ones(n, dtype=np.int64)
    for p, a in _prime_powers(n):
        y = power(op, idx, n // p ** a, e)
        for _ in range(a):
            orders[y != e] *= p
            y = power(op, y, p, e)
    return orders


def power(op, x, k, e):
    """x^k (k >= 0, elementwise for an array x) in the group table ``op``
    with identity ``e``: repeated squaring, log k gathers."""
    out = np.full(np.shape(x), e)
    while k:
        out, x, k = op[out, x] if k & 1 else out, op[x, x], k >> 1
    return out


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

    @property
    def lawful(self):  # the retract's kept verdict; the empty heap's laws hold vacuously
        return self.order == 0 or self.retract.lawful

    def _require_nonempty(self, op):
        if self.order == 0:
            raise ValueError("%s needs an element; the empty heap has none" % op)

    def bracket(self, a, b, c):
        return int(self.bracket_arrays(a, b, c))

    def bracket_arrays(self, a, b, c):
        self._require_nonempty("bracket")
        add, neg = self.retract.add, self.retract.neg
        return add[add[a, neg[b]], c]

    def label_of(self, a):
        return self.labels[a] if self.labels else str(a)

    def __eq__(self, other):  # a heap is its basepoint's retract (None when empty)
        return isinstance(other, Heap) and self.retract == other.retract

    def __repr__(self):
        return "Heap(order=%d, basepoint=%s)" % (self.order, self.basepoint)


def heap_from_group(g):
    """The heap with bracket [a,b,c] = a - b + c computed in ``g``."""
    return Heap(g)


def retract(h, e):
    """The group [-, e, -] on the heap's carrier, with neutral element ``e``."""
    h._require_nonempty("retract")
    (e,) = _members([e], h.order)
    if e == h.basepoint:
        return h.retract
    idx = np.arange(h.order)
    add = h.bracket_arrays(idx[:, None], e, idx[None, :])
    # x -> [x, basepoint, e] is an isomorphism onto it from the basepoint's retract
    return inherit(AbGroup(add, labels=h.labels, check=False), h.retract.lawful)


def heap_generators(h):
    """The basepoint and its retract's generators: heap morphisms agreeing there agree."""
    return np.concatenate(([h.basepoint], h.retract.generators))


def translate(h, e, e2):
    """The bijection a -> [a, e, e2]; an isomorphism of the e- and e2-retracts."""
    h._require_nonempty("translate")
    (e,), (e2,) = _members([e], h.order), _members([e2], h.order)
    return h.bracket_arrays(np.arange(h.order), e, e2)


def heap_law_report(h):
    """Mal'cev identities of the bracket plus the laws of its retract.

    The bracket is stored as [a, b, c] = a - b + c in a retract, and a
    ternary operation of that form is an abelian heap exactly when the
    retract is an abelian group: heap associativity, [a, b, c] = [c, b, a]
    and the Mal'cev identities [a, a, b] = b = [b, a, a] are then group
    identities.  So the group law report decides the heap laws exhaustively;
    the Mal'cev grids (n^2) are scanned, for their witnesses, only when a
    group law fails.
    """
    n = h.order
    report = Report("heap laws (order %d)" % n)
    if n == 0:
        report.note("empty heap: laws hold vacuously")
        return report
    group = h.retract.law_report()
    rows, cols = np.arange(n)[:, None], np.arange(n)[None, :]
    for name, mid, want in (("heap.malcev", rows, cols), ("heap.malcev_right", cols, rows)):
        w = None if group.ok else grid_witness(h.bracket_arrays(rows, mid, cols), want)
        report.add(name, w is None, w)
    return report.extend(group)


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


def morphism_witness(rows, dom, cod, at=None):
    """First failing (i, x, e, g) of row i of ``rows`` read as a map dom -> cod.

    Row i is a heap morphism f exactly when f([x, e, g]) = [f(x), f(e), f(g)]
    for every x and every g in ``dom.retract.generators``, where e is the
    basepoint of dom: the identity says f is additive from the e-retract of
    dom to the f(e)-retract of cod, first on x + g, then (by induction) on
    the whole group the generators span; and an additive map of retracts is
    a heap morphism (Brzezinski, Trans. AMS 372 (2019)).  So each row costs
    n * r comparisons, r <= log2 n, instead of n^3.  Returns None when every
    row is a morphism.

    ``at`` (``heap_generators`` of the heap indexing the rows) decides every
    row once each column i -> rows[i, x] is a heap morphism: row [a, b, c]
    is then [row a, row b, row c] pointwise, and morphisms are closed under
    that.  A failure there reruns the full scan, for the first witness.
    """
    if dom.order == 0:
        return None
    rows = np.atleast_2d(rows)
    picked = rows if at is None else rows[np.asarray(at)]
    e, gens = dom.basepoint, dom.retract.generators
    lhs = picked[:, dom.retract.add[:, gens]]
    rhs = cod.bracket_arrays(picked[:, :, None], picked[:, e][:, None, None],
                             picked[:, None, gens])
    w = grid_witness(lhs, rhs)
    if w is not None and at is not None:
        return morphism_witness(rows, dom, cod)
    return None if w is None else (w[0], w[1], e, int(gens[w[2]]))


def subheap_witness(h, members):
    """First (a, b, c) over ``members``, in sorted order, with [a, b, c] outside
    them, or None on a sub-heap: ``_subheap_witnesses`` of the one set.  ``h``
    is a heap or a truss (``order``, ``bracket_arrays``)."""
    members = _members(members, h.order)
    return _subheap_witnesses(h, [members])[0] if members else None


def _subheap_witnesses(h, sets):
    """``subheap_witness`` of each row of ``sets``, a (k, s) stack of sorted
    member sets, s > 0.  A nonempty S is a sub-heap iff [q, x, y] = q - x + y
    lies in S for all x, y in S, q = min S: then T = S - q holds 0 and u - t
    for all t, u in T, so -t and u + t, so T is a subgroup and S its coset.
    So the |S|^2 slab a = q decides, and as q comes first, its first entry
    outside S, row-major, is the lexicographically first witness over S^3.
    One (k, s, s) gather serves every set; lists then beat a membership mask
    on small sets (a few numpy calls, one set lookup per entry)."""
    sets = np.asarray(sets, dtype=np.int64)
    grids = h.bracket_arrays(sets[:, :1, None], sets[:, :, None], sets[:, None, :])
    out = []
    for row, grid in zip(sets.tolist(), grids.reshape(len(sets), -1).tolist()):
        inside = set(row)
        if inside.issuperset(grid):
            out.append(None)
        else:  # the first entry outside is the first one holding its value
            outside = next(itertools.filterfalse(inside.__contains__, grid))
            x, y = divmod(grid.index(outside), len(row))
            out.append((row[0], row[x], row[y]))
    return out


def subheap_relation_classes(h, s):
    """Partition of the carrier by x ~ y  iff  [x, y, p] lands in s for some p in s.

    ``s`` is a list of members; one that is no sub-heap raises
    ``ValidationError("subheap.closure")`` with its ``subheap_witness``.
    The class of x is the coset {[x, s0, p] : p in s}, so the classes are
    the distinct rows of one |carrier| x |s| bracket array, ordered by
    smallest member.  On a lawful heap (the kept verdict, else the retract's
    scan) they decide the sub-heap: s is the row of s0, and once the rows
    partition the carrier the row of each s in s holds s, so it is s, and
    s - s0 + p lies in s for all p.  So only a failed partition, or a heap
    whose laws fail, asks ``subheap_witness``; without a witness it raises
    ``ConsistencyError``.
    """
    members = _members(s, h.order)
    if not members:
        raise ValueError("quotient by empty sub-heap undefined")
    lawful = h.lawful or h.retract.law_report().ok  # classes are cosets by the group laws
    sarr = np.array(members)
    rows = np.sort(h.bracket_arrays(np.arange(h.order)[:, None], sarr[0], sarr[None, :]), axis=1)
    proj = np.unique(rows[:, 0], return_inverse=True)[1]  # classes by smallest member
    classes, w = induced_table(proj, rows, axes=(0,))  # w: a row is not its class
    if not (lawful and w is None
            and np.array_equal(np.sort(classes, axis=None), np.arange(h.order))):
        if (w := subheap_witness(h, members)) is not None:
            raise ValidationError("subheap.closure", w)
        raise ConsistencyError("sub-heap relation classes "
                               + ("overlap" if lawful else "need a lawful heap"))
    return [tuple(c) for c in classes.tolist()]


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
    close, seeds = _closer(h, e, maps), _members(seeds, h.order)
    return tuple(np.flatnonzero(close(np.arange(h.order) == e, seeds)).tolist())


def _closed_sets(close, bottom):
    """Every set ``close(inside, seeds)`` reaches from the mask ``bottom``,
    sorted by size, then members: the principal closures of ``bottom`` with
    each element, then their joins until no new set appears (R. Freese,
    "Computing congruences efficiently", Algebra Universalis 59 (2008))."""
    found = {p.tobytes(): p for p in (close(bottom, [a]) for a in range(bottom.size))}
    principal = frontier = list(found.values())
    while frontier:
        joins = (close(x, np.flatnonzero(p & ~x)) for x in frontier for p in principal
                 if (p & ~x).any())
        frontier = [found.setdefault(j.tobytes(), j) for j in joins if j.tobytes() not in found]
    sets = (tuple(np.flatnonzero(m).tolist()) for m in found.values())
    return sorted(sets, key=lambda s: (len(s), s))


def closed_subheaps(h, e, maps):
    """Every closed sub-heap through e (``subheap_closure``), sorted by size,
    then members, by ``_closed_sets`` from {e}.  A heap has a Mal'cev term, so
    a congruence is fixed by its class through e: one set per congruence."""
    return _closed_sets(_closer(h, e, maps), np.arange(h.order) == e)


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
    """Quotient heap on the ~_s classes of the sub-heap with members ``s``, plus the projection.

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
    # a homomorphic image of a lawful group is lawful; any other quotient is scanned
    qheap = Heap(inherit(AbGroup(addq, labels=labels, check=False), h.retract.lawful,
                         AbGroup.law_report))
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
