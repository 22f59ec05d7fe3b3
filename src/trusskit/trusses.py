"""Trusses: abelian heaps with an associative, bracket-distributive product.

Covers two-sided and left trusses, paragons (the congruence classes of a
truss, listed through the basepoint by ``paragons``), ideals, normal
paragons, quotients, unit sets, and the reports that decide when the units
of a ring-truss form a congruence class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .groups import FiniteGroup, abelian_coordinates, map_from_basis_images
from .heaps import (
    AbGroup,
    SubHeap,
    closed_subheaps,
    heap_from_group,
    heap_generators,
    induced_table,
    morphism_witness,
    quotient_heap,
    retract,
    subheap_witness,
    _norm_labels,
    _square_table,
)
from .lawcheck import (
    ConsistencyError,
    Report,
    ValidationError,
    associativity_witness,
    grid_witness,
)

TWO_SIDED = "two-sided"
LEFT = "left"


class Truss:
    """Heap plus multiplication table; ``sided`` is "two-sided" or "left".

    Laws are verified exhaustively at construction (``truss_law_report``);
    the identity and absorber are detected by table scan.
    """

    def __init__(self, heap, mul, sided=TWO_SIDED, labels=None, check=True):
        if sided not in (TWO_SIDED, LEFT):
            raise ValueError("sided must be %r or %r" % (TWO_SIDED, LEFT))
        self.heap = heap
        self.mul = _square_table(mul, "truss")
        if self.mul.shape[0] != heap.order:
            raise ValueError("multiplication table does not match the heap order")
        self.sided = sided
        self.order = heap.order
        self.labels = _norm_labels(labels, self.order) or heap.labels
        self.identity = self._scan_identity()
        self.absorber = self._scan_absorber()
        if check:
            truss_law_report(self).raise_invalid()

    def _scan_identity(self):
        idx = np.arange(self.order)
        hits = np.flatnonzero(
            (self.mul == idx).all(axis=1) & (self.mul.T == idx).all(axis=1)
        )
        return int(hits[0]) if hits.size else None

    def _scan_absorber(self):
        hits = np.flatnonzero(
            (self.mul == np.arange(self.order)[:, None]).all(axis=1)
            & (self.mul.T == np.arange(self.order)[:, None]).all(axis=1)
        )
        if hits.size > 1:
            raise ConsistencyError("more than one absorber; tables are inconsistent")
        return int(hits[0]) if hits.size else None

    def bracket(self, a, b, c):
        return self.heap.bracket(a, b, c)

    def bracket_arrays(self, a, b, c):
        return self.heap.bracket_arrays(a, b, c)

    def label_of(self, a):
        return self.labels[a] if self.labels else str(a)

    def __eq__(self, other):
        return (
            isinstance(other, Truss)
            and self.sided == other.sided
            and self.heap == other.heap
            and np.array_equal(self.mul, other.mul)
        )

    def __repr__(self):
        return "Truss(order=%d, sided=%s, identity=%s, absorber=%s)" % (
            self.order,
            self.sided,
            self.identity,
            self.absorber,
        )


def truss_law_report(t, seed=None):
    """Associativity and distributivity over the bracket, with witnesses.

    Every law is checked exhaustively.  Left distributivity says that each
    row x -> ax of ``mul`` is a heap morphism, right distributivity the same
    of each column; ``morphism_witness`` decides both, and a failure is the
    law instance (a, x, e, g): a[x, e, g] != [ax, ae, ag] (mirrored for the
    right law).  Once left distributivity holds, x -> s(tx) and x -> (st)x
    are heap morphisms, so associativity needs x only at the basepoint and
    the retract's generators (``associativity_witness``).  For left trusses
    the right law is skipped and noted.  ``seed`` is ignored.
    """
    n = t.order
    report = Report("truss laws (order %d)" % n)
    if n == 0:
        report.note("empty truss: laws hold vacuously")
        return report
    mul = t.mul
    left = morphism_witness(mul, t.heap, t.heap)
    w = associativity_witness(mul, mul, lasts=None if left else heap_generators(t.heap))
    report.add("truss.associative", w is None, w)
    report.add("truss.left_distributive", left is None, left)
    if t.sided == TWO_SIDED:
        w = morphism_witness(mul.T, t.heap, t.heap)
        report.add("truss.right_distributive", w is None, w)
    else:
        report.note("right distributivity skipped (left truss)")
    idx = np.arange(n)
    if t.identity is not None:
        report.add("truss.identity_row", bool((mul[t.identity] == idx).all()))
    if t.absorber is not None:
        report.add("truss.absorber_row", bool((mul[t.absorber] == t.absorber).all()))
    return report


def truss_from_ring(add, mul, labels=None, sided=TWO_SIDED):
    """The truss of a ring: same multiplication, addition replaced by its heap.

    Validates the ring laws exhaustively.  A map is additive exactly when it
    is a heap morphism fixing zero, so ring distributivity is the truss
    distributivity of ``morphism_witness`` plus "the ring zero is the
    absorber"; a failure is reported as a ring instance (a, b, c) of
    a(b + c) != ab + ac (or its mirror).  Associativity as in ``truss_law_report``.
    """
    if not isinstance(add, AbGroup):
        add = AbGroup(add)
    mul = _square_table(mul, "ring")
    heap = heap_from_group(add)
    left = morphism_witness(mul, heap, heap)
    w = associativity_witness(mul, mul, lasts=None if left else heap_generators(heap))
    if w is not None:
        raise ValidationError("ring.associative", w)
    zero = add.zero
    for law, rows in (("ring.left_distributive", mul), ("ring.right_distributive", mul.T)):
        moved = np.flatnonzero(rows[:, zero] != zero)
        if moved.size:
            raise ValidationError(law, (moved[0], zero, zero))
        w = left if rows is mul else morphism_witness(rows, heap, heap)
        if w is not None:
            raise ValidationError(law, (w[0], w[1], w[3]))
    return Truss(heap, mul, sided=sided, labels=labels, check=False)


def lambda_q(t, x, p, q):
    """[xp, xq, q]: left translate of p by x relative to q."""
    return t.bracket(int(t.mul[x, p]), int(t.mul[x, q]), q)


def rho_q(t, p, x, q):
    """[px, qx, q]: right translate of p by x relative to q."""
    return t.bracket(int(t.mul[p, x]), int(t.mul[q, x]), q)


class Paragon:
    """A verified sub-heap closed under the relative translates.

    ``kind`` is "left", "right", "two-sided" or "ideal".  Closure holds for
    every q in the member set, not only the stored witness: on a sub-heap,
    closure at one q implies it at every q (see ``is_paragon``).
    """

    def __init__(self, parent, members, kind, witness=None):
        self.parent = parent
        self.members = tuple(sorted(int(m) for m in members))
        self.kind = kind
        self.witness = self.members[0] if witness is None else int(witness)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __repr__(self):
        return "Paragon(kind=%s, members=%s)" % (self.kind, self.members)


@dataclass
class ParagonReport:
    """Outcome of classifying a subset of a truss.

    ``kind`` is the strongest classification ("none" if not even a sub-heap,
    or a sub-heap with no closure).  ``failures`` maps the laws that failed
    to their first witnesses.
    """

    kind: str
    paragon: Paragon | None = None
    failures: dict = field(default_factory=dict)

    @property
    def is_paragon(self):
        return self.kind in ("two-sided", "ideal")


def is_paragon(t, members):
    """Classify a subset: ideal > two-sided > left/right paragon > none.

    The sub-heap test is ``subheap_witness`` (|P|^2 brackets, not |P|^3).
    After it, closure is tested at q = members[0] only (n |P| instead of
    |P|^2 n): lambda_q'(x, p) = [lambda_q(x, p), lambda_q(x, q'), q'] holds
    in any heap, so on a sub-heap one q decides every q (rho alike).
    For left trusses only lambda closure applies: kinds "left" and "none".
    """
    members = tuple(sorted({int(m) for m in members}))
    if not members:
        raise ValueError("the empty set cannot be classified; a paragon is nonempty")
    n = t.order
    if members[0] < 0 or members[-1] >= n:
        raise ValueError("subset member out of range")
    w = subheap_witness(t, members)
    if w is not None:
        return ParagonReport("none", failures={"subheap": w})
    sarr = np.array(members)
    mask = np.zeros(n, dtype=bool)
    mask[sarr] = True
    failures = {}

    idx, q = np.arange(n), members[0]
    lam = t.bracket_arrays(t.mul[idx[:, None], sarr[None, :]], t.mul[idx, q][:, None], q)
    w = grid_witness(mask[lam], True)
    lam_ok = w is None
    if not lam_ok:
        failures["lambda"] = (q, w[0], members[w[1]])
    rho_ok = False
    if t.sided == TWO_SIDED:
        rho = t.bracket_arrays(t.mul[sarr[:, None], idx[None, :]], t.mul[q, idx][None, :], q)
        w = grid_witness(mask[rho], True)
        rho_ok = w is None
        if not rho_ok:
            failures["rho"] = (q, members[w[0]], w[1])

    if t.sided == LEFT:
        if lam_ok:
            return ParagonReport("left", Paragon(t, members, "left"))
        return ParagonReport("none", failures=failures)

    ideal_ok = bool(mask[t.mul[:, sarr]].all() and mask[t.mul[sarr, :]].all())
    if ideal_ok:
        if not (lam_ok and rho_ok):
            raise ConsistencyError("an ideal failed paragon closure; theory violated")
        return ParagonReport("ideal", Paragon(t, members, "ideal"))
    if lam_ok and rho_ok:
        return ParagonReport("two-sided", Paragon(t, members, "two-sided"))
    if lam_ok:
        return ParagonReport("left", Paragon(t, members, "left"), failures)
    if rho_ok:
        return ParagonReport("right", Paragon(t, members, "right"), failures)
    return ParagonReport("none", failures=failures)


def paragons(t):
    """The paragons through the heap basepoint e, sorted by size, then members.

    Closure at q = e decides (see ``is_paragon``), so these are the
    ``closed_subheaps`` under x -> [tx, te, e] and [xt, et, e] for every t
    (left paragons under the first only, for a left truss).  There is one
    per congruence; for the truss of a ring with zero e, the ideals.
    """
    maps = t.mul if t.sided == LEFT else np.vstack((t.mul, t.mul.T))
    return closed_subheaps(t.heap, t.heap.basepoint, maps)


def is_normal_paragon(t, p):
    """True iff the left and right relative translates of P coincide:

        {[xp, xq, q] : p in P}  ==  {[px, qx, q] : p in P}   for all x, q in P.

    This is the translate-stable form of normality.  On a paragon P that
    contains the identity it agrees with set-wise normality tP = Pt (taking
    q = 1 gives xP = Px for every x); unlike tP = Pt it survives shifting P
    along the heap, so every member of a quotient by an ideal (singletons
    off-centre included) is normal.  Accepts a Paragon or a raw member set;
    one-sided paragons are legitimate inputs (normality is a property of the
    subset alone).
    """
    members = list(p.members) if isinstance(p, Paragon) else sorted({int(m) for m in p})
    if not members:
        raise ValueError("normality of the empty set is undefined")
    n, k = t.order, len(members)
    sarr = np.array(members)
    xp = t.mul[:, sarr]  # [x, j] = x p_j
    px = t.mul[sarr, :].T  # [x, j] = p_j x
    # [i, x, j]: the translate of p_j relative to q = p_i
    left = t.bracket_arrays(xp[None, :, :], xp.T[:, :, None], sarr[:, None, None])
    right = t.bracket_arrays(px[None, :, :], px.T[:, :, None], sarr[:, None, None])
    qi = np.arange(k)[:, None, None]
    xi = np.arange(n)[None, :, None]
    left_mask = np.zeros((k, n, n), dtype=bool)
    right_mask = np.zeros((k, n, n), dtype=bool)
    left_mask[qi, xi, left] = True
    right_mask[qi, xi, right] = True
    return bool(np.array_equal(left_mask, right_mask))


# One body, two names: the benchmark's tracer (perfbench/tracer.py) looks up both.
is_shift_normal = is_normal_paragon


def _as_paragon(t, p, need=("two-sided", "ideal")):
    if isinstance(p, Paragon):
        if p.parent is not t:
            p = is_paragon(t, p.members).paragon
    else:
        p = is_paragon(t, p).paragon
    if p is None or p.kind not in need:
        raise ValueError("subset is not a paragon of the required kind")
    return p


def quotient_truss(t, p):
    """Quotient truss on the ~_P classes plus the projection map.

    Requires a two-sided truss and a (two-sided) paragon.  The class product
    is the one ``mul`` induces (``induced_table``, every pair checked);
    identity and absorber classes propagate automatically.
    """
    if t.sided != TWO_SIDED:
        raise ValueError("quotient of a left truss is out of scope; need two-sided")
    p = _as_paragon(t, p)
    qheap, proj = quotient_heap(t.heap, SubHeap(t.heap, p.members, check=False))
    qmul, w = induced_table(proj, proj[t.mul])
    if w is not None:
        raise ConsistencyError("class multiplication depends on representatives")
    q = Truss(qheap, qmul, sided=t.sided, labels=qheap.labels)
    if t.identity is not None and q.identity != int(proj[t.identity]):
        raise ConsistencyError("identity class is not the quotient identity")
    if t.absorber is not None and q.absorber != int(proj[t.absorber]):
        raise ConsistencyError("absorber class is not the quotient absorber")
    return q, proj


def units(t):
    """All u with uv = vu = identity for some v."""
    if t.identity is None:
        raise ValueError("truss has no identity; units undefined")
    hit = t.mul == t.identity
    return tuple(int(v) for v in np.flatnonzero((hit & hit.T).any(axis=1)))


def inverse_in(t, u):
    """The two-sided inverse of u, or None."""
    if t.identity is None:
        raise ValueError("truss has no identity; inverses undefined")
    hit = (t.mul[u] == t.identity) & (t.mul[:, u] == t.identity)
    found = np.flatnonzero(hit)
    return int(found[0]) if found.size else None


def is_ring_type(t):
    return t.absorber is not None


def is_brace_type(t):
    return t.identity is not None and len(units(t)) == t.order


def _z2_truss():
    add = AbGroup.cyclic(2)
    return truss_from_ring(add, [[0, 0], [0, 1]])


@dataclass
class UnitsParagonReport:
    """Everything the units-as-congruence-class question needs, in one record.

    ``unit_or_one_minus_unit`` is the predicate: for every r, exactly one of
    r and identity-minus-r is a unit.  (Exactly one, not at least one: when
    both can be units -- e.g. mod an odd prime -- the units are not even a
    sub-heap, since a difference of units is then a unit.)  By the
    classification theorem the predicate must equal ``is_paragon and
    quotient_is_mod2``; this report's constructor asserts that equivalence.
    """

    order: int
    units: tuple
    is_subheap: bool
    subheap_witness: tuple | None
    kind: str
    is_paragon: bool
    unit_or_one_minus_unit: bool
    quotient: Truss | None
    projection: np.ndarray | None
    quotient_classes: int | None
    quotient_is_mod2: bool
    quotient_char2: bool | None

    def to_dict(self):
        return {
            "order": self.order,
            "units": list(self.units),
            "is_subheap": self.is_subheap,
            "subheap_witness": None if self.subheap_witness is None else list(self.subheap_witness),
            "kind": self.kind,
            "is_paragon": self.is_paragon,
            "unit_or_one_minus_unit": self.unit_or_one_minus_unit,
            "quotient_classes": self.quotient_classes,
            "quotient_is_mod2": self.quotient_is_mod2,
            "quotient_char2": self.quotient_char2,
        }


def units_paragon_report(t):
    """Decide whether the units of a unital ring-truss form a paragon.

    Computes both sides of the classification independently: the structural
    side (paragon with a two-class quotient isomorphic to the order-2
    ring-truss) and the elementwise exactly-one-of-r-and-(1-r)-is-a-unit
    predicate, then asserts their equivalence.
    """
    if t.identity is None or t.absorber is None:
        raise ValueError("units_paragon_report needs a unital ring-truss")
    one, zero = t.identity, t.absorber
    us = units(t)
    mask = np.zeros(t.order, dtype=bool)
    mask[list(us)] = True
    one_minus = t.bracket_arrays(one, np.arange(t.order), zero)
    predicate = bool((mask ^ mask[one_minus]).all())

    result = is_paragon(t, us)  # kind "none" with a "subheap" witness if not a sub-heap
    subheap_witness = result.failures.get("subheap")
    quotient = proj = classes = char2 = None
    mod2 = False
    if result.is_paragon:
        quotient, proj = quotient_truss(t, result.paragon)
        classes = quotient.order
        mod2 = classes == 2 and truss_isomorphism(quotient, _z2_truss()) is not None
        c1, c0 = int(proj[one]), int(proj[zero])
        char2 = quotient.bracket(c1, c0, c1) == c0

    paragon_ok = result.is_paragon
    if (paragon_ok and mod2) != predicate:
        raise ConsistencyError(
            "units paragon/quotient state disagrees with the unit-or-complement predicate"
        )
    return UnitsParagonReport(
        order=t.order,
        units=us,
        is_subheap=subheap_witness is None,
        subheap_witness=subheap_witness,
        kind=result.kind,
        is_paragon=paragon_ok,
        unit_or_one_minus_unit=predicate,
        quotient=quotient,
        projection=proj,
        quotient_classes=classes,
        quotient_is_mod2=mod2,
        quotient_char2=char2,
    )


def odd_multiple_check(t):
    """Check that j-fold additive multiples of units are units exactly for odd j.

    The multiples are taken in the retract at the absorber.  Requires the
    units to form a paragon (the hypothesis of the statement being checked).
    """
    report = units_paragon_report(t)
    if not report.is_paragon:
        raise ValueError("odd-multiple law needs the units to be a paragon")
    add = retract(t.heap, t.absorber).add
    uarr = np.array(report.units)
    mask = np.zeros(t.order, dtype=bool)
    mask[uarr] = True
    cur = np.full(len(uarr), t.absorber, dtype=np.int64)
    for j in range(1, t.order + 1):
        cur = add[cur, uarr]
        if bool(mask[cur].all()) != (j % 2 == 1):
            return False
    return True


def _truss_invariants(t):
    orders = np.sort(t.heap.retract.element_orders())
    idempotents = int((np.diag(t.mul) == np.arange(t.order)).sum())
    unit_count = len(units(t)) if t.identity is not None else 0
    return (
        t.order,
        t.sided,
        t.identity is not None,
        t.absorber is not None,
        tuple(int(v) for v in orders),
        idempotents,
        unit_count,
        bool((t.mul == t.mul.T).all()),
    )


def truss_isomorphism(t1, t2, node_budget=200_000):
    """A truss isomorphism t1 -> t2 as an index map, or None.

    A heap bijection sending e1 to e2 is a heap isomorphism exactly when it
    is a group isomorphism of the e1- and e2-retracts, so the search runs
    over additive-basis images for each candidate image of a fixed anchor of
    t1, checking the multiplication table at the leaves.  The identity and
    absorber, when present, pin the anchor image.
    """
    if _truss_invariants(t1) != _truss_invariants(t2):
        return None
    n = t1.order
    if n == 0:
        return []
    if t1.identity is not None:
        anchor1, anchor2_candidates = t1.identity, [t2.identity]
    elif t1.absorber is not None:
        anchor1, anchor2_candidates = t1.absorber, [t2.absorber]
    else:
        anchor1, anchor2_candidates = t1.heap.basepoint, list(range(n))

    basis, coords = abelian_coordinates(FiniteGroup.from_abgroup(retract(t1.heap, anchor1)))

    nodes = 0
    for e2 in anchor2_candidates:
        g2 = FiniteGroup.from_abgroup(retract(t2.heap, e2))
        orders2 = g2.element_orders()
        cand = [[int(v) for v in np.flatnonzero(orders2 == d)] for _, d in basis]
        for images in itertools.product(*cand):
            nodes += 1
            if nodes > node_budget:
                raise RuntimeError("truss isomorphism search exceeded %d nodes" % node_budget)
            phi = map_from_basis_images(g2, basis, coords, images)
            if len(set(int(v) for v in phi)) != n:
                continue
            if (phi[t1.mul] == t2.mul[phi[:, None], phi[None, :]]).all():
                return [int(v) for v in phi]
    return None


def opposite_truss(t):
    """Same heap, reversed multiplication.  Two-sided trusses only."""
    if t.sided != TWO_SIDED:
        raise ValueError("the opposite of a left truss is a right truss, which is "
                         "represented only through opposite left modules")
    return Truss(t.heap, t.mul.T, sided=TWO_SIDED, labels=t.labels, check=False)
