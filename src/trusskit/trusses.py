"""Trusses: abelian heaps with an associative, bracket-distributive product.

Covers two-sided and left trusses, paragons (the congruence classes of a
truss, listed through the basepoint by ``paragons``), ideals, normal
paragons, quotients, unit sets and unit groups, and the reports that decide
when the units of a ring-truss form a congruence class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groups import FiniteGroup, closure_rounds, homomorphisms, restrict_table
from .heaps import (
    AbGroup,
    closed_subheaps,
    heap_from_group,
    heap_generators,
    induced_table,
    morphism_witness,
    quotient_heap,
    retract,
    _members,
    _norm_labels,
    _square_table,
    _subheap_witnesses,
)
from .lawcheck import (HOLDS, ConsistencyError, Report, ValidationError, associativity_witness,
                       inherit)

TWO_SIDED = "two-sided"
LEFT = "left"


class Truss:
    """Heap plus multiplication table; ``sided`` is "two-sided" or "left".

    One table scan (``_scan``) finds the identity and the absorber.  The
    laws are scanned once and the witness triple kept (``law_witnesses``;
    ``mul`` is read-only): with ``check``, at the first ``truss_law_report``
    or in ``truss_from_ring``, whose ring checks read it.  Made from a lawful
    truss, a quotient, the opposite, a change of anchor and a brace's truss
    inherit it (``lawcheck.inherit``).  ``lawful`` says the kept triple is
    all None and the heap is lawful.
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
        idx = np.arange(self.order)
        self.identity = self._scan(idx, "identity")
        self.absorber = self._scan(idx[:, None], "absorber")
        self._laws = None  # witness triple of the one law scan
        if check:
            truss_law_report(self).raise_invalid()

    @property
    def lawful(self):
        return self._laws == HOLDS and self.heap.lawful

    def law_witnesses(self):
        """(associative, left, right) witnesses of ``mul``, None where a law
        holds or, over a failing heap, is not decided: scanned once, then kept."""
        if self._laws is None:
            self._laws = (_law_witnesses(self.mul, self.mul, self.heap, self.heap,
                                         self.sided, mul_lawful=True)
                          if self.order else HOLDS)
        return self._laws

    def _scan(self, values, name):
        """The x whose row and column both equal ``values`` broadcast at x: ``arange``
        finds the identity, the column of the x themselves the absorber; else None."""
        hits = np.flatnonzero(((self.mul == values) & (self.mul.T == values)).all(axis=1))
        if hits.size > 1:
            raise ConsistencyError("more than one %s; tables are inconsistent" % name)
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
            and (self.mul is other.mul or np.array_equal(self.mul, other.mul))
        )

    def __repr__(self):
        return "Truss(order=%d, sided=%s, identity=%s, absorber=%s)" % (
            self.order,
            self.sided,
            self.identity,
            self.absorber,
        )


def _law_witnesses(mul, act, theap, mheap, sided, mul_lawful):
    """Witnesses (associative, rows, columns) for the action ``act`` of ``mul``
    (on ``theap``) on ``mheap``: rows x -> t.x and, two-sided, columns
    t -> t.x are heap morphisms, and s.(t.x) = (st).x; ``act = mul`` gives
    the truss laws.  Columns are scanned in full; once they hold, generator
    rows decide the rows, and once both hold, generator triples decide
    associativity.  That needs ``mul`` to distribute on both sides, which
    ``mul_lawful`` vouches for (for ``act = mul`` the scans just made show
    it); without it s and t run over every element.  Every witness is the
    full scan's (``associativity_witness``).  Over a heap that is not lawful
    (its retract's verdict, scanned if never scanned) generators decide
    nothing: associativity is scanned in full and rows and columns read None.
    """
    if not all(h.lawful or h.retract.law_report().ok for h in (theap, mheap)):
        return associativity_witness(mul, act), None, None
    cols = morphism_witness(act.T, theap, mheap) if sided == TWO_SIDED else None
    both = sided == TWO_SIDED and cols is None and theap.order
    sides = heap_generators(theap) if both else None
    rows = morphism_witness(act, mheap, mheap, at=sides)
    if rows is not None:
        return associativity_witness(mul, act), rows, cols
    triples = sides if mul_lawful else None
    lasts = heap_generators(mheap)
    return associativity_witness(mul, act, firsts=triples, mids=triples, lasts=lasts), rows, cols


def truss_law_report(t, seed=None):
    """Associativity and distributivity over the bracket, with witnesses.

    Every law is checked exhaustively.  Left distributivity says that each
    row x -> ax of ``mul`` is a heap morphism, right distributivity the same
    of each column; ``morphism_witness`` decides both, and a failure is the
    law instance (a, x, e, g): a[x, e, g] != [ax, ae, ag] (mirrored for the
    right law).  Two-sided, the right law is scanned in full (n^2 r); once it
    holds, the r + 1 generator rows decide the left law, and once both do,
    the (r + 1)^3 generator triples decide associativity.  With the left law
    only, x runs over the generators.  For left trusses the right law is
    skipped and noted.  The witnesses are ``t.law_witnesses()``: the scan
    runs once per table, and a repeated report reads its kept triple.  It
    opens with the heap's failing checks; over such a heap it lists
    associativity alone.  ``seed`` is ignored.
    """
    n = t.order
    report = Report.over("truss laws (order %d)" % n,
                         (t.heap.lawful, lambda: t.heap.retract.law_report()))
    assoc, left, right = t.law_witnesses()
    if n == 0:
        report.note("empty truss: laws hold vacuously")
        return report
    report.add("truss.associative", assoc is None, assoc)
    if not t.heap.lawful:
        report.note("distributivity not decided: the heap's laws fail")
        return report
    report.add("truss.left_distributive", left is None, left)
    if t.sided == TWO_SIDED:
        report.add("truss.right_distributive", right is None, right)
    else:
        report.note("right distributivity skipped (left truss)")
    for name, found in (("truss.identity_row", t.identity), ("truss.absorber_row", t.absorber)):
        if found is not None:  # the constructor's scan found its whole row and column
            report.add(name, True)
    return report


def truss_from_ring(add, mul, labels=None):
    """The truss of a ring: same multiplication, addition replaced by its heap.

    Validates the ring laws exhaustively, after ``add``'s kept (or scanned)
    group laws and ``Truss``'s read of ``mul`` (``truss.*`` errors).  A map is
    additive exactly when it is a heap morphism fixing zero, so ring
    distributivity is truss distributivity plus "the ring zero is the
    absorber".  The truss laws are its kept ``Truss.law_witnesses``; a failure
    is reported as a ring instance (a, b, c) of a(b + c) != ab + ac (or mirror).
    """
    if not isinstance(add, AbGroup):
        add = AbGroup(add, check=False)
    add.law_report().raise_invalid()
    t = Truss(heap_from_group(add), mul, labels=labels, check=False)
    w, left, right = t.law_witnesses()
    if w is not None:
        raise ValidationError("ring.associative", w)
    zero = add.zero
    for law, rows, w in (("ring.left_distributive", t.mul, left),
                         ("ring.right_distributive", t.mul.T, right)):
        moved = np.flatnonzero(rows[:, zero] != zero)
        if moved.size:
            raise ValidationError(law, (moved[0], zero, zero))
        if w is not None:
            raise ValidationError(law, (w[0], w[1], w[3]))
    return t


def lambda_q(t, x, p, q):
    """[xp, xq, q]: left translate of p by x relative to q."""
    return t.bracket(int(t.mul[x, p]), int(t.mul[x, q]), q)


def rho_q(t, p, x, q):
    """[px, qx, q]: right translate of p by x relative to q."""
    return t.bracket(int(t.mul[p, x]), int(t.mul[q, x]), q)


class Paragon:
    """A verified sub-heap closed under the relative translates.

    ``kind`` is "left", "right", "two-sided" or "ideal".  Closure holds for
    every q in the member set: on a sub-heap, closure at one q implies it at
    every q (see ``is_paragon``).  Only ``_paragon_reports`` builds one.
    """

    def __init__(self, parent, members, kind):
        self.parent = parent
        self.members = tuple(sorted(int(m) for m in members))
        self.kind = kind

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
    to their first witnesses.  On a sub-heap, ``translates`` feed ``normal``.
    """

    kind: str
    paragon: Paragon | None = None
    failures: dict = field(default_factory=dict)
    translates: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def is_paragon(self):
        return self.kind in ("two-sided", "ideal")

    @property
    def normal(self):
        """Whether L_q(x) = {lambda_q(x, p)} and R_q(x) = {rho_q(p, x)}, p in P,
        agree for every x (``is_normal_paragon``); None off sub-heaps.
        ``translates`` holds [lambda_q(x, p)] and [rho_q(p, x)] over (x, p).

        One q decides, q = min(P).  With a = [xq', xq, q] and c = [q'x, qx, q],
        lambda_q'(x, p) = [lambda_q(x, p), a, q'] and rho_q'(p, x) =
        [rho_q(p, x), c, q'], so L_q'(x) = [L_q(x), a, q'] and R_q'(x) =
        [R_q(x), c, q'].  L_q(x) is a sub-heap (the image of P under the heap
        morphism p -> [xp, xq, q]) that holds a, and R_q(x) holds c; once the
        two sets are one sub-heap L, l -> [l, c, a] maps L onto itself, so
        [L, c, q'] = [L, a, q'] at every q'.  Two n x n masks.
        """
        if self.translates is None:
            return None
        n = self.translates.shape[1]
        seen = np.zeros((2, n, n), dtype=bool)  # seen[side, x, v]: v in L_q(x), R_q(x)
        seen[np.arange(2)[:, None, None], np.arange(n)[:, None], self.translates] = True
        return bool(np.array_equal(seen[0], seen[1]))


def is_paragon(t, members):
    """Classify a subset: ideal > two-sided > left/right paragon > none.

    The sub-heap test is the one in ``heaps._subheap_witnesses`` (|P|^2
    brackets, not |P|^3); a set that fails it builds no membership mask.
    After it, closure is tested at q = members[0] only (n |P| instead of
    |P|^2 n): lambda_q'(x, p) = [lambda_q(x, p), lambda_q(x, q'), q'] holds
    in any heap, so on a sub-heap one q decides every q (rho alike).
    For left trusses only lambda closure applies: kinds "left" and "none".
    ``_paragon_reports`` decides a stack of equal-size subsets at once.
    """
    members = _members(members, t.order)
    if not members:
        raise ValueError("the empty set cannot be classified; a paragon is nonempty")
    return _paragon_reports(t, [members])[0]


def _paragon_reports(t, sets):
    """``is_paragon`` of each row of ``sets``, a (k, s) array of sorted member
    sets of one size: ``heaps._subheap_witnesses`` sorts out the sub-heaps,
    then one (k', n, s) array per law decides the k' of them.  Row i of the
    flat membership mask, offset i n, holds sub-heap i."""
    sets = np.asarray(sets, dtype=np.int64)
    out = [None if w is None else ParagonReport("none", failures={"subheap": w})
           for w in _subheap_witnesses(t, sets)]
    live = [j for j, r in enumerate(out) if r is None]  # closure is decided on these only
    if not live:
        return out
    sets = sets[live]
    (k, s), n, two = sets.shape, t.order, t.sided == TWO_SIDED
    off, rows, q = np.arange(0, k * n, n)[:, None, None], sets.tolist(), sets[:, :1, None]
    mask = np.zeros(k * n, dtype=bool)
    mask[sets + off[:, 0]] = True
    # inside[i, law, x, p]: x p, p x, lambda_q(x, p) = [x p, x q, q] and
    # rho_q(p, x) = [p x, q x, q] lie in set i, for p in it and q its first
    idx = np.arange(n)[:, None]
    prods = np.concatenate([t.mul[idx, sets[:, None, :]][:, None], t.mul[sets[:, None, :], idx][:, None]],
                           axis=1)
    at_q = np.concatenate([t.mul[idx, q][:, None], t.mul[q, idx][:, None]], axis=1)
    translates = t.bracket_arrays(prods, at_q, q[:, None])
    inside = mask[np.concatenate([prods, translates], axis=1) + off[:, None]]
    left_in, right_in, lam_ok, rho_ok = inside.all(axis=(2, 3)).T.tolist()
    for i, j in enumerate(live):
        row, failures = rows[i], {}
        lam, rho, ideal = lam_ok[i], two and rho_ok[i], two and left_in[i] and right_in[i]
        if not lam:
            x, p = divmod(int(inside[i, 2].argmin()), s)
            failures["lambda"] = (row[0], x, row[p])
        if two and not rho:
            p, x = divmod(int(inside[i, 3].T.argmin()), n)
            failures["rho"] = (row[0], row[p], x)
        if ideal and not (lam and rho):
            raise ConsistencyError("an ideal failed paragon closure; theory violated")
        kind = ("ideal" if ideal else "two-sided" if lam and rho else "left" if lam
                else "right" if rho else "none")
        out[j] = ParagonReport(kind, None if kind == "none" else Paragon(t, row, kind), failures,
                               translates[i])
    return out


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
    """True iff the left and right relative translates of the sub-heap P coincide:

        {[xp, xq, q] : p in P}  ==  {[px, qx, q] : p in P}   for all x, q in P.

    This is the translate-stable form of normality.  On a paragon P that
    contains the identity it agrees with set-wise normality tP = Pt (taking
    q = 1 gives xP = Px for every x); unlike tP = Pt it survives shifting P
    along the heap, so every member of a quotient by an ideal (singletons
    off-centre included) is normal.  Reads a sub-heap's members, or a Paragon's
    (``ValueError`` off sub-heaps); one-sided paragons are legitimate inputs.
    ``ParagonReport.normal`` of one ``_paragon_reports`` pass decides it.
    """
    if not (members := _members(p, t.order)):
        raise ValueError("normality of the empty set is undefined")
    normal = _paragon_reports(t, [members])[0].normal
    if normal is None:
        raise ValueError("normality is defined on sub-heaps; the subset is not one")
    return normal


# One body, two names: the benchmark's tracer (perfbench/tracer.py) looks up both.
is_shift_normal = is_normal_paragon


def quotient_truss(t, p):
    """Quotient truss on the ~_P classes plus the projection map.

    Requires a two-sided truss and a (two-sided) paragon.  The class product
    is the one ``mul`` induces (``induced_table``, every pair checked);
    identity and absorber classes propagate automatically.  A quotient of a
    lawful truss, a homomorphic image, is lawful unscanned; otherwise it is scanned.
    A Paragon of ``t`` is not classified again: ``quotient_heap`` re-verifies
    its sub-heap and ``induced_table`` the congruence.
    """
    if t.sided != TWO_SIDED:
        raise ValueError("quotient of a left truss is out of scope; need two-sided")
    if not (isinstance(p, Paragon) and p.parent is t):
        p = is_paragon(t, p).paragon
    if p is None or p.kind not in ("two-sided", "ideal"):
        raise ValueError("subset is not a paragon of the required kind")
    qheap, proj = quotient_heap(t.heap, p.members)
    qmul, w = induced_table(proj, proj[t.mul])
    if w is not None:
        raise ConsistencyError("class multiplication depends on representatives")
    # a homomorphic image of a lawful truss is lawful; any other quotient is scanned
    q = inherit(Truss(qheap, qmul, sided=t.sided, labels=qheap.labels, check=False), t.lawful,
                truss_law_report)
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


def group_from_units(t):
    """The group of ``units``: ``mul`` restricted to them and reindexed to
    0..k-1, with their labels.  A lawful truss hands on associativity; any
    other is scanned.  Closure, identity and inverses are checked either way."""
    if t.identity is None:
        raise ValueError("truss has no identity; no unit group")
    us = units(t)
    labels = [t.labels[u] for u in us] if t.labels else None
    return inherit(FiniteGroup(restrict_table(t.mul, us), labels=labels, check=False), t.lawful,
                   FiniteGroup.law_report)


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


def is_zn_truss(t):
    """True iff t is isomorphic to T(Z_n), n = t.order.  A truss with
    absorber z and identity 1 is T(R), R the ring on its z-retract, and
    R is Z_n iff 1 has additive order n (k -> k.1 is then injective)."""
    if t.identity is None or t.absorber is None:
        return False
    return int(retract(t.heap, t.absorber).element_orders()[t.identity]) == t.order


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


def units_paragon_report(t):
    """Decide whether the units of a unital ring-truss form a paragon.

    Computes both sides of the classification independently: the structural
    side (paragon with a two-class quotient isomorphic to T(Z_2), decided
    by ``is_zn_truss``) and the elementwise exactly-one-of-r-and-(1-r)-is-a-unit
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
        mod2 = classes == 2 and is_zn_truss(quotient)
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


def _invariants(t, es):
    """Per anchor e in ``es``, the retract r at e and per x a row that isomorphisms
    fixing e keep: the orders of x, xx and x(xx) in r, whether xx = x, |xT|, |Tx| and
    |{[xt, t, e] : t in T}|.  The last three are counted once: [xt, t, e2] is
    [[xt, t, e], e, e2], and a -> [a, e, e2] is a bijection."""
    idx, sq = np.arange(t.order), np.diag(t.mul)
    widths = [(np.diff(np.sort(m, axis=1), axis=1) != 0).sum(axis=1) + 1
              for m in (t.mul, t.mul.T, t.bracket_arrays(t.mul, idx, t.heap.basepoint))]
    for e in es:
        r = retract(t.heap, e)
        orders = r.element_orders()
        yield r, np.column_stack((orders, orders[sq], orders[t.mul[idx, sq]], sq == idx, *widths))


def truss_isomorphism(t1, t2):
    """A truss isomorphism t1 -> t2 as an index map, or None: the first bijective
    ``groups.homomorphisms`` map of [retract addition, ``mul``] with e1 -> e2, as a heap
    bijection sending e1 to e2 is a heap isomorphism exactly when it is one of the
    retracts.  e1 is the identity, else the absorber (each pins e2), else the basepoint,
    tried against every e2.  The generators are the retract's less each one the others
    span, most candidates first; an image shares its generator's ``_invariants`` row,
    and the sorted rows of t1 and t2 must agree."""
    if ((t1.order, t1.sided, t1.identity is None, t1.absorber is None)
            != (t2.order, t2.sided, t2.identity is None, t2.absorber is None)):
        return None
    n = t1.order
    if n == 0:
        return []
    e1, e2s = ((t1.identity, [t2.identity]) if t1.identity is not None
               else (t1.absorber, [t2.absorber]) if t1.absorber is not None
               else (t1.heap.basepoint, range(n)))
    r1, inv1 = next(_invariants(t1, [e1]))
    ops1, gens = [r1.add, t1.mul], r1.generators.tolist()
    gens = sorted(gens, key=lambda g: -(inv1 == inv1[g]).all(axis=1).sum())
    for g in list(gens):
        known = np.zeros(n, dtype=bool)
        closure_rounds(ops1, known, [e1] + [h for h in gens if h != g])
        gens = [h for h in gens if h != g or not known.all()]
    for e2, (r2, inv2) in zip(e2s, _invariants(t2, e2s)):
        rows = np.unique(np.vstack((inv1, inv2)), axis=0,
                         return_inverse=True)[1].reshape(2, n)
        if np.array_equal(np.sort(rows[0]), np.sort(rows[1])):
            cands = [np.flatnonzero(rows[1] == rows[0, g]).tolist() for g in gens]
            for phi in homomorphisms(ops1, [r2.add, t2.mul], [e1], [e2], gens, cands,
                                     injective=True):
                return phi.tolist()
    return None


def opposite_truss(t):
    """Same heap, reversed multiplication.  Two-sided trusses only."""
    if t.sided != TWO_SIDED:
        raise ValueError("the opposite of a left truss is a right truss, which is "
                         "represented only through opposite left modules")
    # s.t := ts is a truss exactly when . is one (the laws swap sides); unscanned otherwise
    return inherit(Truss(t.heap, t.mul.T, sided=TWO_SIDED, labels=t.labels, check=False), t.lawful)
