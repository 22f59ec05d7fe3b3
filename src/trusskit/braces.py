"""Two-sided and left braces, and their bridges to trusses.

A brace is one carrier with an abelian group (+) and a group (.) sharing a
neutral element, linked by a(b + c) = ab - a + ac (and the mirrored law when
two-sided).  A unital truss whose every element is a unit is the same thing
as a brace; the two constructors here move back and forth between the views.
The normal-paragon characterisation of brace ideals and the socle live here
as well.  "Normal paragon" means the translate-stable normality of
``trusses.is_normal_paragon``: it agrees with tP = Pt on paragons that
contain the identity, and it holds for every member of a quotient B/I.
"""

from __future__ import annotations

import numpy as np

from .groups import FiniteGroup, restrict_table
from .heaps import (
    AbGroup,
    SubHeap,
    _norm_labels,
    heap_from_group,
    morphism_witness,
    retract,
    subheap_relation_classes,
    subheap_witness,
)
from .lawcheck import (
    ConsistencyError,
    Report,
    ValidationError,
    grid_witness,
)
from .trusses import (
    LEFT,
    TWO_SIDED,
    Truss,
    is_normal_paragon,
    is_paragon,
    units,
)

__all__ = [
    "Brace",
    "brace_from_truss",
    "truss_from_brace",
    "brace_law_report",
    "socle",
    "is_brace_ideal",
    "brace_ideals",
    "ideal_cosets",
    "ideal_iff_normal_paragon",
    "units_brace",
]


class Brace:
    """Additive group and multiplicative group on one index set.

    The multiplicative identity must coincide with the additive zero; the
    distributivity laws are checked at construction (only the left law for
    ``sided="left"``).
    """

    def __init__(self, add, mulgroup, sided=TWO_SIDED, labels=None, check=True):
        if sided not in (TWO_SIDED, LEFT):
            raise ValueError("sided must be %r or %r" % (TWO_SIDED, LEFT))
        if add.order != mulgroup.order:
            raise ValueError("additive and multiplicative tables differ in size")
        if add.zero != mulgroup.id:
            raise ValidationError(
                "brace.neutral",
                (add.zero, mulgroup.id),
                "additive zero and multiplicative identity must coincide",
            )
        self.add = add
        self.mul = mulgroup
        self.sided = sided
        self.order = add.order
        self.labels = _norm_labels(labels, self.order) or add.labels or mulgroup.labels
        self.identity = add.zero
        if check:
            brace_law_report(self).raise_invalid()
        self._ideals = None

    def plus(self, a, b):
        return int(self.add.add[a, b])

    def minus(self, a):
        return int(self.add.neg[a])

    def times(self, a, b):
        return int(self.mul.mul[a, b])

    def label_of(self, a):
        return self.labels[a] if self.labels else str(a)

    def __repr__(self):
        return "Brace(order=%d, sided=%s)" % (self.order, self.sided)


def brace_law_report(b):
    """The two distributivity-style laws linking + and ``.``.

    a(x + y) = ax - a + ay says that the row x -> ax is a heap morphism of
    the additive heap (a0 = a), so ``morphism_witness`` decides it; the
    witness (a, x, y) is a failing instance.  The right law is the same for
    columns.
    """
    report = Report("brace laws (order %d)" % b.order)
    heap = heap_from_group(b.add)
    w = morphism_witness(b.mul.mul, heap, heap)
    report.add("brace.left_law", w is None, None if w is None else (w[0], w[1], w[3]))
    if b.sided == TWO_SIDED:
        w = morphism_witness(b.mul.mul.T, heap, heap)
        report.add("brace.right_law", w is None, None if w is None else (w[0], w[1], w[3]))
    else:
        report.note("right law skipped (left brace)")
    return report


def brace_from_truss(t):
    """A brace on the carrier of a unital truss all of whose elements are units.

    Addition is a + b := [a, 1, b], with the identity as its zero.
    """
    if t.identity is None:
        raise ValueError("truss has no identity; not brace-type")
    us = set(units(t))
    missing = sorted(set(range(t.order)) - us)
    if missing:
        raise ValueError(
            "truss is not brace-type; non-invertible elements: %s" % (missing,)
        )
    one = t.identity
    idx = np.arange(t.order)
    add = AbGroup(t.bracket_arrays(idx[:, None], one, idx[None, :]), labels=t.labels)
    mulgroup = FiniteGroup(t.mul, labels=t.labels)
    return Brace(add, mulgroup, sided=t.sided, labels=t.labels)


def truss_from_brace(b):
    """The truss of a brace: bracket [a, b, c] = a - b + c, same multiplication.

    The round trip through ``brace_from_truss`` is checked to be the identity
    on tables.
    """
    t = Truss(
        heap_from_group(b.add),
        b.mul.mul,
        sided=b.sided,
        labels=b.labels,
    )
    back = brace_from_truss(t)
    if not (
        np.array_equal(back.add.add, b.add.add)
        and np.array_equal(back.mul.mul, b.mul.mul)
    ):
        raise ConsistencyError("brace -> truss -> brace round trip changed the tables")
    return t


def socle(b):
    """Soc(B) = all a with ab = a + b for every b.

    Asserted to be an ideal, and every additive coset of it a paragon in the
    associated truss.
    """
    add, mul = b.add.add, b.mul.mul
    members = tuple(
        int(a) for a in range(b.order) if (mul[a] == add[a]).all()
    )
    ok, _ = is_brace_ideal(b, members)
    if not ok:
        raise ConsistencyError("socle failed the ideal test")
    t = truss_from_brace(b)
    sarr = np.array(members)
    need = ("left",) if b.sided == LEFT else ("two-sided", "ideal")
    for c in range(b.order):
        coset = sorted(int(v) for v in add[c, sarr])
        if is_paragon(t, coset).kind not in need:
            raise ConsistencyError("a socle coset is not a paragon in the truss")
    return members


def is_brace_ideal(b, s):
    """(ok, witness): a normal subgroup of (B, .) closed under b, s -> bs - b.

    bs - b is the additive translate of s by the multiplication action of b;
    for two-sided braces the mirrored closure sb - b is required as well.
    Witnesses name the first failing condition.
    """
    members = tuple(sorted({int(v) for v in s}))
    if not members:
        raise ValueError("the empty set is not an ideal candidate")
    mask = np.zeros(b.order, dtype=bool)
    mask[list(members)] = True
    mul, add, neg, inv = b.mul.mul, b.add.add, b.add.neg, b.mul.inv
    if not mask[b.identity]:
        return False, ("identity", (b.identity,))
    sarr = np.array(members)
    prod = mul[np.ix_(sarr, sarr)]
    w = grid_witness(mask[prod], True)
    if w is not None:
        return False, ("subgroup", (members[w[0]], members[w[1]]))
    if not mask[inv[sarr]].all():
        bad = int(sarr[~mask[inv[sarr]]][0])
        return False, ("subgroup", (bad,))
    # normality: g s g^{-1} stays inside
    conj = mul[mul[np.arange(b.order)[:, None], sarr[None, :]], inv[:, None]]
    w = grid_witness(mask[conj], True)
    if w is not None:
        return False, ("normal", (w[0], members[w[1]]))
    # bs - b closure
    idx = np.arange(b.order)
    left = add[mul[idx[:, None], sarr[None, :]], neg[idx][:, None]]
    w = grid_witness(mask[left], True)
    if w is not None:
        return False, ("left_closure", (w[0], members[w[1]]))
    if b.sided == TWO_SIDED:
        right = add[mul[sarr[:, None], idx[None, :]], neg[idx][None, :]]
        w = grid_witness(mask[right], True)
        if w is not None:
            return False, ("right_closure", (members[w[0]], w[1]))
    return True, None


def brace_ideals(b):
    """All ideals, found by enumerating subgroups of (B, .) and filtering."""
    if b._ideals is not None:
        return b._ideals
    seen = {(b.identity,)}
    frontier = [(b.identity,)]
    while frontier:
        sub = frontier.pop()
        for x in range(b.order):
            if x in sub:
                continue
            grown = b.mul.closure(set(sub) | {x})
            if grown not in seen:
                seen.add(grown)
                frontier.append(grown)
    ideals = [sub for sub in sorted(seen, key=lambda s: (len(s), s))
              if is_brace_ideal(b, sub)[0]]
    b._ideals = ideals
    return ideals


def ideal_cosets(b, ideal):
    """The additive cosets of an ideal (the members of B/I), by smallest member.

    An ideal is an additive subgroup, hence a sub-heap, so its closure is
    not checked again.
    """
    heap = heap_from_group(b.add)
    return subheap_relation_classes(heap, SubHeap(heap, ideal, check=False))


def ideal_iff_normal_paragon(b, s, truss=None):
    """Check both normal-paragon characterisations on one subset.

    (1) s is an ideal  iff  s is a normal paragon of the truss containing the
    identity; (2) s lies in B/I for some ideal I  iff  s is a normal paragon.
    The report records each side and the two equivalences; a failed
    equivalence carries the subset as its witness.
    """
    members = tuple(sorted({int(v) for v in s}))
    t = truss if truss is not None else truss_from_brace(b)
    report = Report("ideal vs normal paragon on %s" % (members,))

    ideal_ok, _ = is_brace_ideal(b, members)
    result = is_paragon(t, members)
    normal_ok = result.is_paragon and is_normal_paragon(t, result.paragon)
    has_identity = b.identity in members
    report.note("ideal=%s normal_paragon=%s contains_identity=%s"
                % (ideal_ok, normal_ok, has_identity))
    ok = ideal_ok == (normal_ok and has_identity)
    report.add("ideal_iff_normal_paragon_with_identity", ok, None if ok else members)

    # s lies in B/I exactly when its translate s - s0 through the identity is I
    shifted = b.add.add[list(members), b.add.neg[members[0]]]
    in_quotient = tuple(sorted(int(v) for v in shifted)) in brace_ideals(b)
    report.note("member_of_some_quotient=%s" % in_quotient)
    ok = in_quotient == normal_ok
    report.add("quotient_member_iff_normal_paragon", ok, None if ok else members)
    return report


def units_brace(t):
    """The brace on the unit set of a unital truss whose units form a sub-heap.

    The carrier is reindexed to 0..k-1; labels keep the original names.
    """
    us = units(t)
    uarr = np.array(us)
    w = subheap_witness(t, us)
    if w is not None:
        raise ValidationError("units.subheap", w, "unit set is not a sub-heap")
    labels = [t.label_of(u) for u in us]
    add = AbGroup(restrict_table(retract(t.heap, t.identity).add, uarr), labels=labels)
    mulgroup = FiniteGroup(restrict_table(t.mul, uarr), labels=labels)
    return Brace(add, mulgroup, sided=t.sided, labels=labels)
