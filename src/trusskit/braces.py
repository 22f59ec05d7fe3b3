"""Two-sided and left braces, and their bridges to trusses.

A brace is one carrier with an abelian group (+) and a group (.) sharing a
neutral element, linked by a(b + c) = ab - a + ac (and the mirrored law when
two-sided): the distributive laws of its truss ``Brace.truss`` (bracket
a - b + c), so one truss law scan decides them.  A unital truss whose every
element is a unit is the same thing as a brace, and so is its unit set when
that is a sub-heap (``units_brace``).  A lawful truss hands its verdict on to
the brace it gives, and a lawful brace to its truss: each ``lawful`` covers
everything the structure is built from.  The normal-paragon characterisation
of brace ideals and the socle live here as well, with "normal paragon" the
translate-stable normality of ``trusses.is_normal_paragon``: it agrees with
tP = Pt on paragons through the identity and holds on each member of B/I.
The ideals come from ``heaps._closed_sets``, the one lattice enumerator.
"""

from __future__ import annotations

import numpy as np

from .groups import FiniteGroup, restrict_table
from .heaps import (
    AbGroup,
    _closed_sets,
    _members,
    _norm_labels,
    heap_from_group,
    retract,
    subheap_relation_classes,
    subheap_witness,
)
from .lawcheck import (
    ConsistencyError,
    Report,
    ValidationError,
    grid_witness,
    inherit,
)
from .trusses import (
    LEFT,
    TWO_SIDED,
    Truss,
    _paragon_reports,
    is_paragon,
    truss_law_report,
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

    The multiplicative identity must coincide with the additive zero.
    ``truss`` (heap of (+), product (.)) is built once; its distributive laws
    are the brace laws, checked at construction (only the left law for
    ``sided="left"``).  ``lawful`` is the truss's verdict and (.)'s.
    """

    def __init__(self, add, mulgroup, sided=TWO_SIDED, labels=None, check=True):
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
        self.truss = Truss(heap_from_group(add), mulgroup.mul, sided, self.labels, check=False)
        if check:
            brace_law_report(self).raise_invalid()
        self._ideals = None

    @property
    def lawful(self):
        return self.truss.lawful and self.mul.lawful

    def times(self, a, b):
        return int(self.mul.mul[a, b])

    def __repr__(self):
        return "Brace(order=%d, sided=%s)" % (self.order, self.sided)


def brace_law_report(b):
    """The two distributivity-style laws linking + and ``.``.

    a(x + y) = ax - a + ay says that the row x -> ax is a heap morphism of
    the additive heap (a0 = a), the left distributivity of ``b.truss``; the
    right law is its right distributivity.  Their witnesses are the truss's
    (``Truss.law_witnesses``, scanned once), (a, x, e, y) reported as (a, x, y).
    The report opens with both groups' failing checks; over a (+) that is
    no group it lists no brace law and notes why, as the truss report does.
    """
    return _brace_laws(b, Report.over("brace laws (order %d)" % b.order,
                                      (b.add.lawful, b.add.law_report),
                                      (b.mul.lawful, b.mul.law_report)))


def _brace_laws(b, report):
    """``report`` with the brace laws added: the distributive laws of ``b.truss``."""
    _, w, right = b.truss.law_witnesses()
    if not b.add.lawful:
        report.note("brace laws not decided: the additive group's laws fail")
        return report
    report.add("brace.left_law", w is None, None if w is None else (w[0], w[1], w[3]))
    if b.sided == TWO_SIDED:
        report.add("brace.right_law", right is None,
                   None if right is None else (right[0], right[1], right[3]))
    else:
        report.note("right law skipped (left brace)")
    return report


def brace_from_truss(t):
    """A brace on the carrier of a unital truss all of whose elements are units.

    Addition is a + b := [a, 1, b], with the identity as its zero.  The
    distributive laws of the truss are the brace laws over its heap.
    """
    if t.identity is None:
        raise ValueError("truss has no identity; not brace-type")
    missing = sorted(set(range(t.order)) - set(units(t)))
    if missing:
        raise ValueError("truss is not brace-type; non-invertible elements: %s" % (missing,))
    return _unit_brace(t, retract(t.heap, t.identity), None, t.labels)


def _unit_brace(t, add, us, labels):
    """The brace with (+) ``add`` on the units ``us`` (None: all) of ``t``, built
    unscanned from a lawful ``t``; from any other, (+) is scanned first."""
    # the retract at 1 of a lawful heap, or of its unit sub-heap, is an abelian group
    inherit(add, t.lawful, AbGroup.law_report)
    mul = t.mul if us is None else restrict_table(t.mul, us)
    # the units of an associative product with identity form a group under it
    mulgroup = inherit(FiniteGroup(mul, labels=labels, check=False), t.lawful,
                       FiniteGroup.law_report)
    b = Brace(add, mulgroup, sided=t.sided, labels=labels, check=not t.lawful)
    # b.truss is t, or t restricted to its units, a sub-truss: t's laws hold on it
    inherit(b.truss, t.lawful)
    return b


def truss_from_brace(b):
    """The truss of a brace, ``b.truss``: bracket [a, b, c] = a - b + c, same
    multiplication.  The truss of a brace that is not lawful is scanned, once."""
    # the brace laws are b.truss's distributive laws, so a lawful brace decided them
    return inherit(b.truss, b.lawful, truss_law_report)


def socle(b):
    """Soc(B) = all a with ab = a + b for every b.

    Asserted to be an ideal, and every additive coset of it a paragon in the
    associated truss (the distinct cosets, classified as one stack).
    """
    add, mul = b.add.add, b.mul.mul
    members = tuple(
        int(a) for a in range(b.order) if (mul[a] == add[a]).all()
    )
    ok, _ = is_brace_ideal(b, members)
    if not ok:
        raise ConsistencyError("socle failed the ideal test")
    t = truss_from_brace(b)
    need = ("left",) if b.sided == LEFT else ("two-sided", "ideal")
    if any(r.kind not in need for r in _paragon_reports(t, ideal_cosets(b, members))):
        raise ConsistencyError("a socle coset is not a paragon in the truss")
    return members


def is_brace_ideal(b, s):
    """(ok, witness): a normal subgroup of (B, .) closed under b, s -> bs - b.

    bs - b is the additive translate of s by the multiplication action of b;
    for two-sided braces the mirrored closure sb - b is required as well.
    Witnesses name the first failing condition.
    """
    members = _members(s, b.order)
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
    """All ideals: the sets ``heaps._closed_sets`` reaches from {identity} by
    ``FiniteGroup.closure`` that pass ``is_brace_ideal``, so every product-closed
    set through the identity that passes, on a corrupted (.) table too."""
    def close(inside, seeds):
        return np.bincount(b.mul.closure(np.concatenate((np.flatnonzero(inside), seeds))),
                           minlength=b.order) > 0

    if b._ideals is None:
        b._ideals = [s for s in _closed_sets(close, np.arange(b.order) == b.identity)
                     if is_brace_ideal(b, s)[0]]
    return b._ideals


def ideal_cosets(b, ideal):
    """The additive cosets of an ideal (the members of B/I), by smallest member
    (``subheap_relation_classes`` of the additive heap)."""
    return subheap_relation_classes(b.truss.heap, ideal)


def ideal_iff_normal_paragon(b, s, truss=None):
    """Check both normal-paragon characterisations on one subset.

    (1) s is an ideal  iff  s is a normal paragon of the truss containing the
    identity; (2) s lies in B/I for some ideal I  iff  s is a normal paragon.
    The ideal side is membership in ``brace_ideals(b)``, the sets that pass
    ``is_brace_ideal``.  A failed equivalence carries the subset as its witness.
    """
    members = _members(s, b.order)
    t = truss if truss is not None else truss_from_brace(b)
    report = Report("ideal vs normal paragon on %s" % (members,))
    if not members:
        raise ValueError("the empty set is not an ideal candidate")

    ideals = brace_ideals(b)
    ideal_ok = members in ideals
    result = is_paragon(t, members)
    normal_ok = result.is_paragon and result.normal
    has_identity = b.identity in members
    report.note("ideal=%s normal_paragon=%s contains_identity=%s"
                % (ideal_ok, normal_ok, has_identity))
    ok = ideal_ok == (normal_ok and has_identity)
    report.add("ideal_iff_normal_paragon_with_identity", ok, None if ok else members)

    # s lies in B/I exactly when its translate s - s0 through the identity is I
    shifted = b.add.add[list(members), b.add.neg[members[0]]]
    in_quotient = tuple(sorted(shifted.tolist())) in ideals
    report.note("member_of_some_quotient=%s" % in_quotient)
    ok = in_quotient == normal_ok
    report.add("quotient_member_iff_normal_paragon", ok, None if ok else members)
    return report


def units_brace(t):
    """The brace on the unit set of a unital truss whose units form a sub-heap.

    The carrier is reindexed to 0..k-1; labels keep the original names.
    """
    us = units(t)
    w = subheap_witness(t, us)
    if w is not None:
        raise ValidationError("units.subheap", w, "unit set is not a sub-heap")
    labels = [t.label_of(u) for u in us]
    add = AbGroup(restrict_table(retract(t.heap, t.identity).add, us), labels=labels, check=False)
    return _unit_brace(t, add, us, labels)
