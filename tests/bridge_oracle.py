"""Oracles for the unit bridges of a truss (``trusses.group_from_units`` and
``braces.brace_from_truss``, ``units_brace`` and ``truss_from_brace``).

The four functions as they were before the bridges read ``trusses.units``
once and handed a lawful truss's verdict on: ``brace_from_truss`` and
``units_brace`` build (B, .) with ``FiniteGroup(check=True)`` and the brace
with ``Brace(check=True)``, ``group_from_units`` repeats the unit scan, and
``truss_from_brace`` runs the round trip through ``brace_from_truss``.
Differential tests pit the bridges against them.
"""

import numpy as np

from trusskit.braces import Brace
from trusskit.groups import FiniteGroup, restrict_table
from trusskit.heaps import AbGroup, heap_from_group, retract, subheap_witness
from trusskit.lawcheck import ConsistencyError, ValidationError, inherit
from trusskit.trusses import Truss, units


def group_from_units(truss):
    """Multiplication table restricted to the units of a unital truss.  Over a
    lawful truss associativity is inherited; closure, identity and inverses are checked."""
    if truss.identity is None:
        raise ValueError("truss has no identity; no unit group")
    hit = truss.mul == truss.identity
    members = np.flatnonzero((hit & hit.T).any(axis=1))
    labels = None
    if truss.labels:
        labels = [truss.labels[m] for m in members]
    return FiniteGroup(restrict_table(truss.mul, members), labels=labels, check=not truss.lawful)


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
    # the retract of a lawful heap is an abelian group; any other is scanned
    add = inherit(retract(t.heap, t.identity), t.heap.retract.lawful, AbGroup.law_report)
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
    # a sub-heap of a lawful heap restricts its retract to a subgroup; any other is scanned
    add = inherit(AbGroup(restrict_table(retract(t.heap, t.identity).add, uarr), labels=labels,
                          check=False), t.heap.retract.lawful, AbGroup.law_report)
    mulgroup = FiniteGroup(restrict_table(t.mul, uarr), labels=labels)
    return Brace(add, mulgroup, sided=t.sided, labels=labels)
