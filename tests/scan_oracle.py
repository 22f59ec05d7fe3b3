"""Oracles for the table facts that a constructor now decides once.

The bodies below are the library's code as it was before each fact got one
copy: the identity and absorber scans of ``Truss``, the identity and inverse
finders of ``FiniteGroup`` and ``AbGroup``, the report lines that recomputed
what those finders found, ``truss_from_ring`` with its own law scan,
``to_jsonable`` with separate heap and abelian-group branches, and the
``__eq__`` methods that compared the order, zero or basepoint beside the
table.  Differential tests pit the library against them.
"""

import numpy as np

from trusskit.groups import FiniteGroup
from trusskit.heaps import AbGroup, Heap, _square_table, heap_from_group
from trusskit.lawcheck import ConsistencyError, ValidationError, grid_witness, inherit
from trusskit.trusses import TWO_SIDED, Truss, _law_witnesses


# ------------------------------------------------------------- Truss scans

def scan_identity(mul):
    idx = np.arange(len(mul))
    hits = np.flatnonzero(((mul == idx) & (mul.T == idx)).all(axis=1))
    return int(hits[0]) if hits.size else None


def scan_absorber(mul):
    idx = np.arange(len(mul))[:, None]
    hits = np.flatnonzero(((mul == idx) & (mul.T == idx)).all(axis=1))
    if hits.size > 1:
        raise ConsistencyError("more than one absorber; tables are inconsistent")
    return int(hits[0]) if hits.size else None


def identity_row(t):
    """The old ``truss.identity_row`` verdict, recomputed from the table."""
    return bool((t.mul[t.identity] == np.arange(t.order)).all())


def absorber_row(t):
    """The old ``truss.absorber_row`` verdict, recomputed from the table."""
    return bool((t.mul[t.absorber] == t.absorber).all())


# ------------------------------------------------- group identity, inverses

def find_group_identity(mul):
    """``FiniteGroup._find_identity``: row and column both the identity map."""
    idx = np.arange(len(mul))
    hits = np.flatnonzero((mul == idx).all(axis=1) & (mul.T == idx).all(axis=1))
    if hits.size == 0:
        raise ValidationError("group.identity", None, "no identity element")
    return int(hits[0])


def find_group_inverse(mul, e):
    """``FiniteGroup._find_inv``: y with xy = yx = e."""
    inv = np.full(len(mul), -1, dtype=np.int64)
    rows, cols = np.nonzero((mul == e) & (mul.T == e))
    inv[rows] = cols
    if (inv < 0).any():
        raise ValidationError("group.inverse", (int(np.flatnonzero(inv < 0)[0]),))
    return inv


def find_zero(add):
    """``AbGroup._find_zero``: the row is the identity map."""
    hits = np.flatnonzero((add == np.arange(len(add))).all(axis=1))
    if hits.size == 0:
        raise ValidationError("group.identity", None, "no identity element")
    return int(hits[0])


def find_neg(add, zero):
    """``AbGroup._find_neg``: y with x + y = zero."""
    neg = np.full(len(add), -1, dtype=np.int64)
    rows, cols = np.nonzero(add == zero)
    neg[rows] = cols
    if (neg < 0).any():
        raise ValidationError("group.inverse", (int(np.flatnonzero(neg < 0)[0]),))
    return neg


def group_inverse(g):
    """The old ``group.inverse`` line of ``FiniteGroup.law_report``."""
    return bool((g.mul[np.arange(g.order), g.inv] == g.id).all())


def abgroup_inverse(g):
    """The old inverse grid of ``AbGroup.law_report``."""
    return grid_witness(g.add[np.arange(g.order), g.neg], g.zero) is None


# --------------------------------------------------------- truss_from_ring

def truss_from_ring(add, mul, labels=None, sided=TWO_SIDED):
    """The truss of a ring, with its own copy of the truss law scan."""
    if not isinstance(add, AbGroup):
        add = AbGroup(add, check=False)
    add.law_report().raise_invalid()
    mul = _square_table(mul, "ring")
    heap = heap_from_group(add)
    w, left, right = _law_witnesses(mul, mul, heap, heap, TWO_SIDED, mul_lawful=True)
    if w is not None:
        raise ValidationError("ring.associative", w)
    zero = add.zero
    for law, rows, w in (("ring.left_distributive", mul, left),
                         ("ring.right_distributive", mul.T, right)):
        moved = np.flatnonzero(rows[:, zero] != zero)
        if moved.size:
            raise ValidationError(law, (moved[0], zero, zero))
        if w is not None:
            raise ValidationError(law, (w[0], w[1], w[3]))
    return inherit(Truss(heap, mul, sided=sided, labels=labels, check=False), True)


# ---------------------------------------------------------- JSON, equality

def group_or_heap_jsonable(obj):
    """``jsonio.to_jsonable`` of an ``AbGroup`` or a ``Heap``."""
    labels = None if obj.labels is None else list(obj.labels)
    if isinstance(obj, AbGroup):
        return {"kind": "abgroup", "order": obj.order, "add": obj.add.tolist(),
                "zero": obj.zero, "labels": labels}
    if obj.order == 0:
        return {"kind": "heap", "order": 0, "add": [], "zero": None, "labels": None}
    return {"kind": "heap", "order": obj.order, "add": obj.retract.add.tolist(),
            "zero": obj.basepoint, "labels": labels}


def abgroup_eq(a, b):
    return (isinstance(b, AbGroup) and a.order == b.order and a.zero == b.zero
            and np.array_equal(a.add, b.add))


def heap_eq(a, b):
    if not isinstance(b, Heap) or a.order != b.order:
        return False
    if a.order == 0:
        return True
    return a.basepoint == b.basepoint and np.array_equal(a.retract.add, b.retract.add)


def group_eq(a, b):
    return isinstance(b, FiniteGroup) and a.order == b.order and np.array_equal(a.mul, b.mul)
