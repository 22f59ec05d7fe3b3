"""``heaps.subheap_relation_classes`` against the function it was before it
decided the sub-heap from its own bracket rows.

The oracle below runs ``subheap_witness`` on every call, then the heap's law
scan, then builds the classes.  On lawful heaps (kept verdict), on heaps
built unscanned from the same tables, and on unscanned corrupted heaps of
order <= 12, both give the same classes or raise the same error, with the
same witness.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from trusskit import subheap_relation_classes
from trusskit.heaps import AbGroup, Heap, _members, induced_table, subheap_witness
from trusskit.lawcheck import ConsistencyError, ValidationError


def oracle_relation_classes(h, s):
    members = _members(s, h.order)
    if not members:
        raise ValueError("quotient by empty sub-heap undefined")
    if (w := subheap_witness(h, members)) is not None:
        raise ValidationError("subheap.closure", w)
    if not (h.lawful or h.retract.law_report().ok):
        raise ConsistencyError("sub-heap relation classes need a lawful heap")
    sarr = np.array(members)
    rows = np.sort(h.bracket_arrays(np.arange(h.order)[:, None], sarr[0], sarr[None, :]), axis=1)
    if (rows[:, 1:] == rows[:, :-1]).any():
        raise ConsistencyError("sub-heap relation classes are not equal-size cosets")
    proj = np.unique(rows[:, 0], return_inverse=True)[1]
    classes, w = induced_table(proj, rows, axes=(0,))
    if w is not None or not np.array_equal(np.sort(classes, axis=None), np.arange(h.order)):
        raise ConsistencyError("sub-heap relation classes overlap")
    classes = [tuple(int(v) for v in c) for c in classes]
    if members not in classes:
        raise ConsistencyError("sub-heap relation classes are not equal-size cosets")
    return classes


def _groups():
    """Every abelian group of order <= 12, as cyclic groups and their sums."""
    c = AbGroup.cyclic
    out = [c(n) for n in range(1, 13)]
    out += [c(2).direct_sum(c(2)), c(2).direct_sum(c(4)), c(2).direct_sum(c(2)).direct_sum(c(2)),
            c(3).direct_sum(c(3)), c(2).direct_sum(c(6))]
    return out


GROUPS = _groups()


def _outcome(fn, h, s):
    try:
        return fn(h, s)
    except (ValueError, ConsistencyError) as exc:  # ValidationError is a ValueError
        return type(exc).__name__, str(exc), getattr(exc, "law", None), getattr(exc, "witness", None)


def _subsets(data, n):
    return data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_matches_the_oracle_on_lawful_and_corrupted_heaps(data):
    g = data.draw(st.sampled_from(GROUPS))
    n, add = g.order, np.array(g.add)
    kind = data.draw(st.sampled_from(["lawful", "unscanned", "corrupted"]))
    if kind == "corrupted" and n > 1:
        for _ in range(data.draw(st.integers(1, 2))):
            add[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))] = (
                data.draw(st.integers(0, n - 1)))
    try:
        h = Heap(AbGroup(add, check=kind == "lawful"))
    except ValueError:  # a corrupted table with no zero or no negatives
        return
    assert h.lawful == (kind == "lawful")
    for s in [_subsets(data, n) for _ in range(4)]:
        assert _outcome(subheap_relation_classes, h, s) == _outcome(oracle_relation_classes, h, s)


def test_every_subset_of_the_lawful_heaps_of_order_at_most_8():
    for g in GROUPS:
        if g.order > 8:
            continue
        for h in (Heap(AbGroup(g.add)), Heap(AbGroup(np.array(g.add), check=False))):
            for r in range(1, 1 << g.order):
                s = [i for i in range(g.order) if r >> i & 1]
                assert _outcome(subheap_relation_classes, h, s) == _outcome(
                    oracle_relation_classes, h, s)
