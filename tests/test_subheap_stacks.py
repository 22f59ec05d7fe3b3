"""The one sub-heap test, ``heaps._subheap_witnesses``, against the mask-based
bodies it replaced (``paragon_oracle``).

Stacks of up to six member sets of one size, some of them sub-heaps and
their translates, are classified on lawful heaps and trusses and on ones
built unscanned with corrupted cells: the additive table of a heap of order
<= 12, or the product of a brace of order <= 8 as ``test_c10`` corrupts it.
Both give the same sub-heap witnesses and, on trusses, the same kinds,
failures, members, translates and ``normal``, or raise the same error.
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

import paragon_oracle as old
from trusskit import (AbGroup, Brace, ConsistencyError, FiniteGroup, Truss, brace_from_truss,
                      cyclic_group, heap_from_group, subheap_witness, za_truss, zn_truss)
from trusskit.heaps import _subheap_witnesses
from trusskit.trusses import LEFT, _paragon_reports

KLEIN = AbGroup([[a ^ b for b in range(4)] for a in range(4)])
BRACES = (brace_from_truss(za_truss(2, 4)), brace_from_truss(za_truss(2, 8)),
          Brace(AbGroup.cyclic(8), cyclic_group(8)), Brace(AbGroup.cyclic(6), cyclic_group(6)),
          Brace(KLEIN, FiniteGroup.from_abgroup(KLEIN)))
LAWFUL = ([zn_truss(n) for n in range(1, 13)] + [b.truss for b in BRACES]
          + [Truss(za_truss(2, 4).heap, za_truss(2, 4).mul, sided=LEFT)])


def _corrupted_brace(data):
    """A brace of ``BRACES`` with up to two product cells off the identity's
    row and column rewritten, built unscanned, or None when (B, .) loses its
    inverses."""
    b0 = data.draw(st.sampled_from(BRACES))
    n, mul = b0.order, np.array(b0.mul.mul)
    others = [v for v in range(n) if v != b0.identity]
    for _ in range(data.draw(st.integers(0, 2))):
        mul[data.draw(st.sampled_from(others)), data.draw(st.sampled_from(others))] = (
            data.draw(st.integers(0, n - 1)))
    try:
        return Brace(b0.add, FiniteGroup(mul, check=False), sided=b0.sided, check=False).truss
    except ValueError:
        return None


def _corrupted_heap(data):
    """``zn_truss(n)``, n <= 12, over its additive table with one or two cells
    rewritten, built unscanned, or None when the table has no zero or negatives."""
    t0 = data.draw(st.sampled_from(LAWFUL[1:12]))
    n, add = t0.order, np.array(t0.heap.retract.add)
    for _ in range(data.draw(st.integers(1, 2))):
        add[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))] = (
            data.draw(st.integers(0, n - 1)))
    try:
        return Truss(heap_from_group(AbGroup(add, check=False)), t0.mul, check=False)
    except (ValueError, ConsistencyError):
        return None


def _grown(t, seeds):
    members, grown = set(seeds), None
    while grown != members:
        grown = members
        members = grown | {t.bracket(*abc) for abc in itertools.product(grown, repeat=3)}
    return sorted(members)


def _stack(data, t):
    """Up to six sorted member sets of one size: a sub-heap the bracket grows
    from two or three members and its translates, or random sets."""
    n, k = t.order, data.draw(st.integers(1, 6))
    first = (_grown(t, data.draw(st.sets(st.integers(0, n - 1), min_size=min(2, n), max_size=3)))
             if data.draw(st.booleans()) else None)
    s = len(first) if first else data.draw(st.integers(1, n))
    stack = [first] if first else []
    while len(stack) < k:
        row = None
        if first and data.draw(st.integers(0, 2)):  # two translates to one random set
            row = sorted({t.bracket(data.draw(st.integers(0, n - 1)), first[0], p) for p in first})
        if row is None or len(row) != s:
            row = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=s, max_size=s)))
        stack.append(row)
    return data.draw(st.permutations(stack))  # sub-heaps among the other sets


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ConsistencyError as exc:
        return type(exc).__name__, str(exc)


def _summary(reports):
    if not isinstance(reports, list):
        return reports
    return [(r.kind, r.failures, r.paragon and r.paragon.members, r.normal,
             None if r.translates is None else r.translates.tolist()) for r in reports]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_stacks_match_the_mask_bodies(data):
    kind = data.draw(st.sampled_from(["lawful", "brace", "heap"]))
    t = (data.draw(st.sampled_from(LAWFUL)) if kind == "lawful"
         else _corrupted_brace(data) if kind == "brace" else _corrupted_heap(data))
    if t is None:
        return
    stack = _stack(data, t)
    for h in (t, t.heap):
        want = [old.subheap_witness(h, row) for row in stack]
        assert _subheap_witnesses(h, stack) == want
        assert [subheap_witness(h, row) for row in stack] == want
    got = _summary(_outcome(_paragon_reports, t, stack))
    assert got == _summary(_outcome(old.paragon_reports, t, stack))


def test_sub_heaps_after_a_gap_keep_their_own_translates():
    t = zn_truss(8)
    stack = [[0, 4], [1, 2], [1, 5], [2, 6], [0, 1], [3, 7]]
    assert [r is None for r in _subheap_witnesses(t, stack)] == [True, False, True, True, False,
                                                                True]
    assert _summary(_paragon_reports(t, stack)) == _summary(old.paragon_reports(t, stack))
