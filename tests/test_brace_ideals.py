"""``brace_ideals`` against its oracle, and literal ideal counts.

``ideals_oracle`` keeps the subgroup walk that ``brace_ideals`` ran before
it took its sets from ``heaps._closed_sets``.  Both give the same list, in
the same order, on lawful braces and on braces of order <= 8 built unscanned
with up to two corrupted (B, .) cells, as ``test_c10`` builds them.  Each
case searches a fresh ``Brace``, since ``Brace._ideals`` keeps the list.

On a trivial brace (a . b = a + b) every subgroup of A is normal in (A, +)
and closed under a . s - a = s, so the ideals are the subgroups of A.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ideals_oracle as old
from trusskit import (
    AbGroup,
    Brace,
    FiniteGroup,
    brace_from_truss,
    brace_ideals,
    extend,
    regular_module,
    units_brace,
    za_truss,
    zn_truss,
)
from trusskit.trusses import LEFT


def _group(*orders):
    return functools.reduce(AbGroup.direct_sum, map(AbGroup.cyclic, orders))


def _trivial(*orders, sided="two-sided"):
    a = _group(*orders)
    return Brace(a, FiniteGroup.from_abgroup(a), sided=sided)


def _extension_brace(k):
    base = za_truss(2, k)
    return brace_from_truss(extend(base, regular_module(base), 0).truss)


def _fresh(b, mul=None):
    """An unscanned copy of ``b``, with ``mul`` as its (B, .) table if given."""
    mulgroup = b.mul if mul is None else FiniteGroup(mul, check=False)
    return Brace(b.add, mulgroup, sided=b.sided, labels=b.labels, check=False)


def _same(b):
    assert brace_ideals(_fresh(b)) == old.brace_ideals(_fresh(b))


SMALL = ([brace_from_truss(za_truss(a, n)) for a, n in ((2, 2), (2, 4), (2, 8), (3, 3), (3, 9))]
         + [_trivial(*orders) for orders in ((4,), (2, 2), (6,), (8,), (4, 2), (2, 2, 2))]
         + [_trivial(8, sided=LEFT), units_brace(zn_truss(16))])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_same_list_on_lawful_and_corrupted_braces(data):
    """Cells off the identity's row and column keep (B, .) an unscanned table
    with an identity; one whose inverses break is not a brace at all."""
    b = data.draw(st.sampled_from(SMALL))
    n, mul = b.order, np.array(b.mul.mul)
    others = [v for v in range(n) if v != b.identity]
    for _ in range(data.draw(st.integers(0, 2)) if n <= 8 else 0):
        i, j = data.draw(st.sampled_from(others)), data.draw(st.sampled_from(others))
        mul[i, j] = data.draw(st.integers(0, n - 1))
    try:
        b = _fresh(b, mul)
    except ValueError:
        return
    _same(b)


@pytest.mark.parametrize("build", [
    functools.partial(_extension_brace, 4), functools.partial(_extension_brace, 8),
    lambda: brace_from_truss(za_truss(2, 16)), lambda: brace_from_truss(za_truss(3, 27)),
    lambda: _trivial(3, 3), lambda: _trivial(4, 4)],
    ids=["order16", "order64", "za(2,16)", "za(3,27)", "C3xC3", "C4xC4"])
def test_the_same_list_on_larger_lawful_braces(build):
    _same(build())


@pytest.mark.parametrize("orders, count", [
    ((4,), 3), ((2, 2), 5), ((6,), 4), ((8,), 4), ((4, 2), 8), ((2, 2, 2), 16),
    ((9,), 3), ((3, 3), 6)], ids=["C4", "C2^2", "C6", "C8", "C4xC2", "C2^3", "C9", "C3^2"])
def test_a_trivial_brace_has_a_subgroup_of_a_for_each_ideal(orders, count):
    ideals = brace_ideals(_trivial(*orders))
    assert len(ideals) == count
    assert ideals[0] == (0,) and ideals[-1] == tuple(range(int(np.prod(orders))))
