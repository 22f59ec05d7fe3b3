"""C10, brace ideals are the normal paragons through the identity, against its
oracle, and the ``is_normal_paragon`` contract it relies on.

``c10_oracle`` keeps ``ideal_iff_normal_paragon`` as it was before it took
the ideal side from ``brace_ideals``: it runs ``is_brace_ideal`` on the
subset and tests normality on the member list.  Both give the same report
(title, checks, witnesses, notes) or raise the same error on every subset of
the za(2, 4) and za(2, 8) braces, on the ideals, cosets and 150 sampled
subsets of the order-16 extension brace, and on braces of order <= 8 built
unscanned with up to two corrupted (B, .) cells.  On the same braces,
membership in ``brace_ideals`` is ``is_brace_ideal``'s verdict.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import c10_oracle as old
from trusskit import (
    AbGroup,
    Brace,
    ConsistencyError,
    FiniteGroup,
    Truss,
    brace_from_truss,
    brace_ideals,
    cyclic_group,
    extend,
    heap_from_group,
    ideal_cosets,
    ideal_iff_normal_paragon,
    is_brace_ideal,
    is_normal_paragon,
    is_paragon,
    regular_module,
    truss_from_brace,
    za_truss,
    zn_truss,
)


def _brace16():
    base = za_truss(2, 4)
    return brace_from_truss(extend(base, regular_module(base), 0).truss)


def _report(check, b, s, truss):
    try:
        rep = check(b, s, truss=truss)
    except (ValueError, ConsistencyError) as exc:  # ValidationError is a ValueError
        return type(exc).__name__, str(exc), getattr(exc, "law", None), getattr(exc, "witness", None)
    return rep.title, [(c.name, c.passed, c.witness) for c in rep.checks], rep.notes


def _every_subset(n):
    return [[i for i in range(n) if r >> i & 1] for r in range(1 << n)]


def _agree(b, subsets, truss):
    ideals = brace_ideals(b)
    for s in subsets:
        assert _report(ideal_iff_normal_paragon, b, s, truss) == _report(
            old.ideal_iff_normal_paragon, b, s, truss), s
        if s:
            assert (tuple(sorted(s)) in ideals) == is_brace_ideal(b, s)[0], s


@pytest.mark.parametrize("k", [4, 8])
def test_every_subset_of_the_za_braces(k):
    b = brace_from_truss(za_truss(2, k))
    _agree(b, _every_subset(k), truss_from_brace(b))


def test_ideals_cosets_and_sampled_subsets_of_the_order_16_brace():
    b = _brace16()
    subsets = [list(i) for i in brace_ideals(b)]
    subsets += [list(c) for i in brace_ideals(b) for c in ideal_cosets(b, i)]
    rng = random.Random(0)
    subsets += [sorted(rng.sample(range(16), rng.randint(1, 16))) for _ in range(150)]
    _agree(b, subsets, truss_from_brace(b))


KLEIN = AbGroup([[a ^ b for b in range(4)] for a in range(4)])
BRACES = (brace_from_truss(za_truss(2, 4)), brace_from_truss(za_truss(2, 8)),
          Brace(AbGroup.cyclic(8), cyclic_group(8)),  # a + b = a . b
          Brace(AbGroup.cyclic(6), cyclic_group(6)), Brace(KLEIN, FiniteGroup.from_abgroup(KLEIN)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_unscanned_braces_with_corrupted_products(data):
    """Cells off the identity's row and column keep (B, .) an unscanned table
    with an identity; one whose inverses break is not a brace at all."""
    b0 = data.draw(st.sampled_from(BRACES))
    n, mul = b0.order, np.array(b0.mul.mul)
    others = [v for v in range(n) if v != b0.identity]
    for _ in range(data.draw(st.integers(0, 2)) if others else 0):
        i, j = data.draw(st.sampled_from(others)), data.draw(st.sampled_from(others))
        mul[i, j] = data.draw(st.integers(0, n - 1))
    try:
        mulgroup = FiniteGroup(mul, check=False)
    except ValueError:
        return
    b = Brace(b0.add, mulgroup, sided=b0.sided, check=False)
    _agree(b, _every_subset(n), b.truss)
    # without a truss both scan the brace's own, and raise alike when it fails
    for s in ([b.identity], list(range(n))):
        assert _report(ideal_iff_normal_paragon, b, s, None) == _report(
            old.ideal_iff_normal_paragon, b, s, None)


class TestNormalParagonContract:
    """Every input, a Paragon of ``t`` included, is read as its member list
    and tested as a sub-heap first."""

    @pytest.mark.parametrize("t", [za_truss(2, 4), zn_truss(8), truss_from_brace(_brace16())],
                             ids=["za2_4", "z8", "brace16"])
    def test_a_paragon_of_t_gives_its_member_lists_verdict(self, t):
        rng = random.Random(1)
        subsets = (_every_subset(t.order)[1:] if t.order <= 8 else
                   [sorted(rng.sample(range(t.order), rng.randint(1, t.order))) for _ in range(300)])
        seen = 0
        for s in subsets:
            p = is_paragon(t, s).paragon
            if p is not None:
                assert is_normal_paragon(t, p) == is_normal_paragon(t, list(p.members))
                seen += 1
        assert seen

    def test_a_paragon_of_another_truss_is_tested_as_a_sub_heap(self):
        zero = Truss(heap_from_group(KLEIN), np.zeros((4, 4), dtype=np.int64))
        p = is_paragon(zero, [0, 1]).paragon  # an ideal there, no sub-heap of Z_4
        assert p is not None and p.parent is zero
        with pytest.raises(ValueError, match="normality is defined on sub-heaps"):
            is_normal_paragon(zn_truss(4), p)

    def test_the_empty_list_raises(self):
        with pytest.raises(ValueError, match="normality of the empty set is undefined"):
            is_normal_paragon(zn_truss(4), [])
