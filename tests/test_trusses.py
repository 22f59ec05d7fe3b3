import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trusskit import (
    AbGroup,
    ConsistencyError,
    Truss,
    ValidationError,
    brace_from_truss,
    extend,
    heap_from_group,
    inverse_in,
    is_brace_type,
    is_normal_paragon,
    is_paragon,
    is_ring_type,
    is_zn_truss,
    lambda_q,
    odd_multiple_check,
    opposite_truss,
    paragons,
    quotient_truss,
    regular_module,
    rho_q,
    truss_from_brace,
    truss_from_ring,
    truss_isomorphism,
    truss_law_report,
    units,
    units_paragon_report,
    za_truss,
    zn_ring,
    zn_truss,
)
from trusskit.catalog import (
    end_truss,
    group_ring,
    left_translation_truss,
    trunc_poly_truss,
)
from trusskit.groups import cyclic_group
from trusskit.heaps import closed_subheaps, subheap_closure, subheap_relation_classes, subheap_witness


class TestConstruction:
    def test_z4_truss(self):
        t = zn_truss(4)
        assert t.identity == 1 and t.absorber == 0
        assert is_ring_type(t) and not is_brace_type(t)

    def test_zero_ring(self):
        t = truss_from_ring(AbGroup.cyclic(2), [[0, 0], [0, 0]])
        assert t.absorber == 0 and t.identity is None

    def test_componentwise_ring(self):
        # Z2 x Z2 with componentwise multiplication
        def mul(a, b):
            return ((a >> 1) & (b >> 1)) << 1 | (a & b & 1)

        add = AbGroup([[a ^ b for b in range(4)] for a in range(4)])
        t = truss_from_ring(add, [[mul(a, b) for b in range(4)] for a in range(4)])
        assert t.order == 4 and t.identity == 3

    def test_ring_law_violation_witnessed(self):
        mul = [[(a * b) % 4 for b in range(4)] for a in range(4)]
        mul[2][3] = 1
        with pytest.raises(ValidationError) as err:
            truss_from_ring(AbGroup.cyclic(4), mul)
        assert err.value.law.startswith("ring.")

    @pytest.mark.parametrize("mul, law, witness", [
        ([[0, 1, 2], [1, 2, 0]], "truss.shape", None),
        ([[0, 0, 0], [0, 1, 2], [0, 2, 3]], "truss.closure", (2, 2)),
    ], ids=["not_square", "off_the_carrier"])
    def test_a_malformed_ring_table_fails_as_the_truss_reads_it(self, mul, law, witness):
        """``truss_from_ring`` hands ``mul`` to ``Truss`` unread, so its table
        errors are the truss's: ``truss.*``, not ``ring.*``."""
        with pytest.raises(ValidationError) as err:
            truss_from_ring(AbGroup.cyclic(3), mul)
        assert (err.value.law, err.value.witness) == (law, witness)

    def test_constant_multiplication_is_a_truss(self):
        t = Truss(heap_from_group(AbGroup.cyclic(4)), np.full((4, 4), 2))
        assert truss_law_report(t).ok

    def test_subtraction_fails_associativity(self):
        sub = [[(a - b) % 4 for b in range(4)] for a in range(4)]
        with pytest.raises(ValidationError) as err:
            Truss(heap_from_group(AbGroup.cyclic(4)), sub)
        assert err.value.law == "truss.associative"

    def test_left_truss_skips_right_distributivity(self):
        t = left_translation_truss()
        rep = truss_law_report(t)
        assert rep.ok
        assert not any(c.name == "truss.right_distributive" for c in rep.checks)
        # and right distributivity genuinely fails on it
        br = t.bracket
        failing = [
            (a, b, c, d)
            for a in range(4)
            for b in range(4)
            for c in range(4)
            for d in range(4)
            if t.mul[br(b, c, d), a] != br(t.mul[b, a], t.mul[c, a], t.mul[d, a])
        ]
        assert failing

    def test_sampled_validation_above_cutoff(self):
        t = zn_truss(65)
        assert t.identity == 1


class TestTranslates:
    def test_lambda_value_in_z4(self):
        t = zn_truss(4)
        # [2*3, 2*1, 1] = [2, 2, 1] = 1
        assert lambda_q(t, 2, 3, 1) == 1

    def test_lambda_at_q_is_q(self):
        t = zn_truss(6)
        for x in range(6):
            for q in range(6):
                assert lambda_q(t, x, q, q) == q

    def test_rho_with_identity_is_p(self):
        t = zn_truss(6)
        for p in range(6):
            for q in range(6):
                assert rho_q(t, p, t.identity, q) == p


class TestParagons:
    def test_units_of_z4_two_sided(self):
        r = is_paragon(zn_truss(4), [1, 3])
        assert r.kind == "two-sided" and r.is_paragon

    def test_even_ideal(self):
        assert is_paragon(zn_truss(4), [0, 2]).kind == "ideal"

    def test_non_subheap_witnessed(self):
        r = is_paragon(zn_truss(4), [1, 2])
        assert r.kind == "none"
        assert r.failures["subheap"] == (1, 2, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_paragon(zn_truss(4), [])

    def test_every_ideal_is_a_paragon(self):
        t = zn_truss(12)
        for d in (2, 3, 4, 6):
            members = list(range(0, 12, d))
            assert is_paragon(t, members).kind == "ideal"

    def test_left_truss_classification(self):
        t = left_translation_truss()
        # {0, 2} is a sub-heap; lambda closure: x.s = s + g(x) in {0+g, 2+g}
        r = is_paragon(t, [0, 2])
        assert r.kind in ("left", "none")

    def test_normal_in_commutative(self):
        t = zn_truss(4)
        assert is_normal_paragon(t, [1, 3])

    def test_non_subheap_rejected(self):
        with pytest.raises(ValueError, match="sub-heap"):
            is_normal_paragon(zn_truss(4), [1, 2])


def _loop_normal(t, members):
    """Oracle: the per-x set comparison of the relative translates."""
    sarr = np.array(members)
    for q in members:
        left = t.bracket_arrays(t.mul[:, sarr], t.mul[:, q][:, None], q)
        right = t.bracket_arrays(t.mul[sarr, :], t.mul[q, :][None, :], q)
        for x in range(t.order):
            if set(int(v) for v in left[x]) != set(int(v) for v in right[:, x]):
                return False
    return True


def _setwise_normal(t, members):
    """Oracle: tP = Pt as sets for every t."""
    sarr = np.array(members)
    return all(
        set(t.mul[x, sarr].tolist()) == set(t.mul[sarr, x].tolist())
        for x in range(t.order)
    )


def _mask_normal(t, members):
    """Oracle: the former predicate, one (|P|, n, n) left and right membership
    mask over every q in P, compared as a whole."""
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


@functools.lru_cache(maxsize=None)
def _normality_truss(name):
    if name == "brace8":
        return truss_from_brace(brace_from_truss(za_truss(2, 8)))
    if name == "brace16":
        base = za_truss(2, 4)
        return truss_from_brace(brace_from_truss(extend(base, regular_module(base), 0).truss))
    if name.startswith("end"):
        return end_truss(AbGroup.cyclic(int(name[3:]))).truss
    if name == "left":
        return left_translation_truss()
    if name == "za3_9":
        return za_truss(3, 9)
    if name == "poly1_3":
        return trunc_poly_truss(1, 3).truss
    return zn_truss(int(name[1:]))


NORMALITY_TRUSSES = ["brace8", "brace16"] + ["z%d" % n for n in range(1, 13)]
# Order <= 16, with sub-heaps that are not normal (all but za3_9, poly1_3, z12)
# and a left truss.
SUBHEAP_TRUSSES = ["end2", "end3", "end4", "left", "za3_9", "poly1_3", "z12", "brace16"]


def _every_subheap(t):
    """Every coset of every subgroup of the retract at the basepoint."""
    h = t.heap
    subgroups = closed_subheaps(h, h.basepoint, np.arange(t.order)[None, :])
    return [c for s in subgroups for c in subheap_relation_classes(h, s)]


# Catalog trusses of order <= 12, with a left truss and a noncommutative one.
ENUMERABLE = [zn_truss(n) for n in range(1, 13)] + [
    za_truss(2, 8), za_truss(3, 9), za_truss(1, 12), trunc_poly_truss(1, 3).truss,
    group_ring(zn_ring(2), cyclic_group(2)).ring.truss(),
    group_ring(zn_ring(3), cyclic_group(2)).ring.truss(),
    end_truss(AbGroup.cyclic(2)).truss, end_truss(AbGroup.cyclic(3)).truss,
    left_translation_truss(), extend(zn_truss(2), regular_module(zn_truss(2)), 0).truss,
]


class TestParagonLattice:
    @pytest.mark.parametrize("t", ENUMERABLE, ids=lambda t: "order%d" % t.order)
    def test_matches_subset_enumeration(self, t):
        e, rest = t.heap.basepoint, [x for x in range(t.order) if x != t.heap.basepoint]
        wanted = "left" if t.sided == "left" else ("two-sided", "ideal")
        expected = []
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                members = tuple(sorted((e,) + extra))
                if is_paragon(t, members).kind in wanted:
                    expected.append(members)
        assert paragons(t) == sorted(expected, key=lambda s: (len(s), s))

    def test_z12_ideals(self):
        assert paragons(zn_truss(12)) == [
            (0,), (0, 6), (0, 4, 8), (0, 3, 6, 9), (0, 2, 4, 6, 8, 10), tuple(range(12))]


class TestNormalParagon:
    def test_shift_normal_is_the_same_function(self):
        from trusskit import trusses

        assert trusses.is_shift_normal is trusses.is_normal_paragon

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_loop_oracle(self, data):
        t = _normality_truss(data.draw(st.sampled_from(NORMALITY_TRUSSES)))
        members = sorted(data.draw(st.sets(st.integers(0, t.order - 1), min_size=1)))
        if subheap_witness(t, members) is None:
            assert is_normal_paragon(t, members) == _loop_normal(t, members)
        else:
            with pytest.raises(ValueError):
                is_normal_paragon(t, members)
        if t.identity is None:
            return
        # on the sub-heap generated by the identity and a few more elements,
        # if it is a paragon, the predicate agrees with set-wise normality
        gens = data.draw(st.sets(st.integers(0, t.order - 1), max_size=2))
        grown = {t.identity} | gens
        while True:
            arr = np.array(sorted(grown))
            more = set(t.bracket_arrays(arr[:, None, None], arr[None, :, None],
                                        arr[None, None, :]).ravel().tolist())
            if more <= grown:
                break
            grown |= more
        grown = sorted(grown)
        if is_paragon(t, grown).paragon is not None:
            assert is_normal_paragon(t, grown) == _setwise_normal(t, grown)

    @pytest.mark.parametrize("name", SUBHEAP_TRUSSES)
    def test_matches_mask_oracle_on_every_subheap(self, name):
        t = _normality_truss(name)
        subheaps = _every_subheap(t)
        verdicts = [is_normal_paragon(t, s) for s in subheaps]
        assert verdicts == [_mask_normal(t, s) for s in subheaps]
        if name == "end4":
            assert len(subheaps) == 75 and verdicts.count(False) == 59

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_mask_oracle_on_drawn_subheaps(self, data):
        t = _normality_truss(data.draw(st.sampled_from(SUBHEAP_TRUSSES)))
        elements = st.integers(0, t.order - 1)
        q, seeds = data.draw(elements), data.draw(st.lists(elements, max_size=3))
        members = subheap_closure(t.heap, q, np.arange(t.order)[None, :], seeds)
        assert is_normal_paragon(t, members) == _mask_normal(t, members)

    def test_units_of_z1024_in_bounded_memory(self):
        t = zn_truss(1024)
        us = units(t)
        tracemalloc.start()
        try:
            assert is_normal_paragon(t, us)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestZnMatch:
    """``is_zn_truss`` (the additive order of 1 in the absorber retract)
    against the isomorphism search it replaced, on every quotient by a
    paragon through the basepoint or a shifted one."""

    @pytest.mark.parametrize("build", [
        *(functools.partial(zn_truss, n) for n in (1, 2, 4, 6, 8, 9, 12, 16)),
        functools.partial(za_truss, 2, 8), functools.partial(za_truss, 3, 9),
        lambda: trunc_poly_truss(1, 3).truss, lambda: trunc_poly_truss(2, 2).truss,
        lambda: group_ring(zn_ring(2), cyclic_group(2)).ring.truss(),
        lambda: group_ring(zn_ring(3), cyclic_group(2)).ring.truss(),
        lambda: end_truss(AbGroup.cyclic(2)).truss,
    ], ids=["z1", "z2", "z4", "z6", "z8", "z9", "z12", "z16", "za2_8", "za3_9",
            "poly1_3", "poly2_2", "z2c2", "z3c2", "end2"])
    def test_matches_isomorphism_search(self, build):
        t = build()
        quotients = [t] + [quotient_truss(t, p)[0] for p in paragons(t)]
        if t.identity is not None:
            quotients += [quotient_truss(t, [t.bracket(x, t.heap.basepoint, t.identity)
                                             for x in p])[0] for p in paragons(t)]
        for q in quotients:
            assert is_zn_truss(q) == (truss_isomorphism(q, zn_truss(q.order)) is not None)

    def test_needs_identity_and_absorber(self):
        assert not is_zn_truss(za_truss(2, 4))  # unital, no absorber
        assert not is_zn_truss(Truss(heap_from_group(AbGroup.cyclic(3)), np.zeros((3, 3), int)))
        assert is_zn_truss(zn_truss(7)) and not is_zn_truss(trunc_poly_truss(1, 2).truss)


class TestQuotients:
    def test_z4_mod_units(self):
        t = zn_truss(4)
        q, proj = quotient_truss(t, [1, 3])
        assert q.order == 2
        assert truss_isomorphism(q, zn_truss(2)) is not None
        assert list(proj) == [0, 1, 0, 1]

    def test_quotient_by_self(self):
        t = zn_truss(4)
        q, _ = quotient_truss(t, range(4))
        assert q.order == 1

    def test_z8_mod_units(self):
        q, _ = quotient_truss(zn_truss(8), [1, 3, 5, 7])
        assert truss_isomorphism(q, zn_truss(2)) is not None

    def test_left_truss_rejected(self):
        t = left_translation_truss()
        with pytest.raises(ValueError, match="two-sided"):
            quotient_truss(t, [0, 2])

    def test_projection_multiplicative(self):
        t = zn_truss(9)
        q, proj = quotient_truss(t, [0, 3, 6])
        for a in range(9):
            for b in range(9):
                assert proj[t.mul[a, b]] == q.mul[proj[a], proj[b]]

    def test_kernel_fibers_are_paragons_subtruss_iff_idempotent(self):
        t = zn_truss(9)
        q, proj = quotient_truss(t, [0, 3, 6])
        for cls in range(q.order):
            fiber = [int(v) for v in np.flatnonzero(proj == cls)]
            assert is_paragon(t, fiber).is_paragon
            farr = np.array(fiber)
            closed = bool(np.isin(t.mul[np.ix_(farr, farr)], farr).all())
            idempotent = int(q.mul[cls, cls]) == cls
            assert closed == idempotent

    def test_quotient_by_ideal_is_ring_type(self):
        q, _ = quotient_truss(zn_truss(12), list(range(0, 12, 3)))
        assert q.absorber is not None


class TestUnits:
    def test_unit_sets(self):
        assert units(zn_truss(4)) == (1, 3)
        assert units(zn_truss(2)) == (1,)
        assert units(zn_truss(12)) == (1, 5, 7, 11)

    def test_inverse_in(self):
        t = zn_truss(12)
        assert inverse_in(t, 5) == 5
        assert inverse_in(t, 7) == 7
        assert inverse_in(t, 2) is None

    def test_no_identity_error(self):
        zero_ring = truss_from_ring(AbGroup.cyclic(2), [[0, 0], [0, 0]])
        with pytest.raises(ValueError):
            units(zero_ring)


class TestUnitsParagonReport:
    def test_z4(self):
        rep = units_paragon_report(zn_truss(4))
        assert rep.is_paragon and rep.unit_or_one_minus_unit
        assert rep.quotient_is_mod2 and rep.quotient_char2

    def test_z6_fails_with_three(self):
        t = zn_truss(6)
        rep = units_paragon_report(t)
        assert not rep.is_paragon and not rep.unit_or_one_minus_unit
        # witness: r = 3 is not a unit and 1 - 3 = 4 is not a unit
        one_minus_three = t.bracket(1, 3, 0)
        assert one_minus_three == 4
        assert 3 not in rep.units and 4 not in rep.units

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_powers_of_two(self, k):
        rep = units_paragon_report(zn_truss(2 ** k))
        assert rep.is_paragon and rep.quotient_is_mod2

    def test_odd_prime_square_not_subheap_but_cover_holds(self):
        # mod 9 every non-unit r has 1-r a unit, yet U is not a sub-heap:
        # the exactly-one predicate is what separates the two situations.
        rep = units_paragon_report(zn_truss(9))
        assert not rep.is_subheap
        assert not rep.unit_or_one_minus_unit

    def test_requires_ring_type(self):
        with pytest.raises(ValueError):
            units_paragon_report(za_truss(2, 4))

    def test_difference_of_units_never_a_unit(self):
        # holds whenever the units form a paragon
        for n in (2, 4, 8, 16, 32):
            t = zn_truss(n)
            rep = units_paragon_report(t)
            assert rep.is_paragon
            us = set(rep.units)
            for a in us:
                for b in us:
                    assert t.bracket(a, b, t.absorber) not in us


class TestOddMultiples:
    def test_z4_and_z8(self):
        assert odd_multiple_check(zn_truss(4))
        assert odd_multiple_check(zn_truss(8))

    def test_requires_paragon(self):
        with pytest.raises(ValueError):
            odd_multiple_check(zn_truss(6))


class TestIsomorphismSearch:
    def test_not_isomorphic_different_unit_counts(self):
        assert truss_isomorphism(zn_truss(4), za_truss(2, 4)) is None

    def test_relabelled_truss_found(self):
        t = za_truss(2, 4)
        # relabel through the anchor-change of its own heap: shift by 1
        perm = [(x + 1) % 4 for x in range(4)]
        inv = [perm.index(i) for i in range(4)]
        add = [[perm[(inv[a] + inv[b]) % 4] for b in range(4)] for a in range(4)]
        mul = [[perm[t.mul[inv[a], inv[b]]] for b in range(4)] for a in range(4)]
        t2 = Truss(heap_from_group(AbGroup(add)), mul)
        phi = truss_isomorphism(t, t2)
        assert phi is not None
        for a in range(4):
            for b in range(4):
                assert phi[t.mul[a, b]] == t2.mul[phi[a], phi[b]]

    def test_opposite_of_commutative(self):
        t = zn_truss(6)
        assert opposite_truss(t) == t

    def test_opposite_rejects_left(self):
        with pytest.raises(ValueError):
            opposite_truss(left_translation_truss())
