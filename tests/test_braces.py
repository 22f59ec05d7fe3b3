import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from trusskit import (
    AbGroup,
    Brace,
    FiniteGroup,
    Truss,
    ValidationError,
    abelian_invariants,
    brace_from_truss,
    brace_ideals,
    brace_law_report,
    closed_subheaps,
    extend,
    heap_from_group,
    ideal_cosets,
    ideal_iff_normal_paragon,
    is_brace_ideal,
    is_normal_paragon,
    regular_module,
    retract,
    socle,
    subheap_witness,
    truss_from_brace,
    truss_from_ring,
    units,
    units_brace,
    za_truss,
    zn_truss,
)
from trusskit.groups import restrict_table


def za4_brace():
    return brace_from_truss(za_truss(2, 4))


def brace16():
    base = za_truss(2, 4)
    return brace_from_truss(extend(base, regular_module(base), 0).truss)


def brace64():
    base = za_truss(2, 8)
    return brace_from_truss(extend(base, regular_module(base), 0).truss)


def additive_truss(n):
    """ab = a + b everywhere: the trivial brace structure on Z_n."""
    add = AbGroup.cyclic(n)
    return Truss(heap_from_group(add), add.add)


class TestBridges:
    def test_za4_group_structures(self):
        b = za4_brace()
        assert abelian_invariants(FiniteGroup.from_abgroup(b.add)) == [4]
        assert abelian_invariants(b.mul) == [2, 2]

    def test_non_brace_type_rejected(self):
        with pytest.raises(ValueError, match="non-invertible"):
            brace_from_truss(zn_truss(4))

    def test_round_trips(self):
        b = za4_brace()
        t = truss_from_brace(b)
        b2 = brace_from_truss(t)
        assert (b2.add.add == b.add.add).all()
        assert (b2.mul.mul == b.mul.mul).all()

    def test_trivial_brace(self):
        b = brace_from_truss(zn_truss(1))
        assert b.order == 1

    def test_brace16_multiplicative_order(self):
        b = brace16()
        assert b.mul.order == 16
        assert not b.mul.is_abelian()

    def test_neutral_mismatch_rejected(self):
        add = AbGroup.cyclic(2)
        mul = FiniteGroup([[1, 0], [0, 1]])  # identity at index 1
        with pytest.raises(ValidationError):
            Brace(add, mul)

    def test_laws_checked(self):
        b = brace16()
        assert brace_law_report(b).ok


class TestSocle:
    def test_za4(self):
        b = za4_brace()
        # oracle: 2ab = 0 mod 4 for all b iff a even
        expected = tuple(
            a for a in range(4) if all((2 * a * c) % 4 == 0 for c in range(4))
        )
        assert socle(b) == expected == (0, 2)

    def test_trivial_brace_socle_everything(self):
        assert socle(brace_from_truss(zn_truss(1))) == (0,)

    def test_additive_brace_socle_everything(self):
        b = brace_from_truss(additive_truss(4))
        assert socle(b) == (0, 1, 2, 3)

    def test_brace16(self):
        b = brace16()
        soc = socle(b)
        assert len(soc) == 8


class TestIdeals:
    def test_socle_is_ideal(self):
        b = za4_brace()
        ok, _ = is_brace_ideal(b, socle(b))
        assert ok

    def test_identity_singleton_is_ideal(self):
        b = za4_brace()
        ok, _ = is_brace_ideal(b, [b.identity])
        assert ok

    def test_non_normal_subgroup_rejected(self):
        b = brace16()
        # find a non-normal subgroup of the multiplicative group
        mul = b.mul
        found = None
        for x in range(1, b.order):
            sub = mul.closure([x])
            sarr = np.array(sub)
            normal = all(
                set(int(v) for v in mul.mul[mul.mul[g, sarr], mul.inv[g]]) <= set(sub)
                for g in range(b.order)
            )
            if not normal:
                found = sub
                break
        assert found is not None
        ok, witness = is_brace_ideal(b, found)
        assert not ok

    def test_ideal_enumeration_za4(self):
        b = za4_brace()
        assert brace_ideals(b) == [(0,), (0, 2), (0, 1, 2, 3)]

    @pytest.mark.parametrize("build,count", [
        (za4_brace, 3),
        (lambda: brace_from_truss(za_truss(2, 8)), 4),
        (brace16, 11),
        (brace64, 19),
    ], ids=["za(2,4)", "za(2,8)", "order16", "order64"])
    def test_ideals_are_the_closed_subheaps_that_are_ideals(self, build, count):
        """The closed sub-heaps through the identity under x -> [tx, t, 1]
        and x -> [xt, t, 1] that pass ``is_brace_ideal`` are the ideals,
        in the order ``brace_ideals`` lists them."""
        b = build()
        mul = b.mul.mul
        want = [s for s in closed_subheaps(heap_from_group(b.add), b.identity, np.vstack((mul, mul.T)))
                if is_brace_ideal(b, s)[0]]
        assert brace_ideals(b) == want
        assert len(want) == count

    def test_cosets(self):
        b = za4_brace()
        assert ideal_cosets(b, (0, 2)) == [(0, 2), (1, 3)]


class TestNormalParagonCharacterisation:
    def test_socle_both_sides(self):
        b = za4_brace()
        assert ideal_iff_normal_paragon(b, socle(b)).ok

    def test_socle_coset(self):
        b = za4_brace()
        rep = ideal_iff_normal_paragon(b, (1, 3))
        assert rep.ok  # normal paragon without identity: not an ideal, in B/Soc

    def test_non_subheap_subset(self):
        b = za4_brace()
        assert ideal_iff_normal_paragon(b, (1, 2)).ok

    def test_exhaustive_small_brace(self):
        b = za4_brace()
        t = truss_from_brace(b)
        for r in range(1, 1 << b.order):
            subset = [i for i in range(b.order) if r >> i & 1]
            assert ideal_iff_normal_paragon(b, subset, truss=t).ok

    def test_off_centre_singleton_of_order_16(self):
        b = brace16()
        t = truss_from_brace(b)
        assert any(b.times(x, 1) != b.times(1, x) for x in range(b.order))
        assert is_normal_paragon(t, [1])
        rep = ideal_iff_normal_paragon(b, [1], truss=t)
        assert rep.ok, rep.render()

    def test_failed_check_names_the_subset(self):
        # the za(2, 4) brace with one product cell corrupted (1 . 2 = 1), built
        # unscanned: {0, 2} passes the ideal test but is no normal paragon
        b0 = za4_brace()
        mul = np.array(b0.mul.mul)
        mul[1, 2] = 1
        b = Brace(b0.add, FiniteGroup(mul, check=False), check=False)
        rep = ideal_iff_normal_paragon(b, [2, 0], truss=b.truss)
        assert rep.notes[0] == "ideal=True normal_paragon=False contains_identity=True"
        assert [(c.name, c.witness) for c in rep.failures()] == [
            ("ideal_iff_normal_paragon_with_identity", (0, 2)),
            ("quotient_member_iff_normal_paragon", (0, 2)),
        ]

    @pytest.mark.parametrize("brace,truss,subset", [
        (lambda: brace_from_truss(za_truss(2, 8)), lambda: truss_from_brace(brace16()), [0, 4]),
        (brace16, lambda: za_truss(2, 8), [0, 4]),
        # a zero-ring truss on the Klein group is not the truss of the Z_4 brace
        (za4_brace, lambda: truss_from_ring(AbGroup([[a ^ c for c in range(4)] for a in range(4)]),
                                            [[0] * 4] * 4), [0, 1]),
        (za4_brace, lambda: Truss(za4_brace().truss.heap, za4_brace().truss.mul, sided="left"),
         [0, 2]),
    ], ids=["za8_with_order_16_truss", "order_16_with_za8_truss", "za4_with_klein_zero_ring",
            "za4_with_its_left_truss"])
    def test_a_truss_without_the_braces_tables_is_rejected(self, brace, truss, subset):
        with pytest.raises(ValueError, match="^truss does not carry the brace's tables and side$"):
            ideal_iff_normal_paragon(brace(), subset, truss=truss())

    def test_an_equal_truss_built_apart_is_accepted(self):
        b = za4_brace()
        t = Truss(heap_from_group(AbGroup(np.array(b.add.add))), np.array(b.mul.mul))
        assert t.mul is not b.truss.mul and t == b.truss
        assert ideal_iff_normal_paragon(b, [0, 2], truss=t).ok

    def test_socle_cosets_are_paragons_in_truss(self):
        from trusskit import is_paragon

        b = brace16()
        t = truss_from_brace(b)
        soc = np.array(socle(b))
        for c in range(b.order):
            coset = sorted(int(v) for v in b.add.add[c, soc])
            assert is_paragon(t, coset).is_paragon


class TestUnitsBrace:
    def test_z4_units_brace(self):
        b = units_brace(zn_truss(4))
        assert b.order == 2
        assert b.labels == ("1", "3")
        # trivial C2 brace: multiplication equals addition
        assert (b.add.add == b.mul.mul).all()

    def test_z6_units_not_subheap(self):
        with pytest.raises(ValidationError) as err:
            units_brace(zn_truss(6))
        assert err.value.law == "units.subheap"
        assert err.value.witness == (1, 5, 1)

    def test_whole_group_truss_matches_bridge(self):
        t = za_truss(2, 4)
        b1 = units_brace(t)
        b2 = brace_from_truss(t)
        assert (b1.add.add == b2.add.add).all()
        assert (b1.mul.mul == b2.mul.mul).all()

    def test_poly_units_brace(self):
        from trusskit import trunc_poly_truss

        tp = trunc_poly_truss(1, 2)
        b = units_brace(tp.truss)
        assert b.order == 2


def _scanned_brace(t, units_only=False):
    """``brace_from_truss(t)``, or ``units_brace(t)`` when ``units_only``, with
    the additive group built by ``check=True``: every group law is scanned."""
    idx = np.arange(t.order)
    if units_only:
        us = np.array(units(t))
        labels, table = [t.label_of(u) for u in us], retract(t.heap, t.identity).add
    else:
        us, labels = idx, t.labels
        table = t.bracket_arrays(idx[:, None], t.identity, idx[None, :])
    add = AbGroup(restrict_table(table, us), labels=labels)
    mul = FiniteGroup(restrict_table(t.mul, us), labels=labels)
    return Brace(add, mul, sided=t.sided, labels=labels)


def _outcome(build, t):
    try:
        b = build(t)
    except ValueError as exc:  # ValidationError included
        return type(exc).__name__, str(exc), getattr(exc, "law", None), getattr(exc, "witness", None)
    return b.add.add.tolist(), b.mul.mul.tolist(), b.labels


class TestCorruptedHeapBraces:
    """On an unchecked truss whose heap is corrupted, the inherited additive
    group is scanned and raises what the full scan of [x, 1, y] raises.
    The corruption spares the basepoint's row and column: where the stored
    zero is only a one-sided identity, [x, 0, y] differs from the stored
    table, and the same law can fail at another witness."""

    TRUSSES = (za_truss(2, 4), za_truss(2, 8), truss_from_brace(za4_brace()), zn_truss(8))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_the_full_scan(self, data):
        t0 = data.draw(st.sampled_from(self.TRUSSES))
        add, base = np.array(t0.heap.retract.add), t0.heap.basepoint
        others = [v for v in range(t0.order) if v != base]
        for _ in range(data.draw(st.integers(0, 2))):
            i, j = data.draw(st.sampled_from(others)), data.draw(st.sampled_from(others))
            add[i, j] = data.draw(st.integers(0, t0.order - 1))
        try:
            t = Truss(heap_from_group(AbGroup(add, check=False)), t0.mul, sided=t0.sided,
                      labels=t0.labels, check=False)
        except ValidationError:
            assume(False)
        if len(units(t)) == t.order:
            assert _outcome(brace_from_truss, t) == _outcome(_scanned_brace, t)
        if subheap_witness(t, units(t)) is None:
            assert _outcome(units_brace, t) == _outcome(
                lambda t: _scanned_brace(t, units_only=True), t)
