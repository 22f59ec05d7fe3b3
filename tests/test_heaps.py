import dataclasses

import numpy as np
import pytest

from trusskit import (
    AbGroup,
    Heap,
    Report,
    SubHeap,
    ValidationError,
    heap_from_group,
    heap_law_report,
    product_heap,
    quotient_heap,
    retract,
    subheap_relation_classes,
    translate,
    validate_ternary_table,
)


def z(n):
    return AbGroup.cyclic(n)


def klein_four():
    # Z2 x Z2 as XOR on 0..3
    return AbGroup([[a ^ b for b in range(4)] for a in range(4)])


SMALL_GROUPS = [z(1), z(2), z(4), z(6), klein_four(), z(3).direct_sum(z(4))]


def brute_bracket(g, a, b, c):
    return int(g.add[g.add[a, g.neg[b]], c])


class TestAbGroup:
    def test_cyclic_tables(self):
        g = z(4)
        assert g.zero == 0
        assert g.sum_of(3, 2) == 1
        assert g.neg_of(1) == 3

    def test_rejects_broken_identity(self):
        with pytest.raises(ValidationError) as err:
            AbGroup([[0, 0], [0, 0]])
        assert err.value.law == "group.identity"

    def test_rejects_noncommutative(self):
        # S3-like fragment is not even closed; use a twisted table instead
        bad = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
        with pytest.raises(ValidationError):
            AbGroup(bad)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError) as err:
            AbGroup([[0, 1], [1, 5]])
        assert err.value.law == "group.closure"

    def test_element_orders(self):
        g = z(6)
        assert list(g.element_orders()) == [1, 6, 3, 2, 3, 6]

    def test_direct_sum_order(self):
        g = z(2).direct_sum(z(3))
        assert g.order == 6
        # pair (1, 2) has index 1*3+2 = 5; (1,2)+(1,1) = (0, 0)
        assert g.sum_of(5, 4) == 0


class TestHeapBasics:
    def test_trivial_heap(self):
        h = heap_from_group(z(1))
        assert h.bracket(0, 0, 0) == 0

    def test_z4_bracket_values(self):
        h = heap_from_group(z(4))
        # oracle: a - b + c mod 4
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    assert h.bracket(a, b, c) == (a - b + c) % 4
        assert h.bracket(1, 2, 3) == 2

    def test_malcev_on_klein(self):
        h = heap_from_group(klein_four())
        for a in range(4):
            for c in range(4):
                assert h.bracket(a, a, c) == c

    @pytest.mark.parametrize("g", SMALL_GROUPS, ids=lambda g: "n%d" % g.order)
    def test_laws_exhaustive(self, g):
        assert heap_law_report(heap_from_group(g)).ok

    def test_laws_sampled_large(self):
        # order 24 was once sampled; every order is now checked exhaustively
        rep = heap_law_report(heap_from_group(z(24)))
        assert rep.ok
        assert [f.name for f in dataclasses.fields(Report)] == ["title", "checks", "notes"]
        assert {c.name for c in rep.checks} >= {"group.associative", "group.commutative"}

    def test_empty_heap_rejections(self):
        h = Heap.empty()
        assert h.order == 0
        with pytest.raises(ValueError, match="empty heap"):
            h.bracket(0, 0, 0)
        with pytest.raises(ValueError, match="empty heap"):
            retract(h, 0)


class TestTernaryTable:
    def build_table(self, g):
        n = g.order
        return [
            [[brute_bracket(g, a, b, c) for c in range(n)] for b in range(n)]
            for a in range(n)
        ]

    def test_z4_table_accepted(self):
        h = validate_ternary_table(self.build_table(z(4)))
        assert h.retract == z(4)

    def test_xor_table_accepted(self):
        t = [[[a ^ b ^ c for c in range(4)] for b in range(4)] for a in range(4)]
        h = validate_ternary_table(t)
        assert h.retract == klein_four()

    def test_malcev_violation_witnessed(self):
        t = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
        t[0][0][0] = 1
        with pytest.raises(ValidationError) as err:
            validate_ternary_table(t)
        assert err.value.law == "ternary.malcev"
        assert err.value.witness == (0, 0, 0)

    def test_associativity_violation_witnessed(self):
        t = self.build_table(z(4))
        t[1][2][3] = 0  # breaks associativity somewhere but keeps Mal'cev cells
        with pytest.raises(ValidationError) as err:
            validate_ternary_table(t)
        # the 0-retract is untouched, so the rebuild pins the corrupted cell
        assert err.value.law == "ternary.retract"
        assert err.value.witness == (1, 2, 3)


class TestRetractTranslate:
    def test_retract_round_trip(self):
        g = z(4)
        assert retract(heap_from_group(g), 0) == g

    def test_retract_at_one_has_one_as_zero(self):
        h = heap_from_group(z(4))
        r1 = retract(h, 1)
        assert r1.zero == 1
        for x in range(4):
            assert r1.sum_of(1, x) == x

    def test_translate_values(self):
        h = heap_from_group(z(4))
        assert int(translate(h, 0, 1)[2]) == 3

    def test_translate_identity_and_inverse(self):
        h = heap_from_group(z(6))
        for e in range(6):
            assert list(translate(h, e, e)) == list(range(6))
            for e2 in range(6):
                fwd, back = translate(h, e, e2), translate(h, e2, e)
                assert list(back[fwd]) == list(range(6))

    @pytest.mark.parametrize("g", SMALL_GROUPS, ids=lambda g: "n%d" % g.order)
    def test_translate_is_retract_isomorphism(self, g):
        # all pairs e, e2 at order <= 12
        h = heap_from_group(g)
        n = g.order
        for e in range(n):
            ge = retract(h, e)
            for e2 in range(n):
                tau = translate(h, e, e2)
                g2 = retract(h, e2)
                assert sorted(int(v) for v in tau) == list(range(n))
                lhs = tau[ge.add]
                rhs = g2.add[tau[:, None], tau[None, :]]
                assert (lhs == rhs).all()


class TestSubHeapAndQuotient:
    def test_subheap_closure_enforced(self):
        h = heap_from_group(z(4))
        SubHeap(h, [0, 2])
        with pytest.raises(ValidationError):
            SubHeap(h, [1, 2])

    def test_relation_classes_z4(self):
        h = heap_from_group(z(4))
        assert subheap_relation_classes(h, [0, 2]) == [(0, 2), (1, 3)]

    def test_relation_full_carrier(self):
        h = heap_from_group(z(4))
        assert subheap_relation_classes(h, range(4)) == [(0, 1, 2, 3)]

    def test_relation_singletons(self):
        h = heap_from_group(z(6))
        for e in range(6):
            classes = subheap_relation_classes(h, [e])
            assert classes == [(x,) for x in range(6)]

    def test_empty_subheap_rejected(self):
        h = heap_from_group(z(4))
        with pytest.raises(ValueError, match="empty sub-heap"):
            subheap_relation_classes(h, [])

    def test_quotient_z4_by_two(self):
        h = heap_from_group(z(4))
        q, proj = quotient_heap(h, SubHeap(h, [0, 2]))
        assert q.order == 2
        assert list(proj) == [0, 1, 0, 1]
        # projection is a heap morphism
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    assert proj[h.bracket(a, b, c)] == q.bracket(
                        proj[a], proj[b], proj[c]
                    )

    def test_quotient_by_self_is_singleton(self):
        h = heap_from_group(z(4))
        q, _ = quotient_heap(h, SubHeap(h, range(4)))
        assert q.order == 1

    def test_quotient_by_point_is_identity(self):
        h = heap_from_group(z(4))
        q, proj = quotient_heap(h, SubHeap(h, [0]))
        assert q.order == 4
        assert list(proj) == list(range(4))
        assert q.retract == h.retract

    def test_product_heap_pairing(self):
        h = product_heap(heap_from_group(z(2)), heap_from_group(z(3)))
        assert h.order == 6
        # bracket acts coordinatewise: [(1,2),(0,1),(1,0)] = (0, 1) -> index 1
        a, b, c = 1 * 3 + 2, 0 * 3 + 1, 1 * 3 + 0
        assert h.bracket(a, b, c) == 0 * 3 + 1
