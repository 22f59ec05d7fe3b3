import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trusskit import (
    AbGroup,
    TModule,
    ValidationError,
    absorbers,
    all_induced_submodules,
    congruence_correspondence_report,
    congruences,
    cyclic_group,
    group_ring,
    heap_from_group,
    induced_action,
    induced_module,
    is_induced_submodule,
    is_submodule,
    module_law_report,
    product_module,
    quotient_module,
    regular_module,
    shift_submodule,
    trivial_module,
    zero_module,
    zn_ring,
    zn_truss,
)
from trusskit.catalog import end_truss, left_translation_truss, trunc_poly_truss, za_truss
from trusskit.extensions import extend
from trusskit.heaps import closed_subheaps, subheap_relation_classes, subheap_witness
from trusskit.trusses import opposite_truss


def _is_heap_congruence(heap, cls_of, rep_of):
    """Oracle: the full n^3 bracket table, projected, against its class fold."""
    br = heap.bracket_arrays
    idx = np.arange(heap.order)
    full = cls_of[br(idx[:, None, None], idx[None, :, None], idx[None, None, :])]
    folded = full[np.ix_(rep_of, rep_of, rep_of)][np.ix_(cls_of, cls_of, cls_of)]
    return bool((full == folded).all())


def _is_action_congruence(mod, cls_of, rep_of):
    """Oracle: every action cell, projected, against its class fold."""
    img = cls_of[mod.action]
    return bool((img == img[:, rep_of][:, cls_of]).all())


def _partitions(m):
    """All set partitions of range(m) in restricted-growth-string order."""
    rgs = [0] * m

    def rec(i, maxseen):
        if i == m:
            blocks = [[] for _ in range(maxseen + 1)]
            for pos, b in enumerate(rgs):
                blocks[b].append(pos)
            yield [tuple(b) for b in blocks]
            return
        for b in range(maxseen + 2):
            rgs[i] = b
            yield from rec(i + 1, max(maxseen, b))

    if m == 0:
        return
    yield from rec(1, 0)


def oracle_congruences(mod):
    """Every set partition that passes the direct congruence checks."""
    found = []
    for blocks in _partitions(mod.order):
        cls_of = np.empty(mod.order, dtype=np.int64)
        for i, block in enumerate(blocks):
            cls_of[list(block)] = i
        rep_of = np.array([b[0] for b in blocks])
        if (_is_action_congruence(mod, cls_of, rep_of)
                and _is_heap_congruence(mod.heap, cls_of, rep_of)):
            found.append(tuple(sorted(blocks, key=min)))
    return found


def oracle_is_induced(mod, s):
    """is_induced_submodule by a loop over every anchor e, truss element t
    and member x, in that order."""
    members = tuple(sorted(set(s)))
    w = subheap_witness(mod.heap, members)
    if w is not None:
        return False, ("subheap", w)
    for e in members:
        for t in range(mod.truss.order):
            for x in members:
                if mod.heap.bracket(mod.act(t, x), mod.act(t, e), e) not in members:
                    return False, ("induced", (t, e, x))
    return True, None


def oracle_induced_submodules(mod):
    """Every nonempty subset that passes ``oracle_is_induced``, in bitmask order."""
    m = mod.order
    subsets = (tuple(i for i in range(m) if bits >> i & 1) for bits in range(1, 1 << m))
    return [s for s in subsets if oracle_is_induced(mod, s)[0]]


def z4_regular():
    return regular_module(zn_truss(4))


def z2c2_truss():
    return group_ring(zn_ring(2), cyclic_group(2)).ring.truss()


class TestModuleLaws:
    def test_regular_module_valid(self):
        assert module_law_report(z4_regular()).ok

    def test_trivial_and_zero_actions_valid(self):
        t = zn_truss(3)
        h = heap_from_group(AbGroup.cyclic(4))
        assert module_law_report(trivial_module(t, h)).ok
        assert module_law_report(zero_module(t, h)).ok

    def test_invalid_action_witnessed(self):
        t = zn_truss(2)
        action = [[0, 1], [1, 1]]  # 1.(1) fine but 1.(0)=1 breaks distributivity
        with pytest.raises(ValidationError):
            TModule(t, t.heap, action)

    def test_unital_flag(self):
        assert z4_regular().unital
        t = zn_truss(4)
        assert trivial_module(t, t.heap).unital

    def test_left_truss_regular_module_skips_truss_bracket_law(self):
        lt = left_translation_truss()
        mod = regular_module(lt, check=True)
        rep = module_law_report(mod)
        assert rep.ok
        assert not any(c.name == "module.truss_bracket" for c in rep.checks)
        # the skipped law genuinely fails here, which is why it is skipped
        br = lt.bracket
        bad = [
            (t1, t2, t3, x)
            for t1, t2, t3, x in itertools.product(range(4), repeat=4)
            if mod.act(br(t1, t2, t3), x)
            != br(mod.act(t1, x), mod.act(t2, x), mod.act(t3, x))
        ]
        assert bad


class TestInducedAction:
    def test_fixed_point(self):
        mod = z4_regular()
        for t in range(4):
            for e in range(4):
                assert induced_action(mod, t, e, e) == e

    def test_regular_value(self):
        assert induced_action(z4_regular(), 3, 0, 2) == 2

    def test_induced_module_has_absorber(self):
        mod = z4_regular()
        for e in range(4):
            ind = induced_module(mod, e)
            assert e in absorbers(ind)
            assert module_law_report(ind).ok

    def test_induced_at_absorber_is_original(self):
        mod = z4_regular()
        ind = induced_module(mod, 0)  # 0 is the absorber of the regular module
        assert (ind.action == mod.action).all()


class TestInducedSubmodules:
    def test_units_induced(self):
        ok, _ = is_induced_submodule(z4_regular(), [1, 3])
        assert ok

    def test_full_carrier(self):
        ok, _ = is_induced_submodule(z4_regular(), range(4))
        assert ok

    def test_non_subheap(self):
        ok, witness = is_induced_submodule(z4_regular(), [1, 2])
        assert not ok and witness[0] == "subheap"

    def test_plain_submodule(self):
        mod = z4_regular()
        assert is_submodule(mod, [0, 2])
        assert not is_submodule(mod, [1, 3])  # 2.1 = 2 leaves the set

    def test_enumeration_z4(self):
        subs = all_induced_submodules(z4_regular())
        assert subs == [(0,), (1,), (2,), (0, 2), (3,), (1, 3), (0, 1, 2, 3)]


class TestCongruences:
    def test_z4_regular(self):
        found = congruences(z4_regular())
        assert found == [
            ((0, 1, 2, 3),),
            ((0, 2), (1, 3)),
            ((0,), (1,), (2,), (3,)),
        ]

    def test_singleton_module(self):
        mod = regular_module(zn_truss(1))
        assert congruences(mod) == [((0,),)]

    def test_klein_zero_action(self):
        t = zn_truss(2)
        klein = AbGroup([[a ^ b for b in range(4)] for a in range(4)])
        mod = zero_module(t, heap_from_group(klein))
        found = congruences(mod)
        # all heap congruences: cosets of the 5 subgroups of Z2 x Z2
        assert len(found) == 5

    def test_no_order_bound(self):
        assert congruences(regular_module(zn_truss(9))) == [
            (tuple(range(9)),),
            ((0, 3, 6), (1, 4, 7), (2, 5, 8)),
            tuple((x,) for x in range(9)),
        ]

    def test_correspondence_z4(self):
        rep = congruence_correspondence_report(z4_regular())
        assert rep.ok
        classes = {frozenset(b) for c in congruences(z4_regular()) for b in c}
        assert len(classes) == 7

    def test_correspondence_trivial_and_z2c2(self):
        assert congruence_correspondence_report(regular_module(zn_truss(2))).ok
        assert congruence_correspondence_report(regular_module(z2c2_truss())).ok

    def test_ring_module_congruences_match_truss_module_congruences(self):
        # partitions compatible with (+, action) coincide with heap+action ones
        for truss in (zn_truss(4), z2c2_truss()):
            mod = regular_module(truss)
            add = truss.heap.retract.add
            heap_based = congruences(mod)
            add_based = []
            for blocks in _partitions(mod.order):
                cls = np.empty(mod.order, dtype=np.int64)
                for i, b in enumerate(blocks):
                    cls[list(b)] = i
                rep_of = np.array([b[0] for b in blocks])
                plus_ok = (cls[add] == cls[add[np.ix_(rep_of, rep_of)]][cls][:, cls]).all()
                img = cls[mod.action]
                act_ok = (img == img[:, rep_of][:, cls]).all()
                if plus_ok and act_ok:
                    add_based.append(tuple(sorted(blocks, key=min)))
            assert add_based == heap_based


    def test_regular_z64_matches_cubic_checks(self):
        # the n^3 bracket and action oracles on every closed sub-heap's classes
        mod = regular_module(zn_truss(64))
        found = []
        for s in closed_subheaps(mod.heap, mod.heap.basepoint, mod.action):
            classes = subheap_relation_classes(mod.heap, s)
            cls_of = np.empty(mod.order, dtype=np.int64)
            for i, block in enumerate(classes):
                cls_of[list(block)] = i
            rep_of = np.array([b[0] for b in classes])
            if (_is_heap_congruence(mod.heap, cls_of, rep_of)
                    and _is_action_congruence(mod, cls_of, rep_of)):
                found.append((tuple(cls_of.tolist()), tuple(classes)))
        assert congruences(mod) == [classes for _, classes in sorted(found)]
        assert [len(c) for c in congruences(mod)] == [1, 2, 4, 8, 16, 32, 64]

    def test_order_128_allocates_no_cubic_table(self):
        mod = regular_module(zn_truss(128))
        tracemalloc.start()
        try:
            found = congruences(mod)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [len(c) for c in found] == [1, 2, 4, 8, 16, 32, 64, 128]
        assert peak < 128 ** 3 * 8 // 4  # a quarter of one int64 n^3 array


class TestShift:
    def test_shift_even_to_odd(self):
        assert shift_submodule(z4_regular(), (0, 2), 0, 1) == (1, 3)

    def test_shift_units_to_ideal(self):
        assert shift_submodule(z4_regular(), (1, 3), 1, 0) == (0, 2)

    def test_shift_by_anchor_is_identity(self):
        assert shift_submodule(z4_regular(), (1, 3), 1, 1) == (1, 3)

    def test_round_trip(self):
        mod = z4_regular()
        image = shift_submodule(mod, (0, 2), 0, 3)
        assert shift_submodule(mod, image, 3, 0) == (0, 2)

    def test_requires_member_anchor(self):
        with pytest.raises(ValueError):
            shift_submodule(z4_regular(), (0, 2), 1, 3)

    def test_disjoint_when_outside(self):
        image = shift_submodule(z4_regular(), (0, 2), 0, 1)
        assert not set(image) & {0, 2}


class TestQuotientModule:
    def test_z4_by_units(self):
        qmod, proj = quotient_module(z4_regular(), (1, 3))
        assert qmod.order == 2
        assert list(proj) == [0, 1, 0, 1]

    def test_by_full_carrier(self):
        qmod, _ = quotient_module(z4_regular(), range(4))
        assert qmod.order == 1

    def test_by_singleton_is_identity(self):
        mod = z4_regular()
        qmod, proj = quotient_module(mod, (2,))
        assert qmod.order == 4
        assert (qmod.action == mod.action).all()

    def test_action_wd(self):
        mod = z4_regular()
        qmod, proj = quotient_module(mod, (0, 2))
        for t in range(4):
            for x in range(4):
                assert proj[mod.act(t, x)] == qmod.act(t, proj[x])


class TestAbsorbers:
    def test_regular(self):
        assert absorbers(z4_regular()) == (0,)

    def test_trivial_action_all(self):
        t = zn_truss(3)
        mod = trivial_module(t, t.heap)
        assert absorbers(mod) == (0, 1, 2)

    def test_zero_module(self):
        t = zn_truss(3)
        assert absorbers(zero_module(t, t.heap, 2)) == (2,)


class TestProductAndOpposite:
    def test_product_module(self):
        t = zn_truss(2)
        prod = product_module(regular_module(t), regular_module(t))
        assert prod.order == 4
        assert module_law_report(prod).ok

    def test_product_module_acts_componentwise(self):
        t = zn_truss(3)
        m1, m2 = regular_module(t), trivial_module(t, heap_from_group(AbGroup.cyclic(2)))
        prod = product_module(m1, m2)
        for s, x, y in itertools.product(range(3), range(3), range(2)):
            assert prod.act(s, x * 2 + y) == m1.act(s, x) * 2 + m2.act(s, y)

    def test_right_module_via_opposite(self):
        # opposite of a noncommutative truss carries the right regular action
        base = extend(zn_truss(2), regular_module(zn_truss(2)), 0).truss
        opp = opposite_truss(base)
        mod = regular_module(opp, check=True)
        assert module_law_report(mod).ok


# Catalog trusses of order <= 8, the left truss included.
SMALL_TRUSSES = [zn_truss(n) for n in range(1, 9)] + [
    za_truss(2, 4), za_truss(2, 8), za_truss(3, 6), trunc_poly_truss(1, 3).truss,
    z2c2_truss(), end_truss(AbGroup.cyclic(2)).truss, left_translation_truss(),
    extend(zn_truss(2), regular_module(zn_truss(2)), 0).truss,
]
CARRIERS = [heap_from_group(AbGroup.cyclic(n)) for n in range(1, 9)] + [
    heap_from_group(AbGroup.cyclic(2).direct_sum(AbGroup.cyclic(2))),
    heap_from_group(AbGroup.cyclic(2).direct_sum(AbGroup.cyclic(2)).direct_sum(AbGroup.cyclic(2))),
]


@st.composite
def small_modules(draw):
    """Regular, trivial, zero, induced and product modules of order <= 8."""
    t = draw(st.sampled_from(SMALL_TRUSSES))
    kind = draw(st.sampled_from(["regular", "trivial", "zero", "induced", "product"]))
    if kind == "regular":
        return regular_module(t, check=True)
    if kind == "product":
        k = draw(st.sampled_from([h for h in CARRIERS if h.order * t.order <= 8]))
        return product_module(regular_module(t), trivial_module(t, k))
    heap = draw(st.sampled_from(CARRIERS))
    if kind == "trivial":
        return trivial_module(t, heap)
    if kind == "zero":
        return zero_module(t, heap, draw(st.integers(0, heap.order - 1)))
    return induced_module(regular_module(t), draw(st.integers(0, t.order - 1)))


class TestEngineMatchesEnumeration:
    """The closure engine against the partition and subset oracles."""

    @settings(max_examples=30, deadline=None)
    @given(small_modules())
    def test_same_lists_in_same_order(self, mod):
        assert congruences(mod) == oracle_congruences(mod)
        assert all_induced_submodules(mod) == oracle_induced_submodules(mod)

    @settings(max_examples=30, deadline=None)
    @given(small_modules(), st.data())
    def test_induced_test_at_one_anchor_matches_every_anchor(self, mod, data):
        """Also on corrupted actions: the one-anchor identity is a heap identity."""
        if data.draw(st.booleans()):
            action = mod.action.copy()
            t = data.draw(st.integers(0, mod.truss.order - 1))
            action[t] = data.draw(st.permutations(range(mod.order)))
            mod = TModule(mod.truss, mod.heap, action, check=False)
        for _ in range(20):
            s = data.draw(st.sets(st.integers(0, mod.order - 1), min_size=1))
            assert is_induced_submodule(mod, s) == oracle_is_induced(mod, s)

    @settings(max_examples=30, deadline=None)
    @given(small_modules(), st.data())
    def test_corrupted_action_matches_enumeration(self, mod, data):
        """Without the module laws the engine still lists exactly the
        congruences: each closed set is re-verified directly, and the class
        through the basepoint of any congruence is closed by the heap laws
        alone.  Its induced submodules, the classes of those congruences,
        are then a subset of the oracle's: a set closed at its own points
        need not have closed translates."""
        t = data.draw(st.integers(0, mod.truss.order - 1))
        x = data.draw(st.integers(0, mod.order - 1))
        shift = data.draw(st.integers(1, max(1, mod.order - 1)))
        action = mod.action.copy()
        action[t, x] = (action[t, x] + shift) % mod.order
        bad = TModule(mod.truss, mod.heap, action, check=False)
        assert congruences(bad) == oracle_congruences(bad)
        assert set(all_induced_submodules(bad)) <= set(oracle_induced_submodules(bad))
