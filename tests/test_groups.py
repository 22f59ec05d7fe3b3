import math

import numpy as np
import pytest

from trusskit import (
    AbGroup,
    FiniteGroup,
    ValidationError,
    abelian_invariants,
    cyclic_group,
    dihedral_group,
    direct_product,
    fingerprint,
    group_from_spec,
    group_from_units,
    is_isomorphic,
    named_group,
    named_match,
    quaternion_group,
    zn_truss,
)
from trusskit.groups import abelian_basis, abelian_coordinates


def order_profile(g):
    orders = g.element_orders()
    out = {}
    for d in orders:
        out[int(d)] = out.get(int(d), 0) + 1
    return out


class TestNamedGroups:
    def test_cyclic(self):
        g = cyclic_group(5)
        assert g.order == 5 and g.id == 0
        assert order_profile(g) == {1: 1, 5: 4}

    def test_dihedral_eight(self):
        g = dihedral_group(8)
        assert g.order == 8
        # 5 involutions: r^2 and the four reflections
        assert order_profile(g)[2] == 5

    def test_dihedral_relations(self):
        g = dihedral_group(8)
        r, s = 1, 4
        assert g.power(r, 4) == g.id
        assert g.power(s, 2) == g.id
        # s r s = r^{-1}
        assert g.op(g.op(s, r), s) == g.inv[r]

    def test_quaternion(self):
        g = quaternion_group()
        assert order_profile(g) == {1: 1, 2: 1, 4: 6}

    def test_d8xc2_profile_and_center(self):
        g = direct_product(dihedral_group(8), cyclic_group(2))
        assert g.order == 16
        assert order_profile(g) == {1: 1, 2: 11, 4: 4}
        assert len(g.center()) == 4

    def test_dispatcher_and_spec(self):
        assert named_group("cyclic", 1).order == 1
        assert named_group("dihedral", 6).order == 6
        assert group_from_spec("dihedral:8*cyclic:2").order == 16
        with pytest.raises(ValueError):
            named_group("sporadic", 1)

    def test_invalid_table_rejected(self):
        with pytest.raises(ValidationError):
            FiniteGroup([[0, 1], [1, 1]])


class TestAbelianInvariants:
    def brute_torsion_count(self, g, k):
        # independent oracle: number of x with k.x = identity
        count = 0
        for x in range(g.order):
            if g.power(x, k) == g.id:
                count += 1
        return count

    @pytest.mark.parametrize(
        "factors,expected",
        [
            ((12,), [12]),
            ((2, 4), [2, 4]),
            ((2, 2, 3), [2, 6]),
            ((6, 4), [2, 12]),
            ((2, 2), [2, 2]),
            ((8, 2, 3), [2, 24]),
        ],
    )
    def test_invariants_of_products(self, factors, expected):
        g = cyclic_group(factors[0])
        for f in factors[1:]:
            g = direct_product(g, cyclic_group(f))
        invs = abelian_invariants(g)
        assert invs == expected
        # cross-check with the torsion-counting formula
        for k in range(1, g.order + 1):
            predicted = math.prod(math.gcd(k, d) for d in invs)
            assert predicted == self.brute_torsion_count(g, k)

    def test_trivial(self):
        assert abelian_invariants(cyclic_group(1)) == []

    def test_divisibility_and_product(self):
        g = direct_product(cyclic_group(4), cyclic_group(6))
        invs = abelian_invariants(g)
        assert math.prod(invs) == g.order
        for a, b in zip(invs, invs[1:]):
            assert b % a == 0

    def test_nonabelian_rejected(self):
        with pytest.raises(ValueError):
            abelian_invariants(dihedral_group(8))

    def test_coordinates_span(self):
        g = direct_product(cyclic_group(2), cyclic_group(4))
        basis, coords = abelian_coordinates(g)
        assert len(coords) == g.order
        assert sorted(d for _, d in basis) == [2, 4]


class TestIsomorphism:
    def test_c4_vs_klein_none(self):
        c4 = cyclic_group(4)
        klein = FiniteGroup([[a ^ b for b in range(4)] for a in range(4)])
        assert is_isomorphic(c4, klein) is None

    def test_d8_vs_q8_none(self):
        assert is_isomorphic(dihedral_group(8), quaternion_group()) is None

    def test_witness_is_checked_isomorphism(self):
        g = dihedral_group(8)
        # relabelled copy of g
        perm = [3, 0, 6, 1, 7, 4, 2, 5]
        inv = [perm.index(i) for i in range(8)]
        table = [[perm[g.op(inv[a], inv[b])] for b in range(8)] for a in range(8)]
        h = FiniteGroup(table)
        phi = is_isomorphic(g, h)
        assert phi is not None
        for a in range(8):
            for b in range(8):
                assert phi[g.op(a, b)] == h.op(phi[a], phi[b])

    def test_symmetric_and_reflexive(self):
        corpus = [cyclic_group(6), dihedral_group(8), quaternion_group()]
        for g in corpus:
            assert is_isomorphic(g, g) is not None
        for g in corpus:
            for h in corpus:
                assert (is_isomorphic(g, h) is None) == (is_isomorphic(h, g) is None)

    def test_retracts_of_a_heap_isomorphic(self):
        from trusskit import heap_from_group, retract

        h = heap_from_group(AbGroup.cyclic(4).direct_sum(AbGroup.cyclic(2)))
        g0 = FiniteGroup.from_abgroup(retract(h, 0))
        g5 = FiniteGroup.from_abgroup(retract(h, 5))
        assert is_isomorphic(g0, g5) is not None

    def test_fingerprint_detects_difference(self):
        fp1 = fingerprint(dihedral_group(12))
        fp2 = fingerprint(direct_product(cyclic_group(6), cyclic_group(2)))
        assert fp1 != fp2


class TestUnitsGroup:
    def test_units_of_z4(self):
        g = group_from_units(zn_truss(4))
        assert g.order == 2
        assert named_match(g) == "C2"

    def test_units_of_z12(self):
        g = group_from_units(zn_truss(12))
        assert abelian_invariants(g) == [2, 2]

    def test_trivial_truss(self):
        g = group_from_units(zn_truss(1))
        assert g.order == 1

    def test_no_identity_rejected(self):
        from trusskit import Truss, heap_from_group

        zero_ring = Truss(heap_from_group(AbGroup.cyclic(2)), [[0, 0], [0, 0]])
        with pytest.raises(ValueError):
            group_from_units(zero_ring)


class TestNamedMatch:
    def test_abelian_names(self):
        assert named_match(cyclic_group(4)) == "C4"
        assert named_match(direct_product(cyclic_group(2), cyclic_group(4))) == "C2xC4"

    def test_dihedral_and_quaternion(self):
        assert named_match(dihedral_group(8)) == "D8"
        assert named_match(quaternion_group()) == "Q8"

    def test_product_match(self):
        g = direct_product(dihedral_group(8), cyclic_group(2))
        assert named_match(g) == "D8xC2"


def _quotient_by_loops(g, normal_members):
    """The per-element quotient: normality as gN = Ng for every g, then the
    cosets in order of discovery, the table read at their first members."""
    narr = np.array(sorted(int(m) for m in normal_members))
    for x in range(g.order):
        if not np.array_equal(np.sort(g.mul[x, narr]), np.sort(g.mul[narr, x])):
            raise ValueError("subgroup is not normal; quotient undefined")
    proj = np.full(g.order, -1, dtype=np.int64)
    classes = []
    for x in range(g.order):
        if proj[x] < 0:
            coset = np.unique(g.mul[x, narr])
            proj[coset] = len(classes)
            classes.append(coset)
    reps = np.array([c[0] for c in classes])
    labels = ["{%s}" % ",".join(g.labels[m] for m in c) for c in classes] if g.labels else None
    return proj[g.mul[np.ix_(reps, reps)]], proj, labels


def _subgroups(g):
    """Every subgroup: the cyclic ones, then joins until none is new."""
    found = {g.closure([x]) for x in range(g.order)}
    frontier = set(found)
    while frontier:
        joins = {g.closure(h + k) for h in frontier for k in found}
        frontier = joins - found
        found |= frontier
    return sorted(found, key=lambda h: (len(h), h))


class TestQuotientBy:
    @pytest.mark.parametrize("spec,counts", [
        ("dihedral:8", (10, 6)),
        ("quaternion", (6, 6)),
        ("dihedral:8*cyclic:2", (35, 19)),
        ("cyclic:2*cyclic:2*cyclic:2", (16, 16)),
    ])
    def test_every_subgroup_against_the_loops(self, spec, counts):
        g = group_from_spec(spec)
        subgroups = _subgroups(g)
        normal = 0
        for h in subgroups:
            try:
                want = _quotient_by_loops(g, h)
            except ValueError:
                with pytest.raises(ValueError, match="subgroup is not normal"):
                    g.quotient_by(h)
                continue
            normal += 1
            q, proj = g.quotient_by(h)
            assert np.array_equal(q.mul, want[0])
            assert np.array_equal(proj, want[1])
            assert q.labels == (None if want[2] is None else tuple(want[2]))
        assert (len(subgroups), normal) == counts

    @pytest.mark.parametrize("members", [[], [1], [0, 1], [0, 1, 2]])
    def test_non_subgroup_rejected(self, members):
        with pytest.raises(ValueError, match="not a subgroup"):
            cyclic_group(4).quotient_by(members)
