import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trusskit import (
    AbGroup,
    ConsistencyError,
    FiniteGroup,
    ValidationError,
    abelian_invariants,
    brace_from_truss,
    cyclic_group,
    dihedral_group,
    direct_product,
    extend,
    fingerprint,
    group_from_spec,
    group_from_units,
    is_isomorphic,
    named_group,
    named_match,
    quaternion_group,
    regular_module,
    za_truss,
    zn_truss,
)
from trusskit import groups
from trusskit.groups import GroupFingerprint

from basis_oracle import abelian_basis, abelian_coordinates


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


class TestOneSidedTables:
    """The identity and the inverses of a group table are read off its rows
    and its columns: a one-sided scan would accept the tables below."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_right_zero_table_has_no_identity(self, n):
        # x.y = y: associative, every row is the identity map, every x has a
        # right inverse, but no column is the identity map
        table = np.tile(np.arange(n), (n, 1))
        for check in (True, False):
            with pytest.raises(ValidationError) as err:
                FiniteGroup(table, check=check)
            assert (err.value.law, err.value.witness) == ("group.identity", None)

    def test_one_sided_inverse_is_no_inverse(self):
        table = [[0, 1, 2], [1, 1, 0], [2, 2, 2]]  # 0 is a two-sided identity
        assert table[1][2] == 0 and table[2][1] != 0  # 2 is only a right inverse of 1
        with pytest.raises(ValidationError) as err:
            FiniteGroup(table, check=False)
        assert (err.value.law, err.value.witness) == ("group.inverse", (1,))

    @pytest.mark.parametrize("spec", ["cyclic:1", "dihedral:8*cyclic:2", " quaternion * cyclic:3",
                                      "cyclic:2*cyclic:2*cyclic:2"])
    def test_spec_order_is_the_built_order(self, spec):
        assert groups.spec_order(spec) == group_from_spec(spec).order


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


def _cyclic_sums(limit):
    """Every direct sum of cyclic groups of order at most ``limit``, as its
    factor orders (each >= 2, ascending); () is the trivial group."""
    def grow(prefix, least, order):
        yield prefix
        for k in range(least, limit // order + 1):
            yield from grow(prefix + (k,), k, order * k)
    return list(grow((), 2, 1))


def _cyclic_sum(factors):
    g = cyclic_group(1)
    for f in factors:
        g = direct_product(g, cyclic_group(f))
    return g


def _sequential_orders(g):
    """Oracle: the least k with x^k = e, one multiplication per power."""
    orders, cur = np.zeros(g.order, dtype=np.int64), np.full(g.order, g.id)
    for k in range(1, g.order + 1):
        cur = g.mul[cur, np.arange(g.order)]
        orders[(orders == 0) & (cur == g.id)] = k
    return orders


def _basis_fingerprint(g):
    """Oracle: the fingerprint through the derived-subgroup closure, the
    quotient by it and the recursive ``abelian_basis``."""
    derived = g.derived_subgroup()
    ab, _ = g.quotient_by(derived)
    profile = tuple(sorted(order_profile(g).items()))
    return GroupFingerprint(order=g.order, order_profile=profile, center_size=len(g.center()),
                            derived_size=len(derived),
                            abelianization=tuple(d for _, d in abelian_basis(ab)))


ABELIAN = ([("C" + "xC".join(map(str, f)) if f else "C1", lambda f=f: _cyclic_sum(f))
            for f in _cyclic_sums(64)]
           + [("U(Z_%d)" % n, lambda n=n: group_from_units(zn_truss(n))) for n in range(2, 65)])


class TestInvariantsFromOrderCounts:
    """Element orders by repeated squaring and invariant factors from the
    order counts, against the sequential powers and ``abelian_basis``."""

    @pytest.mark.parametrize("build", [b for _, b in ABELIAN], ids=[name for name, _ in ABELIAN])
    def test_matches_the_basis_path(self, build):
        g = build()
        assert np.array_equal(g.element_orders(), _sequential_orders(g))
        assert abelian_invariants(g) == [d for _, d in abelian_basis(g)]
        assert fingerprint(g) == _basis_fingerprint(g)
        assert named_match(g) == named_match(g, fingerprint(g))

    @pytest.mark.parametrize("g", [dihedral_group(12), quaternion_group(),
                                   direct_product(dihedral_group(8), cyclic_group(2))],
                             ids=["D12", "Q8", "D8xC2"])
    def test_nonabelian_fingerprint_unchanged(self, g):
        assert np.array_equal(g.element_orders(), _sequential_orders(g))
        assert fingerprint(g) == _basis_fingerprint(g)

    def test_a_power_that_misses_the_identity_is_an_error(self):
        g = FiniteGroup([[0, 1, 2], [1, 1, 0], [2, 0, 2]], check=False)  # 1 1 = 1
        with pytest.raises(ConsistencyError, match="element order exceeds group order"):
            g.element_orders()


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


def _closure_loops(g, seeds):
    """Oracle: the depth-first closure that multiplies each new member by
    every member found so far, on both sides."""
    out = {g.id}
    frontier = [g.id]
    for s in sorted({int(s) for s in seeds}):
        if s not in out:
            out.add(s)
            frontier.append(s)
    while frontier:
        x = frontier.pop()
        for y in sorted(out):
            for z in (int(g.mul[x, y]), int(g.mul[y, x])):
                if z not in out:
                    out.add(z)
                    frontier.append(z)
    return tuple(sorted(out))


def _generators_loops(g, pick=np.argmin):
    """Oracle: picks whose span grows from the span of the earlier picks."""
    in_span = np.zeros(g.order, dtype=bool)
    in_span[g.id] = True
    gens = []
    while not in_span.all():
        gens.append(int(pick(in_span)))
        new = np.flatnonzero(in_span)
        while new.size:
            new = np.unique(g.mul[np.ix_(new, gens)])
            new = new[~in_span[new]]
            in_span[new] = True
    return gens


def _brace_group(base):
    """(B, .) of the extension brace of ``base`` by its regular module at 0."""
    return brace_from_truss(extend(base, regular_module(base), 0).truss).mul


# name -> (builder, named_match of the group)
SPAN_GROUPS = {
    "D8xC2": (lambda: group_from_spec("dihedral:8*cyclic:2"), "D8xC2"),
    "Q8xC2": (lambda: group_from_spec("quaternion*cyclic:2"), "Q8xC2"),
    "D6xD6": (lambda: group_from_spec("dihedral:6*dihedral:6"), None),
    "C2^3": (lambda: group_from_spec("cyclic:2*cyclic:2*cyclic:2"), "C2xC2xC2"),
    "C1": (lambda: cyclic_group(1), "C1"),
    "brace16": (lambda: _brace_group(za_truss(2, 4)), "D8xC2"),
    "brace64": (lambda: _brace_group(za_truss(2, 8)), None),
}


@functools.cache
def _span_group(name):
    return SPAN_GROUPS[name][0]()


def _relabelled(g, seed):
    perm = np.random.default_rng(seed).permutation(g.order)
    inv = np.argsort(perm)
    return FiniteGroup(perm[g.mul[np.ix_(inv, inv)]])


class TestSpanAgainstTheLoops:
    """``closure`` and ``generators`` share one array loop; every result
    that rests on them matches the oracles above."""

    @pytest.mark.parametrize("name", SPAN_GROUPS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_closure(self, name, data):
        g = _span_group(name)
        seeds = data.draw(st.one_of(st.just([]), st.just([g.id]),
                                    st.lists(st.integers(0, g.order - 1), max_size=5)))
        as_type = data.draw(st.sampled_from([list, set, lambda s: np.array(s, dtype=np.int64)]))
        assert g.closure(as_type(seeds)) == _closure_loops(g, seeds)

    @pytest.mark.parametrize("name", SPAN_GROUPS)
    def test_generators_and_derived_subgroup(self, name):
        g = _span_group(name)
        orders = g.element_orders()
        for pick in (np.argmin, lambda in_span: np.argmax(np.where(in_span, 0, orders))):
            gens = g.generators(pick)
            assert gens == _generators_loops(g, pick)
            assert _closure_loops(g, gens) == tuple(range(g.order))
        comms = {int(g.mul[g.mul[a, b], g.inv[g.mul[b, a]]])
                 for a in range(g.order) for b in range(g.order)}
        assert g.derived_subgroup() == _closure_loops(g, comms)

    @pytest.mark.parametrize("name", SPAN_GROUPS)
    def test_isomorphisms_and_names(self, name, monkeypatch):
        g = _span_group(name)
        partners = [_relabelled(g, seed) for seed in range(2)] + [
            _span_group(other) for other in SPAN_GROUPS if _span_group(other).order == g.order]
        found = [is_isomorphic(g, h) for h in partners]
        assert named_match(g) == SPAN_GROUPS[name][1]
        monkeypatch.setattr(FiniteGroup, "closure", _closure_loops)
        monkeypatch.setattr(FiniteGroup, "generators", _generators_loops)
        assert found == [is_isomorphic(g, h) for h in partners]
        assert found[0] is not None and found[1] is not None
        assert named_match(g) == SPAN_GROUPS[name][1]


def test_identification_fingerprints_the_group_once(monkeypatch):
    g = _span_group("D8xC2")
    seen = []
    original = groups.fingerprint
    monkeypatch.setattr(groups, "fingerprint", lambda h: seen.append(h) or original(h))
    assert groups.identification_report(g)["named_match"] == "D8xC2"
    assert sum(h is g for h in seen) == 1
