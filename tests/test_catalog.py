import itertools

import numpy as np
import pytest

from trusskit import (
    AbGroup,
    ConsistencyError,
    Truss,
    abelian_invariants,
    cyclic_group,
    dihedral_group,
    end_truss,
    group_from_spec,
    endomorphism_maps,
    group_from_units,
    group_ring,
    group_ring_paragon_report,
    heap_from_group,
    integer_paragon_probe,
    is_paragon,
    order_congruence_check,
    paragons,
    quotient_truss,
    trunc_poly_truss,
    truss_isomorphism,
    units,
    za_mul,
    za_power,
    za_truss,
    zn_ring,
    zn_truss,
)
from trusskit import catalog
from trusskit.catalog import multiplicative_order_of_one


class TestModularFamilies:
    def test_zn(self):
        t = zn_truss(12)
        assert t.order == 12 and t.identity == 1 and t.absorber == 0

    def test_trivial(self):
        assert zn_truss(1).order == 1

    def test_za_identity_and_formula(self):
        t = za_truss(2, 4)
        assert t.identity == 0
        for m in range(4):
            for n in range(4):
                assert int(t.mul[m, n]) == (2 * m * n + m + n) % 4

    def test_za_one_two(self):
        t = za_truss(1, 2)
        assert t.order == 2
        # 1 . 1 = 1*1 + 1 + 1 = 3 = 1 mod 2
        assert int(t.mul[1, 1]) == 1


class TestPowers:
    def test_k_zero_is_identity(self):
        assert za_power(3, 7, 0) == 0

    def test_values(self):
        assert za_power(2, 1, 2) == 4   # (3^2 - 1) / 2
        assert za_power(2, 3, 2) == 24  # (7^2 - 1) / 2

    def test_closed_form_vs_iteration_sweep(self):
        for a in range(1, 5):
            for m in range(-20, 21):
                x = 0
                for k in range(13):
                    assert za_power(a, m, k) == x
                    x = za_mul(a, x, m)

    def test_congruence_and_order(self):
        rep = order_congruence_check(4)
        assert rep.ok

    def test_first_congruence_case(self):
        # m^(.2) = 2m(m+1), divisible by 4
        for m in range(-10, 11):
            assert za_power(2, m, 2) == 2 * m * (m + 1)
            assert za_power(2, m, 2) % 4 == 0

    def test_order_of_one(self):
        assert multiplicative_order_of_one(2, 8) == 4
        assert multiplicative_order_of_one(2, 16) == 8


class TestGroupRing:
    def test_z2c2_fibers(self):
        gr = group_ring(zn_ring(2), cyclic_group(2))
        labels = gr.ring.labels
        assert [labels[i] for i in gr.fiber(0)] == ["0", "1+g"]
        assert [labels[i] for i in gr.fiber(1)] == ["g", "1"]

    def test_z2c2_report(self):
        gr = group_ring(zn_ring(2), cyclic_group(2))
        assert group_ring_paragon_report(gr).ok

    def test_z3c2_subtruss_iff_idempotent(self):
        gr = group_ring(zn_ring(3), cyclic_group(2))
        t = gr.ring.truss()
        for r in range(3):
            farr = np.array(gr.fiber(r))
            closed = bool(np.isin(t.mul[np.ix_(farr, farr)], farr).all())
            assert closed == (r * r % 3 == r)

    def test_quotient_matches_coefficients(self):
        gr = group_ring(zn_ring(3), cyclic_group(2))
        assert group_ring_paragon_report(gr).ok

    @pytest.mark.parametrize("sigma", [
        (0, 1, 3, 2, 4),  # x -> x^3 on Z_5: multiplicative, not additive
        (0, 4, 3, 2, 1),  # x -> -x: additive, not multiplicative
    ])
    def test_quotient_check_catches_a_relabelled_augmentation(self, sigma):
        gr = group_ring(zn_ring(5), cyclic_group(2))
        gr.augmentation = np.array(sigma)[gr.augmentation]
        rep = group_ring_paragon_report(gr)
        failed = {c.name for c in rep.failures()}
        assert not any(name.endswith("_is_paragon") for name in failed)
        assert {"fiber_%d_quotient_is_coefficient_truss" % r for r in range(5)} <= failed

    def test_quotient_check_catches_a_relabelled_projection(self, monkeypatch):
        gr = group_ring(zn_ring(3), cyclic_group(2))
        build = catalog.quotient_truss

        def relabelled(t, p):  # classes 0 and 1 swapped, the quotient kept
            quotient, proj = build(t, p)
            return quotient, np.array([1, 0, 2])[proj]

        monkeypatch.setattr(catalog, "quotient_truss", relabelled)
        failed = {c.name for c in group_ring_paragon_report(gr).failures()}
        assert failed == {"fiber_%d_quotient_is_coefficient_truss" % r for r in range(3)}

    def test_trivial_group_reproduces_ring(self):
        gr = group_ring(zn_ring(5), cyclic_group(1))
        assert (gr.ring.mul == zn_ring(5).mul).all()

    def test_fiber_sizes(self):
        gr = group_ring(zn_ring(2), cyclic_group(2))
        assert {len(gr.fiber(r)) for r in range(2)} == {2}

    def test_size_bound(self):
        with pytest.raises(ValueError):
            group_ring(zn_ring(4), dihedral_group(8))

    def test_units_paragon_transfer(self):
        # when the group-ring units form a paragon, so do the base units
        gr = group_ring(zn_ring(2), cyclic_group(2))
        t = gr.ring.truss()
        if is_paragon(t, units(t)).is_paragon:
            base_t = gr.base.truss()
            assert is_paragon(base_t, units(base_t)).is_paragon


class TestTruncPoly:
    def test_degenerate_is_zn(self):
        tp = trunc_poly_truss(2, 1)
        assert truss_isomorphism(tp.truss, zn_truss(4)) is not None

    def test_units_are_odd_constant(self):
        tp = trunc_poly_truss(1, 2)
        assert [tp.ring.labels[u] for u in units(tp.truss)] == ["1", "1+x"]

    def test_self_inverse(self):
        tp = trunc_poly_truss(1, 2)
        p = tp.index_of([1, 1])
        assert tp.inverse(p) == p

    def test_inverse_via_series_order8(self):
        tp = trunc_poly_truss(1, 3)
        p = tp.index_of([1, 1, 1])
        inv = tp.inverse(p)
        assert tp.ring.labels[inv] == "1+x"
        assert int(tp.truss.mul[p, inv]) == tp.truss.identity

    @pytest.mark.parametrize("k,n", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
    def test_all_units_invert(self, k, n):
        tp = trunc_poly_truss(k, n)
        one = tp.truss.identity
        for p in range(tp.order):
            if tp.is_unit(p):
                v = tp.inverse(p)
                assert int(tp.truss.mul[p, v]) == one
                assert int(tp.truss.mul[v, p]) == one
            else:
                with pytest.raises(ValueError):
                    tp.inverse(p)

    def test_size_bound(self):
        with pytest.raises(ValueError):
            trunc_poly_truss(2, 5)


class TestEndTruss:
    def test_z2(self):
        ext = end_truss(AbGroup.cyclic(2))
        assert ext.order == 4
        assert len(endomorphism_maps(AbGroup.cyclic(2))) == 2

    def test_z3(self):
        ext = end_truss(AbGroup.cyclic(3))
        assert ext.order == 9

    def test_zero_and_identity_present(self):
        maps = endomorphism_maps(AbGroup.cyclic(4))
        tuples = {tuple(int(v) for v in f) for f in maps}
        assert (0, 0, 0, 0) in tuples
        assert (0, 1, 2, 3) in tuples

    def test_brute_force_matches_generator_path(self):
        g = AbGroup.cyclic(4)
        brute = endomorphism_maps(g)
        # cyclic: endomorphisms = multiplications by 0..3
        expected = sorted(
            [tuple((k * x) % 4 for x in range(4)) for k in range(4)]
        )
        assert [tuple(int(v) for v in f) for f in brute] == expected

    @pytest.mark.parametrize(
        "g",
        [AbGroup.cyclic(n) for n in range(1, 7)]
        + [AbGroup([[a ^ b for b in range(4)] for a in range(4)]),
           AbGroup.cyclic(2).direct_sum(AbGroup.cyclic(3))],
        ids=["C1", "C2", "C3", "C4", "C5", "C6", "C2xC2", "C2+C3"],
    )
    def test_matches_brute_force_oracle(self, g):
        # every self-map of the carrier that preserves addition, order <= 6
        n, add = g.order, g.add

        def additive(f):
            return (f[add] == add[f[:, None], f[None, :]]).all()

        oracle = [c for c in itertools.product(range(n), repeat=n) if additive(np.array(c))]
        assert [tuple(int(v) for v in f) for f in endomorphism_maps(g)] == sorted(oracle)

    def test_klein_endos(self):
        klein = AbGroup([[a ^ b for b in range(4)] for a in range(4)])
        assert len(endomorphism_maps(klein)) == 16

    def test_generator_image_path_z8(self):
        g = AbGroup.cyclic(8)
        maps = endomorphism_maps(g)
        assert len(maps) == 8
        ext = end_truss(g)
        assert ext.order == 64

    def test_size_bound(self):
        with pytest.raises(ValueError):
            end_truss(AbGroup.cyclic(4).direct_sum(AbGroup.cyclic(4)))


class TestIntegerProbe:
    def test_odd_integers(self):
        rep = integer_paragon_probe(2, 1)
        assert rep.ok

    def test_ideal_case(self):
        rep = integer_paragon_probe(4, 0)
        assert rep.ok
        assert any(c.name == "ideal_closure" for c in rep.checks)

    def test_residue_two(self):
        assert integer_paragon_probe(3, 2).ok

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_all_small_moduli(self, n):
        for m in range(n):
            assert integer_paragon_probe(n, m).ok


class TestResidueChecks:
    """Each residue check is exhaustive: break one residue class and it fails there."""

    def test_congruence_every_residue_up_to_k10(self):
        assert order_congruence_check(10).ok

    @pytest.mark.parametrize("N, c", [(8, 3), (16, 5), (16, 11), (64, 0)])
    def test_za_closure_catches_a_broken_class(self, monkeypatch, N, c):
        good = catalog.za_mul

        def broken(a, m, n):  # not a polynomial: off by one on m = c mod N, n != 0
            return good(a, m, n) + ((np.asarray(m) % N == c) & (np.asarray(n) != 0))

        monkeypatch.setattr(catalog, "za_mul", broken)
        with pytest.raises(ConsistencyError, match="at m=%d$" % c):
            za_truss(2, N)

    def test_power_congruence_catches_a_broken_class(self, monkeypatch):
        good = catalog.za_power
        monkeypatch.setattr(catalog, "za_power",
                            lambda a, m, k: good(a, m, k) + (m % 16 == 9))
        rep = order_congruence_check(5)
        assert [c.name for c in rep.failures()] == ["power_congruence_k%d" % k
                                                    for k in (3, 4, 5)]
        assert {c.witness for c in rep.failures()} == {(9,)}

    @pytest.mark.parametrize("n, x, y", [(4, 3, 2), (6, 0, 5), (6, 4, 4)])
    def test_residue_product_catches_a_broken_class(self, monkeypatch, n, x, y):
        t = zn_truss(n)
        mul = t.mul.copy()
        mul[x, y] = (mul[x, y] + 1) % n
        monkeypatch.setattr(catalog, "zn_truss",
                            lambda k: Truss(t.heap, mul, labels=t.labels, check=False))
        for m in range(n):
            rep = integer_paragon_probe(n, m)
            assert [(c.name, c.witness) for c in rep.failures()] == [
                ("residue_map_realises_quotient", (x, y))]

    def test_residue_bracket_catches_a_broken_class(self, monkeypatch):
        # the bracket of Z_2 x Z_2 under the mod-4 product: a wrong heap
        t = zn_truss(4)
        klein = AbGroup.cyclic(2).direct_sum(AbGroup.cyclic(2))
        wrong = Truss(heap_from_group(klein), t.mul, check=False)
        monkeypatch.setattr(catalog, "zn_truss", lambda k: wrong)
        first = next((x, y, z) for x in range(4) for y in range(4) for z in range(4)
                     if (x - y + z) % 4 != wrong.bracket(x, y, z))
        rep = integer_paragon_probe(4, 1)
        assert [(c.name, c.witness) for c in rep.failures()] == [
            ("residue_map_realises_quotient", first)]


def _ring_ideals(ring):
    """The two-sided ideals of (R, +, .), by a closure on the ring tables.

    The ideal generated by a is the additive span of a, Ra, aR and RaR; every
    ideal is a sum of those.  Sorted by size, then members.
    """
    add, mul, zero = ring.add.add, ring.mul, ring.add.zero

    def span(points):
        inside = np.zeros(ring.order, dtype=bool)
        inside[zero] = True
        inside[points] = True
        while not inside.all():
            members = np.flatnonzero(inside)
            grown = inside.copy()
            grown[add[np.ix_(members, members)]] = True
            if (grown == inside).all():
                break
            inside = grown
        return frozenset(np.flatnonzero(inside).tolist())

    principal = {span(np.concatenate(([a], mul[:, a], mul[a], mul[mul[:, a]].ravel())))
                 for a in range(ring.order)}
    ideals, frontier = set(principal), set(principal)
    while frontier:
        frontier = {span(sorted(i | p)) for i in frontier for p in principal} - ideals
        ideals |= frontier
    return sorted((tuple(sorted(i)) for i in ideals), key=lambda s: (len(s), s))


def _ring_members():
    """The ring-type members the catalog benchmark builds, by name."""
    out = [("zn%d" % n, zn_ring(n)) for n in range(2, 65)]
    out += [("trunc%d,%d" % (k, n), trunc_poly_truss(k, n).ring)
            for k in range(1, 9) for n in range(1, 9) if 2 ** (k * n) <= 256]
    out += [("gr%d,%s" % (q, spec), group_ring(zn_ring(q), group_from_spec(spec)).ring)
            for q, spec in ((2, "cyclic:2"), (3, "cyclic:2"), (2, "cyclic:4"),
                            (2, "cyclic:2*cyclic:2"), (2, "dihedral:6"), (2, "dihedral:8"))]
    return out


def _other_members():
    """The catalog's za and end members, which are not ring-type; the za
    multiplier a runs through 1..4 over the orders."""
    out = [("za%d,%d" % (i % 4 + 1, order), za_truss(i % 4 + 1, order))
           for i, order in enumerate((8, 16, 32, 64, 128, 256))]
    for orders in ((2,), (3,), (4,), (2, 2), (2, 4)):
        g = AbGroup.cyclic(orders[0])
        for n in orders[1:]:
            g = g.direct_sum(AbGroup.cyclic(n))
        out.append(("end%s" % (orders,), end_truss(g).truss))
    return out


class TestParagonsAreCongruenceClasses:
    """The paper's first result over the catalog: the congruence classes of
    a ring R are the paragons of T(R)."""

    @pytest.fixture(scope="class")
    def ring_members(self):
        return [(name, ring, ring.truss(), paragons(ring.truss()))
                for name, ring in _ring_members()]

    def test_paragons_through_zero_are_the_ideals(self, ring_members):
        for name, ring, t, found in ring_members:
            assert t.heap.basepoint == ring.add.zero, name
            assert found == _ring_ideals(ring), name

    def test_every_ideal_coset_is_a_paragon(self, ring_members):
        for name, ring, t, found in ring_members:
            for ideal in found:
                arr = np.array(ideal)
                for x in np.unique(np.sort(ring.add.add[:, arr], axis=1), axis=0):
                    assert is_paragon(t, x).is_paragon, (name, ideal, tuple(x))

    def test_quotient_by_every_paragon(self, ring_members):
        members = [(name, t, found) for name, _, t, found in ring_members]
        members += [(name, t, paragons(t)) for name, t in _other_members()]
        for name, t, found in members:
            for p in found:
                q, proj = quotient_truss(t, p)
                assert q.order * len(p) == t.order, (name, p)

    def test_order_256_counts(self, ring_members):
        counts = {name: len(found) for name, _, _, found in ring_members}
        assert counts["trunc8,1"] == 9  # Z_256
        assert counts["trunc2,4"] == 23
        assert counts["gr2,dihedral:8"] == 15
        assert len(paragons(za_truss(2, 256))) == 9
