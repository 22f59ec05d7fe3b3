import itertools

import numpy as np
import pytest

from trusskit import (
    AbGroup,
    abelian_invariants,
    cyclic_group,
    dihedral_group,
    end_truss,
    endomorphism_maps,
    group_from_units,
    group_ring,
    group_ring_paragon_report,
    integer_paragon_probe,
    is_paragon,
    order_congruence_check,
    trunc_poly_truss,
    truss_isomorphism,
    units,
    za_mul,
    za_power,
    za_truss,
    zn_ring,
    zn_truss,
)
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
