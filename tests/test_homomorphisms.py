"""The one generator-image search, ``groups.homomorphisms``, and its three
callers (group isomorphism, endomorphism lists, truss isomorphism) against
the searches they replaced, kept in ``basis_oracle``."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trusskit import (
    AbGroup,
    Truss,
    cyclic_group,
    dihedral_group,
    direct_product,
    endomorphism_maps,
    extend,
    group_from_spec,
    group_from_units,
    group_ring,
    heap_from_group,
    is_isomorphic,
    quaternion_group,
    regular_module,
    retract,
    trunc_poly_truss,
    truss_isomorphism,
    za_truss,
    zn_ring,
    zn_truss,
)
from trusskit import groups
from trusskit.catalog import end_truss, left_translation_truss
from trusskit.groups import FiniteGroup, homomorphisms

from basis_oracle import (basis_endomorphism_maps, basis_truss_isomorphism, truss_invariants,
                          word_isomorphism)


def _relabel(t, perm):
    """The copy of t whose element perm[x] plays the part of x."""
    perm = np.asarray(perm, dtype=np.int64)
    inv = np.argsort(perm)
    add = perm[t.heap.retract.add[np.ix_(inv, inv)]]
    return Truss(heap_from_group(AbGroup(add)), perm[t.mul[np.ix_(inv, inv)]], sided=t.sided)


def _left_zero(n):
    """x.y = x on Z_n: a truss with neither identity nor absorber (n > 1)."""
    return Truss(heap_from_group(AbGroup.cyclic(n)), np.repeat(np.arange(n), n).reshape(n, n))


def _assert_truss_isomorphism(t1, t2, phi):
    """phi is a bijection that preserves ``mul`` and the retract addition at
    an element and its image, so the heap as well."""
    phi = np.asarray(phi)
    assert np.unique(phi).size == t1.order == t2.order
    assert np.array_equal(phi[t1.mul], t2.mul[np.ix_(phi, phi)])
    e = t1.heap.basepoint
    add1, add2 = retract(t1.heap, e).add, retract(t2.heap, int(phi[e])).add
    assert np.array_equal(phi[add1], add2[np.ix_(phi, phi)])


def _group_ring(q, spec):
    return group_ring(zn_ring(q), group_from_spec(spec)).ring.truss()


def _end(*orders):
    g = AbGroup.cyclic(orders[0])
    for n in orders[1:]:
        g = g.direct_sum(AbGroup.cyclic(n))
    return end_truss(g).truss


def _ext(a, n, anchor):
    base = za_truss(a, n)
    return extend(base, regular_module(base), anchor).truss


SMALL = {  # order <= 16
    "Z2": lambda: zn_truss(2), "Z3": lambda: zn_truss(3), "Z4": lambda: zn_truss(4),
    "Z6": lambda: zn_truss(6), "Z8": lambda: zn_truss(8), "Z9": lambda: zn_truss(9),
    "Z12": lambda: zn_truss(12), "Z16": lambda: zn_truss(16),
    "za(2,4)": lambda: za_truss(2, 4), "za(2,8)": lambda: za_truss(2, 8),
    "za(3,9)": lambda: za_truss(3, 9), "za(2,16)": lambda: za_truss(2, 16),
    "za(4,16)": lambda: za_truss(4, 16),
    "Z2[x]/(x^2)": lambda: trunc_poly_truss(1, 2).truss,
    "Z2[x]/(x^3)": lambda: trunc_poly_truss(1, 3).truss,
    "Z2[x]/(x^4)": lambda: trunc_poly_truss(1, 4).truss,
    "Z4[x]/(x^2)": lambda: trunc_poly_truss(2, 2).truss,
    "Z2[C2]": lambda: _group_ring(2, "cyclic:2"), "Z3[C2]": lambda: _group_ring(3, "cyclic:2"),
    "Z4[C2]": lambda: _group_ring(4, "cyclic:2"), "Z2[C4]": lambda: _group_ring(2, "cyclic:4"),
    "Z2[C2xC2]": lambda: _group_ring(2, "cyclic:2*cyclic:2"),
    "end(C2)": lambda: _end(2), "end(C3)": lambda: _end(3), "end(C4)": lambda: _end(4),
    "ext za(2,4)@0": lambda: _ext(2, 4, 0), "ext za(2,4)@1": lambda: _ext(2, 4, 1),
    "left translation": left_translation_truss,
    "left zero Z4": lambda: _left_zero(4), "left zero Z6": lambda: _left_zero(6),
}

UP_TO_64 = dict(SMALL, **{
    "Z32": lambda: zn_truss(32), "Z64": lambda: zn_truss(64), "za(2,64)": lambda: za_truss(2, 64),
    "za(3,27)": lambda: za_truss(3, 27), "Z2[x]/(x^6)": lambda: trunc_poly_truss(1, 6).truss,
    "Z4[x]/(x^3)": lambda: trunc_poly_truss(2, 3).truss,
    "Z8[x]/(x^2)": lambda: trunc_poly_truss(3, 2).truss,
    "Z2[C5]": lambda: _group_ring(2, "cyclic:5"), "Z2[D6]": lambda: _group_ring(2, "dihedral:6"),
    "Z2[C6]": lambda: _group_ring(2, "cyclic:6"), "Z4[C3]": lambda: _group_ring(4, "cyclic:3"),
    "end(C8)": lambda: _end(8), "end(C2xC2)": lambda: _end(2, 2),
    "ext za(2,8)@0": lambda: _ext(2, 8, 0), "ext za(2,8)@5": lambda: _ext(2, 8, 5),
    "left zero Z16": lambda: _left_zero(16),
})


@functools.lru_cache(maxsize=None)
def _member(name):
    return UP_TO_64[name]()


def _small_pairs():
    """Each SMALL member against a relabelled copy of itself and of every
    later member of its order and side."""
    rng = np.random.default_rng(16)
    names = list(SMALL)
    copies = {name: _relabel(_member(name), rng.permutation(_member(name).order)) for name in names}
    return [((a, _member(a)), (b + " relabelled", copies[b]))
            for i, a in enumerate(names) for b in names[i:]
            if _member(a).order == _member(b).order and _member(a).sided == _member(b).sided]


class TestTrussIsomorphismAgainstBasisSearch:
    """Old and new searches agree on every pair of order <= 16 trusses."""

    @pytest.mark.parametrize("pair", _small_pairs(), ids=lambda p: "%s~%s" % (p[0][0], p[1][0]))
    def test_same_verdict(self, pair):
        (_, t1), (_, t2) = pair
        phi, old = truss_isomorphism(t1, t2), basis_truss_isomorphism(t1, t2)
        assert (phi is None) == (old is None)
        for found in (phi, old):
            if found is not None:
                _assert_truss_isomorphism(t1, t2, found)


class TestTrussIsomorphismRelabelled:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_relabelled_catalog_member_is_matched(self, data):
        t = _member(data.draw(st.sampled_from(sorted(UP_TO_64))))
        t2 = _relabel(t, data.draw(st.permutations(range(t.order))))
        phi = truss_isomorphism(t, t2)
        assert phi is not None
        _assert_truss_isomorphism(t, t2, phi)

    @pytest.mark.parametrize("build", [
        lambda: _group_ring(2, "cyclic:5"),
        lambda: _group_ring(2, "dihedral:6"),
        lambda: trunc_poly_truss(1, 6).truss,
        lambda: _group_ring(2, "dihedral:8"),
    ], ids=["Z2[C5]", "Z2[D6]", "Z2[x]/(x^6)", "Z2[D8]"])
    def test_basis_search_outliers(self, build):
        # each ran out of the basis search's 200,000-node budget
        t = build()
        t2 = _relabel(t, np.random.default_rng(13).permutation(t.order))
        phi = truss_isomorphism(t, t2)
        assert phi is not None
        _assert_truss_isomorphism(t, t2, phi)

    def test_every_anchor_is_tried(self):
        t = _left_zero(16)
        for seed in range(3):
            t2 = _relabel(t, np.random.default_rng(seed).permutation(16))
            _assert_truss_isomorphism(t, t2, truss_isomorphism(t, t2))


class TestNonIsomorphicPairs:
    @pytest.mark.parametrize("first, second", [
        ("Z2[C4]", "Z2[C2xC2]"),
        ("Z2[x]/(x^4)", "Z2[C2xC2]"),
    ])
    def test_equal_basis_invariants_rejected(self, first, second):
        t1, t2 = _member(first), _member(second)
        assert truss_invariants(t1) == truss_invariants(t2)  # the old prefilter passed them
        assert truss_isomorphism(t1, t2) is None
        assert truss_isomorphism(t2, t1) is None

    def test_unit_counts_differ(self):
        assert truss_isomorphism(zn_truss(4), za_truss(2, 4)) is None

    def test_group_ring_is_a_truncated_polynomial_ring(self):
        # Z_2[C_4] = Z_2[x]/(x^4) with x = g - 1, as (g - 1)^4 = g^4 - 1 = 0
        t1, t2 = _member("Z2[C4]"), _member("Z2[x]/(x^4)")
        _assert_truss_isomorphism(t1, t2, truss_isomorphism(t1, t2))


def _cyclic_sums(limit):
    """Factor orders (each >= 2, ascending) of every direct sum of cyclic
    groups of order at most ``limit``; () is the trivial group."""
    def grow(prefix, least, order):
        yield prefix
        for k in range(least, limit // order + 1):
            yield from grow(prefix + (k,), k, order * k)
    return list(grow((), 2, 1))


def _abgroup(factors):
    g = AbGroup.cyclic(1)
    for f in factors:
        g = g.direct_sum(AbGroup.cyclic(f))
    return g


class TestEndomorphismMapsAgainstBasisPath:
    @pytest.mark.parametrize("factors", _cyclic_sums(12) + [(4, 4), (2, 8)],
                             ids=lambda f: "x".join("C%d" % k for k in f) or "C1")
    def test_same_list(self, factors):
        g = _abgroup(factors)
        new, old = endomorphism_maps(g), basis_endomorphism_maps(g)
        assert len(new) == len(old)
        for f, h in zip(new, old):
            assert f.dtype == h.dtype and np.array_equal(f, h)


def _groups_16():
    rng = np.random.default_rng(8)
    base = za_truss(2, 4)
    units16 = group_from_units(extend(base, regular_module(base), 0).truss)
    gs = [units16, direct_product(dihedral_group(8), cyclic_group(2)),
          direct_product(quaternion_group(), cyclic_group(2)), dihedral_group(16),
          group_from_spec("cyclic:4*cyclic:4"), group_from_spec("cyclic:8*cyclic:2"),
          dihedral_group(12), direct_product(dihedral_group(6), cyclic_group(2)), quaternion_group(),
          dihedral_group(8), cyclic_group(12)]
    perm = rng.permutation(16)
    inv = np.argsort(perm)
    gs.append(FiniteGroup(perm[gs[1].mul[np.ix_(inv, inv)]]))  # a relabelled D8 x C2
    return gs


class TestGroupIsomorphismAgainstWordSearch:
    def test_same_maps(self):
        gs = _groups_16()
        for g in gs:
            for h in gs:
                if g.order == h.order and groups.fingerprint(g) == groups.fingerprint(h):
                    assert groups._isomorphism(g, h) == word_isomorphism(g, h)
                    assert is_isomorphic(g, h) == word_isomorphism(g, h)


class TestHomomorphisms:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_cyclic_hom_counts(self, m):
        # Hom(C_m, C_n) has gcd(m, n) members: 1 goes to any element killed by m
        for n in range(1, 9):
            cm, cn = cyclic_group(m), cyclic_group(n)
            gens = [1] if m > 1 else []
            maps = list(homomorphisms([cm.mul], [cn.mul], [0], [0], gens, [range(n)] * len(gens)))
            assert len(maps) == math.gcd(m, n)
            assert all(np.array_equal(f, f[1] * np.arange(m) % n) for f in maps if m > 1)

    def test_maps_come_in_image_order(self):
        g = _abgroup((2, 4))
        orders = g.element_orders()
        cands = [np.flatnonzero(orders[x] % orders == 0).tolist() for x in g.generators]
        maps = list(homomorphisms([g.add], [g.add], [g.zero], [g.zero], g.generators, cands))
        keys = [f[g.generators].tolist() for f in maps]
        assert keys == sorted(keys) and len(maps) == 32  # 2 * 2 * 2 * 4

    @pytest.mark.parametrize("gens", [[1, 2], [0], [2, 1, 3]])
    def test_spanned_generator_is_refused(self, gens):
        c4 = cyclic_group(4)  # 2 = 1 + 1 and 3 = 1 + 2, and 0 is the first element
        with pytest.raises(ValueError, match="lies in the closure of those before it"):
            next(homomorphisms([c4.mul], [c4.mul], [0], [0], gens, [range(4)] * len(gens)))

    def test_injective(self):
        c4 = cyclic_group(4)
        maps = list(homomorphisms([c4.mul], [c4.mul], [0], [0], [1], [range(4)], injective=True))
        assert [f.tolist() for f in maps] == [[0, 1, 2, 3], [0, 3, 2, 1]]

    def test_generators_must_generate(self):
        c4 = cyclic_group(4)
        with pytest.raises(ValueError, match="do not generate"):
            next(homomorphisms([c4.mul], [c4.mul], [0], [0], [2], [range(4)]))

    def test_node_budget(self, monkeypatch):
        monkeypatch.setattr(groups, "NODE_BUDGET", 10)
        with pytest.raises(RuntimeError, match="exceeded 10 nodes"):
            endomorphism_maps(_abgroup((2, 2, 2)))
