"""Acceptance suite: one test per criterion, exact (tolerance zero) checks.

Each test prints a single PASS line on success; run with ``pytest -s`` (or
``-rA``) to see them.  Shared corpora are built once per session.
"""

import itertools
import random

import numpy as np
import pytest

from trusskit import (
    AbGroup,
    FiniteGroup,
    abelian_invariants,
    brace_from_truss,
    brace_ideals,
    closed_subheaps,
    congruence_correspondence_report,
    congruences,
    cyclic_group,
    dihedral_group,
    direct_product,
    extend,
    extension_clause_report,
    fingerprint,
    group_from_units,
    group_ring,
    group_ring_paragon_report,
    heap_from_group,
    ideal_cosets,
    ideal_iff_normal_paragon,
    integer_paragon_probe,
    is_brace_ideal,
    is_isomorphic,
    is_normal_paragon,
    is_paragon,
    quotient_truss,
    regular_module,
    shift_submodule,
    trivial_module,
    trunc_poly_truss,
    truss_from_brace,
    truss_isomorphism,
    units,
    units_paragon_report,
    za_mul,
    za_power,
    za_truss,
    zn_ring,
    zn_truss,
)
from trusskit.catalog import multiplicative_order_of_one


def _passed(num, message):
    print("ACCEPTANCE %2d PASS: %s" % (num, message))


@pytest.fixture(scope="module")
def zn_reports():
    return {n: units_paragon_report(zn_truss(n)) for n in range(2, 65)}


@pytest.fixture(scope="module")
def poly_corpus():
    out = {}
    for k in range(1, 9):
        for n in range(1, 9):
            if 2 ** (k * n) <= 256:
                out[(k, n)] = trunc_poly_truss(k, n)
    return out


def test_c01_units_paragon_iff_power_of_two(zn_reports):
    powers = {2, 4, 8, 16, 32, 64}
    for n, rep in zn_reports.items():
        assert rep.is_paragon == (n in powers), "n=%d" % n
    _passed(1, "U(Z_n) paragon exactly at n in %s for n = 2..64" % sorted(powers))


def test_c02_mod_four_worked_example():
    t = zn_truss(4)
    assert units(t) == (1, 3)
    result = is_paragon(t, [1, 3])
    assert result.kind == "two-sided"
    shifted = shift_submodule(regular_module(t), (1, 3), 1, 0)
    assert shifted == (0, 2)
    assert is_paragon(t, shifted).kind == "ideal"
    q, _ = quotient_truss(t, result.paragon)
    assert truss_isomorphism(q, zn_truss(2)) is not None
    _passed(2, "U(Z_4) = {1,3}, shift (1 -> 0) gives ideal {0,2}, quotient is T(Z_2)")


def _exactly_one_predicate(t):
    us = set(units(t))
    one, zero = t.identity, t.absorber
    for r in range(t.order):
        in_u = r in us
        complement_in_u = t.bracket(one, r, zero) in us
        if in_u == complement_in_u:
            return False
    return True


def test_c03_two_class_equivalence(zn_reports, poly_corpus):
    corpus = [(("zn", n), zn_truss(n)) for n in range(1, 65)]
    corpus += [(("poly",) + key, tp.truss) for key, tp in sorted(poly_corpus.items())]
    for name, t in corpus:
        rep = units_paragon_report(t)
        side_a = rep.is_paragon and rep.quotient_is_mod2
        side_b = _exactly_one_predicate(t)
        assert side_a == side_b, "corpus member %s" % (name,)
    _passed(3, "paragon-with-Z2-quotient <=> exactly-one-unit-cover on %d rings"
            % len(corpus))


def test_c04_inverse_series(poly_corpus):
    total = 0
    for tp in poly_corpus.values():
        one = tp.truss.identity
        for p in range(tp.order):
            if not tp.is_unit(p):
                continue
            v = tp.inverse(p)
            assert int(tp.truss.mul[p, v]) == one
            assert int(tp.truss.mul[v, p]) == one
            total += 1
    _passed(4, "inverse series checked for %d units across %d truncated polynomial rings"
            % (total, len(poly_corpus)))


def test_c05_cyclic_brace_family():
    for k in range(1, 5):
        modulus = 2 ** (k + 1)
        t = za_truss(2, modulus)
        assert len(units(t)) == t.order  # brace-type
        g = group_from_units(t)
        assert abelian_invariants(g) == [2, 2 ** k]
        assert multiplicative_order_of_one(2, modulus) == 2 ** k
    for a in range(1, 5):
        for m in range(-20, 21):
            x = 0
            for k in range(13):
                assert za_power(a, m, k) == x  # closed form vs the iterated product
                x = za_mul(a, x, m)
    _passed(5, "mod 2^(k+1) quotients are braces with units C2 x C2^k, order of 1 = 2^k; "
            "power closed form verified on the full grid")


def test_c06_order16_brace_extension():
    base = za_truss(2, 4)
    ext = extend(base, regular_module(base), 0)
    t = ext.truss
    assert t.order == 16
    assert len(units(t)) == 16 and t.absorber is None  # brace-type, not ring-type
    g = group_from_units(t)
    named = direct_product(dihedral_group(8), cyclic_group(2))
    assert is_isomorphic(g, named) is not None
    assert abelian_invariants(FiniteGroup.from_abgroup(t.heap.retract)) == [4, 4]

    a, x, y = ext.pair(0, 1), ext.pair(1, 0), ext.pair(2, 0)
    e = t.identity
    mul = t.mul

    def power(p, k):
        out = e
        for _ in range(k):
            out = int(mul[out, p])
        return out

    assert power(a, 4) == e and power(x, 2) == e and power(y, 2) == e
    assert int(mul[mul[x, a], x]) == power(a, 3)
    assert int(mul[x, y]) == int(mul[y, x])
    assert int(mul[a, y]) == int(mul[y, a])
    _passed(6, "extension of the mod-4 brace is the order-16 brace with units D8 x C2, "
            "additive C4 x C4, and the stated generator relations")


def test_c07_extension_clause_suite():
    z2 = zn_truss(2)
    z3 = zn_truss(3)
    z4 = zn_truss(4)
    za24 = za_truss(2, 4)
    za28 = za_truss(2, 8)
    z2c2 = group_ring(zn_ring(2), cyclic_group(2)).ring.truss()
    instances = [
        (z2, regular_module(z2), 0),
        (z2, regular_module(z2), 1),
        (z4, regular_module(z4), 0),
        (z3, regular_module(z3), 1),
        (za24, regular_module(za24), 0),
        (z2c2, regular_module(z2c2), 0),
        (z2, trivial_module(z2, heap_from_group(AbGroup.cyclic(3))), 0),
        (z2, trivial_module(z2, heap_from_group(AbGroup.cyclic(1))), 0),
        (za28, regular_module(za28), 0),
    ]
    failures = 0
    for base, module, e in instances:
        _, rep = extension_clause_report(base, module, e)
        failures += len(rep.failures())
        assert rep.ok, rep.render()
    assert len(instances) >= 6
    _passed(7, "all clauses pass on %d (base, module, anchor) instances with %d failures"
            % (len(instances), failures))


def test_c08_congruence_class_correspondence():
    z2 = zn_truss(2)
    z3 = zn_truss(3)
    z4 = zn_truss(4)
    z2c2 = group_ring(zn_ring(2), cyclic_group(2)).ring.truss()
    klein = AbGroup([[a ^ b for b in range(4)] for a in range(4)])
    za24 = za_truss(2, 4)
    brace16 = extend(za24, regular_module(za24), 0).truss
    c2_4 = klein.direct_sum(klein)
    modules = [
        regular_module(z2),
        regular_module(z4),
        regular_module(z2c2),
        trivial_module(z2, heap_from_group(AbGroup.cyclic(6))),
        trivial_module(z3, heap_from_group(klein)),
        trivial_module(z2, heap_from_group(AbGroup.cyclic(8))),
    ]
    for mod in modules:
        assert congruence_correspondence_report(mod).ok
    # order 16: the congruences of the trivial module on C_2^4 are the
    # cosets of its 67 subgroups
    order16 = [(regular_module(zn_truss(16)), 5), (regular_module(brace16), 15),
               (trivial_module(z2, heap_from_group(c2_4)), 67)]
    for mod, count in order16:
        assert len(congruences(mod)) == count
        assert congruence_correspondence_report(mod).ok
    _passed(8, "congruence classes equal induced submodules on %d modules of order <= 16"
            % (len(modules) + len(order16)))


def test_c09_group_ring_fibers():
    for modulus in (2, 3):
        gr = group_ring(zn_ring(modulus), cyclic_group(2))
        assert group_ring_paragon_report(gr).ok
    _passed(9, "augmentation fibers verified for the order-4 and order-9 group rings")


def test_c10_socle_and_normal_paragons():
    base4 = za_truss(2, 4)
    base8 = za_truss(2, 8)
    b4 = brace_from_truss(base4)
    b8 = brace_from_truss(base8)
    b16 = brace_from_truss(extend(base4, regular_module(base4), 0).truss)

    from trusskit import socle

    for b in (b4, b8, b16):
        soc = socle(b)  # asserts ideal-ness and that each coset is a paragon
        assert b.identity in soc

    checked = 0
    for b in (b4, b8):
        t = truss_from_brace(b)
        for r in range(1, 1 << b.order):
            subset = [i for i in range(b.order) if r >> i & 1]
            rep = ideal_iff_normal_paragon(b, subset, truss=t)
            assert rep.ok, rep.render()
            checked += 1

    t16 = truss_from_brace(b16)
    rng = random.Random(0)
    sampled = []
    for _ in range(150):
        size = rng.randint(1, 16)
        sampled.append(sorted(rng.sample(range(16), size)))
    structured = [list(i) for i in brace_ideals(b16)]
    structured += [
        list(c) for i in brace_ideals(b16) for c in ideal_cosets(b16, i)
    ]
    for subset in structured + sampled:
        rep = ideal_iff_normal_paragon(b16, subset, truss=t16)
        assert rep.ok, rep.render()
        checked += 1

    # Every subset of the order-16 and order-64 extension braces at once.  The
    # paragons through q are the closed sub-heaps through q under x -> [tx, tq, q]
    # and [xt, qt, q]; a subset in neither family below fails both sides of
    # both equivalences, so the family equalities decide all 2^n subsets.
    b64 = brace_from_truss(extend(base8, regular_module(base8), 0).truss)
    families = []
    for b in (b16, b64):
        t, heap, mul = truss_from_brace(b), heap_from_group(b.add), b.mul.mul
        maps = np.vstack((mul, mul.T))
        through_one = closed_subheaps(heap, b.identity, maps)
        ideals = [s for s in through_one if is_brace_ideal(b, s)[0]]
        assert ideals == [s for s in through_one if is_normal_paragon(t, s)]
        members = {c for i in ideals for c in ideal_cosets(b, i)}
        normal = {s for q in range(b.order) for s in closed_subheaps(heap, q, maps)
                  if is_normal_paragon(t, s)}
        assert members == normal
        families.append("order %d: %d ideals, %d quotient members" % (b.order, len(ideals), len(members)))
    _passed(10, "socle/ideal/normal-paragon equivalences verified on %d subsets, and on every "
                "subset by family equality (%s)" % (checked, "; ".join(families)))


def test_c11_integer_probes():
    for n in range(1, 7):
        for m in range(n):
            rep = integer_paragon_probe(n, m)
            assert rep.ok, rep.render()
    _passed(11, "integer translate probes pass for all n <= 6, m < n, over every residue")


def test_c12_deterministic_reports(tmp_path, capsys):
    from trusskit import jsonio
    from trusskit.cli import main

    base = za_truss(2, 4)
    base_file = tmp_path / "za24.json"
    mod_file = tmp_path / "mod.json"
    z4_file = tmp_path / "z4.json"
    jsonio.write_file(base_file, base)
    jsonio.write_file(mod_file, regular_module(base))
    jsonio.write_file(z4_file, zn_truss(4))

    battery = [
        ["scan-units", "--max", "16"],
        ["--format", "json", "scan-units", "--max", "12"],
        ["validate", str(z4_file)],
        ["quotient", str(z4_file), "1,3"],
        ["catalog", "za", "2", "4"],
        ["--format", "json", "catalog", "trunc-poly", "1", "3"],
        ["extend", str(base_file), str(mod_file), "0"],
        ["brace", str(base_file)],
    ]

    def run_all():
        chunks = []
        for argv in battery:
            code = main(list(argv))
            chunks.append(capsys.readouterr().out)
            assert code == 0
        return "".join(chunks)

    first = run_all()
    second = run_all()
    assert first.encode() == second.encode()
    _passed(12, "two runs of the %d-command battery are byte-identical" % len(battery))
