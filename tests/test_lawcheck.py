"""Differential tests: the exhaustive reduced law checks against brute force.

The oracles below are the full scans the library used before the affine
reduction (n^4 per distributivity law, n^5 for ternary associativity).  They
run on small tables, lawful and deliberately corrupted, and every verdict of
the reduced checks must match; every witness must fail its law when the law
is evaluated directly.
"""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trusskit import (
    AbGroup,
    Brace,
    FiniteGroup,
    TModule,
    Truss,
    ValidationError,
    brace_from_truss,
    brace_ideals,
    brace_law_report,
    cyclic_group,
    end_truss,
    extend,
    group_from_spec,
    group_ring,
    heap_from_group,
    ideal_cosets,
    ideal_iff_normal_paragon,
    module_law_report,
    product_module,
    regular_module,
    trivial_module,
    trunc_poly_truss,
    truss_from_ring,
    truss_law_report,
    validate_ternary_table,
    za_truss,
    zero_module,
    zn_ring,
    zn_truss,
)
from trusskit.catalog import left_translation_truss
from trusskit.heaps import morphism_witness

ORACLE = settings(max_examples=150, deadline=None)


def _groups():
    cyc = AbGroup.cyclic
    return [cyc(n) for n in range(1, 13)] + [
        cyc(2).direct_sum(cyc(2)),
        cyc(2).direct_sum(cyc(4)),
        cyc(2).direct_sum(cyc(2)).direct_sum(cyc(2)),
        cyc(3).direct_sum(cyc(3)),
        cyc(2).direct_sum(cyc(6)),
    ]


GROUPS = _groups()


@functools.lru_cache(maxsize=None)
def _trusses():
    """Lawful trusses of order <= 12 on cyclic and non-cyclic heaps."""
    out = [zn_truss(n) for n in range(1, 13)]
    out += [za_truss(a, n) for a, n in ((1, 6), (2, 4), (2, 8), (3, 9), (4, 12))]
    out += [trunc_poly_truss(1, 2).truss, trunc_poly_truss(1, 3).truss,
            trunc_poly_truss(2, 1).truss]
    out += [group_ring(zn_ring(q), group_from_spec(spec)).ring.truss()
            for q, spec in ((2, "cyclic:2"), (3, "cyclic:2"), (2, "cyclic:2*cyclic:2"))]
    out += [end_truss(AbGroup.cyclic(2)).truss, left_translation_truss()]
    g = GROUPS[-2]  # Z_3 x Z_3 with a constant product
    out.append(Truss(heap_from_group(g), np.full((9, 9), 4)))
    return out


@functools.lru_cache(maxsize=None)
def _modules():
    """Lawful modules with truss and carrier orders <= 12."""
    out = []
    for t in _trusses():
        out.append(regular_module(t))
        for g in (AbGroup.cyclic(3), GROUPS[12]):  # Z_3 and Z_2 x Z_2
            h = heap_from_group(g)
            out += [trivial_module(t, h), zero_module(t, h, e=1)]
    z2 = zn_truss(2)
    out.append(product_module(regular_module(z2), trivial_module(z2, heap_from_group(GROUPS[2]))))
    return out


@functools.lru_cache(maxsize=None)
def _rings():
    """(additive group, multiplication) of lawful rings of order <= 12."""
    out = [(zn_ring(n).add, zn_ring(n).mul) for n in range(1, 13)]
    for gr in (group_ring(zn_ring(2), cyclic_group(2)), group_ring(zn_ring(3), cyclic_group(2)),
               group_ring(zn_ring(2), group_from_spec("cyclic:2*cyclic:2"))):
        out.append((gr.ring.add, gr.ring.mul))
    for k, n in ((1, 2), (1, 3), (2, 1)):
        ring = trunc_poly_truss(k, n).ring
        out.append((ring.add, ring.mul))
    return out


def _corrupt(data, table, values):
    """A copy of ``table`` with up to three cells replaced by drawn values."""
    table = np.array(table, dtype=np.int64)
    for _ in range(data.draw(st.integers(0, 3))):
        cell = tuple(data.draw(st.integers(0, s - 1)) for s in table.shape)
        table[cell] = data.draw(st.integers(0, values - 1))
    return table


def _check(report, name):
    (check,) = [c for c in report.checks if c.name == name]
    return check


# ---------------------------------------------------------------- oracles

def _distributive_oracle(rows, dom, cod):
    """Every failing (i, b, c, d) of rows[i][[b, c, d]] = [rows[i][b], rows[i][c], rows[i][d]]."""
    idx = np.arange(dom.order)
    inner = dom.bracket_arrays(idx[:, None, None], idx[None, :, None], idx[None, None, :])
    lhs = rows[:, inner]
    rhs = cod.bracket_arrays(rows[:, :, None, None], rows[:, None, :, None],
                             rows[:, None, None, :])
    return lhs != rhs


def _assoc_oracle(mul, act):
    return act[np.arange(len(mul))[:, None, None], act[None, :, :]] != act[mul][:, :, :]


# --------------------------------------------------------- morphism check

class TestMorphismWitness:
    @pytest.mark.parametrize("g", GROUPS, ids=lambda g: "n%d" % g.order)
    def test_generators_span_with_few_members(self, g):
        gens = [int(x) for x in g.generators]
        assert len(gens) <= max(0, math.floor(math.log2(g.order)))
        span = {g.zero}
        while True:
            grown = span | {int(g.add[s, x]) for s in span for x in gens}
            if grown == span:
                break
            span = grown
        assert span == set(range(g.order))

    @ORACLE
    @given(st.data())
    def test_matches_full_scan(self, data):
        dom = heap_from_group(data.draw(st.sampled_from(GROUPS)))
        cod = heap_from_group(data.draw(st.sampled_from(GROUPS)))
        # start from the identity or a constant map (both affine), then corrupt
        if dom.order == cod.order and data.draw(st.booleans()):
            base = np.arange(dom.order)[None, :]
        else:
            base = np.full((1, dom.order), data.draw(st.integers(0, cod.order - 1)))
        rows = _corrupt(data, np.repeat(base, data.draw(st.integers(1, 3)), axis=0), cod.order)
        self._compare(rows, dom, cod)

    @pytest.mark.parametrize("dom,cod", [(14, 1), (13, 1), (12, 2), (3, 12)],
                             ids=["Z2^3-Z2", "Z2xZ4-Z2", "Z2^2-Z3", "Z4-Z2^2"])
    def test_every_map_between_small_heaps(self, dom, cod):
        # Every map, so the ones affine along some generators but not all of
        # them are included: a check that skips a generator fails here.
        dom, cod = heap_from_group(GROUPS[dom]), heap_from_group(GROUPS[cod])
        for values in itertools.product(range(cod.order), repeat=dom.order):
            self._compare(np.array([values]), dom, cod)

    @staticmethod
    def _compare(rows, dom, cod):
        bad = _distributive_oracle(rows, dom, cod)
        w = morphism_witness(rows, dom, cod)
        assert (w is None) == (not bad.any())
        if w is not None:
            assert bad[w]


# ------------------------------------------------------------ truss laws

class TestTrussLaws:
    @ORACLE
    @given(st.data())
    def test_distributivity_matches_oracle(self, data):
        t = data.draw(st.sampled_from(_trusses()))
        mul = _corrupt(data, t.mul, t.order)
        bad = Truss(t.heap, mul, sided=t.sided, check=False)
        report = truss_law_report(bad)
        sides = [("left", mul)] + ([("right", mul.T)] if t.sided == "two-sided" else [])
        for side, rows in sides:
            failing = _distributive_oracle(rows, t.heap, t.heap)
            check = _check(report, "truss.%s_distributive" % side)
            assert check.passed == (not failing.any())
            if not check.passed:
                assert failing[check.witness]
        assoc = _check(report, "truss.associative")
        failing = _assoc_oracle(mul, mul)
        assert assoc.passed == (not failing.any())
        if not assoc.passed:
            assert failing[assoc.witness]

    def test_left_translation_truss_right_law_is_decided(self):
        t = left_translation_truss()
        w = morphism_witness(t.mul.T, t.heap, t.heap)
        assert w is not None
        assert _distributive_oracle(t.mul.T, t.heap, t.heap)[w]
        assert morphism_witness(t.mul, t.heap, t.heap) is None


class TestModuleLaws:
    @ORACLE
    @given(st.data())
    def test_bracket_laws_match_oracle(self, data):
        mod = data.draw(st.sampled_from(_modules()))
        act = _corrupt(data, mod.action, mod.order)
        bad = TModule(mod.truss, mod.heap, act, check=False)
        report = module_law_report(bad)
        failing = _distributive_oracle(act, mod.heap, mod.heap)
        check = _check(report, "module.carrier_bracket")
        assert check.passed == (not failing.any())
        if not check.passed:
            assert failing[check.witness]
        if mod.truss.sided == "two-sided":
            # oracle axes (x, a, b, c); the report's witness is (a, b, c, x)
            failing = _distributive_oracle(act.T, mod.truss.heap, mod.heap)
            check = _check(report, "module.truss_bracket")
            assert check.passed == (not failing.any())
            if not check.passed:
                a, b, c, x = check.witness
                assert failing[x, a, b, c]
        failing = _assoc_oracle(mod.truss.mul, act)
        check = _check(report, "module.associative")
        assert check.passed == (not failing.any())
        if not check.passed:
            assert failing[check.witness]


class TestRingLaws:
    @ORACLE
    @given(st.data())
    def test_truss_from_ring_matches_oracle(self, data):
        add, mul = data.draw(st.sampled_from(_rings()))
        mul = _corrupt(data, mul, add.order)
        a = add.add
        assoc = _assoc_oracle(mul, mul)
        left = mul[:, a] != a[mul[:, :, None], mul[:, None, :]]
        right = mul.T[:, a] != a[mul.T[:, :, None], mul.T[:, None, :]]
        lawful = not (assoc.any() or left.any() or right.any())
        try:
            t = truss_from_ring(add, mul)
        except ValidationError as err:
            assert not lawful
            table = {"ring.associative": assoc, "ring.left_distributive": left,
                     "ring.right_distributive": right}[err.law]
            assert table[err.witness]
        else:
            assert lawful
            assert t.absorber == add.zero


@functools.lru_cache(maxsize=None)
def _braces():
    base = za_truss(2, 4)
    return [brace_from_truss(za_truss(2, 4)), brace_from_truss(za_truss(2, 8)),
            brace_from_truss(extend(base, regular_module(base), 0).truss)]


class TestBraceLaws:
    @ORACLE
    @given(st.data())
    def test_brace_laws_match_oracle(self, data):
        b = data.draw(st.sampled_from(_braces()))
        mul = _corrupt(data, b.mul.mul, b.order)
        mul[b.identity, :] = mul[:, b.identity] = np.arange(b.order)
        try:
            bad = Brace(b.add, FiniteGroup(mul, check=False), sided=b.sided, check=False)
        except ValidationError:  # the corruption removed an inverse
            return
        report = brace_law_report(bad)
        add, neg = b.add.add, b.add.neg
        for side, rows in (("left", mul), ("right", mul.T)):
            failing = rows[:, add] != add[add[rows[:, :, None], neg[:, None, None]],
                                          rows[:, None, :]]
            check = _check(report, "brace.%s_law" % side)
            assert check.passed == (not failing.any())
            if not check.passed:
                assert failing[check.witness]


# ----------------------------------------------------------- ternary tables

def _ternary(g):
    idx = np.arange(g.order)
    return g.add[g.add[idx[:, None, None], g.neg[idx][None, :, None]], idx[None, None, :]]


def _heap_oracle(t):
    """Mal'cev, commutativity and n^5 associativity of a ternary table."""
    n = t.shape[0]
    idx = np.arange(n)
    if (t[idx[:, None], idx[:, None], idx[None, :]] != idx[None, :]).any():
        return False
    if (t[idx[:, None], idx[None, :], idx[None, :]] != idx[:, None]).any():
        return False
    if (t != t.transpose(2, 1, 0)).any():
        return False
    lhs = t[t[:, :, :, None, None], idx[None, None, None, :, None], idx[None, None, None, None, :]]
    rhs = t[idx[:, None, None, None, None], idx[None, :, None, None, None], t[None, None, :, :, :]]
    return bool((lhs == rhs).all())


class TestTernaryTables:
    @ORACLE
    @given(st.data())
    def test_validation_matches_oracle(self, data):
        g = data.draw(st.sampled_from([g for g in GROUPS if g.order <= 9]))
        t = _corrupt(data, _ternary(g), g.order)
        try:
            heap = validate_ternary_table(t)
        except ValidationError as err:
            assert not _heap_oracle(t)
            a = err.witness
            zero_slot = t[:, 0, :]
            if err.law == "ternary.malcev":
                assert t[a] != (a[2] if a[0] == a[1] else a[0])
            elif err.law == "ternary.retract":
                rebuilt = _ternary(AbGroup(zero_slot))
                assert t[a] != rebuilt[a]
            elif err.law == "group.commutative":
                assert zero_slot[a] != zero_slot[a[::-1]]
            elif err.law == "group.associative":
                x, y, z = a
                assert zero_slot[zero_slot[x, y], z] != zero_slot[x, zero_slot[y, z]]
            else:
                assert err.law == "group.inverse" and (zero_slot[a[0]] != 0).all()
        else:
            assert _heap_oracle(t)
            assert (_ternary(heap.retract) == t).all()


# ------------------------------------------------------------ brace quotients

def test_quotient_membership_matches_coset_scan():
    b = _braces()[1]  # order 8
    cosets = {c for i in brace_ideals(b) for c in ideal_cosets(b, i)}
    for bits in range(1, 1 << b.order):
        s = tuple(x for x in range(b.order) if bits >> x & 1)
        report = ideal_iff_normal_paragon(b, s)
        assert "member_of_some_quotient=%s" % (s in cosets) in report.notes


# --------------------------------------------------------- catalog sweep

def _catalog():
    yield from (("zn%d" % n, functools.partial(zn_truss, n))
                for n in (2, 3, 12, 16, 64, 128, 255, 256))
    yield from (("za%d_%d" % (a, n), functools.partial(za_truss, a, n))
                for a, n in itertools.product((1, 2, 3, 4), (8, 64, 256)))
    yield from (("poly%d_%d" % (k, n), lambda k=k, n=n: trunc_poly_truss(k, n).truss)
                for k in range(1, 9) for n in range(1, 9) if 2 ** (k * n) <= 256)
    yield from (("end%s" % "x".join(map(str, o)), lambda o=o: end_truss(_abgroup(o)).truss)
                for o in ((2,), (3,), (4,), (2, 2), (2, 4)))
    yield from (("ring%d_%s" % (q, spec), lambda q=q, spec=spec:
                 group_ring(zn_ring(q), group_from_spec(spec)).ring.truss())
                for q, spec in ((2, "cyclic:2"), (3, "cyclic:2"), (2, "cyclic:4"),
                                (2, "cyclic:2*cyclic:2"), (2, "dihedral:6"), (2, "dihedral:8")))


def _abgroup(orders):
    g = AbGroup.cyclic(orders[0])
    for n in orders[1:]:
        g = g.direct_sum(AbGroup.cyclic(n))
    return g


@pytest.mark.parametrize("name,build", list(_catalog()), ids=[n for n, _ in _catalog()])
def test_catalog_law_reports_are_exhaustive(name, build):
    t = build()
    assert t.order <= 256
    for report in (truss_law_report(t), module_law_report(regular_module(t))):
        assert report.samples is None and report.seed is None
        assert report.ok, report.render()
