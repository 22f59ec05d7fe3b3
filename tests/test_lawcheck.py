"""Differential tests: the exhaustive reduced law checks against brute force.

The oracles below are the full scans the library used before the affine
reduction (n^4 per distributivity law, n^5 for ternary associativity).  They
run on small tables, lawful and deliberately corrupted, and every verdict of
the reduced checks must match; every witness must fail its law when the law
is evaluated directly.
"""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trusskit import (
    AbGroup,
    Brace,
    ConsistencyError,
    FiniteGroup,
    TModule,
    Truss,
    ValidationError,
    brace_from_truss,
    brace_ideals,
    brace_law_report,
    congruences,
    cyclic_group,
    dihedral_group,
    direct_product,
    end_truss,
    extend,
    group_from_spec,
    group_ring,
    heap_from_group,
    ideal_cosets,
    ideal_iff_normal_paragon,
    is_paragon,
    module_law_report,
    product_module,
    quaternion_group,
    regular_module,
    subheap_witness,
    trivial_module,
    trunc_poly_truss,
    truss_from_brace,
    truss_from_ring,
    truss_law_report,
    validate_ternary_table,
    za_truss,
    zero_module,
    zn_ring,
    zn_truss,
)
from trusskit.catalog import left_translation_truss
from trusskit.heaps import induced_table, morphism_witness, retract
from trusskit.lawcheck import Report
from trusskit.trusses import ParagonReport

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


# ------------------------------------------- associativity: reduced vs scan
# The law reports decide associativity on generators (x at the basepoint and
# the retract's generators once the rows are heap morphisms; Light's test for
# groups) and fall back to the row scan when that fails.  Verdict and witness
# must equal the oracle's lexicographically first failing (s, t, x).

def _first(failing):
    hits = np.argwhere(failing)
    return tuple(int(v) for v in hits[0]) if hits.size else None


def _left_affine(data, rows, n):
    """mul[a, x] = alpha_a x + beta_a mod n: every row is a heap morphism of
    Z_n, but the table is usually not associative."""
    alpha = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=rows, max_size=rows)))
    beta = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=rows, max_size=rows)))
    return (alpha[:, None] * np.arange(n)[None, :] + beta[:, None]) % n


def _cyclic_group(data):
    """Z_n re-anchored at a drawn zero, so the basepoint is not always the
    smallest generator (the reduced check then meets x out of order)."""
    n = data.draw(st.integers(1, 12))
    return retract(heap_from_group(AbGroup.cyclic(n)), data.draw(st.integers(0, n - 1)))


def _truss_table(data):
    """(heap, mul, sided): a lawful truss, corrupted or not, or a left-affine table."""
    if data.draw(st.booleans()):
        heap = heap_from_group(_cyclic_group(data))
        return heap, _left_affine(data, heap.order, heap.order), \
            data.draw(st.sampled_from(["two-sided", "left"]))
    t = data.draw(st.sampled_from(_trusses()))
    return t.heap, _corrupt(data, t.mul, t.order), t.sided


def _finite_groups():
    return [dihedral_group(6), dihedral_group(8), quaternion_group(), dihedral_group(12),
            direct_product(dihedral_group(6), cyclic_group(2)), cyclic_group(12)]


class TestReducedAssociativity:
    @ORACLE
    @given(st.data())
    def test_truss(self, data):
        heap, mul, sided = _truss_table(data)
        report = truss_law_report(Truss(heap, mul, sided=sided, check=False))
        check = _check(report, "truss.associative")
        assert check.witness == _first(_assoc_oracle(mul, mul))
        assert check.passed == (check.witness is None)

    @ORACLE
    @given(st.data())
    def test_ring(self, data):
        if data.draw(st.booleans()):
            add = _cyclic_group(data)
            mul = _left_affine(data, add.order, add.order)
        else:
            add, mul = data.draw(st.sampled_from(_rings()))
            mul = _corrupt(data, mul, add.order)
        expected = _first(_assoc_oracle(mul, mul))
        try:
            truss_from_ring(add, mul)
        except ValidationError as err:
            if err.law == "ring.associative":
                assert err.witness == expected
                return
        assert expected is None

    @ORACLE
    @given(st.data())
    def test_module(self, data):
        mod = data.draw(st.sampled_from(_modules()))
        if data.draw(st.booleans()):  # every row affine: the carrier law holds
            heap = heap_from_group(_cyclic_group(data))
            act = _left_affine(data, mod.truss.order, heap.order)
        else:
            heap, act = mod.heap, _corrupt(data, mod.action, mod.order)
        report = module_law_report(TModule(mod.truss, heap, act, check=False))
        check = _check(report, "module.associative")
        assert check.witness == _first(_assoc_oracle(mod.truss.mul, act))
        assert check.passed == (check.witness is None)

    @ORACLE
    @given(st.data())
    def test_abgroup(self, data):
        g = data.draw(st.sampled_from(GROUPS))
        add = _corrupt(data, g.add, g.order)
        if data.draw(st.booleans()):  # commutative, so that check does not mask this one
            add = np.minimum(add, add.T)
        try:
            bad = AbGroup(add, check=False)
        except ValidationError:  # the corruption removed the zero or an inverse
            return
        check = _check(bad.law_report(), "group.associative")
        assert check.witness == _first(_assoc_oracle(add, add))

    @ORACLE
    @given(st.data())
    def test_finite_group(self, data):
        g = data.draw(st.sampled_from(_finite_groups()))
        mul = _corrupt(data, g.mul, g.order)
        mul[g.id, :] = mul[:, g.id] = np.arange(g.order)
        try:
            bad = FiniteGroup(mul, check=False)
        except ValidationError:  # the corruption removed an inverse
            return
        check = _check(bad.law_report(), "group.associative")
        assert check.witness == _first(_assoc_oracle(mul, mul))

    @pytest.mark.parametrize("g", _finite_groups(),
                             ids=["D6", "D8", "Q8", "D12", "D6xC2", "C12"])
    def test_finite_group_generators_span(self, g):
        gens = g.generators()
        assert len(gens) <= math.floor(math.log2(g.order))
        assert set(g.closure(gens)) == set(range(g.order))


# ------------------------------------------- sub-heaps: |S|^2 vs the |S|^3 scan

def _subheap_oracle(h, members):
    """The former test: the first (a, b, c) over members with [a, b, c] outside."""
    inside = set(members)
    return next(((a, b, c) for a, b, c in itertools.product(members, repeat=3)
                 if h.bracket(a, b, c) not in inside), None)


@functools.lru_cache(maxsize=None)
def _subheap_carriers():
    base = za_truss(2, 4)
    brace16 = truss_from_brace(brace_from_truss(extend(base, regular_module(base), 0).truss))
    return [zn_truss(n) for n in range(1, 17)] + [za_truss(2, 8), brace16]


@ORACLE
@given(st.data())
def test_subheap_witness_matches_cubic_scan(data):
    t = data.draw(st.sampled_from(_subheap_carriers()))
    members = data.draw(st.sets(st.integers(0, t.order - 1), min_size=1))
    if data.draw(st.booleans()):  # the sub-heap a few of them generate, so passes occur
        members, grown = set(sorted(members)[:3]), None
        while grown != members:
            grown = members
            members = grown | {t.bracket(*abc) for abc in itertools.product(grown, repeat=3)}
    members = sorted(members)
    for h in (t, t.heap):
        assert subheap_witness(h, members) == _subheap_oracle(h, members)


# ------------------------------------------------ paragons: one q vs every q

def _paragon_oracle(t, members):
    """The former classification, which tested closure at every q in P."""
    members = tuple(sorted(set(members)))
    n = t.order
    sarr = np.array(members)
    mask = np.zeros(n, dtype=bool)
    mask[sarr] = True
    failures = {}
    for a, b, c in itertools.product(members, repeat=3):
        if not mask[t.bracket(a, b, c)]:
            failures["subheap"] = (a, b, c)
            return "none", None, failures
    lam_flags, rho_flags = [], []
    for q in members:
        lam = [(x, p) for x in range(n) for p in members
               if not mask[t.bracket(t.mul[x, p], t.mul[x, q], q)]]
        lam_flags.append(not lam)
        if lam and "lambda" not in failures:
            failures["lambda"] = (q,) + lam[0]
        if t.sided == "two-sided":
            rho = [(p, x) for p in members for x in range(n)
                   if not mask[t.bracket(t.mul[p, x], t.mul[q, x], q)]]
            rho_flags.append(not rho)
            if rho and "rho" not in failures:
                failures["rho"] = (q,) + rho[0]
    if len(set(lam_flags)) > 1 or len(set(rho_flags)) > 1:
        raise ConsistencyError("closure depends on the witness q")
    lam_ok, rho_ok = lam_flags[0], bool(rho_flags and rho_flags[0])
    if t.sided == "left":
        return ("left", members, {}) if lam_ok else ("none", None, failures)
    if mask[t.mul[:, sarr]].all() and mask[t.mul[sarr, :]].all():
        return "ideal", members, {}
    if lam_ok and rho_ok:
        return "two-sided", members, {}
    if lam_ok or rho_ok:
        return ("left" if lam_ok else "right"), members, failures
    return "none", None, failures


def _compare_paragon(t, members):
    got = is_paragon(t, members)
    assert isinstance(got, ParagonReport)
    members_got = None if got.paragon is None else got.paragon.members
    assert (got.kind, members_got, got.failures) == _paragon_oracle(t, members)


@pytest.mark.parametrize("name,build", [("za2_8", lambda: za_truss(2, 8)),
                                        ("left_translation", left_translation_truss)]
                         + [("zn%d" % n, functools.partial(zn_truss, n)) for n in range(1, 9)])
def test_paragon_every_subset_matches_all_q_oracle(name, build):
    t = build()
    for bits in range(1, 1 << t.order):
        _compare_paragon(t, [x for x in range(t.order) if bits >> x & 1])


@functools.lru_cache(maxsize=None)
def _order16():
    base = za_truss(2, 4)
    return [zn_truss(16), za_truss(2, 16), extend(base, regular_module(base), 0).truss]


@ORACLE
@given(st.data())
def test_paragon_random_order_16_subsets_match_all_q_oracle(data):
    t = data.draw(st.sampled_from(_order16()))
    if data.draw(st.booleans()):
        members = data.draw(st.sets(st.integers(0, 15), min_size=1))
    else:  # the sub-heap a few elements generate, so the closure tests run
        members = data.draw(st.sets(st.integers(0, 15), min_size=1, max_size=3))
        while True:
            arr = np.array(sorted(members))
            grown = members | set(t.bracket_arrays(
                arr[:, None, None], arr[None, :, None], arr[None, None, :]).ravel().tolist())
            if grown == members:
                break
            members = grown
    _compare_paragon(t, sorted(members))


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


# ------------------------------------------------- induced class tables

def _induced_oracle(proj, values, axes):
    """Cell by cell: the induced table read at each class's smallest member,
    and the first cell (row-major) whose value differs from the value with
    every carrier coordinate moved to the smallest member of its class."""
    first = {}
    for x, c in enumerate(proj.tolist()):
        first.setdefault(c, x)
    smallest = [first[c] for c in proj.tolist()]
    shape = tuple(len(first) if a in axes else s for a, s in enumerate(values.shape))
    table = np.empty(shape, dtype=values.dtype)
    for cell in np.ndindex(shape):
        table[cell] = values[tuple(first[c] if a in axes else c for a, c in enumerate(cell))]
    for cell in np.ndindex(values.shape):
        at = tuple(smallest[c] if a in axes else c for a, c in enumerate(cell))
        if values[cell] != values[at]:
            return table, cell
    return table, None


def _classes_to_proj(n, classes):
    proj = np.empty(n, dtype=np.int64)
    for i, block in enumerate(classes):
        proj[list(block)] = i
    return proj


def _draw_proj(data, n, lawful):
    """A congruence of the structure (when ``lawful`` lists any), else an
    arbitrary partition in restricted-growth order."""
    if lawful and data.draw(st.booleans()):
        return _classes_to_proj(n, data.draw(st.sampled_from(lawful)))
    rgs = [0]
    for _ in range(n - 1):
        rgs.append(data.draw(st.integers(0, max(rgs) + 1)))
    return np.array(rgs, dtype=np.int64)


class TestInducedTable:
    """``heaps.induced_table`` against the cell scan, on lawful and corrupted
    tables of order <= 12: the same table, verdict and first witness."""

    def _check(self, proj, values, axes):
        table, w = induced_table(proj, values, axes=axes)
        want_table, want_w = _induced_oracle(proj, values, axes or range(values.ndim))
        assert np.array_equal(table, want_table)
        assert w == want_w

    @ORACLE
    @given(st.data())
    def test_group_addition(self, data):
        g = data.draw(st.sampled_from(GROUPS))
        cosets = congruences(trivial_module(zn_truss(1), heap_from_group(g)))
        proj = _draw_proj(data, g.order, cosets)
        self._check(proj, proj[_corrupt(data, g.add, g.order)], None)

    @ORACLE
    @given(st.data())
    def test_truss_multiplication(self, data):
        t = data.draw(st.sampled_from(_trusses()))
        proj = _draw_proj(data, t.order, congruences(regular_module(t)))
        self._check(proj, proj[_corrupt(data, t.mul, t.order)], None)

    @ORACLE
    @given(st.data())
    def test_module_action_carrier_axis(self, data):
        mod = data.draw(st.sampled_from(_modules()))
        proj = _draw_proj(data, mod.order, congruences(mod))
        self._check(proj, proj[_corrupt(data, mod.action, mod.order)], (1,))

    @ORACLE
    @given(st.data())
    def test_map_through_classes(self, data):
        n = data.draw(st.integers(1, 12))
        proj = _draw_proj(data, n, [])
        k = int(proj.max()) + 1
        f = np.array(data.draw(st.lists(st.integers(0, 5), min_size=k, max_size=k)))[proj]
        self._check(proj, _corrupt(data, f, 6), None)

    def test_lawful_congruences_have_no_witness(self):
        for t in _trusses()[:12]:
            for classes in congruences(regular_module(t)):
                proj = _classes_to_proj(t.order, classes)
                assert induced_table(proj, proj[t.mul], axes=(1,))[1] is None
                assert induced_table(proj, proj[t.heap.retract.add])[1] is None


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
        assert [f.name for f in dataclasses.fields(Report)] == ["title", "checks", "notes"]
        assert report.ok, report.render()
