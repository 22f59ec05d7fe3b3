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
    Heap,
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
    group_from_units,
    group_ring,
    heap_from_group,
    ideal_cosets,
    ideal_iff_normal_paragon,
    is_normal_paragon,
    is_paragon,
    module_law_report,
    paragons,
    product_module,
    quaternion_group,
    quotient_truss,
    regular_module,
    socle,
    subheap_witness,
    trivial_module,
    trunc_poly_truss,
    truss_from_brace,
    truss_from_ring,
    truss_law_report,
    units_brace,
    validate_ternary_table,
    za_truss,
    zero_module,
    zn_ring,
    zn_truss,
)
from trusskit import cli, jsonio, trusses
from trusskit.catalog import Ring, _free_ring, left_translation_truss
from trusskit.extensions import ExtTruss, anchor_iso, extension_clause_report
from trusskit.heaps import (closed_subheaps, heap_generators, heap_law_report, induced_table,
                            morphism_witness, quotient_heap, retract)
from trusskit.modules import quotient_module
from trusskit.trusses import opposite_truss
from trusskit.lawcheck import Report, associativity_witness
from trusskit.trusses import ParagonReport

import scan_oracle
from basis_oracle import abelian_coordinates
from normal_oracle import normal_or_none

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


# ------------------------------- two-sided: generator rows and generator triples
# Once the columns are heap morphisms, the generator rows decide the rows, and
# once both are, the generator triples decide associativity.  Bi-affine tables
# reach that path with a non-associative product; every verdict and witness
# must still be the full scan's.

def _coordinates(g):
    """(coords, dims, radix, index): coords[x] is x's row in an abelian basis
    of g, of orders dims, and index[row @ radix] the element with that row."""
    basis, coords = abelian_coordinates(FiniteGroup.from_abgroup(g))
    dims = np.array([d for _, d in basis], dtype=np.int64)
    radix = np.cumprod(np.concatenate(([1], dims)))[:-1].astype(np.int64)
    index = np.empty(g.order, dtype=np.int64)
    index[coords @ radix] = np.arange(g.order)
    return coords, dims, radix, index


def _killed_by(data, k, dims):
    """A drawn element (as a coordinate row) v with k v = 0; k = 0: any element."""
    u = np.array([data.draw(st.integers(0, d - 1)) for d in dims], dtype=np.int64)
    return u * (dims // np.gcd(k, dims)) % dims


def _bi_affine(data, left, right, out, form="affine"):
    """mul[x, y] = B(x, y) + L(x) + R(y) + c in ``out``, for x in ``left`` and
    y in ``right`` (AbGroups), with B bilinear, L and R additive and c drawn.

    Every row and every column is affine, so the table distributes on both
    sides; it is usually not associative.  ``form`` "bilinear" drops L, R and
    c (a ring product); "circle" (left = right = out) takes L = R = identity
    and c = 0, so x.y = x + y + B(x, y) has the zero as identity (a brace
    product when it is a group).  For "affine" a drawn twist (``_twist``)
    breaks some rows and keeps every column affine, or the mirror.
    """
    cl, dl, _, _ = _coordinates(left)
    cr, dr, _, _ = _coordinates(right)
    co, do, radix, index = _coordinates(out)
    beta = np.array([_killed_by(data, math.gcd(int(a), int(b)), do)
                     for a in dl for b in dr], dtype=np.int64).reshape(len(dl), len(dr), len(do))
    value = np.einsum("xi,yj,ijl->xyl", cl, cr, beta)
    if form == "circle":
        value += co[:, None, :] + co[None, :, :]
    elif form == "affine":
        lam = np.array([_killed_by(data, int(a), do) for a in dl],
                       dtype=np.int64).reshape(len(dl), len(do))
        rho = np.array([_killed_by(data, int(b), do) for b in dr],
                       dtype=np.int64).reshape(len(dr), len(do))
        value += (cl @ lam)[:, None, :] + (cr @ rho)[None, :, :] + _killed_by(data, 0, do)
        twist = data.draw(st.sampled_from([None, "rows", "cols"]))
        if twist == "rows":
            value += _twist(data, cl, dl, right.order, do)
        elif twist == "cols":
            value += np.moveaxis(_twist(data, cr, dr, left.order, do), 0, 1)
    return index[(value % do) @ radix]


def _twist(data, coords, dims, size, out_dims):
    """[u, v]: N_0(v) + sum_i u_i N_i(v), u_i the coordinates of u, for
    arbitrary maps N_i into the elements killed by dims[i].  Every map of u
    stays affine; the map of v is arbitrary for some u and not for others."""
    def noise(k):
        return np.array([_killed_by(data, k, out_dims) for _ in range(size)],
                        dtype=np.int64).reshape(size, len(out_dims))
    value = np.broadcast_to(noise(0), (len(coords), size, len(out_dims))).copy()
    for i, d in enumerate(dims):
        value += coords[:, i, None, None] * noise(int(d))[None, :, :]
    return value


def _affine_group(data):
    """Z_n re-anchored at a drawn zero, C2 x C2 or C2 x C4."""
    if data.draw(st.booleans()):
        return _cyclic_group(data)
    return data.draw(st.sampled_from([GROUPS[12], GROUPS[13]]))


def _morphism_oracle(rows, dom, cod):
    """The witness of the full ``morphism_witness`` scan, read off the brute
    force table: the first failing (i, x, e, g), g over the generators."""
    failing = _distributive_oracle(rows, dom, cod)
    e, gens = dom.basepoint, dom.retract.generators
    w = _first(failing[:, :, e][:, :, gens])
    assert (w is None) == (not failing.any())
    return None if w is None else (w[0], w[1], e, int(gens[w[2]]))


def _expect(report, expected):
    for name, w in expected.items():
        check = _check(report, name)
        assert (check.passed, check.witness) == (w is None, w), name


class TestTwoSidedReduction:
    @ORACLE
    @given(st.data())
    def test_truss(self, data):
        if data.draw(st.booleans()):
            g = _affine_group(data)
            heap, sided = heap_from_group(g), data.draw(st.sampled_from(["two-sided", "left"]))
            form = data.draw(st.sampled_from(["affine", "bilinear"]))
            mul = _bi_affine(data, g, g, g, form)
            if data.draw(st.booleans()):
                mul = _corrupt(data, mul, g.order)
        else:
            t = data.draw(st.sampled_from(_trusses()))
            heap, mul, sided = t.heap, _corrupt(data, t.mul, t.order), t.sided
        report = truss_law_report(Truss(heap, mul, sided=sided, check=False))
        expected = {"truss.associative": _first(_assoc_oracle(mul, mul)),
                    "truss.left_distributive": _morphism_oracle(mul, heap, heap)}
        if sided == "two-sided":
            expected["truss.right_distributive"] = _morphism_oracle(mul.T, heap, heap)
        _expect(report, expected)

    @ORACLE
    @given(st.data())
    def test_ring(self, data):
        if data.draw(st.booleans()):
            add = _affine_group(data)
            form = data.draw(st.sampled_from(["bilinear", "bilinear", "affine"]))
            mul = _bi_affine(data, add, add, add, form)
            if data.draw(st.booleans()):
                mul = _corrupt(data, mul, add.order)
        else:
            add, mul = data.draw(st.sampled_from(_rings()))
            mul = _corrupt(data, mul, add.order)
        heap, zero = heap_from_group(add), add.zero
        expected = None
        w = _first(_assoc_oracle(mul, mul))
        if w is not None:
            expected = ("ring.associative", w)
        for law, rows in (("ring.left_distributive", mul), ("ring.right_distributive", mul.T)):
            moved = np.flatnonzero(rows[:, zero] != zero)
            w = _morphism_oracle(rows, heap, heap)
            if expected is None and moved.size:
                expected = (law, (moved[0], zero, zero))
            elif expected is None and w is not None:
                expected = (law, (w[0], w[1], w[3]))
        try:
            t = truss_from_ring(add, mul)
        except ValidationError as err:
            assert (err.law, err.witness) == expected
        else:
            assert expected is None
            assert t.absorber == zero

    @ORACLE
    @given(st.data())
    def test_module(self, data):
        if data.draw(st.booleans()):
            t = data.draw(st.sampled_from([t for t in _trusses() if t.sided == "two-sided"]))
            g = _affine_group(data)
            form = data.draw(st.sampled_from(["affine", "bilinear"]))
            heap, act = heap_from_group(g), _bi_affine(data, t.heap.retract, g, g, form)
        else:
            mod = data.draw(st.sampled_from(_modules()))
            t, heap, act = mod.truss, mod.heap, mod.action
        if data.draw(st.booleans()):
            act = _corrupt(data, act, heap.order)
        report = module_law_report(TModule(t, heap, act, check=False))
        expected = {"module.associative": _first(_assoc_oracle(t.mul, act)),
                    "module.carrier_bracket": _morphism_oracle(act, heap, heap)}
        if t.sided == "two-sided":
            w = _morphism_oracle(act.T, t.heap, heap)
            expected["module.truss_bracket"] = None if w is None else w[1:] + w[:1]
        _expect(report, expected)

    @ORACLE
    @given(st.data())
    def test_brace(self, data):
        if data.draw(st.booleans()):
            add = _affine_group(data)
            mul = _bi_affine(data, add, add, add, "circle")
        else:
            b = data.draw(st.sampled_from(_braces()))
            add, mul = b.add, b.mul.mul.copy()
        if data.draw(st.booleans()):
            mul = _corrupt(data, mul, add.order)
        mul[add.zero, :] = mul[:, add.zero] = np.arange(add.order)
        try:
            group = FiniteGroup(mul, check=False)
        except ValidationError:  # not a loop with inverses
            return
        sided = data.draw(st.sampled_from(["two-sided", "left"]))
        report = brace_law_report(Brace(add, group, sided=sided, check=False))
        heap = heap_from_group(add)
        sides = [("left", mul)] + ([("right", mul.T)] if sided == "two-sided" else [])
        expected = {}
        for side, rows in sides:
            w = _morphism_oracle(rows, heap, heap)
            expected["brace.%s_law" % side] = None if w is None else (w[0], w[1], w[3])
        _expect(report, expected)

    @pytest.mark.parametrize("g", [retract(heap_from_group(AbGroup.cyclic(5)), 2),
                                   retract(heap_from_group(AbGroup.cyclic(12)), 5),
                                   GROUPS[13]], ids=["Z5@2", "Z12@5", "C2xC4"])
    def test_rows_failing_off_the_generators(self, g):
        # x.y = sum_i x_i N_i(y) (N_i arbitrary into the x_i-torsion): every
        # column is additive and a row fails where the x_i switch an N_i on
        coords, dims, radix, index = _coordinates(g)
        heap, rng, off = heap_from_group(g), np.random.default_rng(0), 0
        for _ in range(25):
            value = np.zeros((g.order, g.order, len(dims)), dtype=np.int64)
            for i, d in enumerate(dims):
                if rng.integers(2):
                    noise = rng.integers(0, dims, size=(g.order, len(dims)))
                    value += coords[:, i, None, None] * (noise * (dims // np.gcd(d, dims)))
            mul = index[(value % dims) @ radix]
            left = _morphism_oracle(mul, heap, heap)
            report = truss_law_report(Truss(heap, mul, check=False))
            _expect(report, {"truss.associative": _first(_assoc_oracle(mul, mul)),
                             "truss.left_distributive": left,
                             "truss.right_distributive": _morphism_oracle(mul.T, heap, heap)})
            # the first failing row is not the rank of the first failing generator row
            off += left is not None and left[0] != morphism_witness(
                mul[heap_generators(heap)], heap, heap)[0]
        assert off

    def test_generator_triples_need_both_laws(self):
        # x.y = f(x) + y on Z_4, f = (0, 0, 2, 0): rows are translations, columns
        # are not affine, and s(tx) = (st)x holds for s, t in {0, 1} only
        f, idx = np.array([0, 0, 2, 0]), np.arange(4)
        mul = (f[:, None] + idx[None, :]) % 4
        report = truss_law_report(Truss(heap_from_group(AbGroup.cyclic(4)), mul, check=False))
        assert associativity_witness(mul, mul, firsts=[0, 1], mids=[0, 1], lasts=[0, 1]) is None
        assert _check(report, "truss.associative").witness == _first(_assoc_oracle(mul, mul))
        assert not _check(report, "truss.right_distributive").passed

    def test_bi_affine_table_reaches_the_generator_triples(self, monkeypatch):
        # x.y = 2xy + x on Z_4 distributes on both sides; (st)x - s(tx) = 2sx,
        # so the first failing triple is (1, 0, 1): the generator triples fail
        # and the full rescan inside associativity_witness finds it
        calls = []

        def recorded(mul, act, **kwargs):
            calls.append(sorted(k for k, v in kwargs.items() if v is not None))
            return associativity_witness(mul, act, **kwargs)

        monkeypatch.setattr(trusses, "associativity_witness", recorded)
        idx = np.arange(4)
        mul = (2 * idx[:, None] * idx[None, :] + idx[:, None]) % 4
        report = truss_law_report(Truss(heap_from_group(AbGroup.cyclic(4)), mul, check=False))
        assert [(c.name, c.passed, c.witness) for c in report.checks[:3]] == [
            ("truss.associative", False, (1, 0, 1)),
            ("truss.left_distributive", True, None),
            ("truss.right_distributive", True, None)]
        assert calls == [["firsts", "lasts", "mids"]]


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
    assert got.normal == normal_or_none(t, members)


@pytest.mark.parametrize("name,build", [("za2_8", lambda: za_truss(2, 8)),
                                        ("left_translation", left_translation_truss)]
                         + [("zn%d" % n, functools.partial(zn_truss, n)) for n in range(1, 9)])
def test_paragon_every_subset_matches_all_q_oracle(name, build):
    t = build()
    for bits in range(1, 1 << t.order):
        _compare_paragon(t, [x for x in range(t.order) if bits >> x & 1])


def _stack_matches_oracle(t, sets):
    """``_paragon_reports`` on the stack ``sets`` reports each row as the
    all-q oracle classifies it alone."""
    for got, members in zip(trusses._paragon_reports(t, sets), sets, strict=True):
        members_got = None if got.paragon is None else got.paragon.members
        assert (got.kind, members_got, got.failures) == _paragon_oracle(t, members)
        assert got.normal == normal_or_none(t, members)


@pytest.mark.parametrize("name,build", [("za2_8", lambda: za_truss(2, 8)),
                                        ("left_translation", left_translation_truss),
                                        ("zn6", functools.partial(zn_truss, 6)),
                                        ("zn8", functools.partial(zn_truss, 8))])
def test_paragon_stack_of_every_subset_of_one_size_matches_all_q_oracle(name, build):
    t = build()
    for size in range(1, t.order + 1):
        _stack_matches_oracle(t, list(itertools.combinations(range(t.order), size)))


@pytest.mark.parametrize("size", [2, 4])
def test_paragon_stacks_at_order_16_match_all_q_oracle(size):
    for t in _order16() + [trusses.opposite_truss(_order16()[2])]:  # the last has right paragons
        _stack_matches_oracle(t, list(itertools.combinations(range(16), size)))


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


@ORACLE
@given(st.data())
def test_normality_on_lawful_and_corrupted_tables_matches_oracle(data):
    """``ParagonReport.normal`` and ``is_normal_paragon`` against the oracle's
    own lambda and rho arrays, on ``_truss_table``'s tables (order <= 12, up
    to three corrupted product cells, two-sided and left), for one drawn set
    and the sub-heap a few of its members generate."""
    heap, mul, sided = _truss_table(data)
    try:
        t = Truss(heap, mul, sided=sided, check=False)
    except ConsistencyError:  # the corruption made two absorbers
        return
    members = sorted(data.draw(st.sets(st.integers(0, t.order - 1), min_size=1)))
    grown, before = set(members[:3]), None
    while grown != before:
        before, grown = grown, grown | {t.bracket(*abc) for abc in itertools.product(grown, repeat=3)}
    for s in (members, sorted(grown)):
        want = normal_or_none(t, s)
        assert is_paragon(t, s).normal == want
        if want is None:
            with pytest.raises(ValueError, match="normality is defined on sub-heaps"):
                is_normal_paragon(t, s)
        else:
            assert is_normal_paragon(t, s) == want


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


# ------------------------------------------------- one law scan per table

HOLDS = (None, None, None)
_LAW_WITNESSES = trusses._law_witnesses  # uncounted by the ``scans`` fixture


def _fresh_scan(t):
    """The law witnesses of ``t.mul`` from a new ``_law_witnesses`` run on a
    copy, with s and t of associativity not reduced to generators."""
    mul = np.array(t.mul)
    return _LAW_WITNESSES(mul, mul, t.heap, t.heap, t.sided, mul_lawful=False)


class TestStoredVerdict:
    """A truss keeps the witness triple of its one law scan; every path that
    sets it stores what a fresh scan finds, and every reader gets it."""

    @ORACLE
    @given(st.data())
    def test_check_true_and_check_false(self, data):
        heap, mul, sided = _truss_table(data)
        t = Truss(heap, mul, sided=sided, check=False)
        assert not t.lawful and t._laws is None
        fresh = _fresh_scan(t)
        assert t.law_witnesses() == fresh
        assert t.lawful == (fresh == HOLDS)
        try:
            checked = Truss(heap, mul, sided=sided)
        except ValidationError as err:
            assert fresh != HOLDS
            assert err.witness in fresh
        else:
            assert fresh == HOLDS and checked.lawful and checked._laws == HOLDS

    @ORACLE
    @given(st.data())
    def test_truss_from_ring(self, data):
        add, mul = data.draw(st.sampled_from(_rings()))
        try:
            t = truss_from_ring(add, _corrupt(data, mul, add.order))
        except ValidationError:
            return
        assert t.lawful and t._laws == HOLDS
        assert _fresh_scan(t) == HOLDS

    @ORACLE
    @given(st.data())
    def test_jsonio_validate(self, data):
        heap, mul, sided = _truss_table(data)
        obj, report = jsonio.validate(jsonio.to_jsonable(Truss(heap, mul, sided=sided,
                                                               check=False)))
        assert obj._laws == _fresh_scan(obj)
        assert obj.lawful == report.ok

    @ORACLE
    @given(st.data())
    def test_regular_module_matches_general_path(self, data):
        """The regular module reads the truss's triple; the same action as a
        copy takes the general path, which trusts the truss's laws only once
        ``lawful`` holds.  Drawn in either order, so both trust states meet."""
        heap, mul, sided = _truss_table(data)
        t = Truss(heap, mul, sided=sided, check=False)
        general = TModule(t, t.heap, t.mul.copy(), check=False)
        regular = regular_module(t)
        assert regular.action is t.mul and general.action is not t.mul
        first, second = (regular, general) if data.draw(st.booleans()) else (general, regular)
        one, two = module_law_report(first).to_dict(), module_law_report(second).to_dict()
        assert one == two
        # ``mul`` acting on another heap of the order is no regular module
        groups = [g for g in GROUPS if g.order == t.order] + [retract(t.heap, t.order - 1)]
        other = heap_from_group(data.draw(st.sampled_from(groups)))
        mods = [TModule(t, other, act, check=False) for act in (t.mul, t.mul.copy())]
        assert module_law_report(mods[0]).to_dict() == module_law_report(mods[1]).to_dict()

    def test_one_scan_per_table_in_the_benchmark_pattern(self, scans):
        builds = [lambda: trunc_poly_truss(1, 8).truss,
                  lambda: group_ring(zn_ring(2), group_from_spec("dihedral:8")).ring.truss(),
                  lambda: za_truss(2, 256)]
        for build in builds:
            scans.clear()
            t = build()
            assert truss_law_report(t).ok and module_law_report(regular_module(t)).ok
            assert scans == [("truss", 256)]

    def test_quotient_of_a_lawful_truss_is_not_scanned(self, scans):
        t = zn_truss(64)
        p = is_paragon(t, [u for u in range(64) if u % 2]).paragon
        scans.clear()
        q, _ = quotient_truss(t, p)
        assert scans == [] and q.lawful and q.order == 2

    def test_quotient_of_an_unchecked_truss_is_scanned(self, scans):
        t = zn_truss(12)
        unchecked = Truss(t.heap, t.mul, check=False)
        scans.clear()
        q, _ = quotient_truss(unchecked, paragons(unchecked)[1])
        assert scans == [("truss", q.order)] and q.lawful

    def test_units_of_an_unchecked_truss_are_checked(self):
        # Z_5 with a loop product, x x = 0 for every x: every element is a
        # unit, and no group of order 5 has exponent 2
        loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0]]
        t = Truss(heap_from_group(AbGroup.cyclic(5)), loop, check=False)
        with pytest.raises(ValidationError) as err:
            group_from_units(t)
        assert err.value.law == "group.associative"

    def test_empty_truss_holds_vacuously(self, scans):
        t = Truss(Heap.empty(), np.zeros((0, 0), dtype=np.int64))
        report = truss_law_report(t)
        assert report.checks == [] and report.notes == ["empty truss: laws hold vacuously"]
        assert t.lawful and scans == []
        assert not Truss(Heap.empty(), np.zeros((0, 0), dtype=np.int64), check=False).lawful

    def test_lawful_has_no_setter(self):
        t = zn_truss(4)
        with pytest.raises(AttributeError):
            t.lawful = False
        assert t.lawful

    def test_verdict_table_is_read_only(self):
        """The kept triple cannot go stale: no path hands out a writable ``mul``."""
        base = zn_truss(4)
        q, _ = quotient_truss(base, paragons(base)[1])
        for t in (base, Truss(base.heap, np.array(base.mul)), q,
                  truss_from_ring(zn_ring(4).add, zn_ring(4).mul)):
            assert t.lawful
            with pytest.raises(ValueError):
                t.mul[1, 1] = 3


# ------------------------------------- verdicts handed on from a lawful parent

def _fresh_group(g):
    """The witness triple of g's group laws by brute force on a copy of its table."""
    add = np.array(g.add)
    return (_first(add != add.T), _first(_assoc_oracle(add, add)),
            _first(add[np.arange(g.order), g.neg] != g.zero))


def _fresh_module(mod):
    t = mod.truss
    return _LAW_WITNESSES(t.mul, np.array(mod.action), t.heap, mod.heap, t.sided,
                          mul_lawful=False)


def _unchecked_group(data, max_order=12, group=None):
    """A group of ``GROUPS`` (or ``group``), maybe corrupted, built unchecked
    and maybe scanned; None when the corruption leaves no zero or inverse."""
    g = group or data.draw(st.sampled_from([g for g in GROUPS if g.order <= max_order]))
    try:
        g = AbGroup(_corrupt(data, g.add, g.order), check=False)
    except ValidationError:
        return None
    if data.draw(st.booleans()):
        g.law_report()
    return g


def _handed_on(child, parent_lawful, fresh, report):
    """A child holds ``HOLDS`` unscanned only from a lawful parent, and what
    it reports after that equals a fresh scan of its table."""
    assert (child._laws == HOLDS) == parent_lawful
    report(child)
    assert child._laws == fresh(child)


class TestInheritedVerdicts:
    """Quotient heaps and modules, direct sums, retracts, re-anchored and
    opposite trusses keep a lawful parent's verdict without a scan; on
    parents built unchecked from corrupted tables, they never do."""

    @ORACLE
    @given(st.data())
    def test_direct_sum_and_retract(self, data):
        g, h = _unchecked_group(data, 6), _unchecked_group(data, 6)
        if g is None or h is None:
            return
        assert AbGroup.cyclic(data.draw(st.integers(1, 12))).lawful  # Z_n by theorem
        _handed_on(g.direct_sum(h), g.lawful and h.lawful, _fresh_group, AbGroup.law_report)
        try:
            r = retract(heap_from_group(g), data.draw(st.integers(0, g.order - 1)))
        except ValidationError:  # no zero or inverse at the new basepoint
            assert not g.lawful
            return
        _handed_on(r, g.lawful, _fresh_group, AbGroup.law_report)

    @ORACLE
    @given(st.data())
    def test_quotient_heap(self, data):
        g = _unchecked_group(data)
        if g is None:
            return
        a, x, members = data.draw(st.integers(0, g.order - 1)), g.zero, {g.zero}
        for _ in range(g.order):  # the multiples of a: a subgroup, in a lawful group
            x = int(g.add[x, a])
            members.add(x)
        try:
            q, _ = quotient_heap(heap_from_group(g), sorted(members))
        except (ValidationError, ConsistencyError):
            assert not g.lawful
            return
        # handed on from a lawful group, else scanned: either way a fresh scan's
        assert q.retract._laws == _fresh_group(q.retract)

    @ORACLE
    @given(st.data())
    def test_free_ring_sum(self, data):
        g = _unchecked_group(data, 4)
        if g is None:
            return
        base = Ring(g, np.full((g.order, g.order), g.zero))
        try:
            _, ring = _free_ring(base, cyclic_group(2).mul, lambda c, i: "")
        except ValidationError:  # a sum of an unlawful group is scanned
            assert not g.lawful
            return
        # handed on from a lawful group, else scanned: either way a fresh scan's
        assert ring.add._laws == _fresh_group(ring.add)

    @ORACLE
    @given(st.data())
    def test_quotient_module(self, data):
        mod = data.draw(st.sampled_from(_modules()))
        if data.draw(st.booleans()):
            mod = TModule(mod.truss, mod.heap, _corrupt(data, mod.action, mod.order),
                          check=False)
            if data.draw(st.booleans()):
                module_law_report(mod)
        sets = closed_subheaps(mod.heap, mod.heap.basepoint, mod.action)
        try:
            q, _ = quotient_module(mod, data.draw(st.sampled_from(sets)))
        except (ValueError, ConsistencyError):  # ValidationError is a ValueError
            assert not mod.lawful
            return
        # handed on from a lawful module, else scanned: either way a fresh scan's
        assert q._laws == _fresh_module(q)

    @ORACLE
    @given(st.data())
    def test_opposite_truss(self, data):
        heap, mul, _ = _truss_table(data)
        t = Truss(heap, mul, check=False)
        if data.draw(st.booleans()):
            t.law_witnesses()
        _handed_on(opposite_truss(t), t.lawful, _fresh_scan, truss_law_report)

    @ORACLE
    @given(st.data())
    def test_anchor_iso(self, data):
        t = data.draw(st.sampled_from([t for t in _trusses() if t.order <= 4]))
        mod = data.draw(st.sampled_from([m for m in _modules() if m.truss is t]))
        e, e2 = (data.draw(st.integers(0, mod.order - 1)) for _ in range(2))
        ext = extend(t, mod, e)
        if data.draw(st.booleans()):  # the same table, unchecked and maybe corrupted
            mul = _corrupt(data, ext.truss.mul, ext.order)
            ext = ExtTruss(t, mod, e, Truss(ext.truss.heap, mul, sided=t.sided, check=False))
        try:
            ext2, _ = anchor_iso(ext, e2)
        except ConsistencyError:
            assert not ext.truss.lawful
            return
        _handed_on(ext2.truss, ext.truss.lawful, _fresh_scan, truss_law_report)

    @ORACLE
    @given(st.data())
    def test_documents_keep_their_reports(self, data):
        g = _unchecked_group(data)
        mod = data.draw(st.sampled_from(_modules()))
        mod = TModule(mod.truss, mod.heap, _corrupt(data, mod.action, mod.order), check=False)
        for obj, kept in ((g, lambda o: o), (heap_from_group(g), lambda o: o.retract),
                          (mod, lambda o: o)):
            if kept(obj) is None:
                continue
            got, report = jsonio.validate(jsonio.to_jsonable(obj))
            if got is None:  # a nested truss or heap failed
                continue
            fresh = _fresh_module if isinstance(got, TModule) else _fresh_group
            assert kept(got)._laws == fresh(kept(got))
            assert kept(got).lawful == report.ok

    @ORACLE
    @given(st.data())
    def test_malcev_by_theorem_matches_full_scan(self, data):
        """Corrupted tables: the Mal'cev grids scanned whenever a group law
        fails, so the report equals one that always scans them."""
        g = _unchecked_group(data)
        if g is None:
            return
        n, br = g.order, heap_from_group(g).bracket
        pairs = list(itertools.product(range(n), repeat=2))
        oracle = Report("heap laws (order %d)" % n)
        for name, bad in (("heap.malcev", [(a, b) for a, b in pairs if br(a, a, b) != b]),
                          ("heap.malcev_right", [(a, b) for a, b in pairs if br(a, b, b) != a])):
            oracle.add(name, not bad, bad[0] if bad else None)
        oracle.extend(AbGroup(np.array(g.add), check=False).law_report())
        assert heap_law_report(heap_from_group(g)).to_dict() == oracle.to_dict()


def _checked_copy(b):
    """A new brace on ``b``'s tables, every part built with ``check=True``."""
    return Brace(AbGroup(np.array(b.add.add)), FiniteGroup(np.array(b.mul.mul)), sided=b.sided)


class TestScanCounts:
    """Only the scans of an input or of a paper claim run; quotients and
    direct sums built from lawful parents run none."""

    def test_order_16_extension_clause_report(self, scans):
        base = za_truss(2, 4)
        mod = regular_module(base)
        scans.clear()
        _, report = extension_clause_report(base, mod, 0)
        assert report.ok
        # extend's T[M; e] laws and module_over_extension's: every fiber and
        # module quotient, the product heap and the anchor changes inherit
        assert scans == [("truss", 16), ("module", 16, 4)]

    def test_trunc_poly_truss(self, scans):
        tp = trunc_poly_truss(1, 6)
        assert scans == [("truss", 64)]  # the ring scan; the 6-fold direct sum inherits
        assert tp.ring.add.lawful and tp.truss.heap.retract.lawful

    def test_quotient_command_inherits_from_the_document(self, scans, tmp_path, capsys):
        path = tmp_path / "z8.json"
        jsonio.write_file(path, zn_truss(8))
        scans.clear()
        assert cli.main(["quotient", str(path), "1,3,5,7"]) == 0
        assert "quotient isomorphic to T(Z_2)" in capsys.readouterr().out
        assert scans == [("group", 8), ("truss", 8)]  # the document's own reports

    @pytest.mark.parametrize("build, order", [
        (lambda: za_truss(2, 16), 16),
        (lambda: extend(za_truss(2, 8), regular_module(za_truss(2, 8)), 0).truss, 64),
        (lambda: truss_from_brace(brace_from_truss(za_truss(2, 8))), 8),
    ])
    def test_brace_of_a_lawful_truss_inherits_its_additive_group(self, scans, build, order):
        t = build()
        scans.clear()
        b, u = brace_from_truss(t), units_brace(t)
        assert scans == [] and b.add.lawful and u.add.lawful and b.order == u.order == order

    def test_units_brace_of_a_lawful_truss_scans_no_group(self, scans):
        t = zn_truss(256)
        scans.clear()
        assert units_brace(t).order == 128 and scans == []

    @pytest.mark.parametrize("build", [
        lambda: brace_from_truss(za_truss(2, 8)),
        lambda: brace_from_truss(extend(za_truss(2, 8), regular_module(za_truss(2, 8)), 0).truss),
        lambda: _checked_copy(brace_from_truss(za_truss(2, 16))),
    ], ids=["bridge-8", "bridge-64", "checked-16"])
    def test_socle_of_a_lawful_brace_runs_no_scan(self, scans, build):
        b = build()
        assert b.lawful
        scans.clear()
        t = truss_from_brace(b)
        socle(b)
        assert scans == [] and t.lawful

    def test_socle_scans_an_unchecked_brace_once(self, scans):
        b = brace_from_truss(extend(za_truss(2, 8), regular_module(za_truss(2, 8)), 0).truss)
        fresh = Brace(b.add, b.mul, sided=b.sided, labels=b.labels, check=False)
        scans.clear()
        socle(fresh)
        socle(fresh)
        # the brace keeps its truss's scan; with b's lawful groups it is lawful
        assert scans == [("truss", 64)] and fresh.lawful


# ------------------------------- a verdict covers everything a structure is built from
# Brute force decides the law checks a structure's report lists, in order:
# the failing laws of its parts (heaps, groups, a module's truss), then its
# own laws; over a heap that is no group, generators decide no bracket law,
# and the report lists associativity alone.  Every listed check must agree
# with brute force, with a witness that fails it (the lexicographically
# first one where the report promises that); ``lawful`` must say that every
# law holds, and a checked build must raise the report's first failure.

def _group_laws(add, zero, neg, commutative=True):
    idx = np.arange(len(add))
    laws = [("group.commutative", add != add.T, True)] if commutative else []
    return laws + [("group.associative", _assoc_oracle(add, add), True),
                   ("group.inverse", add[idx, neg] != zero, True)]


def _failing(laws):
    return [law for law in laws if law[1].any()]


def _heap_failures(heap):
    return _failing(_group_laws(heap.retract.add, heap.retract.zero, heap.retract.neg))


def _truss_laws(t):
    heap = _heap_failures(t.heap)
    laws = heap + [("truss.associative", _assoc_oracle(t.mul, t.mul), True)]
    if heap:
        return laws
    laws.append(("truss.left_distributive", _distributive_oracle(t.mul, t.heap, t.heap), False))
    if t.sided == "two-sided":
        laws.append(("truss.right_distributive", _distributive_oracle(t.mul.T, t.heap, t.heap),
                     False))
    return laws


def _module_laws(mod):
    t, act = mod.truss, mod.action
    carrier = _heap_failures(mod.heap)
    laws = _failing(_truss_laws(t)) + carrier
    laws.append(("module.associative", _assoc_oracle(t.mul, act), True))
    if carrier or _heap_failures(t.heap):
        return laws
    if t.sided == "two-sided":
        # oracle axes (x, a, b, c); the report's witness is (a, b, c, x)
        bracket = np.moveaxis(_distributive_oracle(act.T, t.heap, mod.heap), 0, -1)
        laws.append(("module.truss_bracket", bracket, False))
    laws.append(("module.carrier_bracket", _distributive_oracle(act, mod.heap, mod.heap), False))
    return laws


def _brace_laws(b):
    add, neg, mul = b.add.add, b.add.neg, b.mul.mul
    plus = _failing(_group_laws(add, b.add.zero, neg))
    laws = plus + _failing(_group_laws(mul, b.mul.id, b.mul.inv, commutative=False))
    if plus:  # generators decide no brace law: the report lists none
        return laws
    sides = [("left", mul)] + ([("right", mul.T)] if b.sided == "two-sided" else [])
    for side, rows in sides:  # a(x + y) = ax - a + ay, at (a, x, y)
        bad = rows[:, add] != add[add[rows[:, :, None], neg[:, None, None]], rows[:, None, :]]
        laws.append(("brace.%s_law" % side, bad, False))
    return laws


def _matches_brute_force(obj, report, laws, build):
    """``obj``'s verdict, its report and a checked build against ``laws``."""
    names = {name for name, _, _ in laws}
    listed = [c for c in report.checks if c.name in names]
    assert [c.name for c in listed] == [name for name, _, _ in laws]
    for check, (name, bad, first) in zip(listed, laws):
        assert check.passed == (not bad.any()), name
        if check.witness is not None:
            assert bad[check.witness]
            assert not first or check.witness == _first(bad)
    failing = _failing(laws)
    assert obj.lawful == report.ok == (not failing)
    if not failing:
        build()
        return
    check = report.failures()[0]
    assert check.name == failing[0][0]
    with pytest.raises(ValidationError) as err:
        build()
    assert (err.value.law, err.value.witness) == (check.name, check.witness)


def _unchecked_truss(data):
    """A truss of ``_trusses()`` with its heap's table and its product maybe
    corrupted, built unchecked; None when the heap keeps no zero or inverse
    or the product gets two absorbers."""
    t = data.draw(st.sampled_from(_trusses()))
    g = _unchecked_group(data, group=t.heap.retract)
    if g is None:
        return None
    try:
        return Truss(heap_from_group(g), _corrupt(data, t.mul, t.order), sided=t.sided,
                     check=False)
    except ConsistencyError:
        return None


class TestWholeVerdicts:
    """Trusses, modules and braces built unchecked over heaps with up to three
    corrupted cells (order <= 12): ``lawful`` and the first failing law, with
    its witness, are brute force's over every law, heap laws included."""

    @ORACLE
    @given(st.data())
    def test_truss(self, data):
        t = _unchecked_truss(data)
        if t is None:
            return
        if data.draw(st.booleans()):
            t.law_witnesses()
        _matches_brute_force(t, truss_law_report(t), _truss_laws(t),
                             lambda: Truss(t.heap, t.mul, sided=t.sided))

    @ORACLE
    @given(st.data())
    def test_module(self, data):
        t, g = _unchecked_truss(data), _unchecked_group(data)
        if t is None or g is None:
            return
        heap = heap_from_group(g)
        base = np.arange(g.order) if data.draw(st.booleans()) else np.full(g.order, g.zero)
        action = _corrupt(data, np.tile(base, (t.order, 1)), g.order)  # trivial or zero
        mod = TModule(t, heap, action, check=False)
        _matches_brute_force(mod, module_law_report(mod), _module_laws(mod),
                             lambda: TModule(t, heap, action))

    @ORACLE
    @given(st.data())
    def test_brace(self, data):
        b = data.draw(st.sampled_from([b for b in _braces() if b.order <= 12]))
        add = _unchecked_group(data, group=b.add)
        # (B, .) carried by a permutation fixing the identity: a group that
        # seldom distributes over +
        perm, others = np.arange(b.order), [v for v in range(b.order) if v != b.identity]
        perm[others] = data.draw(st.permutations(others))
        back = np.argsort(perm)
        mul = _corrupt(data, perm[b.mul.mul[back[:, None], back[None, :]]], b.order)
        if add is None:
            return
        try:
            bad = Brace(add, FiniteGroup(mul, check=False), sided=b.sided, check=False)
        except ValidationError:  # no identity or inverse, or a zero that is not it
            return
        report = brace_law_report(bad)
        _matches_brute_force(bad, report, _brace_laws(bad),
                             lambda: Brace(bad.add, bad.mul, sided=b.sided))
        if not add.lawful:
            assert not [c for c in report.checks if c.name.startswith("brace.")]


def _non_group():
    """x + y = y on two points: a zero and negatives, but no group."""
    return AbGroup([[0, 1], [0, 1]], check=False)


_OVER_A_NON_GROUP = {
    "truss": (lambda check: Truss(heap_from_group(_non_group()), [[0, 1], [1, 0]], check=check),
              truss_law_report),
    "module": (lambda check: TModule(zn_truss(2), heap_from_group(_non_group()),
                                     [[0, 0], [0, 0]], check=check), module_law_report),
    "brace": (lambda check: Brace(_non_group(), FiniteGroup([[0, 1], [1, 0]], check=False),
                                  check=check), brace_law_report),
}


@pytest.mark.parametrize("kind", sorted(_OVER_A_NON_GROUP))
def test_a_structure_over_a_non_group_is_not_lawful(kind):
    """Its own laws hold; the heap's commutativity fails at (0, 1)."""
    build, report = _OVER_A_NON_GROUP[kind]
    with pytest.raises(ValidationError) as err:
        build(True)
    assert (err.value.law, err.value.witness) == ("group.commutative", (0, 1))
    obj = build(False)
    failed = [(c.name, c.witness) for c in report(obj).failures()]
    assert failed == [("group.commutative", (0, 1))] and not obj.lawful


def test_truss_from_ring_reads_the_additive_group_verdict():
    for add in (_non_group(), [[0, 1], [0, 1]]):
        with pytest.raises(ValidationError) as err:
            truss_from_ring(add, [[0, 0], [0, 0]])
        assert (err.value.law, err.value.witness) == ("group.commutative", (0, 1))


# ------------------------------------------- one copy of each table fact

class TestOneCopyOfEachTableFact:
    """The identity, absorber and inverse finders, the report lines that read
    them and ``truss_from_ring`` on its truss's own law scan, against the
    bodies they replaced (``scan_oracle``), on lawful and corrupted tables."""

    @ORACLE
    @given(st.data())
    def test_identity_and_absorber_are_the_two_old_scans(self, data):
        t = data.draw(st.sampled_from(_trusses()))
        mul = _corrupt(data, t.mul, t.order)
        new = Truss(t.heap, mul, sided=t.sided, check=False)
        assert (new.identity, new.absorber) == (scan_oracle.scan_identity(mul),
                                                scan_oracle.scan_absorber(mul))
        lines = {c.name: c.passed for c in truss_law_report(new).checks}
        if new.identity is not None:
            assert scan_oracle.identity_row(new) and lines.get("truss.identity_row", True)
        if new.absorber is not None:
            assert scan_oracle.absorber_row(new) and lines.get("truss.absorber_row", True)
        if new.heap.lawful:  # the lines are listed whenever distributivity is
            assert ("truss.identity_row" in lines) == (new.identity is not None)
            assert ("truss.absorber_row" in lines) == (new.absorber is not None)

    @staticmethod
    def _old_or_error(find):
        try:
            return find()
        except ValidationError as err:
            return err.law, err.witness

    @ORACLE
    @given(st.data())
    def test_finite_group_identity_and_inverses(self, data):
        g = data.draw(st.sampled_from(_finite_groups() + [FiniteGroup.from_abgroup(a)
                                                          for a in GROUPS]))
        mul = _corrupt(data, g.mul, g.order)

        def old():
            e = scan_oracle.find_group_identity(mul)
            return e, scan_oracle.find_group_inverse(mul, e).tolist()
        expected = self._old_or_error(old)
        try:
            new = FiniteGroup(mul, check=False)
        except ValidationError as err:
            assert (err.law, err.witness) == expected
            return
        assert (new.id, new.inv.tolist()) == expected
        assert scan_oracle.group_inverse(new)
        assert _check(new.law_report(), "group.inverse").passed

    @ORACLE
    @given(st.data())
    def test_abgroup_zero_and_negatives(self, data):
        g = data.draw(st.sampled_from(GROUPS))
        add = _corrupt(data, g.add, g.order)

        def old():
            zero = scan_oracle.find_zero(add)
            return zero, scan_oracle.find_neg(add, zero).tolist()
        expected = self._old_or_error(old)
        try:
            new = AbGroup(add, check=False)
        except ValidationError as err:
            assert (err.law, err.witness) == expected
            return
        assert (new.zero, new.neg.tolist()) == expected
        assert scan_oracle.abgroup_inverse(new)
        assert _check(new.law_report(), "group.inverse").passed
        other = data.draw(st.sampled_from(GROUPS))
        for a, b in ((new, g), (g, new), (new, other), (new, heap_from_group(new))):
            assert (a == b) == scan_oracle.abgroup_eq(a, b)
        h1, h2 = heap_from_group(new), data.draw(st.sampled_from([heap_from_group(g),
                                                                   Heap.empty()]))
        for a, b in ((h1, h2), (h2, h1), (h1, heap_from_group(new)), (h1, new)):
            assert (a == b) == scan_oracle.heap_eq(a, b)
        for h in (h1, h2):
            assert jsonio.to_jsonable(h) == scan_oracle.group_or_heap_jsonable(h)
        assert jsonio.to_jsonable(new) == scan_oracle.group_or_heap_jsonable(new)

    @ORACLE
    @given(st.data())
    def test_truss_from_ring_matches_its_old_body(self, data):
        add, mul = data.draw(st.sampled_from(_rings()))
        mul = _corrupt(data, mul, add.order)
        try:
            old = scan_oracle.truss_from_ring(add, mul)
        except ValidationError as err:
            with pytest.raises(ValidationError) as new_err:
                truss_from_ring(add, mul)
            assert (new_err.value.law, new_err.value.witness) == (err.law, err.witness)
            return
        new = truss_from_ring(add, mul)
        assert new == old and new.lawful and old.lawful
        assert (new.identity, new.absorber) == (old.identity, old.absorber)

    def test_group_equality_reads_the_table(self):
        groups = _finite_groups() + [cyclic_group(4), quaternion_group()]
        for a in groups:
            for b in groups + [GROUPS[3]]:
                assert (a == b) == scan_oracle.group_eq(a, b)
