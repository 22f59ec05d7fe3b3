"""Constructors for the concrete families the library studies.

Modular rings and their trusses; the commutative unital trusses on the
integers with product m.n = a m n + m + n and their finite quotients; group
rings with the augmentation map; truncated polynomial rings over Z_{2^k}
with the explicit unit-inverse series; endomorphism-ring extensions; and
residue checks of the genuinely infinite integer examples.

Infinite objects are never materialised.  Each integer claim is an identity
between integer polynomials, so its truth mod n depends only on the residues
of its arguments: checking every residue mod n is exhaustive over Z.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .extensions import extend
from .groups import FiniteGroup, abelian_coordinates, map_from_basis_images
from .heaps import AbGroup, heap_from_group, induced_table, morphism_witness
from .lawcheck import ConsistencyError, Report, grid_witness
from .modules import TModule
from .trusses import Truss, is_paragon, quotient_truss, truss_from_ring, units

GROUP_RING_MAX_ORDER = 256
TRUNC_POLY_MAX_ORDER = 256
END_TRUSS_MAX_ORDER = 256


@dataclass
class Ring:
    """An abelian group with a distributive associative multiplication."""

    add: AbGroup
    mul: np.ndarray
    unital: bool
    labels: tuple | None = None
    _truss: Truss | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def order(self):
        return self.add.order

    def truss(self):
        """The ring's truss, built and law-checked on the first call only."""
        if self._truss is None:
            self._truss = truss_from_ring(self.add, self.mul, labels=self.labels)
        return self._truss


def zn_ring(n):
    """The ring of integers mod n."""
    if n < 1:
        raise ValueError("modulus must be positive")
    idx = np.arange(n, dtype=np.int64)
    add = AbGroup.cyclic(n)
    mul = (idx[:, None] * idx[None, :]) % n
    return Ring(add, mul, unital=True, labels=add.labels)


def zn_truss(n):
    return zn_ring(n).truss()


def za_mul(a, m, n):
    """The integer product m.n = a m n + m + n (exact big integers)."""
    return a * m * n + m + n


def za_power(a, m, k):
    """The k-th power of m under za_mul, by the closed form ((am+1)^k - 1)/a.

    k = 0 gives the identity 0.  The closed form is compared with the
    iterated product by ``tests/test_catalog.py::TestPowers::
    test_closed_form_vs_iteration_sweep`` and acceptance test C05.
    """
    if a < 1 or k < 0:
        raise ValueError("need a >= 1 and k >= 0")
    num = (a * m + 1) ** k - 1
    if num % a:
        raise ConsistencyError("closed-form power is not divisible by a")
    return num // a


def za_truss(a, N, seed=None):
    """The quotient of the integer truss (heap from +, product a m n + m + n)
    by the paragon N Z, materialised as tables mod N.  Identity is 0.

    N Z is closed under the relative translates at q = 0:
    [m.p, m.0, 0] and [p.m, 0.m, 0] lie in N Z for every integer m and p in
    N Z.  Both are polynomials in a, m and p, so their residue mod N depends
    only on a mod N, m mod N and p mod N = 0; the check runs over every
    residue m with p = N and is exhaustive over Z.  Reducing a keeps every
    int64 below N^3.  ``seed`` is ignored.
    """
    if a < 1 or N < 1:
        raise ValueError("need a >= 1 and N >= 1")
    idx, a_res = np.arange(N, dtype=np.int64), a % N
    lam = za_mul(a_res, idx, N) - za_mul(a_res, idx, 0)
    rho = za_mul(a_res, N, idx) - za_mul(a_res, 0, idx)
    bad = np.flatnonzero((lam % N != 0) | (rho % N != 0))
    if bad.size:
        raise ConsistencyError("N Z closure identity failed at m=%d" % bad[0])
    add = AbGroup.cyclic(N)
    mul = za_mul(a_res, idx[:, None], idx[None, :]) % N
    t = Truss(heap_from_group(add), mul, labels=add.labels)
    if t.identity != 0:
        raise ConsistencyError("0 is not the identity of the quotient truss")
    return t


def multiplicative_order_of_one(a, N):
    """Order of 1 under za_mul in the quotient mod N (N is the annihilator of
    the identity's powers)."""
    x = za_mul(a, 0, 1) % N
    k = 1
    while x != 0:
        x = za_mul(a, x, 1) % N
        k += 1
        if k > N:
            raise ConsistencyError("power orbit of 1 failed to close")
    return k


def order_congruence_check(kmax):
    """For a = 2: the 2^k-th power of every m vanishes mod 2^(k+1), and 1 has
    multiplicative order exactly 2^k in the quotient mod 2^(k+1).

    The power is ((2m + 1)^(2^k) - 1) / 2, so its residue mod 2^(k+1) is
    fixed by (2m + 1) mod 2^(k+2), that is by m mod 2^(k+1).  m runs over
    every such residue, which is exhaustive over Z; a failure's witness is
    the first failing m.
    """
    if kmax > 10:
        raise ValueError("kmax is bounded at 10")
    report = Report("power congruence and maximal order (k <= %d)" % kmax)
    for k in range(1, kmax + 1):
        modulus = 2 ** (k + 1)
        bad = [m for m in range(modulus) if za_power(2, m, 2 ** k) % modulus]
        report.add("power_congruence_k%d" % k, not bad, bad[:1] or None)
        report.add(
            "order_of_one_k%d" % k, multiplicative_order_of_one(2, modulus) == 2 ** k
        )
    return report


@dataclass
class GroupRing:
    """A group ring R G with its augmentation map back onto R."""

    ring: Ring
    base: Ring
    group: FiniteGroup
    augmentation: np.ndarray

    def fiber(self, r):
        """A_r: all elements with augmentation r."""
        return tuple(int(v) for v in np.flatnonzero(self.augmentation == r))


def group_ring(base, group):
    """The convolution ring on functions G -> R, carrier ordered by
    lexicographic coefficient vectors (coefficient of the first group element
    most significant)."""
    q, gn = base.order, group.order
    order = q ** gn
    if order > GROUP_RING_MAX_ORDER:
        raise ValueError("group ring order %d exceeds the bound %d" % (order, GROUP_RING_MAX_ORDER))

    digits = np.array(
        [list(t) for t in itertools.product(range(q), repeat=gn)], dtype=np.int64
    ).reshape(order, gn)
    places = q ** np.arange(gn - 1, -1, -1, dtype=np.int64)

    addt = np.empty((order, order), dtype=np.int64)
    mult = np.empty((order, order), dtype=np.int64)
    radd, rmul = base.add.add, base.mul
    zero = base.add.zero
    for i in range(order):
        addt[i] = radd[digits[i][None, :], digits].dot(places)
        acc = np.full((order, gn), zero, dtype=np.int64)
        for gi in range(gn):
            for gj in range(gn):
                k = int(group.mul[gi, gj])
                acc[:, k] = radd[acc[:, k], rmul[digits[i, gi], digits[:, gj]]]
        mult[i] = acc.dot(places)

    aug = digits[:, 0]
    for gi in range(1, gn):
        aug = radd[aug, digits[:, gi]]

    if group.labels and not all(s.isdigit() for s in group.labels):
        glabels = group.labels
    elif gn == 2:
        glabels = ("e", "g")
    else:
        glabels = tuple("e" if i == group.id else "g%d" % i for i in range(gn))
    rlabels = base.labels or tuple(str(i) for i in range(q))

    def term(c, gi):
        if c == zero:
            return ""
        coeff = rlabels[c]
        if gi == group.id:
            return coeff
        name = glabels[gi]
        return name if coeff == "1" else coeff + name

    labels = []
    for row in digits:
        parts = [term(int(c), gi) for gi, c in enumerate(row)]
        parts = [p for p in parts if p]
        labels.append("+".join(parts) if parts else "0")

    ring = Ring(AbGroup(addt, labels=labels), mult, unital=base.unital, labels=tuple(labels))
    gr = GroupRing(ring=ring, base=base, group=group, augmentation=aug)

    # augmentation must be a surjective ring map with equal-size fibers
    if grid_witness(aug[addt], radd[aug[:, None], aug[None, :]]) is not None:
        raise ConsistencyError("augmentation is not additive")
    if grid_witness(aug[mult], rmul[aug[:, None], aug[None, :]]) is not None:
        raise ConsistencyError("augmentation is not multiplicative")
    sizes = {len(gr.fiber(r)) for r in range(q)}
    if sizes != {order // q}:
        raise ConsistencyError("augmentation fibers are not equal-size")
    return gr


def group_ring_paragon_report(gr):
    """Each augmentation fiber is a paragon; it is a sub-truss exactly when
    its augmentation value is idempotent; the quotient by it returns the
    coefficient ring's truss."""
    t, base_t = gr.ring.truss(), gr.base.truss()
    report = Report("augmentation fibers of a group ring (order %d)" % t.order)
    rmul = gr.base.mul
    for r in range(gr.base.order):
        fiber = gr.fiber(r)
        result = is_paragon(t, fiber)
        report.add("fiber_%d_is_paragon" % r, result.is_paragon)
        if not result.is_paragon:
            continue
        farr = np.array(fiber)
        closed = bool(np.isin(t.mul[np.ix_(farr, farr)], farr).all())
        report.add(
            "fiber_%d_subtruss_iff_idempotent" % r,
            closed == (int(rmul[r, r]) == r),
        )
        quotient, proj = quotient_truss(t, result.paragon)
        iso, w = induced_table(proj, gr.augmentation)
        ok = (w is None
              and grid_witness(iso[quotient.mul], base_t.mul[iso[:, None], iso[None, :]]) is None
              and morphism_witness(iso, quotient.heap, base_t.heap) is None)
        report.add("fiber_%d_quotient_is_coefficient_truss" % r, ok)
    return report


@dataclass
class TruncPoly:
    """The ring Z_{2^k}[x]/(x^n) with its truss and unit-inverse oracle."""

    k: int
    n: int
    ring: Ring
    truss: Truss
    coeffs: np.ndarray  # carrier index -> coefficient vector (constant term first)

    @property
    def order(self):
        return self.ring.order

    def index_of(self, coeff_vector):
        q = 2 ** self.k
        places = q ** np.arange(self.n - 1, -1, -1, dtype=np.int64)
        return int(np.dot(np.asarray(coeff_vector, dtype=np.int64) % q, places))

    def is_unit(self, p):
        return int(self.coeffs[p, 0]) % 2 == 1

    def inverse(self, p):
        """The inverse of a unit via the geometric series

            p^{-1} = sum_j (-1)^j alpha^{-(j+1)} q(x)^j,

        where p = alpha + q(x) with alpha = p(0) odd and q nilpotent."""
        if not self.is_unit(p):
            raise ValueError("constant term is even; not a unit")
        q = 2 ** self.k
        vec = self.coeffs[p].astype(int)
        alpha = int(vec[0])
        ainv = pow(alpha, -1, q)
        tail = vec.copy()
        tail[0] = 0
        acc = np.zeros(self.n, dtype=np.int64)
        power = np.zeros(self.n, dtype=np.int64)
        power[0] = 1  # q(x)^0
        sign = 1
        coef = ainv
        for _ in range(self.n):
            acc = (acc + sign * coef * power) % q
            power = _poly_mul(power, tail, self.n, q)
            sign = -sign
            coef = (coef * ainv) % q
        return self.index_of(acc)


def _poly_mul(u, v, n, q):
    out = np.zeros(n, dtype=np.int64)
    for i in range(n):
        if u[i] == 0:
            continue
        top = n - i
        out[i:] = (out[i:] + u[i] * v[:top]) % q
    return out


def trunc_poly_truss(k, n):
    """Z_{2^k}[x]/(x^n) as a truss, with labels like '1+2x+x^2'."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    q = 2 ** k
    order = q ** n
    if order > TRUNC_POLY_MAX_ORDER:
        raise ValueError("carrier order %d exceeds the bound %d" % (order, TRUNC_POLY_MAX_ORDER))
    coeffs = np.array(
        [list(t) for t in itertools.product(range(q), repeat=n)], dtype=np.int64
    ).reshape(order, n)
    places = q ** np.arange(n - 1, -1, -1, dtype=np.int64)

    addt = np.empty((order, order), dtype=np.int64)
    mult = np.empty((order, order), dtype=np.int64)
    for i in range(order):
        addt[i] = ((coeffs[i][None, :] + coeffs) % q).dot(places)
        acc = np.zeros((order, n), dtype=np.int64)
        for d in range(n):
            if coeffs[i, d] == 0:
                continue
            top = n - d
            acc[:, d:] = (acc[:, d:] + coeffs[i, d] * coeffs[:, :top]) % q
        mult[i] = acc.dot(places)

    def monomial(c, d):
        if c == 0:
            return ""
        if d == 0:
            return str(c)
        x = "x" if d == 1 else "x^%d" % d
        return x if c == 1 else "%d%s" % (c, x)

    labels = []
    for row in coeffs:
        parts = [monomial(int(c), d) for d, c in enumerate(row)]
        parts = [p for p in parts if p]
        labels.append("+".join(parts) if parts else "0")

    ring = Ring(AbGroup(addt, labels=labels), mult, unital=True, labels=tuple(labels))
    truss = ring.truss()
    tp = TruncPoly(k=k, n=n, ring=ring, truss=truss, coeffs=coeffs)

    expected_units = tuple(int(v) for v in np.flatnonzero(coeffs[:, 0] % 2 == 1))
    if tuple(units(truss)) != expected_units:
        raise ConsistencyError("units are not exactly the odd-constant polynomials")
    return tp


def endomorphism_maps(g):
    """All additive self-maps of an abelian group, each as an index array.

    An additive map is fixed by the images of an abelian basis, and the
    image of a generator of order d ranges over the d-torsion.  Sorted by
    map tuple, so the ordering is deterministic.
    """
    fg = FiniteGroup.from_abgroup(g)
    basis, coords = abelian_coordinates(fg)
    orders = fg.element_orders()
    cands = [[y for y in range(g.order) if d % int(orders[y]) == 0] for _, d in basis]
    maps = [map_from_basis_images(fg, basis, coords, images)
            for images in itertools.product(*cands)]
    maps.sort(key=lambda f: tuple(int(v) for v in f))
    return maps


def end_truss(g):
    """The extension of the endomorphism ring of g by g itself, anchored at 0.

    The product is checked against the direct formula
    (f, x)(f', x') = (f after f', x + f(x'))."""
    endos = endomorphism_maps(g)
    count = len(endos)
    if count * g.order > END_TRUSS_MAX_ORDER:
        raise ValueError("endomorphism extension order %d exceeds the bound %d"
                         % (count * g.order, END_TRUSS_MAX_ORDER))
    key = {tuple(int(v) for v in f): i for i, f in enumerate(endos)}
    idx = np.arange(g.order)
    zero_map = tuple([int(g.zero)] * g.order)
    id_map = tuple(int(v) for v in idx)
    if zero_map not in key or id_map not in key:
        raise ConsistencyError("zero or identity endomorphism missing")

    addt = np.empty((count, count), dtype=np.int64)
    mult = np.empty((count, count), dtype=np.int64)
    for i, f in enumerate(endos):
        for j, h in enumerate(endos):
            addt[i, j] = key[tuple(int(v) for v in g.add[f, h])]
            mult[i, j] = key[tuple(int(v) for v in f[h])]
    labels = ["f%d" % i for i in range(count)]
    ring = Ring(AbGroup(addt, labels=labels), mult, unital=True, labels=tuple(labels))
    t = ring.truss()
    action = np.array(endos, dtype=np.int64).reshape(count, g.order)
    module = TModule(t, heap_from_group(g), action)
    ext = extend(t, module, int(g.zero))

    # (f, x)(f', x') = (f o f', x + f(x'))
    m = g.order
    direct = np.empty((count * m, count * m), dtype=np.int64)
    for i, f in enumerate(endos):
        for x in range(m):
            row = np.empty((count, m), dtype=np.int64)
            for j in range(count):
                row[j] = mult[i, j] * m + g.add[x, f[np.arange(m)]]
            direct[i * m + x] = row.reshape(-1)
    if grid_witness(ext.truss.mul, direct) is not None:
        raise ConsistencyError("extension product differs from the direct formula")
    return ext


def left_translation_truss():
    """An order-4 left truss that is not a truss: x.y = y + g(x) on Z_4 with a
    non-additive shift g = (0, 2, 2, 0).

    Left distributivity holds because each left multiplication is a
    translation; right distributivity fails (g is not additive), so this is
    the stock example for the one-sided machinery.
    """
    g = np.array([0, 2, 2, 0], dtype=np.int64)
    idx = np.arange(4, dtype=np.int64)
    mul = (idx[None, :] + g[:, None]) % 4
    add = AbGroup.cyclic(4)
    return Truss(heap_from_group(add), mul, sided="left")


def integer_paragon_probe(n, m):
    """Residue check of the integer truss: the translate of n Z through
    0 -> m is n Z + m, closed under both relative translates, and the residue
    map realises the quotient as the mod-n ring truss.

    Each claim is an integer polynomial identity read mod n, so its truth
    depends only on the residues of its arguments: x (and y, z) run over
    every residue mod n and the members p, q over their one residue m mod n,
    which is exhaustive over Z.  Witnesses are the first failing (x, p, q),
    (x, y) or (x, y, z).
    """
    if n < 1:
        raise ValueError("n must be positive")
    r = m % n
    report = Report("integer paragon probe (n=%d, m=%d)" % (n, m))
    x, p, q = np.arange(n, dtype=np.int64), r, r  # every residue x; p, q in n Z + m
    for name, translate in (("lambda_closure", x * p - x * q + q),
                            ("rho_closure", p * x - q * x + q)):
        w = grid_witness(translate % n, np.full(n, r))
        report.add(name, w is None, None if w is None else (w[0], p, q))
    if r == 0:
        report.add("ideal_closure", not ((x * p) % n).any() and not ((p * x) % n).any())

    t = zn_truss(n)
    w = grid_witness((x[:, None] * x[None, :]) % n, t.mul)
    if w is None:
        xs, ys, zs = x[:, None, None], x[None, :, None], x[None, None, :]
        w = grid_witness((xs - ys + zs) % n, t.bracket_arrays(xs, ys, zs))
    report.add("residue_map_realises_quotient", w is None, w)
    return report
