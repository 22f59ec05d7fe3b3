"""Cayley-table groups: validation, invariants, isomorphism search, named groups.

Used to identify the multiplicative structures that show up downstream: unit
groups of trusses, the additive retracts of heaps and the groups (B, .) of
braces.  Groups here may be nonabelian; abelian ones get an invariant-factor
decomposition, everything gets an isomorphism-invariant fingerprint, and
isomorphism itself is decided by backtracking over generator images with
fingerprint pruning.  ``FiniteGroup.closure`` is the one subgroup-span loop;
``generators`` picks until the closure of its picks is everything.  A
quotient by a normal subgroup is the multiplication the cosets induce
(``heaps.induced_table``), and that check is also the normality test.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .heaps import (AbGroup, _element_orders, _norm_labels, _prime_powers, _square_table,
                    induced_table, pair_table, power)
from .lawcheck import ConsistencyError, Report, ValidationError, associativity_witness

NODE_BUDGET = 1_000_000


class FiniteGroup:
    """Finite (possibly nonabelian) group given by its multiplication table."""

    def __init__(self, mul, labels=None, check=True):
        self.mul = _square_table(mul, "group")
        self.order = self.mul.shape[0]
        if self.order == 0:
            raise ValidationError("group.empty", None, "a group needs at least one element")
        self.labels = _norm_labels(labels, self.order)
        self.id = self._find_identity()
        self.inv = self._find_inv()
        if check:
            self.law_report().raise_invalid()

    def _find_identity(self):
        idx = np.arange(self.order)
        hits = np.flatnonzero(
            (self.mul == idx).all(axis=1) & (self.mul.T == idx).all(axis=1)
        )
        if hits.size == 0:
            raise ValidationError("group.identity", None, "no identity element")
        return int(hits[0])

    def _find_inv(self):
        inv = np.full(self.order, -1, dtype=np.int64)
        rows, cols = np.nonzero((self.mul == self.id) & (self.mul.T == self.id))
        inv[rows] = cols
        if (inv < 0).any():
            a = int(np.flatnonzero(inv < 0)[0])
            raise ValidationError("group.inverse", (a,))
        inv.setflags(write=False)
        return inv

    def law_report(self):
        """Inverses, and associativity by Light's test: (xa)y = x(ay) for
        a in {identity} plus ``generators`` decides it."""
        report = Report("group laws (order %d)" % self.order)
        w = associativity_witness(self.mul, self.mul, mids=[self.id] + self.generators())
        report.add("group.associative", w is None, w)
        idx = np.arange(self.order)
        report.add("group.inverse", bool((self.mul[idx, self.inv] == self.id).all()))
        return report

    def generators(self, pick=np.argmin):
        """Picks until every element is a product of picks; ``pick`` maps the
        span's mask to the next (default: the smallest element outside it).
        In a group each pick at least doubles the span: at most log2(order).
        Not cached: a value stored in the instance dict slows every later
        attribute read of the group.
        """
        in_span = np.zeros(self.order, dtype=bool)
        in_span[self.id] = True
        gens = []
        while not in_span.all():
            gens.append(int(pick(in_span)))
            in_span[list(self.closure(gens))] = True
        return gens

    @classmethod
    def from_abgroup(cls, g):
        return cls(g.add, labels=g.labels, check=False)

    def op(self, a, b):
        return int(self.mul[a, b])

    def power(self, a, k):
        return int(power(self.mul, a, k, self.id))

    def element_orders(self):
        return _element_orders(self.mul, self.id)

    def is_abelian(self):
        return bool((self.mul == self.mul.T).all())

    def center(self):
        central = (self.mul == self.mul.T).all(axis=1)
        return tuple(int(v) for v in np.flatnonzero(central))

    def closure(self, seeds):
        """Subgroup generated by ``seeds``, as a sorted tuple: right products
        with the seeds from the identity until a round adds nothing (in a
        finite group every inverse is a positive power)."""
        gens = np.fromiter(seeds, dtype=np.int64)
        in_span = np.arange(self.order) == self.id
        new = [self.id]
        while len(new):
            reached = np.zeros(self.order, dtype=bool)
            reached[self.mul[new][:, gens]] = True
            new = np.flatnonzero(reached & ~in_span)
            in_span[new] = True
        return tuple(np.flatnonzero(in_span).tolist())

    def derived_subgroup(self):
        # comms[a, b] = a b (b a)^{-1}
        comms = self.mul[self.mul, self.inv[self.mul.T]]
        return self.closure(np.unique(comms))

    def quotient_by(self, normal_members):
        """Quotient by a normal subgroup N; returns (group, projection).

        The classes are the left cosets gN, ordered by smallest member.  They
        induce a multiplication (``induced_table``) exactly when N is normal,
        so that one check is the normality test.
        """
        narr = np.array(sorted({int(m) for m in normal_members}), dtype=np.int64)
        if not narr.size or not np.isin(self.mul[np.ix_(narr, narr)], narr).all():
            raise ValueError("members are not a subgroup; quotient undefined")
        cosets = np.sort(self.mul[:, narr], axis=1)  # row g: the coset gN
        _, first, proj = np.unique(cosets[:, 0], return_index=True, return_inverse=True)
        qmul, w = induced_table(proj, proj[self.mul])
        if w is not None:
            raise ValueError("subgroup is not normal; quotient undefined")
        labels = None
        if self.labels:
            labels = ["{%s}" % ",".join(self.labels[m] for m in cosets[g]) for g in first]
        proj.setflags(write=False)
        return FiniteGroup(qmul, labels=labels, check=False), proj

    def __eq__(self, other):
        return (
            isinstance(other, FiniteGroup)
            and self.order == other.order
            and np.array_equal(self.mul, other.mul)
        )

    def __repr__(self):
        return "FiniteGroup(order=%d)" % self.order


def restrict_table(table, members):
    """The k x k table of a binary operation on the sorted ``members``,
    reindexed to 0..k-1; ``ValueError`` when ``members`` is not closed."""
    m = np.asarray(members, dtype=np.int64)
    pos = np.full(len(table), -1, dtype=np.int64)
    pos[m] = np.arange(m.size)
    sub = pos[table[np.ix_(m, m)]]
    if (sub < 0).any():
        raise ValueError("subset is not closed under the operation")
    return sub


def group_from_units(truss):
    """Multiplication table restricted to the units of a unital truss.  Over a
    lawful truss associativity is inherited; closure, identity and inverses are checked."""
    if truss.identity is None:
        raise ValueError("truss has no identity; no unit group")
    hit = truss.mul == truss.identity
    members = np.flatnonzero((hit & hit.T).any(axis=1))
    labels = None
    if truss.labels:
        labels = [truss.labels[m] for m in members]
    return FiniteGroup(restrict_table(truss.mul, members), labels=labels, check=not truss.lawful)


@dataclass(frozen=True)
class GroupFingerprint:
    """Cheap isomorphism invariants; equal fingerprints are necessary for iso."""

    order: int
    order_profile: tuple
    center_size: int
    derived_size: int
    abelianization: tuple


def fingerprint(g):
    """An abelian g is its own center and abelianization, with derived
    subgroup {e}: its invariants come from the element orders alone."""
    orders = g.element_orders()
    profile = tuple(sorted((int(k), int(v)) for k, v in zip(*np.unique(orders, return_counts=True))))
    if g.is_abelian():
        center, derived, ab = g.order, 1, abelian_invariants(g, orders)
    else:
        sub = g.derived_subgroup()
        center, derived, ab = len(g.center()), len(sub), abelian_invariants(g.quotient_by(sub)[0])
    return GroupFingerprint(g.order, profile, center, derived, tuple(ab))


def abelian_basis(g):
    """Generators [(b_1, d_1), ...] with G the direct sum of the <b_i>.

    Greedy splitting: take an element of maximal order, quotient by it, find
    a basis of the quotient and lift each generator back to a complement
    (adjusting inside the maximal cyclic so orders are preserved).  Invariant
    factors come out ascending, d_1 | d_2 | ... | d_r.
    """
    if not g.is_abelian():
        raise ValueError("abelian decomposition of a nonabelian group")
    if g.order == 1:
        return []
    orders = g.element_orders()
    a = int(np.argmax(orders))
    d = int(orders[a])
    powers = [g.id]
    while len(powers) < d:
        powers.append(int(g.mul[powers[-1], a]))
    power_index = {p: k for k, p in enumerate(powers)}
    quotient, proj = g.quotient_by(powers)
    basis = []
    for qgen, dq in abelian_basis(quotient):
        x = int(np.flatnonzero(proj == qgen)[0])
        y = g.power(x, dq)
        m = power_index.get(y)
        if m is None or m % dq != 0:
            raise ConsistencyError("cyclic complement lift failed")
        # x' = x - (m/dq) a keeps the same image in the quotient but has
        # order exactly dq in g.
        shift = g.inv[g.power(a, m // dq)]
        x2 = int(g.mul[x, shift])
        basis.append((x2, dq))
    basis.append((a, d))
    return basis


def abelian_invariants(g, orders=None):
    """Invariant factors d_1 | d_2 | ... | d_r with product |G|.

    Read off the element orders (computed unless passed): if the p-part of
    G is the sum of the C_{p^e_i}, #{x : o(x) | p^k} = p^(sum_i min(k, e_i)),
    an exponent that grows by #{i : e_i >= k} from k - 1 to k.  The j-th
    largest invariant factor is the product over p of p^(j-th largest e_i).
    """
    if not g.is_abelian():
        raise ValueError("abelian decomposition of a nonabelian group")
    orders = g.element_orders() if orders is None else orders
    largest = np.ones(g.order.bit_length(), dtype=np.int64)
    for p, a in _prime_powers(g.order):
        at_least = np.diff([round(math.log(int((p ** k % orders == 0).sum()), p))
                            for k in range(a + 1)])
        exps = (at_least > np.arange(at_least[0])[:, None]).sum(axis=1)
        largest[:exps.size] *= p ** exps
    invs = [int(d) for d in largest[::-1] if d > 1]
    if math.prod(invs) != g.order:
        raise ConsistencyError("invariant factor product differs from the order")
    return invs


def abelian_coordinates(g):
    """(basis, coords) where row coords[x] is x's tuple in the basis direct sum."""
    basis = abelian_basis(g)
    tups = np.array(list(itertools.product(*[range(d) for _, d in basis])), dtype=np.int64)
    tups = tups.reshape(len(tups), len(basis))
    elems = map_from_basis_images(g, basis, tups, [b for b, _ in basis])
    if len(elems) != g.order or np.unique(elems).size != g.order:
        raise ConsistencyError("abelian basis is not independent or does not span")
    coords = np.empty_like(tups)
    coords[elems] = tups
    return basis, coords


def map_from_basis_images(h, basis, coords, images):
    """The map sum_i k_i b_i -> sum_i k_i images[i] into the group ``h``, as an
    index array; ``coords`` holds the k_i of each point in rows.  A
    homomorphism when each image's order divides its basis element's."""
    phi = np.full(len(coords), h.id, dtype=np.int64)
    for (_, d), img, k in zip(basis, images, coords.T):
        powers = np.empty(d, dtype=np.int64)
        powers[0] = h.id
        for j in range(1, d):
            powers[j] = h.mul[powers[j - 1], img]
        phi = h.mul[phi, powers[k]]
    return phi


def _word_table(g, gens):
    """Discovery order of all elements as products of generators.

    Returns a list of (element, parent, gen_index); parent < 0 marks the
    identity seed.
    """
    seen = {g.id}
    table = [(g.id, -1, -1)]
    frontier = [g.id]
    while frontier:
        nxt = []
        for x in frontier:
            for gi, gen in enumerate(gens):
                y = int(g.mul[x, gen])
                if y not in seen:
                    seen.add(y)
                    table.append((y, x, gi))
                    nxt.append(y)
        frontier = nxt
    if len(table) != g.order:
        raise ConsistencyError("generators do not generate")
    return table


def is_isomorphic(g, h):
    """An isomorphism g -> h as an index map, or None (at once when the
    fingerprints differ)."""
    if g.order != h.order or fingerprint(g) != fingerprint(h):
        return None
    return _isomorphism(g, h)


def _isomorphism(g, h):
    """An isomorphism between groups of equal fingerprints, or None.

    Backtracks over images of a greedy generating set, pruning candidates by
    element order.  Raises ``RuntimeError`` past ``NODE_BUDGET`` nodes
    (never hit at the orders this library targets).
    """
    if g.order == 1:
        return [0]
    g_orders = g.element_orders()  # each pick an element of largest order outside the span
    gens = g.generators(lambda in_span: np.argmax(np.where(in_span, 0, g_orders)))
    words = _word_table(g, gens)
    h_orders = h.element_orders()
    candidates = [
        [int(v) for v in np.flatnonzero(h_orders == g_orders[gen])] for gen in gens
    ]
    nodes = 0
    for images in itertools.product(*candidates):
        nodes += 1
        if nodes > NODE_BUDGET:
            raise RuntimeError("isomorphism search exceeded %d nodes" % NODE_BUDGET)
        phi = np.full(g.order, -1, dtype=np.int64)
        phi[g.id] = h.id
        for elem, parent, gi in words[1:]:
            phi[elem] = h.mul[phi[parent], images[gi]]
        if len(set(int(v) for v in phi)) != g.order:
            continue
        if (phi[g.mul] == h.mul[phi[:, None], phi[None, :]]).all():
            return [int(v) for v in phi]
    return None


def cyclic_group(n):
    return FiniteGroup.from_abgroup(AbGroup.cyclic(n))


def dihedral_group(order):
    """Dihedral group of the given order (2n symmetries of the n-gon)."""
    if order < 2 or order % 2:
        raise ValueError("dihedral group needs an even order >= 2")
    n = order // 2
    # element f n + r: (f, r)(g, r') = (f xor g, r + (-1)^f r')
    f, r = np.divmod(np.arange(order), n)
    table = (f[:, None] ^ f) * n + (r[:, None] + (1 - 2 * f[:, None]) * r) % n
    labels = ["r%d" % k for k in range(n)] + ["sr%d" % k for k in range(n)]
    return FiniteGroup(table, labels=labels)


def quaternion_group():
    """The 8-element quaternion group, elements i^a j^b."""
    # i^a j^b . i^c j^d = i^(a + (-1)^b c + 2 b d) j^(b + d), element 4 b + a
    b, a = np.divmod(np.arange(8), 4)
    table = (b[:, None] ^ b) * 4 + (a[:, None] + (1 - 2 * b[:, None]) * a + 2 * (b[:, None] & b)) % 4
    labels = ["1", "i", "-1", "-i", "j", "ij", "-j", "-ij"]
    return FiniteGroup(table, labels=labels)


def direct_product(g, h):
    mul = pair_table(g.mul, h.mul)
    labels = None
    if g.labels and h.labels:
        labels = ["(%s,%s)" % (a, b) for a in g.labels for b in h.labels]
    return FiniteGroup(mul, labels=labels, check=False)


def named_group(name, *params):
    """Dispatch on the family names used throughout: cyclic and dihedral
    (one parameter, the order) and quaternion (none)."""
    families = {"cyclic": cyclic_group, "dihedral": dihedral_group,
                "quaternion": quaternion_group}
    if name not in families:
        raise ValueError("unknown group family %r" % name)
    arity = 0 if name == "quaternion" else 1
    if len(params) != arity:
        raise ValueError("%s: expected %d parameter(s), got %d" % (name, arity, len(params)))
    return families[name](*(int(p) for p in params))


def group_from_spec(spec):
    """Parse specs like 'cyclic:4', 'dihedral:8*cyclic:2', 'quaternion'."""
    parts = [p.strip() for p in spec.split("*") if p.strip()]
    if not parts:
        raise ValueError("empty group spec")
    built = []
    for part in parts:
        if ":" in part:
            name, arg = part.split(":", 1)
            built.append(named_group(name, int(arg)))
        else:
            built.append(named_group(part))
    g = built[0]
    for h in built[1:]:
        g = direct_product(g, h)
    return g


def _profile(base, c):
    """The order profile of D_base (or Q8) x C_c in closed form: r^k in D_2n
    has order n / gcd(k, n) and its n reflections order 2, Q8 has orders 1,
    2 and six 4s, and a pair has the lcm of its parts' orders."""
    n = 0 if base == "Q8" else base // 2
    first = [1, 2] + [4] * 6 if base == "Q8" else [n // math.gcd(k, n) for k in range(n)] + [2] * n
    pairs = (math.lcm(a, c // math.gcd(k, c)) for a in first for k in range(c))
    return tuple(sorted(collections.Counter(pairs).items()))


def named_match(g, fp=None):
    """A display name for g among the families this library knows, or None;
    ``fp`` is g's fingerprint when the caller has it.  A candidate is built
    only when its closed-form order profile (``_profile``) is g's, and only
    one with the same fingerprint is searched for an isomorphism."""
    fp = fingerprint(g) if fp is None else fp
    if g.is_abelian():
        invs = fp.abelianization
        if not invs:
            return "C1"
        return "x".join("C%d" % d for d in invs)
    n, specs = g.order, []  # (dihedral order or "Q8", cyclic factor)
    if n >= 6 and n % 2 == 0:
        specs.append((n, 1))
    if n == 8:
        specs.append(("Q8", 1))
    specs += [(d, n // d) for d in range(6, n, 2) if n % d == 0]
    if n % 8 == 0 and n > 8:
        specs.append(("Q8", n // 8))
    for base, c in specs:
        if _profile(base, c) != fp.order_profile:
            continue
        if base == "Q8":
            name, cand = "Q8", quaternion_group()
        else:
            name, cand = "D%d" % base, dihedral_group(base)
        if c > 1:
            name, cand = "%sxC%d" % (name, c), direct_product(cand, cyclic_group(c))
        if fingerprint(cand) == fp and _isomorphism(g, cand) is not None:
            return name
    return None


def identification_report(g):
    fp = fingerprint(g)
    return {
        "fingerprint": {
            "order": fp.order,
            "order_profile": [list(p) for p in fp.order_profile],
            "center_size": fp.center_size,
            "derived_size": fp.derived_size,
            "abelianization": list(fp.abelianization),
        },
        "named_match": named_match(g, fp),
    }
