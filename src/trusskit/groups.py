"""Cayley-table groups: validation, invariants, isomorphism search, named groups.

Used to identify the multiplicative structures that show up downstream: unit
groups of trusses and the additive retracts of heaps.  Groups here may be
nonabelian; abelian ones get an invariant-factor decomposition, everything
gets an isomorphism-invariant fingerprint, and isomorphism itself is decided
by backtracking over generator images with fingerprint pruning.  A quotient
by a normal subgroup is the multiplication the cosets induce
(``heaps.induced_table``), and that check is also the normality test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .heaps import AbGroup, _element_orders, _norm_labels, _square_table, induced_table, pair_table
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
        rows, cols = np.nonzero(self.mul == self.id)
        for a, b in zip(rows, cols):
            if self.mul[b, a] == self.id:
                inv[a] = b
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
        Not cached: a value stored in the instance dict slows every attribute
        read of the group, such as those in ``closure``'s loop.
        """
        in_span = np.zeros(self.order, dtype=bool)
        in_span[self.id] = True
        gens = []
        while not in_span.all():
            gens.append(int(pick(in_span)))
            new = np.flatnonzero(in_span)
            while new.size:
                new = np.unique(self.mul[np.ix_(new, gens)])
                new = new[~in_span[new]]
                in_span[new] = True
        return gens

    @classmethod
    def from_abgroup(cls, g):
        return cls(g.add, labels=g.labels, check=False)

    def op(self, a, b):
        return int(self.mul[a, b])

    def power(self, a, k):
        x = self.id
        for _ in range(k):
            x = int(self.mul[x, a])
        return x

    def element_orders(self):
        return _element_orders(self.mul, self.id)

    def is_abelian(self):
        return bool((self.mul == self.mul.T).all())

    def center(self):
        central = (self.mul == self.mul.T).all(axis=1)
        return tuple(int(v) for v in np.flatnonzero(central))

    def closure(self, seeds):
        """Subgroup generated by ``seeds``, as a sorted tuple."""
        out = {self.id}
        frontier = [self.id]
        seeds = sorted({int(s) for s in seeds})
        for s in seeds:
            if s not in out:
                out.add(s)
                frontier.append(s)
        while frontier:
            x = frontier.pop()
            for y in sorted(out):
                for z in (int(self.mul[x, y]), int(self.mul[y, x])):
                    if z not in out:
                        out.add(z)
                        frontier.append(z)
        return tuple(sorted(out))

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
    """Multiplication table restricted to the units of a unital truss."""
    if truss.identity is None:
        raise ValueError("truss has no identity; no unit group")
    hit = truss.mul == truss.identity
    members = np.flatnonzero((hit & hit.T).any(axis=1))
    labels = None
    if truss.labels:
        labels = [truss.labels[m] for m in members]
    return FiniteGroup(restrict_table(truss.mul, members), labels=labels)


@dataclass(frozen=True)
class GroupFingerprint:
    """Cheap isomorphism invariants; equal fingerprints are necessary for iso."""

    order: int
    order_profile: tuple
    center_size: int
    derived_size: int
    abelianization: tuple


def fingerprint(g):
    orders = g.element_orders()
    profile = tuple(sorted((int(k), int(v)) for k, v in zip(*np.unique(orders, return_counts=True))))
    derived = g.derived_subgroup()
    ab, _ = g.quotient_by(derived)
    return GroupFingerprint(
        order=g.order,
        order_profile=profile,
        center_size=len(g.center()),
        derived_size=len(derived),
        abelianization=tuple(abelian_invariants(ab)),
    )


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


def abelian_invariants(g):
    """Invariant factors d_1 | d_2 | ... | d_r with product |G|."""
    basis = abelian_basis(g)
    invs = [d for _, d in basis]
    total = 1
    for prev, cur in zip(invs, invs[1:]):
        if cur % prev != 0:
            raise ConsistencyError("invariant factors fail the divisibility chain")
    for d in invs:
        total *= d
    if total != g.order:
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


def is_isomorphic(g, h, node_budget=NODE_BUDGET):
    """An isomorphism g -> h as an index map, or None.

    Backtracks over images of a greedy generating set, pruning candidates by
    element order; a fingerprint mismatch short-circuits to None.  Raises
    ``RuntimeError`` if the node budget is exhausted (never hit at the orders
    this library targets).
    """
    if g.order != h.order:
        return None
    if fingerprint(g) != fingerprint(h):
        return None
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
        if nodes > node_budget:
            raise RuntimeError("isomorphism search exceeded %d nodes" % node_budget)
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
    size = order

    def mul(a, b):
        r1, f1 = a % n, a // n
        r2, f2 = b % n, b // n
        r = (r1 + (n - r2 if f1 else r2)) % n
        return (f1 ^ f2) * n + r

    table = [[mul(a, b) for b in range(size)] for a in range(size)]
    labels = ["r%d" % k for k in range(n)] + ["sr%d" % k for k in range(n)]
    return FiniteGroup(table, labels=labels)


def quaternion_group():
    """The 8-element quaternion group, elements i^a j^b."""

    def mul(x, y):
        a, b = x % 4, x // 4
        c, d = y % 4, y // 4
        a2 = (a + (4 - c if b else c)) % 4
        if b and d:
            a2 = (a2 + 2) % 4
        return ((b + d) % 2) * 4 + a2

    table = [[mul(x, y) for y in range(8)] for x in range(8)]
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


def named_match(g):
    """A display name for g among the families this library knows, or None."""
    if g.is_abelian():
        invs = abelian_invariants(g)
        if not invs:
            return "C1"
        return "x".join("C%d" % d for d in invs)
    candidates = []
    if g.order >= 6 and g.order % 2 == 0:
        candidates.append(("D%d" % g.order, dihedral_group(g.order)))
    if g.order == 8:
        candidates.append(("Q8", quaternion_group()))
    for d in range(6, g.order, 2):
        if g.order % d == 0:
            c = g.order // d
            candidates.append(
                ("D%dxC%d" % (d, c), direct_product(dihedral_group(d), cyclic_group(c)))
            )
    if g.order % 8 == 0 and g.order > 8:
        c = g.order // 8
        candidates.append(
            ("Q8xC%d" % c, direct_product(quaternion_group(), cyclic_group(c)))
        )
    for name, cand in candidates:
        if is_isomorphic(g, cand) is not None:
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
        "named_match": named_match(g),
    }
