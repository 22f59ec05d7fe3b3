"""Cayley-table groups: validation, invariants, the homomorphism search, named groups.

Used to identify the multiplicative structures that show up downstream: unit
groups of trusses, the additive retracts of heaps and the groups (B, .) of
braces.  Groups here may be nonabelian; abelian ones get their invariant
factors, everything gets an isomorphism-invariant fingerprint.
``homomorphisms`` is the one map search, over generator images, on any
binary tables: group isomorphism, ``catalog.endomorphism_maps`` and
``trusses.truss_isomorphism`` use it.  ``FiniteGroup.closure`` is the one
subgroup-span loop; ``generators`` picks until the closure of its picks is
everything.  A quotient by a normal subgroup is the multiplication the
cosets induce (``heaps.induced_table``), and that check is the normality test.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .heaps import (AbGroup, _element_orders, _identity_and_inverses, _members, _norm_labels,
                    _prime_powers, _square_table, induced_table, pair_table, power)
from .lawcheck import HOLDS, ConsistencyError, Report, ValidationError, associativity_witness

NODE_BUDGET = 1_000_000


class FiniteGroup:
    """Finite (possibly nonabelian) group given by its multiplication table."""

    def __init__(self, mul, labels=None, check=True):
        self.mul = _square_table(mul, "group")
        self.order = self.mul.shape[0]
        if self.order == 0:
            raise ValidationError("group.empty", None, "a group needs at least one element")
        self.labels = _norm_labels(labels, self.order)
        self.id, self.inv = _identity_and_inverses(self.mul, two_sided=True)
        self._laws = None  # (None, associative, None), AbGroup's layout: inverses hold once found
        self._orders = None  # ``element_orders``, computed once
        if check:
            self.law_report().raise_invalid()

    @property
    def lawful(self):
        return self._laws == HOLDS

    def law_report(self):
        """Inverses, and associativity by Light's test: (xa)y = x(ay) for
        a in {identity} plus ``generators`` decides it, on the first call (or
        ``inherit`` hands it on); the witness is kept, as ``mul`` is read-only.
        Inverses hold once ``inv`` is found: x inv(x) = inv(x) x = id defines it."""
        if self._laws is None:
            mids = [self.id] + self.generators()
            self._laws = (None, associativity_witness(self.mul, self.mul, mids=mids), None)
        report = Report("group laws (order %d)" % self.order)
        report.add("group.associative", self._laws[1] is None, self._laws[1])
        report.add("group.inverse", True)
        return report

    def generators(self, pick=np.argmin):
        """Picks until every element is a product of picks; ``pick`` maps the
        span's mask to the next (default: the smallest element outside it).
        In a group each pick at least doubles the span: at most log2(order).
        The span with the pick as seeds closes in fewer rounds than the picks.
        Not cached: a value stored in the instance dict slows every later
        attribute read of the group.
        """
        in_span, gens = np.arange(self.order) == self.id, []
        while not in_span.all():
            gens.append(int(pick(in_span)))
            in_span[list(self.closure(in_span.nonzero()[0].tolist() + gens[-1:]))] = True
        return gens

    @classmethod
    def from_abgroup(cls, g):
        return cls(g.add, labels=g.labels, check=False)

    def op(self, a, b):
        return int(self.mul[a, b])

    def power(self, a, k):
        return int(power(self.mul, a, k, self.id))

    def element_orders(self):
        if self._orders is None:
            self._orders = _element_orders(self.mul, self.id)
            self._orders.setflags(write=False)
        return self._orders

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
        narr = np.array(_members(normal_members, self.order), dtype=np.int64)
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

    def __eq__(self, other):  # the table decides the order
        return isinstance(other, FiniteGroup) and np.array_equal(self.mul, other.mul)

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
        center, derived, ab = g.order, 1, abelian_invariants(g)
    else:
        sub = g.derived_subgroup()
        center, derived, ab = len(g.center()), len(sub), abelian_invariants(g.quotient_by(sub)[0])
    return GroupFingerprint(g.order, profile, center, derived, tuple(ab))


def abelian_invariants(g):
    """Invariant factors d_1 | d_2 | ... | d_r with product |G|.

    Read off the element orders: if the p-part of G is the sum of the
    C_{p^e_i}, #{x : o(x) | p^k} = p^(sum_i min(k, e_i)), an exponent that
    grows by #{i : e_i >= k} from k - 1 to k.  The j-th largest invariant
    factor is the product over p of p^(j-th largest e_i).
    """
    if not g.is_abelian():
        raise ValueError("abelian decomposition of a nonabelian group")
    orders = g.element_orders()
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


def closure_rounds(ops, known, new):
    """Add ``new`` to the mask ``known`` and close it under the tables ``ops``
    in place.  A step (k, a, b, p, at, y) per round and table k: p = ops[k][a, b]
    on the known pairs with a factor new in the round, y = p[at] the elements first reached."""
    steps, new, at = [], np.asarray(new, dtype=np.int64), np.full(known.size, -1)
    known[new] = True
    span = known.nonzero()[0]
    while new.size:
        i, j = np.divmod(np.arange(new.size * span.size), span.size)
        a, b = np.concatenate((new[i], span[j])), np.concatenate((span[j], new[i]))
        for k, op in enumerate(ops):
            p = op[a, b]
            at[p] = np.arange(p.size)  # a pair for each product; those of earlier steps are known
            y = ((at >= 0) & ~known).nonzero()[0]
            known[y] = True
            steps.append((k, a, b, p, at[y], y))
        new = np.concatenate([step[-1] for step in steps[-len(ops):]])
        span = np.concatenate((span, new))
    return steps


def homomorphisms(ops1, ops2, first, images, gens, candidates, injective=False):
    """Every index map that sends ``first`` to ``images``, ``gens[i]`` into
    ``candidates[i]`` and preserves each table (``ops1[k]`` to ``ops2[k]``),
    in the lexicographic order of the generator images.  ``first + gens``
    generate the domain, each generator outside the closure of those before.
    The generator-image backtrack (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, 2005): level i closes ``first + gens[:i+1]``
    (``closure_rounds``); per step one gather gives the images of its products,
    which fix those of the elements reached and must match the rest (and be
    distinct, with ``injective``).  A failing level prunes its subtree;
    ``RuntimeError`` past ``NODE_BUDGET`` nodes."""
    known, levels = np.zeros(len(ops1[0]), dtype=bool), []
    for i, seeds in enumerate([list(first) + list(gens[:1])] + [[g] for g in gens[1:]]):
        if i < len(gens) and (known[gens[i]] or gens[i] in first):
            raise ValueError("generator %d lies in the closure of those before it" % gens[i])
        levels.append((closure_rounds(ops1, known, seeds), known.nonzero()[0]))
    if not known.all():
        raise ValueError("the generators do not generate the domain")
    phi, nodes = np.full(known.size, -1, dtype=np.int64), itertools.count(1)

    def holds(steps, span):
        for k, a, b, p, at, y in steps:
            v = ops2[k][phi[a], phi[b]]
            phi[y] = v[at]
            if not (phi[p] == v).all():
                return False
        return not injective or len(set(phi[span].tolist())) == span.size

    def search(i):
        for c in candidates[i]:
            if next(nodes) > NODE_BUDGET:
                raise RuntimeError("homomorphism search exceeded %d nodes" % NODE_BUDGET)
            phi[gens[i]] = c
            if holds(*levels[i]):
                yield from search(i + 1) if i + 1 < len(gens) else [phi.copy()]

    phi[list(first)] = images
    if len(gens):
        yield from search(0)
    elif holds(*levels[0]):
        yield phi.copy()


def is_isomorphic(g, h):
    """An isomorphism g -> h as an index map, or None (at once when the
    fingerprints differ)."""
    if g.order != h.order or fingerprint(g) != fingerprint(h):
        return None
    return _isomorphism(g, h)


def _isomorphism(g, h):
    """An isomorphism between groups of equal fingerprints, or None: the first bijective
    ``homomorphisms`` map, each greedy generator (largest order first) to one of its order."""
    g_orders, h_orders = g.element_orders(), h.element_orders()
    gens = g.generators(lambda in_span: np.argmax(np.where(in_span, 0, g_orders)))
    cands = [np.flatnonzero(h_orders == g_orders[x]).tolist() for x in gens]
    phi = next(homomorphisms([g.mul], [h.mul], [g.id], [h.id], gens, cands, injective=True), None)
    return None if phi is None else phi.tolist()


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


def _spec_factors(spec):
    """The factors of a spec like 'dihedral:8*cyclic:2', as ``named_group``
    arguments: [name, parameter] or [name]."""
    factors = [p.strip().split(":", 1) for p in spec.split("*") if p.strip()]
    if not factors:
        raise ValueError("empty group spec")
    return factors


def group_from_spec(spec):
    """Parse specs like 'cyclic:4', 'dihedral:8*cyclic:2', 'quaternion'."""
    return functools.reduce(direct_product, [named_group(*f) for f in _spec_factors(spec)])


def spec_order(spec):
    """The order of ``group_from_spec(spec)``, before any table is built: the
    product of the factors' parameters (8 for the quaternions).  A factor
    below 1, which ``named_group`` rejects, counts as 1."""
    return math.prod(max(1, int(f[1])) if len(f) > 1 else 8 for f in _spec_factors(spec))


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
