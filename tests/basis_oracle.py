"""Oracles for the generator-image search (``groups.homomorphisms``).

The searches it replaced, kept as they were: an abelian basis with its
coordinates and the map a choice of basis images extends to, the
additive-basis truss isomorphism search with its node budget, the
basis-image endomorphism list and the word-table group isomorphism.
Differential tests pit each against the new search.
"""

import itertools

import numpy as np

from trusskit import groups
from trusskit.groups import FiniteGroup
from trusskit.heaps import retract
from trusskit.lawcheck import ConsistencyError
from trusskit.trusses import units

TRUSS_NODE_BUDGET = 200_000  # leaves ``basis_truss_isomorphism`` may try


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


def word_isomorphism(g, h):
    """An isomorphism between groups of equal fingerprints, or None.

    Backtracks over images of a greedy generating set, pruning candidates by
    element order.  Raises ``RuntimeError`` past ``groups.NODE_BUDGET`` nodes
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
        if nodes > groups.NODE_BUDGET:
            raise RuntimeError("isomorphism search exceeded %d nodes" % groups.NODE_BUDGET)
        phi = np.full(g.order, -1, dtype=np.int64)
        phi[g.id] = h.id
        for elem, parent, gi in words[1:]:
            phi[elem] = h.mul[phi[parent], images[gi]]
        if len(set(int(v) for v in phi)) != g.order:
            continue
        if (phi[g.mul] == h.mul[phi[:, None], phi[None, :]]).all():
            return [int(v) for v in phi]
    return None


def truss_invariants(t):
    orders = np.sort(t.heap.retract.element_orders())
    idempotents = int((np.diag(t.mul) == np.arange(t.order)).sum())
    unit_count = len(units(t)) if t.identity is not None else 0
    return (
        t.order,
        t.sided,
        t.identity is not None,
        t.absorber is not None,
        tuple(int(v) for v in orders),
        idempotents,
        unit_count,
        bool((t.mul == t.mul.T).all()),
    )


def basis_truss_isomorphism(t1, t2):
    """A truss isomorphism t1 -> t2 as an index map, or None.

    A heap bijection sending e1 to e2 is a heap isomorphism exactly when it
    is a group isomorphism of the e1- and e2-retracts, so the search runs
    over additive-basis images for each candidate image of a fixed anchor of
    t1, checking the multiplication table at the leaves.  The identity and
    absorber, when present, pin the anchor image.
    """
    if truss_invariants(t1) != truss_invariants(t2):
        return None
    n = t1.order
    if n == 0:
        return []
    if t1.identity is not None:
        anchor1, anchor2_candidates = t1.identity, [t2.identity]
    elif t1.absorber is not None:
        anchor1, anchor2_candidates = t1.absorber, [t2.absorber]
    else:
        anchor1, anchor2_candidates = t1.heap.basepoint, list(range(n))

    basis, coords = abelian_coordinates(FiniteGroup.from_abgroup(retract(t1.heap, anchor1)))

    nodes = 0
    for e2 in anchor2_candidates:
        g2 = FiniteGroup.from_abgroup(retract(t2.heap, e2))
        orders2 = g2.element_orders()
        cand = [[int(v) for v in np.flatnonzero(orders2 == d)] for _, d in basis]
        for images in itertools.product(*cand):
            nodes += 1
            if nodes > TRUSS_NODE_BUDGET:
                raise RuntimeError("truss isomorphism search exceeded %d nodes" % TRUSS_NODE_BUDGET)
            phi = map_from_basis_images(g2, basis, coords, images)
            if len(set(int(v) for v in phi)) != n:
                continue
            if (phi[t1.mul] == t2.mul[phi[:, None], phi[None, :]]).all():
                return [int(v) for v in phi]
    return None


def basis_endomorphism_maps(g):
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
