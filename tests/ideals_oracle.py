"""Oracle for ``braces.brace_ideals``.

The search as it was before the ideals came from ``heaps._closed_sets``: a
walk over the subgroups of (B, .) that grows each one found by every element
outside it with ``FiniteGroup.closure``, then keeps the subgroups that pass
``is_brace_ideal``, sorted by size, then members.  It neither reads nor
fills the ``Brace._ideals`` cache.  Differential tests pit the library
function against it.
"""

from trusskit.braces import is_brace_ideal


def brace_ideals(b):
    """All ideals, found by enumerating subgroups of (B, .) and filtering."""
    seen = {(b.identity,)}
    frontier = [(b.identity,)]
    while frontier:
        sub = frontier.pop()
        for x in range(b.order):
            if x in sub:
                continue
            grown = b.mul.closure(set(sub) | {x})
            if grown not in seen:
                seen.add(grown)
                frontier.append(grown)
    return [sub for sub in sorted(seen, key=lambda s: (len(s), s))
            if is_brace_ideal(b, sub)[0]]
