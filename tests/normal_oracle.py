"""Oracle for translate-stable normality (``trusses.is_normal_paragon``).

The predicate as it was before ``ParagonReport.normal`` decided it from the
translates ``_paragon_reports`` keeps: its own sub-heap test, then its own
lambda and rho arrays at q = min P.  Every input, a Paragon included, is
read as its member list.  Differential tests pit the library against it.
"""

import numpy as np

from trusskit.heaps import _members, subheap_witness


def is_normal_paragon(t, p):
    """True iff {[xp, xq, q] : p in P} == {[px, qx, q] : p in P} for every x,
    at q = min(P); ``ValueError`` on the empty set and off sub-heaps."""
    if not (members := _members(p, t.order)):
        raise ValueError("normality of the empty set is undefined")
    if subheap_witness(t, members) is not None:
        raise ValueError("normality is defined on sub-heaps; the subset is not one")
    n, q, sarr = t.order, members[0], np.array(members)
    xs = np.arange(n)[:, None]
    # [x, j]: lambda_q(x, p_j) and rho_q(p_j, x)
    left = t.bracket_arrays(t.mul[:, sarr], t.mul[:, q][:, None], q)
    right = t.bracket_arrays(t.mul[sarr].T, t.mul[q][:, None], q)
    left_in = np.zeros((n, n), dtype=bool)
    right_in = np.zeros((n, n), dtype=bool)
    left_in[xs, left] = True
    right_in[xs, right] = True
    return bool(np.array_equal(left_in, right_in))


def normal_or_none(t, members):
    """``is_normal_paragon``'s verdict on a nonempty set, None off sub-heaps:
    what ``ParagonReport.normal`` should read."""
    return None if subheap_witness(t, members) is not None else is_normal_paragon(t, members)
