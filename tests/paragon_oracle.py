"""Oracle for the one sub-heap test (``heaps._subheap_witnesses``).

The bodies below are the library's code as it was before that test was
shared: ``subheap_witness`` with its own membership mask, and
``_paragon_reports`` with the mask-based sub-heap stage over the whole
stack, the flat mask, offsets and closure gathers built for every set, the
ones that are no sub-heap included.  Differential tests pit the library
against them.
"""

import numpy as np

from trusskit.heaps import _members
from trusskit.lawcheck import ConsistencyError, grid_witness
from trusskit.trusses import TWO_SIDED, Paragon, ParagonReport


def subheap_witness(h, members):
    """First (a, b, c) over ``members``, in sorted order, with [a, b, c] outside
    them, from the |S|^2 slab a = s0 read through a membership mask."""
    s = np.array(_members(members, h.order), dtype=np.int64)
    if s.size == 0:
        return None
    mask = np.zeros(h.order, dtype=bool)
    mask[s] = True
    w = grid_witness(mask[h.bracket_arrays(s[0], s[:, None], s[None, :])], True)
    return None if w is None else (int(s[0]), int(s[w[0]]), int(s[w[1]]))


def paragon_reports(t, sets):
    """``is_paragon`` of each row of ``sets``, a (k, s) array of sorted member
    sets of one size: one (k, n, s) array per law decides all k sets."""
    sets = np.asarray(sets, dtype=np.int64)
    (k, s), n, two = sets.shape, t.order, t.sided == TWO_SIDED
    off, rows, q = np.arange(0, k * n, n)[:, None, None], sets.tolist(), sets[:, :1, None]
    mask = np.zeros(k * n, dtype=bool)
    mask[sets + off[:, 0]] = True
    out, live = [], []
    sub = mask[t.bracket_arrays(q, sets[:, :, None], sets[:, None, :]) + off]
    for j, ok in enumerate(sub.all(axis=(1, 2)).tolist()):
        if ok:
            out.append(None)
            live.append(j)
            continue
        x, y = divmod(int(sub[j].argmin()), s)
        row = rows[j]
        out.append(ParagonReport("none", failures={"subheap": (row[0], row[x], row[y])}))
    if not live:
        return out
    idx = np.arange(n)[:, None]
    prods = np.concatenate([t.mul[idx, sets[:, None, :]][:, None],
                            t.mul[sets[:, None, :], idx][:, None]], axis=1)
    at_q = np.concatenate([t.mul[idx, q][:, None], t.mul[q, idx][:, None]], axis=1)
    translates = t.bracket_arrays(prods, at_q, q[:, None])
    inside = mask[np.concatenate([prods, translates], axis=1) + off[:, None]]
    left_in, right_in, lam_ok, rho_ok = inside.all(axis=(2, 3)).T.tolist()
    for j in live:
        row, failures = rows[j], {}
        lam_j, rho_j, ideal = lam_ok[j], two and rho_ok[j], two and left_in[j] and right_in[j]
        if not lam_j:
            x, p = divmod(int(inside[j, 2].argmin()), s)
            failures["lambda"] = (row[0], x, row[p])
        if two and not rho_j:
            p, x = divmod(int(inside[j, 3].T.argmin()), n)
            failures["rho"] = (row[0], row[p], x)
        if ideal and not (lam_j and rho_j):
            raise ConsistencyError("an ideal failed paragon closure; theory violated")
        kind = ("ideal" if ideal else "two-sided" if lam_j and rho_j else "left" if lam_j
                else "right" if rho_j else "none")
        out[j] = ParagonReport(kind, None if kind == "none" else Paragon(t, row, kind), failures,
                               translates[j])
    return out
