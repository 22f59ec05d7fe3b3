"""Shared law-checking machinery.

Every structure in this library is a finite operation table, and every axiom
is checked exhaustively.  Associativity is decided on generators
(``associativity_witness``); the distributivity-type laws reduce to "this
row is a heap morphism", which ``heaps.morphism_witness`` decides on a
generating set of a retract.  This
module holds the common pieces: the error types, the ``Check``/``Report``
records that validators and the CLI emit, and the witness helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HOLDS = (None, None, None)  # the kept witnesses of a structure whose laws hold


def inherit(obj, lawful, report=None):
    """``obj``, built unscanned from a parent, keeps ``HOLDS`` if the parent is
    ``lawful`` (the caller names the theorem), else ``report`` scans it, raising."""
    if lawful:
        obj._laws = HOLDS
    elif report is not None:
        report(obj).raise_invalid()
    return obj


class ValidationError(ValueError):
    """An operation table violates one of its defining laws."""

    def __init__(self, law, witness=None, message=None):
        self.law = law
        self.witness = None if witness is None else tuple(int(v) for v in witness)
        if message is None:
            if self.witness is None:
                message = law
            else:
                message = "%s fails at %s" % (law, self.witness)
        super().__init__(message)


class ConsistencyError(RuntimeError):
    """A property guaranteed by construction failed.

    These checks are oracle cross-checks for facts that hold by theorem for
    verified inputs; if one fires, the library (or a hand-edited table that
    bypassed validation) is at fault, not the caller.
    """


@dataclass
class Check:
    name: str
    passed: bool
    witness: tuple | None = None

    def to_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "witness": None if self.witness is None else [int(v) for v in self.witness],
        }


@dataclass
class Report:
    """An ordered list of named pass/fail checks plus free-form notes."""

    title: str
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @classmethod
    def over(cls, title, *parts):
        """A structure's report: its verdict covers what it is built from, so it
        opens with the failing checks of each (lawful, report) part not lawful."""
        return cls(title, [c for ok, report in parts if not ok for c in report().failures()])

    def add(self, name, passed, witness=None):
        if witness is not None:
            witness = tuple(int(v) for v in witness)
        self.checks.append(Check(name, bool(passed), witness))
        return bool(passed)

    def note(self, text):
        self.notes.append(str(text))

    def extend(self, other):
        self.checks.extend(other.checks)
        self.notes.extend(other.notes)
        return self

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def raise_invalid(self):
        """Raise ``ValidationError`` for the first failed check, if any."""
        for c in self.checks:
            if not c.passed:
                raise ValidationError(c.name, c.witness)
        return self

    def to_dict(self):
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
            "notes": list(self.notes),
        }

    def lines(self):
        out = ["report: %s" % self.title]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            tail = "" if c.witness is None else "  witness=%s" % (c.witness,)
            out.append("  [%s] %s%s" % (mark, c.name, tail))
        for note in self.notes:
            out.append("  note: %s" % note)
        out.append("  result: %s" % ("PASS" if self.ok else "FAIL"))
        return out

    def render(self):
        return "\n".join(self.lines())


def grid_witness(lhs, rhs):
    """First mismatch position of two equal-shape grids, or None.

    The returned tuple is the row-major-first index, i.e. the
    lexicographically smallest failing argument tuple.
    """
    diff = np.asarray(lhs) != np.asarray(rhs)
    if not diff.any():
        return None
    return tuple(int(v) for v in np.argwhere(diff)[0])


def associativity_witness(mul, act, mids=None, lasts=None, firsts=None):
    """First (s, t, x) with s(tx) != (st)x, or None.

    ``mul`` is a k x k multiplication and ``act`` a k x m table of its action
    (``act = mul`` checks ``mul`` itself).  Three index sets, one per
    argument, decide the law on fewer triples than the k^2 m of the scan:

    * ``lasts`` restricts x to the carrier's basepoint e and its retract's
      generators, once every row x -> tx is a heap morphism.  Then
      x -> s(tx) and x -> (st)x are heap morphisms, additive maps of
      retracts, so they agree everywhere if they agree on e and generators.
    * ``mids`` restricts t to the identity and elements whose products
      reach every element (Light's test): the t with s(tx) = (st)x for all
      s, x are closed under products, s((ab)x) = (sa)(bx) = (s(ab))x.
    * ``firsts`` and ``mids`` restrict s and t to the basepoint and heap
      generators of ``mul`` too, once ``mul`` distributes on both sides and
      each column s -> s.x of ``act`` is a heap morphism.  Both sides are
      then heap morphisms in each argument (s -> (st)x is column t, then
      column x; t -> (st)x row s, then column x), so agreement spreads to
      every x, then t, then s: (r + 1)^3 triples for a truss.

    A restricted check that fails is followed by the full scan, so the
    witness is always the lexicographically first failing (s, t, x).  Rows s
    go in blocks that keep every array within k * m entries.
    """
    k, m = act.shape
    ts = np.arange(k) if mids is None else np.asarray(mids)
    xs = np.arange(m) if lasts is None else np.asarray(lasts)
    inner = act[np.ix_(ts, xs)]
    step = max(1, k * m // max(1, inner.size))
    for lo in range(0, k if firsts is None else len(firsts), step):
        s = slice(lo, lo + step) if firsts is None else np.asarray(firsts)[lo:lo + step]
        prod = mul[s][:, ts]
        rhs = act[prod] if lasts is None else act[prod[:, :, None], xs]
        w = grid_witness(act[s][:, inner], rhs)
        if w is None:
            continue
        if firsts is not None or mids is not None or lasts is not None:
            return associativity_witness(mul, act)
        return (lo + w[0], int(ts[w[1]]), int(xs[w[2]]))
    return None
