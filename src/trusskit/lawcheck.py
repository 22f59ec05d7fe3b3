"""Shared law-checking machinery.

Every structure in this library is a finite operation table, and every axiom
is checked exhaustively.  Associativity is checked row by row; the
distributivity-type laws reduce to "this row is a heap morphism", which
``heaps.morphism_witness`` decides on a generating set of a retract.  This
module holds the common pieces: the error types, the ``Check``/``Report``
records that validators and the CLI emit, and the witness helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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
    seed: int | None = None
    samples: int | None = None
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

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

    def require(self):
        """Raise ``ConsistencyError`` if any check failed (oracle reports)."""
        bad = self.failures()
        if bad:
            detail = "; ".join(
                c.name if c.witness is None else "%s at %s" % (c.name, c.witness)
                for c in bad
            )
            raise ConsistencyError("%s: %s" % (self.title, detail))
        return self

    def to_dict(self):
        return {
            "title": self.title,
            "seed": self.seed,
            "samples": self.samples,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
            "notes": list(self.notes),
        }

    def lines(self):
        out = ["report: %s" % self.title]
        if self.seed is not None:
            out.append("  seed=%d samples=%s" % (self.seed, self.samples))
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


def associativity_witness(mul, act):
    """First (s, t, x) with s(tx) != (st)x, or None.

    ``mul`` is a k x k multiplication and ``act`` a k x m table of its action
    (``act = mul`` checks ``mul`` itself).  One row s at a time, so no array
    larger than k * m is built.
    """
    for s in range(len(mul)):
        w = grid_witness(act[s][act], act[mul[s]])
        if w is not None:
            return (s,) + w
    return None
