"""The unit bridges of a truss against the functions they replaced.

``bridge_oracle`` keeps ``group_from_units``, ``brace_from_truss``,
``units_brace`` and ``truss_from_brace`` as they were before the bridges read
``trusses.units`` once and handed a lawful truss's verdict on.  On the
za(2, 2^k) trusses, the extension braces, the trusses of Z_n and the
truncated-polynomial and group-ring members, both give the same tables,
identities, sides and labels.  On tables corrupted and built without a scan,
both raise the same error (law and witness).  Call counts pin which law
scans each bridge runs.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import bridge_oracle as old
from trusskit import (
    AbGroup,
    Brace,
    FiniteGroup,
    Truss,
    ValidationError,
    braces,
    brace_from_truss,
    extend,
    group_from_spec,
    group_from_units,
    group_ring,
    heap_from_group,
    is_brace_type,
    regular_module,
    trunc_poly_truss,
    truss_from_brace,
    units_brace,
    za_truss,
    zn_ring,
    zn_truss,
)


def _ext(order):
    base = za_truss(2, order)
    return extend(base, regular_module(base), 0).truss


def _members():
    """(name, build): za(2, 2^k) to order 256, the order-16 and order-64
    extension braces, Z_n for n <= 64, and the truncated-polynomial and
    group-ring members of the catalog."""
    out = [("za2_%d" % 2 ** k, lambda k=k: za_truss(2, 2 ** k)) for k in range(1, 9)]
    out += [("ext16", lambda: _ext(4)), ("ext64", lambda: _ext(8))]
    out += [("z%d" % n, lambda n=n: zn_truss(n)) for n in range(1, 65)]
    out += [("poly%d_%d" % (k, n), lambda k=k, n=n: trunc_poly_truss(k, n).truss)
            for k in range(1, 9) for n in range(1, 9) if 2 ** (k * n) <= 256]
    out += [("ring%d_%s" % (q, spec), lambda q=q, spec=spec:
             group_ring(zn_ring(q), group_from_spec(spec)).ring.truss())
            for q, spec in ((2, "cyclic:2"), (3, "cyclic:2"), (2, "cyclic:4"),
                            (2, "cyclic:2*cyclic:2"), (2, "dihedral:6"), (2, "dihedral:8"))]
    return out


def _group(g):
    return g.mul.tolist(), g.id, g.labels


def _brace(b):
    return (b.order, b.identity, b.sided, b.labels, b.add.zero, b.add.labels,
            b.add.add.tolist()) + _group(b.mul)


def _truss(t):
    return (t.order, t.sided, t.labels, t.identity, t.absorber, t.heap.basepoint,
            t.heap.labels, t.heap.retract.add.tolist(), t.mul.tolist())


def _outcome(build, arg, shape):
    """``shape`` of what ``build(arg)`` returns, or the error it raises."""
    try:
        return shape(build(arg))
    except Exception as exc:  # ValidationError, ValueError and ConsistencyError alike
        return type(exc).__name__, str(exc), getattr(exc, "law", None), getattr(exc, "witness", None)


BRIDGES = [
    ("group_from_units", group_from_units, old.group_from_units, _group),
    ("brace_from_truss", brace_from_truss, old.brace_from_truss, _brace),
    ("units_brace", units_brace, old.units_brace, _brace),
]


def _assert_same_bridges(new_truss, old_truss):
    for name, new, ref, shape in BRIDGES:
        assert _outcome(new, new_truss(), shape) == _outcome(ref, old_truss(), shape), name


@pytest.mark.parametrize("build", [b for _, b in _members()], ids=[n for n, _ in _members()])
def test_bridges_match_the_oracle(build):
    t = build()
    assert t.lawful
    _assert_same_bridges(lambda: t, lambda: t)
    if is_brace_type(t):
        b = brace_from_truss(t)
        assert _truss(truss_from_brace(b)) == _truss(old.truss_from_brace(b))
        assert _truss(truss_from_brace(b)) == _truss(old.truss_from_brace(old.brace_from_truss(t)))


def test_every_input_kind_is_covered():
    """The member list holds brace-type trusses, unit sub-heaps that are not
    the whole truss, and trusses whose units are not a sub-heap."""
    kinds = set()
    for _, build in _members():
        t = build()
        try:
            n = units_brace(t).order
        except ValueError:
            kinds.add("not a sub-heap")
            continue
        kinds.add("brace-type" if n == t.order else "proper unit brace")
    assert kinds == {"brace-type", "proper unit brace", "not a sub-heap"}


def test_unlabelled_truss_keeps_its_unit_group_labels():
    """Unlabelled, the unit group has no labels and the unit brace names its
    members by their indices in the truss."""
    z4 = zn_truss(4)
    t = Truss(heap_from_group(AbGroup(z4.heap.retract.add)), z4.mul)
    assert t.labels is None and group_from_units(t).labels is None
    b = units_brace(t)
    assert b.labels == b.add.labels == b.mul.labels == ("1", "3")


# ------------------------------------------------------------ corrupted tables

SMALL = [za_truss(2, 4), za_truss(2, 8), za_truss(2, 16), zn_truss(8), zn_truss(9),
         zn_truss(12), zn_truss(16), _ext(4), trunc_poly_truss(1, 2).truss,
         trunc_poly_truss(1, 4).truss, trunc_poly_truss(2, 2).truss,
         group_ring(zn_ring(2), group_from_spec("cyclic:2")).ring.truss(),
         group_ring(zn_ring(3), group_from_spec("cyclic:2")).ring.truss(),
         group_ring(zn_ring(2), group_from_spec("cyclic:2*cyclic:2")).ring.truss()]


def _corrupt(data, table):
    table = np.array(table)
    n = len(table)
    for _ in range(data.draw(st.integers(0, 2), label="corruptions")):
        i, j, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        table[i, j] = v
    return table


def _relabelled(data, mul, fixed):
    """``mul`` carried over by a permutation that fixes ``fixed``: a group
    stays a group, but seldom distributes over the old heap."""
    others = [v for v in range(len(mul)) if v != fixed]
    perm = np.arange(len(mul))
    if data.draw(st.booleans(), label="relabel"):
        perm[others] = data.draw(st.permutations(others))
    back = np.argsort(perm)
    return perm[mul[back[:, None], back[None, :]]]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_unscanned_corrupted_truss_raises_what_the_oracle_raises(data):
    """Built with ``check=False``, a truss keeps no verdict, so every bridge
    scans it; the error (law and witness) is the oracle's."""
    t0 = data.draw(st.sampled_from(SMALL))
    add = _corrupt(data, t0.heap.retract.add)
    mul = _corrupt(data, _relabelled(data, t0.mul, t0.identity))

    def build():
        return Truss(heap_from_group(AbGroup(add, check=False)), mul, sided=t0.sided,
                     labels=t0.labels, check=False)

    try:
        build()
    except (ValueError, RuntimeError):  # no zero or negatives, or two absorbers
        assume(False)
    _assert_same_bridges(build, build)


BRACES = [brace_from_truss(za_truss(2, 4)), brace_from_truss(za_truss(2, 8)),
          brace_from_truss(za_truss(2, 16)), brace_from_truss(_ext(4))]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_truss_from_an_unscanned_corrupted_brace_matches_the_round_trip(data):
    """The truss scan and, for an additive group never scanned, its group
    scan raise what the round trip through ``brace_from_truss`` raised."""
    b0 = data.draw(st.sampled_from(BRACES))
    add = _corrupt(data, b0.add.add)
    mul = _corrupt(data, _relabelled(data, b0.mul.mul, b0.identity))

    def build():
        return Brace(AbGroup(add, labels=b0.labels, check=False),
                     FiniteGroup(mul, labels=b0.labels, check=False),
                     sided=b0.sided, labels=b0.labels, check=False)

    try:
        build()
    except ValueError:  # no zero, identity or inverses, or they differ
        assume(False)
    assert (_outcome(truss_from_brace, build(), _truss)
            == _outcome(old.truss_from_brace, build(), _truss))


def test_an_additive_group_never_scanned_is_scanned():
    """Over this two-point heap, whose table x + y = y is no group, the truss
    laws hold; the additive group's scan fails, as in the round trip."""
    def build():
        mul = brace_from_truss(za_truss(2, 2)).mul
        return Brace(AbGroup([[0, 1], [0, 1]], check=False), mul, check=False)

    errors = []
    for bridge in (truss_from_brace, old.truss_from_brace):
        with pytest.raises(ValidationError) as err:
            bridge(build())
        errors.append((err.value.law, err.value.witness))
    assert errors == [("group.commutative", (0, 1))] * 2


# ------------------------------------------------------------------ scan counts

@pytest.fixture
def calls(monkeypatch):
    """Calls of ``FiniteGroup.law_report``, ``brace_law_report`` and
    ``brace_from_truss`` made inside the library, in order."""
    seen = []

    def counted(tag, original):
        def run(*args, **kwargs):
            seen.append(tag)
            return original(*args, **kwargs)
        return run

    monkeypatch.setattr(FiniteGroup, "law_report", counted("group", FiniteGroup.law_report))
    monkeypatch.setattr(braces, "brace_law_report", counted("brace", braces.brace_law_report))
    monkeypatch.setattr(braces, "brace_from_truss", counted("bridge", braces.brace_from_truss))
    return seen


LAWFUL = [lambda: za_truss(2, 16), lambda: _ext(4), lambda: _ext(8),
          lambda: trunc_poly_truss(1, 4).truss]


@pytest.mark.parametrize("build", LAWFUL)
def test_a_lawful_truss_hands_its_verdict_on(calls, build):
    t = build()
    assert t.lawful and t.heap.retract.lawful
    calls.clear()
    assert group_from_units(t).lawful
    units_brace(t)
    if is_brace_type(t):
        truss_from_brace(brace_from_truss(t))
    assert calls == []


@pytest.mark.parametrize("build", LAWFUL)
def test_an_unscanned_truss_is_scanned(calls, build):
    t0 = build()
    t = Truss(t0.heap, t0.mul, sided=t0.sided, labels=t0.labels, check=False)
    calls.clear()
    group_from_units(t)
    assert calls == ["group"]
    calls.clear()
    units_brace(t)
    assert calls == ["group", "brace"]
    if is_brace_type(t):
        calls.clear()
        brace_from_truss(t)
        assert calls == ["group", "brace"]


def test_truss_from_brace_runs_no_round_trip(calls):
    for b in BRACES:
        calls.clear()
        t = truss_from_brace(b)
        assert calls == [] and t.lawful
