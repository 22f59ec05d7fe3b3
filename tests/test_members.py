"""Every subset and anchor argument is read by ``heaps._members``: a member
off the carrier is a ``ValueError``, never a wrapped index, an ``IndexError``
or a verdict about some other set."""

import pytest

from trusskit import (
    AbGroup,
    Brace,
    anchor_iso,
    closed_subheaps,
    cyclic_group,
    extend,
    ideal_cosets,
    ideal_iff_normal_paragon,
    induced_module,
    is_brace_ideal,
    is_induced_submodule,
    is_normal_paragon,
    is_paragon,
    is_submodule,
    quotient_heap,
    quotient_module,
    regular_module,
    retract,
    shift_submodule,
    split_sequence_check,
    subheap_closure,
    subheap_relation_classes,
    subheap_witness,
    translate,
    zero_module,
    zn_truss,
)
from trusskit.extensions import as_extension
from trusskit.heaps import _members

# Every carrier below has order 4; {0, 2} is a sub-heap, an ideal of T(Z_4),
# an induced submodule of its regular module and an ideal of the trivial brace.
T = zn_truss(4)
H, MOD = T.heap, regular_module(T)
BRACE = Brace(AbGroup.cyclic(4), cyclic_group(4))  # a + b = a . b
EXT = extend(T, MOD, 0)  # its fibers are the 4 elements of T

SUBSETS = {
    "subheap_witness": lambda s: subheap_witness(H, s),
    "subheap_relation_classes": lambda s: subheap_relation_classes(H, s),
    "quotient_heap": lambda s: quotient_heap(H, s),
    "subheap_closure.seeds": lambda s: subheap_closure(H, 0, T.mul, s),
    "is_paragon": lambda s: is_paragon(T, s),
    "is_normal_paragon": lambda s: is_normal_paragon(T, s),
    "is_submodule": lambda s: is_submodule(MOD, s),
    "is_induced_submodule": lambda s: is_induced_submodule(MOD, s),
    "shift_submodule": lambda s: shift_submodule(MOD, s, 0, 1),
    "quotient_module": lambda s: quotient_module(MOD, s),
    "is_brace_ideal": lambda s: is_brace_ideal(BRACE, s),
    "ideal_iff_normal_paragon": lambda s: ideal_iff_normal_paragon(BRACE, s),
    "ideal_cosets": lambda s: ideal_cosets(BRACE, s),
    "FiniteGroup.quotient_by": lambda s: cyclic_group(4).quotient_by(s),
}

ANCHORS = {
    "retract": lambda e: retract(H, e),
    "translate.e": lambda e: translate(H, e, 0),
    "translate.e2": lambda e: translate(H, 0, e),
    "closed_subheaps": lambda e: closed_subheaps(H, e, T.mul),
    "subheap_closure.e": lambda e: subheap_closure(H, e, T.mul),
    "induced_module": lambda e: induced_module(MOD, e),
    "shift_submodule.x": lambda e: shift_submodule(MOD, [0, 2], 0, e),
    "split_sequence_check": lambda e: split_sequence_check(EXT, e),
    "zero_module.e": lambda e: zero_module(T, H, e),
    "extend": lambda e: extend(T, MOD, e),
    "as_extension": lambda e: as_extension(EXT.truss, T, MOD, e),
    "anchor_iso": lambda e: anchor_iso(EXT, e),
}

OFF_CARRIER = [-4, -1, 4, 5]  # -4 and -1 would wrap to 0 and 3


@pytest.mark.parametrize("bad", OFF_CARRIER)
@pytest.mark.parametrize("name", sorted(SUBSETS))
def test_a_subset_member_off_the_carrier_is_a_value_error(name, bad):
    SUBSETS[name]([2, 0, 2])  # in range: read as (0, 2)
    with pytest.raises(ValueError, match="subset member out of range"):
        SUBSETS[name]([0, 2, bad])


@pytest.mark.parametrize("bad", OFF_CARRIER)
@pytest.mark.parametrize("name", sorted(ANCHORS))
def test_an_anchor_off_the_carrier_is_a_value_error(name, bad):
    ANCHORS[name](1)
    with pytest.raises(ValueError, match="subset member out of range"):
        ANCHORS[name](bad)


def test_members_are_sorted_distinct_ints():
    assert _members([3, 1, 3, 0], 4) == (0, 1, 3)
    assert _members(range(4), 4) == (0, 1, 2, 3)
    assert _members([], 0) == ()
    assert all(type(v) is int for v in _members(T.mul[1], 4))
