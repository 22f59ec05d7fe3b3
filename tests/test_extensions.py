import numpy as np
import pytest

from trusskit import (
    AbGroup,
    ConsistencyError,
    anchor_iso,
    base_subtruss,
    ext_action,
    ext_units,
    extend,
    extension_clause_report,
    fiber_paragon,
    heap_from_group,
    is_normal_paragon,
    is_paragon,
    iterated_extension_matches_product,
    module_over_extension,
    regular_module,
    ring_type_check,
    split_sequence_check,
    trivial_module,
    truss_from_ring,
    truss_law_report,
    units,
    za_truss,
    zn_truss,
)
from trusskit import extensions, heaps, jsonio, modules, trusses
from trusskit.catalog import left_translation_truss
from trusskit.extensions import ExtTruss
from trusskit.modules import TModule


def ext_z2():
    base = zn_truss(2)
    return extend(base, regular_module(base), 0)


def ext16():
    base = za_truss(2, 4)
    return extend(base, regular_module(base), 0)


def singleton_module(t):
    return trivial_module(t, heap_from_group(AbGroup.cyclic(1)))


class TestConstruction:
    def test_z2_regular_product_formula(self):
        ext = ext_z2()
        assert ext.order == 4
        for t in range(2):
            for x in range(2):
                for t2 in range(2):
                    for x2 in range(2):
                        got = int(ext.truss.mul[ext.pair(t, x), ext.pair(t2, x2)])
                        assert got == ext.pair((t * t2) % 2, (x + t * x2) % 2)

    def test_order16_product_formula(self):
        ext = ext16()
        assert ext.order == 16
        for m in range(4):
            for s in range(4):
                for n in range(4):
                    for t in range(4):
                        got = int(ext.truss.mul[ext.pair(m, s), ext.pair(n, t)])
                        want = ext.pair((2 * m * n + m + n) % 4, (2 * m * t + s + t) % 4)
                        assert got == want

    def test_singleton_module_reproduces_base(self):
        base = zn_truss(3)
        ext = extend(base, singleton_module(base), 0)
        assert ext.order == 3
        assert (ext.truss.mul == base.mul).all()

    def test_left_truss_extension_is_left(self):
        lt = left_translation_truss()
        ext = extend(lt, regular_module(lt), 0)
        assert ext.truss.sided == "left"
        assert truss_law_report(ext.truss).ok

    def test_module_mismatch_rejected(self):
        with pytest.raises(ValueError):
            extend(zn_truss(2), regular_module(zn_truss(3)), 0)


class TestAnchorIso:
    def test_identity_at_same_anchor(self):
        ext = ext16()
        _, phi = anchor_iso(ext, 0)
        assert list(phi) == list(range(16))

    def test_all_anchors_isomorphic(self):
        ext = ext16()
        for e2 in range(4):
            ext2, phi = anchor_iso(ext, e2)
            assert sorted(int(v) for v in phi) == list(range(16))

    def test_target_is_the_extension_at_e2(self):
        ext = ext16()
        for e2 in range(4):
            ext2, _ = anchor_iso(ext, e2)
            assert ext2.anchor == e2
            assert ext2.truss == extend(ext.base, ext.module, e2).truss

    def test_composition_is_identity(self):
        ext = ext_z2()
        ext2, fwd = anchor_iso(ext, 1)
        _, back = anchor_iso(ext2, 0)
        assert list(np.array(back)[fwd]) == list(range(4))


class TestDocument:
    """Loading an extension document compares the stored table with T[M; e]
    instead of rebuilding it, so the order-nm table is scanned once."""

    @staticmethod
    def doc(e=0):
        base = za_truss(2, 8)
        return jsonio.to_jsonable(extend(base, regular_module(base), e))

    def test_one_law_scan_per_table(self, monkeypatch):
        doc, orders = self.doc(), []

        def counted(t, *args, **kwargs):
            orders.append(t.order)
            return truss_law_report(t, *args, **kwargs)

        monkeypatch.setattr(jsonio, "truss_law_report", counted)
        monkeypatch.setattr(trusses, "truss_law_report", counted)
        ext = jsonio.from_jsonable(doc)
        assert orders == [64, 8, 8]
        assert isinstance(ext, ExtTruss) and ext.anchor == 0
        assert ext.truss == extend(ext.base, ext.module, 0).truss

    def test_other_anchor_is_a_failed_check(self):
        doc = self.doc()
        doc["extension"]["anchor"] = 1
        obj, report = jsonio.validate(doc)
        assert [c.name for c in report.failures()] == ["declared_extension"]
        assert not isinstance(obj, ExtTruss) and obj.order == 64

    def test_module_over_another_base_is_an_input_error(self):
        doc = self.doc()
        doc["extension"]["base"] = jsonio.to_jsonable(zn_truss(8))
        with pytest.raises(ValueError, match="not a module over"):
            jsonio.validate(doc)


class TestExtensionAction:
    def test_anchor_recovers_second_coordinate(self):
        ext = ext16()
        for t in range(4):
            for x in range(4):
                assert ext_action(ext, ext.pair(t, x), 0) == x

    def test_identity_pair_acts_trivially(self):
        ext = ext16()
        one = ext.truss.identity
        for x in range(4):
            assert ext_action(ext, one, x) == x

    def test_module_over_extension_valid(self):
        mod = module_over_extension(ext16())
        assert mod.order == 4 and mod.unital


class TestFiberParagon:
    def test_order16_fiber_quotient(self):
        ext = ext16()
        paragon, quotient, proj, iso = fiber_paragon(ext, 0)
        assert len(paragon) == 4
        assert quotient.order == 4
        assert sorted(int(v) for v in iso) == [0, 1, 2, 3]

    def test_absorber_fiber_is_ideal(self):
        ext = ext_z2()
        paragon, _, _, _ = fiber_paragon(ext, 0)
        assert paragon.kind == "ideal"

    def test_non_absorber_fiber_not_ideal(self):
        ext = ext_z2()
        paragon, _, _, _ = fiber_paragon(ext, 1)
        assert paragon.kind == "two-sided"


class TestBaseSubtruss:
    def test_z2_base_copy(self):
        ext = ext_z2()
        paragon, qmod, proj, iso = base_subtruss(ext)
        assert paragon.members == (ext.pair(0, 0), ext.pair(1, 0))
        assert qmod.order == 2

    def test_products_collapse_to_anchor(self):
        ext = ext16()
        for t in range(4):
            for t2 in range(4):
                got = int(ext.truss.mul[ext.pair(t, 0), ext.pair(t2, 0)])
                assert got == ext.pair(int(ext.base.mul[t, t2]), 0)

    def test_base_copy_is_left_only_here(self):
        ext = ext16()
        members = [ext.pair(t, 0) for t in range(4)]
        result = is_paragon(ext.truss, members)
        assert result.kind == "left"

    def test_base_copy_not_normal(self):
        ext = ext16()
        members = [ext.pair(t, 0) for t in range(4)]
        assert not is_normal_paragon(ext.truss, members)

    def test_fibers_are_normal(self):
        ext = ext16()
        for a in range(4):
            members = [ext.pair(a, x) for x in range(4)]
            assert is_normal_paragon(ext.truss, members)

    def test_quotient_matches_module(self):
        ext = ext16()
        _, qmod, proj, iso = base_subtruss(ext)
        assert qmod.order == 4


class TestSplitSequence:
    def test_both_worked_extensions(self):
        for ext in (ext_z2(), ext16()):
            for a in range(ext.base.order):
                assert split_sequence_check(ext, a).ok

    def test_singleton_module_projection_is_iso(self):
        base = zn_truss(3)
        ext = extend(base, singleton_module(base), 0)
        rep = split_sequence_check(ext, 0)
        assert rep.ok
        # kernel classes are singletons
        assert ext.order == base.order

    def test_kernel_relation_anchor_independent(self):
        ext = ext16()
        pi = np.array([ext.unpair(i)[0] for i in range(16)])
        kernel = {frozenset(np.flatnonzero(pi == t).tolist()) for t in range(4)}
        from trusskit import subheap_relation_classes

        for a in range(4):
            emb = [ext.pair(a, x) for x in range(4)]
            classes = {frozenset(c) for c in subheap_relation_classes(ext.truss.heap, emb)}
            assert classes == kernel


class TestRingType:
    def test_nontrivial_module_never_ring_type(self):
        assert not ring_type_check(ext_z2())
        assert not ring_type_check(ext16())

    def test_singleton_over_ring_is_ring_type(self):
        base = zn_truss(2)
        ext = extend(base, singleton_module(base), 0)
        assert ring_type_check(ext)

    def test_singleton_over_brace_truss_is_not(self):
        base = za_truss(2, 4)  # unital but no absorber
        ext = extend(base, singleton_module(base), 0)
        assert not ring_type_check(ext)


class TestExtUnits:
    def test_z2_units(self):
        ext = ext_z2()
        assert ext_units(ext) == (ext.pair(1, 0), ext.pair(1, 1))

    def test_order16_all_units(self):
        ext = ext16()
        assert len(ext_units(ext)) == 16

    def test_identity_pair(self):
        ext = ext16()
        assert ext.truss.identity == ext.pair(ext.base.identity, ext.anchor)

    def test_non_unital_base_rejected(self):
        zero_ring = truss_from_ring(AbGroup.cyclic(2), [[0, 0], [0, 0]])
        ext = extend(zero_ring, regular_module(zero_ring), 0)
        assert ext.truss.identity is None
        with pytest.raises(ValueError):
            ext_units(ext)

    def test_trivial_action_units(self):
        base = zn_truss(2)
        mod = trivial_module(base, heap_from_group(AbGroup.cyclic(3)))
        ext = extend(base, mod, 0)
        assert len(ext_units(ext)) == 3  # U(T) x M = {1} x Z3


class TestClauseSuiteAndIteration:
    def test_clause_report_all_green(self):
        base = zn_truss(4)
        ext, rep = extension_clause_report(base, regular_module(base), 0)
        assert rep.ok

    def test_iterated_extension(self):
        base = zn_truss(2)
        phi = iterated_extension_matches_product(base, regular_module(base), 0)
        assert sorted(phi) == list(range(8))


def _relabelled(build):
    """``build`` with classes 0 and 1 of its projection swapped, the quotient kept."""
    def wrapped(*args):
        quotient, proj = build(*args)
        swap = np.arange(int(proj.max()) + 1)
        swap[[0, 1]] = [1, 0]
        return quotient, swap[proj]
    return wrapped


class TestRelabelledQuotient:
    """A projection whose class numbers disagree with its quotient's tables
    fails every extension check that reads classes off the projection."""

    def ext_z4(self):
        return extend(zn_truss(4), regular_module(zn_truss(4)), 0)

    def test_fiber_paragon(self, monkeypatch):
        ext = self.ext_z4()
        fiber_paragon(ext, 1)
        monkeypatch.setattr(extensions, "quotient_truss", _relabelled(trusses.quotient_truss))
        with pytest.raises(ConsistencyError, match="fiber quotient is not isomorphic"):
            fiber_paragon(ext, 1)

    def test_base_subtruss(self, monkeypatch):
        ext = self.ext_z4()
        base_subtruss(ext)
        monkeypatch.setattr(extensions, "quotient_module", _relabelled(modules.quotient_module))
        with pytest.raises(ConsistencyError, match="quotient-by-base is not"):
            base_subtruss(ext)

    def test_split_sequence(self, monkeypatch):
        ext = self.ext_z4()
        assert split_sequence_check(ext, 1).ok
        relation = heaps.subheap_relation_classes
        monkeypatch.setattr(extensions, "subheap_relation_classes",
                            lambda h, s: [relation(h, s)[i] for i in (1, 0, 2, 3)])
        failed = [c.name for c in split_sequence_check(ext, 1).failures()]
        assert failed == ["kernel_matches_fiber_relation"]

    def test_clause_report(self, monkeypatch):
        monkeypatch.setattr(extensions, "quotient_truss", _relabelled(trusses.quotient_truss))
        _, report = extension_clause_report(zn_truss(4), regular_module(zn_truss(4)), 0)
        assert [c.name for c in report.failures()] == ["fiber_paragons_and_quotients"]
