"""Fixtures shared by the test modules."""

import pytest

from trusskit import heaps, modules, trusses


@pytest.fixture
def scans(monkeypatch):
    """The law scans run in the test, in order: ("truss", n) for a truss or
    ring table of order n, ("module", n, m) for an action of an order-n truss
    on m elements and ("group", n) for an abelian group table.  The brace
    laws of an order-n brace are its truss's distributive laws, so their scan
    is a ("truss", n) scan.  A read of a kept verdict is no scan and is not
    recorded."""
    seen = []

    def counted(original, tag):
        def run(mul, act, *args, **kwargs):
            seen.append(tag(mul, act))
            return original(mul, act, *args, **kwargs)
        return run

    monkeypatch.setattr(trusses, "_law_witnesses",
                        counted(trusses._law_witnesses, lambda mul, act: ("truss", len(mul))))
    monkeypatch.setattr(modules, "_law_witnesses", counted(
        modules._law_witnesses, lambda mul, act: ("module", len(mul), act.shape[1])))
    monkeypatch.setattr(heaps, "associativity_witness", counted(
        heaps.associativity_witness, lambda add, _: ("group", len(add))))
    return seen
