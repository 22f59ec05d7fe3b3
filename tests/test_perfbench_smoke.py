"""One pass of each benchmark workload gives the expected verdicts.

``perfbench/workloads.py`` is built with seed 1 in a temporary directory and
each operation is run once, in order, with one shared pass context, as a
benchmark pass runs it.  Every verdict must equal the operation's
``expected`` (a raising operation is the verdict ("raised", its type)), and
no known-defect classifier may claim it.  A wrong count of brace ideals, for
example, fails here before a benchmark run reports it as incorrect.  The
workloads are only read, never changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for @dataclass
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["laws", "ideals"])
def test_one_pass_gives_every_expected_verdict(workloads, name, tmp_path):
    assert sorted(workloads.BUILDERS) == ["ideals", "laws"]
    ops = workloads.build(name, 1, tmp_path)
    assert ops
    ctx, wrong = {}, []
    for i, op in enumerate(ops):
        try:
            verdict = op.run(ctx)
        except Exception as exc:  # as the benchmark counts it
            verdict = ("raised", type(exc).__name__)
        defect = op.defect(verdict) if op.defect else None
        if verdict != op.expected or defect is not None:
            wrong.append((i, op.kind, verdict, op.expected, defect))
    assert wrong == []
