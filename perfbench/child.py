"""One benchmark process: import trusskit, build a workload, run timed passes.

Started by ``run.py`` in a fresh single-threaded process.  Set-up time runs
from the first line of this file to the end of ``workloads.build``.  With
``--setup-only`` the process stops there.  Otherwise it runs passes over the
operation list as a closed loop (the next operation starts when the previous
verdict is back) and prints one JSON line.

With ``--trace 0`` the loop runs one whole pass and then goes on, pass after
pass, until ``--seconds`` are up; it stops at the first operation boundary
after that, so the whole window is measured whatever a pass costs.  Every
figure is built from each operation's median time over the window, so that
a stray slow run (a garbage collection, say) does not count.  The reference
job of ``pace.py`` is timed between operations, and the reported times are
paced by it; the raw times are reported next to them.
With ``--trace 1`` it runs whole passes, every second one with the tracer
installed, until another pass would overrun ``--seconds``; the untraced
passes between them give the tracing overhead.

``attempted`` counts the operations of the list and ``failed`` those whose
verdict was wrong in at least one of their runs, so both are the same for
every seed and every length of run.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_pass(ops, tracer=None, stop=None, pace=None):
    """One pass over ``ops``; with ``stop``, it ends at the first operation
    boundary at or after that ``perf_counter`` time.  With ``pace``, the
    reference job is timed between operations."""
    ctx = {}
    starts, times, mismatches = [], [], []
    clock = time.perf_counter
    start = clock()
    for i, op in enumerate(ops):
        if stop is not None and clock() >= stop:
            break
        if pace:
            pace.tick()
        t = clock()
        starts.append(t)
        try:
            verdict = tracer.call("op:" + op.kind, op.run, ctx) if tracer else op.run(ctx)
        except Exception as exc:  # a raising operation is a failed verdict
            verdict = ("raised", type(exc).__name__)
        times.append(clock() - t)
        if verdict != op.expected:
            mismatches.append((i, verdict))
    return {"wall": clock() - start, "starts": starts, "times": times,
            "mismatches": mismatches, "spans": tracer.take() if tracer else None}


def run_window(ops, seconds, pace):
    """One whole pass, then more until ``seconds`` are up (the last one cut short)."""
    start = time.perf_counter()
    passes = [run_pass(ops, pace=pace)]
    while time.perf_counter() - start < seconds:
        passes.append(run_pass(ops, stop=start + seconds, pace=pace))
    window = time.perf_counter() - start
    pace.mark()
    return passes, window


def run_passes(ops, seconds, tracer):
    """Whole passes, odd ones traced, until another one would overrun."""
    passes = []
    start = time.perf_counter()
    while True:
        traced = len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            passes.append(run_pass(ops, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        longest = max(p["wall"] for p in passes)
        if len(passes) >= 2 and elapsed + longest > seconds:
            return passes


def tail(times):
    """(value, percentile): the highest percentile with at least 10 operations above it."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def op_medians(ops, passes, pace=None):
    """Each operation's median time to verdict over the passes that ran it, in
    s; paced if ``pace`` is given."""
    runs = [[] for _ in ops]
    for p in passes:
        for i, (t, d) in enumerate(zip(p["starts"], p["times"])):
            runs[i].append(d * pace.scale(t) if pace else d)
    return [statistics.median(r) for r in runs]


def timings(medians):
    """run_s, op_p50_ms, op_tail_ms and the tail's percentile from per-operation medians."""
    tail_s, tail_percentile = tail(medians)
    return {"run_s": sum(medians), "op_p50_ms": statistics.median(medians) * 1e3,
            "op_tail_ms": tail_s * 1e3}, tail_percentile


def verdict_summary(ops, passes, workloads):
    """Operations whose verdict was wrong in at least one run, by known defect.
    A wrong verdict that no known defect claims makes the run incorrect."""
    wrong, unexpected = {}, []
    for p in passes:
        for i, verdict in p["mismatches"]:
            op = ops[i]
            defect = op.defect(verdict) if op.defect else None
            wrong.setdefault(i, defect)
            if defect is None:
                unexpected.append({"op": i, "kind": op.kind, "verdict": repr(verdict),
                                   "expected": repr(op.expected)})
    known = {}
    for defect in wrong.values():
        if defect:
            known[defect] = known.get(defect, 0) + 1
    return {"attempted": len(ops),
            "failed": len(wrong),
            "executions": sum(len(p["times"]) for p in passes),
            "known_defects": {k: {"count": n, "what": workloads.KNOWN_DEFECTS[k]}
                              for k, n in known.items()},
            "unexpected_count": len(unexpected),
            "unexpected": unexpected[:20]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import trusskit
    if SRC.resolve() not in Path(trusskit.__file__).resolve().parents:
        sys.exit("trusskit was imported from %s, not from %s" % (trusskit.__file__, SRC))
    import numpy
    import pace as pacing
    import tracer as tracing
    import workloads

    workdir = ROOT / ".bench_out" / ("work-%d" % os.getpid())
    workdir.mkdir(parents=True)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        setup_end = time.perf_counter()
        pace = pacing.Pace()
        for _ in range(pacing.NEAR):
            pace.mark()
        setup = {"setup_s": (setup_end - T0) * pace.scale(setup_end),
                 "raw_setup_s": setup_end - T0}
        if args.setup_only:
            print(json.dumps(setup))
            return
        tracer = tracing.Tracer()
        if args.trace:
            passes = run_passes(ops, args.seconds, tracer)
            window = sum(p["wall"] for p in passes)
        else:
            passes, window = run_window(ops, args.seconds, pace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [p for p in passes if p["spans"] is None]
    raw, tail_percentile = timings(op_medians(ops, untraced))
    paced = raw if args.trace else timings(op_medians(ops, untraced, pace))[0]
    out = dict(setup, **paced)
    out.update({
        "raw": raw,
        "reference_ms": [1e3 * min(pace.took), 1e3 * statistics.median(pace.took),
                         1e3 * max(pace.took), len(pace.took)],
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "window_s": window,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tail_percentile": tail_percentile,
        "pass_walls": [p["wall"] for p in passes],
        "machine": {"nproc": len(os.sched_getaffinity(0)), "arch": platform.machine(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
    })
    out.update(verdict_summary(ops, passes, workloads))
    if args.trace:
        traced = [p for p in passes if p["spans"] is not None]
        out["per_layer"] = tracing.per_layer([p["spans"] for p in traced],
                                             [p["wall"] for p in traced],
                                             [p["wall"] for p in untraced])
        spans_path = ROOT / ".bench_out" / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        tracer.write(spans_path, [(i, p["spans"]) for i, p in enumerate(passes)
                                  if p["spans"] is not None])
        out["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
