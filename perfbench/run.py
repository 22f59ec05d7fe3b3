"""trusskit benchmark: time to verdict on two workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ideals --seed 1 --seconds 20 --trace 0

Each run starts a fresh single-threaded child process (``child.py``) that
imports trusskit from ``src/``, builds the workload from the seed and runs
passes over its operation list for ``--seconds``.  With ``--trace 0`` four
more children only set up, and the median of the five set-up times is
``setup_s``.  With ``--trace 1`` the run reports the per-layer metrics of
``BENCHMARK.json`` instead of the end-to-end ones.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5


def child(args, extra, timeout):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
            "--seed", str(args.seed)] + extra
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit("benchmark child exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "trusskit" / "__init__.py").is_file():
        sys.exit("no trusskit sources under %s" % (ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit("unknown workload %r" % args.workload)

    run = child(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                timeout=args.seconds + 90)
    if args.trace:
        metrics = run["per_layer"]
        wanted = spec["per_layer"]
    else:
        setups = [run]
        while len(setups) < SETUP_SAMPLES:
            setups.append(child(args, ["--setup-only"], timeout=30))
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "run_s": {"value": run["run_s"], "unit": "s"},
            "op_p50_ms": {"value": run["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": run["op_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
        wanted = spec["end_to_end"]
    if sorted((k, m["unit"]) for k, m in metrics.items()) != sorted(
            (m["name"], m["unit"]) for m in wanted):
        sys.exit("metrics %s do not match BENCHMARK.json" % sorted(metrics))

    fail_ratio = run["failed"] / run["attempted"]
    print("workload %s  seed %d  seconds %d  trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("machine  %s" % json.dumps(run["machine"], sort_keys=True))
    print("%.1f s measured  passes %d  operations run %d  op_tail_ms is p%.1f of N=%d "
          "operations" % (run["window_s"], run["passes"], run["executions"],
                          run["tail_percentile"], run["ops_per_pass"]))
    print("reference job (ms): min %.3f  median %.3f  max %.3f  over %d marks" %
          tuple(run["reference_ms"]))
    if not args.trace:
        print("set-up samples (s): paced %s  raw %s" % (
            " ".join("%.3f" % s["setup_s"] for s in setups),
            " ".join("%.3f" % s["raw_setup_s"] for s in setups)))
        print("raw (unpaced) run_s %.6f s  op_p50_ms %.6f ms  op_tail_ms %.6f ms" % (
            run["raw"]["run_s"], run["raw"]["op_p50_ms"], run["raw"]["op_tail_ms"]))
    print("pass wall times (s): %s%s" % (" ".join("%.3f" % w for w in run["pass_walls"]),
                                          "  (odd passes traced)" if args.trace else
                                          "  (the last one may be cut short)"))
    for name, m in metrics.items():
        print("%-28s %14.6f %s" % (name, m["value"], m["unit"]))
    print("%-28s %14.6f %s  (%d of %d operations wrong in at least one run)" % (
        "fail_ratio", fail_ratio, "1", run["failed"], run["attempted"]))
    for name, d in sorted(run["known_defects"].items()):
        print("known defect %s: %d failed operations; %s" % (name, d["count"], d["what"]))
    for u in run["unexpected"]:
        print("UNEXPECTED %s" % json.dumps(u, sort_keys=True))
    if "spans_file" in run:
        print("spans written to %s" % run["spans_file"])
    print(json.dumps({"correct": run["unexpected_count"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
