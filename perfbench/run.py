"""sumrank benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1]

Untraced (``--trace 0``): several short worker launches measure set-up
time, then one worker process runs the workload's op list closed loop for
``--seconds``.  Every op's stdout digest is checked against
``golden/<workload>.json``.  Times are scaled to reference machine speed by
the loop in ``calibrate.py``, timed next to each op and each launch.
Prints ops_per_s, op_p50_ms, op_p90_ms, setup_s, peak_rss_mb and
fail_ratio by name with units, with the unscaled times beside them, and as
the last line one JSON object with the end-to-end metrics.

Traced (``--trace 1``): an untraced worker runs for a third of ``--seconds``,
then a traced worker runs exactly the same ops.  The last line carries the
per-layer metrics, including ``trace.overhead_ratio`` (traced over untraced
scaled time of the same ops); spans go to ``.perfbench_out/``.

Exits non-zero, printing no result, when the checkout holds no sumrank
sources or a worker crashes.  See README.md in this directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
GOLDEN_DIR = os.path.join(HERE, "golden")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKER_TIMEOUT_S = 150
# Fresh processes that only set up; their median is setup_s.  One more,
# untimed, goes first so that compiling bytecode is not counted.
SETUP_LAUNCHES = 9

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class WorkerError(RuntimeError):
    pass


def run_worker(workload, seed, *extra):
    """Launch one worker; return (its report, launch perf_counter)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           *extra]
    launched = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no report")
    return json.loads(lines[-1]), launched


def load_golden(workload):
    path = os.path.join(GOLDEN_DIR, f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def failures(ops, golden):
    """Ops that raised, exited non-zero, or printed other bytes."""
    bad = []
    for op in ops:
        if op["status"] != 0:
            bad.append((op["key"], f"status {op['status']}: {op['stderr']}"))
        elif golden.get(op["key"]) != op["sha256"]:
            bad.append((op["key"], "stdout digest differs from golden"))
    return bad


def setup_time(workload, seed):
    """Seconds from launching a worker to its first op: (scaled, unscaled)."""
    before = calibrate.reference_loop()
    rep, launched = run_worker(workload, seed, "--setup-only")
    after = calibrate.reference_loop()
    seconds = rep["ready"] - launched
    return calibrate.scaled(seconds, before, after), seconds


def summarize(lat):
    """ops_per_s, op_p50_ms and op_p90_ms of a list of op latencies in s."""
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1000.0,
        "op_p90_ms": (statistics.quantiles(lat, n=10)[-1] if len(lat) > 1
                      else lat[0]) * 1000.0,
    }


def untraced(workload, seed, seconds):
    run_worker(workload, seed, "--setup-only")
    setups = [setup_time(workload, seed) for _ in range(SETUP_LAUNCHES)]
    report, _ = run_worker(workload, seed, "--seconds", str(seconds))
    if not report["ops"]:
        raise WorkerError("no op completed")
    lat = [op["scaled_s"] for op in report["ops"]]
    metrics = summarize(lat)
    metrics["setup_s"] = statistics.median(s for s, _ in setups)
    metrics["peak_rss_mb"] = report["rss_mb"]
    beyond_p90 = sum(1 for x in lat if x * 1000.0 > metrics["op_p90_ms"])
    if beyond_p90 < 10:
        print(f"warning: {workload}: only {beyond_p90} ops beyond p90; "
              f"op_p90_ms is not resolved at this run length", file=sys.stderr)
    unscaled = summarize([op["latency_s"] for op in report["ops"]])
    unscaled["setup_s"] = statistics.median(raw for _, raw in setups)
    return report["ops"], {k: {"value": metrics[k], "unit": u}
                           for k, u in END_TO_END}, unscaled


def traced(workload, seed, seconds):
    base, _ = run_worker(workload, seed, "--seconds", str(seconds / 3.0))
    n = len(base["ops"])
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.csv")
    rep, _ = run_worker(workload, seed, "--ops", str(n), "--trace",
                        "--spans", spans)
    values = dict(rep["trace"])
    values["trace.overhead_ratio"] = (
        sum(op["scaled_s"] for op in rep["ops"])
        / sum(op["scaled_s"] for op in base["ops"][:len(rep["ops"])]))
    if values["linalg.sample_full_rank.accept_flag"]:
        print(f"warning: {workload}: sample_full_rank acceptance "
              f"{values['linalg.sample_full_rank.accept_ratio']:.6f} has a "
              f"99.9% Wilson interval that excludes the exact "
              f"{values['linalg.sample_full_rank.accept_expected']:.6f}",
              file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in tracing.per_layer_names()}
    return base["ops"] + rep["ops"], metrics, {}


def run_workload(workload, seed, seconds, trace):
    """(result object, unscaled timings to print beside it)."""
    golden = load_golden(workload)
    ops, metrics, unscaled = (traced if trace else untraced)(workload, seed,
                                                             seconds)
    bad = failures(ops, golden)
    for key, why in bad[:5]:
        print(f"FAILED {workload}: {key}: {why}", file=sys.stderr)
    return {"correct": not bad, "attempted": len(ops), "failed": len(bad),
            "metrics": metrics}, unscaled


def describe(workload, result, unscaled):
    parts = [workload]
    for name, m in result["metrics"].items():
        raw = (f" (unscaled {unscaled[name]:.6g})" if name in unscaled
               else "")
        parts.append(f"{name}={m['value']:.6g} {m['unit']}{raw}")
    parts.append(f"fail_ratio={result['failed'] / result['attempted']:.6g} "
                 f"ratio ({result['failed']}/{result['attempted']} ops)")
    return "  ".join(parts)


def pin_to_one_cpu():
    """Keep this process and the workers it starts on one CPU.

    The CPUs of a shared host are slowed by different neighbours, so the
    reference loop scales an interval well only when both ran on the same
    CPU.  Where affinity cannot be set, the benchmark runs unpinned.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "sumrank")):
        print(f"error: no sumrank sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    pin_to_one_cpu()
    results = {}
    try:
        for name in names:
            results[name], unscaled = run_workload(name, args.seed,
                                                   args.seconds,
                                                   bool(args.trace))
            print(describe(name, results[name], unscaled), flush=True)
    except (WorkerError, subprocess.TimeoutExpired, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
