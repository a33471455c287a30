"""One workload process: import sumrank, build the op list, run it.

    python3 perfbench/worker.py --workload NAME --seed N
                                (--seconds S | --ops N)
                                [--trace --spans PATH] [--setup-only]

Each op is one in-process ``sumrank.cli.main(argv)`` call, closed loop with
one client: the next op starts when the previous one has returned.  An op's
stdout is captured and hashed; its stderr is kept only when it fails.  The
measured phase stops at the first op boundary after ``--seconds``, after
``--ops`` ops, or when the op list ends.  The reference loop of
``calibrate.py`` runs before every op and once after the last; each op's
latency is also reported scaled by the two loop timings around it
(``scaled_s``).

The last line of stdout is one JSON object: ``ready`` (the perf_counter
reading just before the first op; perf_counter is CLOCK_MONOTONIC, so the
parent can subtract its own launch time), ``rss_mb``, ``ops`` and, when
traced, ``trace``.  ``--setup-only`` prints ``ready`` and exits.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def load_cli():
    """Import sumrank from the checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    from sumrank import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"sumrank imported from {cli.__file__}, not {SRC}")
    return cli


def run_op(cli, argv):
    """(latency_s, exit status, stdout text, stderr text) of one op."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a bad argv this way
        status = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an op that raises is a failed op, not a crash
        status = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    return latency, status, out.getvalue(), err.getvalue()


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--ops", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    if not args.setup_only and (args.seconds is None) == (args.ops is None):
        p.error("give exactly one of --seconds and --ops")
    return args


def main(argv=None):
    args = parse_args(argv)
    cli = load_cli()
    sys.path.insert(0, HERE)
    import calibrate
    import workloads
    op_list = workloads.ops(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    limit = len(op_list) if args.ops is None else min(args.ops, len(op_list))
    results = []
    loops = []
    t0 = time.perf_counter()
    for i in range(limit):
        elapsed = time.perf_counter() - t0
        if args.seconds is not None and elapsed >= args.seconds:
            break
        loops.append(calibrate.reference_loop())
        if tracer is not None:
            tracer.op = i
        latency, status, text, err = run_op(cli, op_list[i])
        results.append({
            "key": workloads.op_key(op_list[i]),
            "latency_s": latency,
            "status": status,
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "stderr": err[-500:] if status != 0 else "",
        })
    loops.append(calibrate.reference_loop())
    for op, before, after in zip(results, loops, loops[1:]):
        op["scaled_s"] = calibrate.scaled(op["latency_s"], before, after)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {"ready": ready, "rss_mb": rss_mb, "ops": results}
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
