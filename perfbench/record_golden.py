"""Record the golden stdout digest of every op a workload can produce.

    python3 perfbench/record_golden.py [WORKLOAD ...]          # rewrite
    python3 perfbench/record_golden.py --check [WORKLOAD ...]  # compare only

Runs each op of ``workloads.bank()`` in-process and writes
``golden/<workload>.json`` as {op key: sha256 of stdout}.  Refuses to record
an op that fails.  Record only from a commit whose outputs are trusted: the
goldens are what the benchmark's correctness check compares against.
"""

import argparse
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402
import workloads  # noqa: E402


def digests(cli, workload):
    out = {}
    for argv in workloads.bank(workload):
        _, status, text, err = worker.run_op(cli, argv)
        key = workloads.op_key(argv)
        if status != 0:
            raise SystemExit(f"{workload}: op failed ({status}): {key}\n{err}")
        out[key] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    p.add_argument("--check", action="store_true")
    args = p.parse_args(argv)
    cli = worker.load_cli()
    status = 0
    for name in args.workloads:
        path = os.path.join(HERE, "golden", f"{name}.json")
        got = digests(cli, name)
        if args.check:
            with open(path, encoding="utf-8") as fh:
                want = json.load(fh)
            diff = sorted(k for k in set(got) | set(want)
                          if got.get(k) != want.get(k))
            print(f"{name}: {len(got)} ops, {len(diff)} differ")
            status |= bool(diff)
            continue
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(got, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{name}: recorded {len(got)} ops")
    return status


if __name__ == "__main__":
    sys.exit(main())
