"""The byte contract: every op that a benchmark workload can deal prints the
stdout whose sha256 perfbench/golden/<workload>.json records.

Each op of ``workloads.bank(workload)`` runs in this process through
``record_golden.digests``, as ``perfbench/record_golden.py --check`` runs
it.  Nothing under perfbench/ is written.
"""

import json
import os
import sys

import pytest

from sumrank import cli

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.append(PERFBENCH)

import record_golden  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_bank_op_prints_its_golden_bytes(workload):
    with open(os.path.join(PERFBENCH, "golden", f"{workload}.json"),
              encoding="utf-8") as fh:
        want = json.load(fh)
    got = record_golden.digests(cli, workload)
    differ = sorted(key for key in set(got) | set(want)
                    if got.get(key) != want.get(key))
    assert (len(got), differ) == (len(want), [])
