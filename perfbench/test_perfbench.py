"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

They check the published baseline digests, that every op a seed can draw
has a golden digest, that tracing covers its functions and changes no
output, that op bytes do not depend on hash seed or on cache state left by
earlier ops, that the acceptance-rate check flags a biased sampler, and
that timings are scaled by the reference loop.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

CLI = worker.load_cli()

# ROADMAP item 1 baseline commands with their published stdout sha256[:12].
BASELINES = [
    ("verify all", "e0010a3adb12"),
    ("volume --q 2 --m 2 --eta 2 --ell 10 --r 10", "83a4c7eeaa32"),
    ("experiment correlation --q 2 --m 1 --eta 1 --ell 4 --rho 1/2 "
     "--trials 10000", "7a29dec99e68"),
    ("experiment dimension --q 2 --eta 4 --ell 5 --wx 10 --wy 10 "
     "--min-fraction 1/2 --trials 200", "71773f00c04d"),
    ("chain --q 2 --gamma 8 --set-size 64 --instances 100", "d80ca18afc0e"),
    ("sample ball --q 2 --m 4 --eta 4 --ell 8 --r 8 --count 1000",
     "604024a6cb43"),
    ("experiment list-size --q 2 --m 2 --eta 2 --ell 2 --rho 1/4 --eps 1/8 "
     "--codes 200", "fdbf6c98bd8c"),
]


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden(workload):
    with open(os.path.join(HERE, "golden", f"{workload}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def first_round(workload):
    """Enough ops from the default seed to visit every slot once."""
    n = len(workloads.slots(workload)) + (workload == "large-field")
    return n


def run_worker(*args, env=None):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                           *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("command,digest", BASELINES)
def test_baseline_digests(command, digest):
    _, status, text, err = worker.run_op(CLI, command.split())
    assert status == 0, err
    assert sha(text)[:12] == digest


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_drawable_op_has_a_golden(workload):
    want = golden(workload)
    keys = {workloads.op_key(op) for op in workloads.bank(workload)}
    assert keys == set(want)
    for seed in (workloads.DEFAULT_SEED, 7, 123456):
        assert {workloads.op_key(op)
                for op in workloads.ops(workload, seed)} <= keys


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_lists_are_seeded(workload):
    a = workloads.ops(workload, 5)
    assert a == workloads.ops(workload, 5)
    assert a != workloads.ops(workload, 6)


def test_exact_counts_never_repeats_a_shape():
    ops = [workloads.op_key(op) for op in workloads.ops("exact-counts", 3)]
    assert len(ops) == len(set(ops))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_trace_covers_its_functions_and_changes_nothing(workload):
    n = str(first_round(workload))
    one = run_worker("--workload", workload, "--seed", "1", "--ops", n,
                     "--trace")
    two = run_worker("--workload", workload, "--seed", "1", "--ops", n,
                     "--trace")
    calls = {k: v for k, v in one["trace"].items() if k.endswith(".calls")}
    missing = [name for name in workloads.EXERCISED[workload]
               if calls[f"{name}.calls"] == 0]
    assert not missing
    assert calls == {k: v for k, v in two["trace"].items()
                     if k.endswith(".calls")}
    want = golden(workload)
    for op in one["ops"]:
        assert op["status"] == 0, op
        assert op["sha256"] == want[op["key"]], op["key"]


def test_traced_lru_functions_keep_cache_info():
    counting = sys.modules["sumrank.counting"]
    metric = sys.modules["sumrank.metric"]
    orig = counting.sphere_volume
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert counting.sphere_volume is not orig
        assert metric.sphere_volume is counting.sphere_volume
        assert counting.sphere_volume.cache_info() == orig.cache_info()
        assert sys.modules["sumrank.cli"].field_from_order is \
            sys.modules["sumrank.galois"].field_from_order
    finally:
        tracer.uninstall()
    assert counting.sphere_volume is orig and metric.sphere_volume is orig


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_bytes_ignore_hash_seed_and_cache_state(workload):
    op_list = workloads.ops(workload, workloads.DEFAULT_SEED)
    n = first_round(workload)
    # Run a round in-process first so the caches hold earlier shapes.
    for argv in op_list[:n]:
        worker.run_op(CLI, argv)
    probe = op_list[n - 1]
    _, status, text, _ = worker.run_op(CLI, probe)
    assert status == 0
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.path.join(ROOT, "src"))
        fresh = subprocess.run([sys.executable, "-m", "sumrank.cli", *probe],
                               cwd=ROOT, capture_output=True, text=True,
                               env=env, timeout=300)
        assert fresh.returncode == 0, fresh.stderr
        assert sha(fresh.stdout) == sha(text)


def test_full_rank_probability_matches_enumeration():
    from itertools import product
    field = sys.modules["sumrank.galois"].field_from_order(3)
    linalg = sys.modules["sumrank.linalg"]
    for nrows, ncols in ((2, 3), (3, 2), (2, 2)):
        full = total = 0
        for cells in product(range(3), repeat=nrows * ncols):
            rows = [cells[i * ncols:(i + 1) * ncols] for i in range(nrows)]
            total += 1
            full += linalg._rank_rows(field, rows) == min(nrows, ncols)
        assert tracing.full_rank_probability(3, nrows, ncols) == \
            pytest.approx(full / total, rel=1e-12)


def test_acceptance_flag_fires_only_on_a_biased_sampler():
    tracer = tracing.Tracer()
    tracer.full_rank_samples = 8_000
    tracer.full_rank_inverse_p = 8_000 / 0.8
    tracer.full_rank_evals = 10_000
    assert tracer.summary()["linalg.sample_full_rank.accept_flag"] == 0
    tracer.full_rank_evals = 10_600  # observed 0.755 against 0.8
    assert tracer.summary()["linalg.sample_full_rank.accept_flag"] == 1
    low, high = tracing.wilson(8_000, 10_000)
    assert low < 0.8 < high


def test_scaled_times_refer_to_reference_speed():
    ref = calibrate.REFERENCE_S
    assert calibrate.scaled(0.5, ref, ref) == pytest.approx(0.5)
    assert calibrate.scaled(0.5, 2 * ref, 2 * ref) == pytest.approx(0.25)
    assert calibrate.scaled(0.5, ref, 3 * ref) == pytest.approx(0.25)
    assert calibrate.reference_loop() > 0


def test_worker_scales_every_op():
    rep = run_worker("--workload", "mc-estimators", "--seed", "1", "--ops",
                     "3")
    assert len(rep["ops"]) == 3
    for op in rep["ops"]:
        # The loop timings around one op differ by far less than 100x.
        assert 0.01 < op["scaled_s"] / op["latency_s"] < 100


def test_run_reports_every_metric():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", "exhaustive-oracles", "--seconds",
                           "1"], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert "fail_ratio=0 ratio" in lines[-2]


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_sources():
    bare = os.path.join(ROOT, ".perfbench_out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py",
                               "--workload", "mc-estimators", "--seconds",
                               "1"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
