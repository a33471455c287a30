"""End-to-end runs of the command line harness via main()."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sumrank import cli, counting, metric
from sumrank.cli import CSV_HEADER, build_parser, emit, main, make_record
from sumrank.counting import SpaceParams
from sumrank.galois import field_from_order

from oracles import emit_csv_by_column


def run_cli(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def rows_by_statistic(out):
    reader = csv.reader(io.StringIO(out))
    header = next(reader)
    assert header == CSV_HEADER
    table = {}
    for row in reader:
        rec = dict(zip(header, row))
        table.setdefault(rec["statistic"], []).append(rec)
    return table


def test_volume_small_space(capsys):
    status, out, _ = run_cli(capsys, [
        "volume", "--q", "2", "--m", "2", "--eta", "2", "--ell", "1",
        "--r", "1"])
    assert status == 0
    table = rows_by_statistic(out)
    assert table["sphere_volume"][0]["value"] == "9"
    assert table["sphere_volume"][0]["exact"] == "9"
    assert table["ball_volume"][0]["value"] == "10"
    lower = float(table["ball_lower_logq"][0]["value"])
    upper = float(table["ball_upper_logq"][0]["value"])
    assert lower <= float(table["ball_logq"][0]["value"]) <= upper


def test_capacity_single_point(capsys):
    status, out, _ = run_cli(capsys, ["capacity", "--b", "1", "--rho", "0.5"])
    assert status == 0
    table = rows_by_statistic(out)
    assert float(table["capacity"][0]["value"]) == 0.25
    assert table["capacity"][0]["exact"] == "1/4"
    assert table["penalty"][0]["exact"] == "3/4"
    assert float(table["singleton"][0]["value"]) == 0.5


def test_capacity_grid(capsys):
    status, out, _ = run_cli(capsys, ["capacity", "--m", "2", "--eta", "2",
                                      "--grid", "3"])
    assert status == 0
    table = rows_by_statistic(out)
    assert len(table["capacity"]) == 3
    assert [rec["trial"] for rec in table["capacity"]] == ["0", "1", "2"]
    # rho = 1/4, 2/4, 3/4 with b = 1
    assert table["capacity"][0]["exact"] == "9/16"


def test_capacity_needs_shape(capsys):
    status, _, err = run_cli(capsys, ["capacity", "--rho", "0.5"])
    assert status == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    "capacity --b 1 --m 2 --eta 1 --rho 1/4",
    "capacity --b 1 --eta 1",
    "capacity --b 1 --rho 1/4 --grid 5",
])
def test_capacity_rejects_flags_it_would_ignore(capsys, argv):
    status, out, err = run_cli(capsys, argv.split())
    assert status == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_capacity_grid_defaults_to_19_points(capsys):
    status, out, _ = run_cli(capsys, ["capacity", "--b", "1"])
    assert status == 0
    assert len(rows_by_statistic(out)["capacity"]) == 19


def test_verify_gb_bounds_passes(capsys):
    status, out, _ = run_cli(capsys, ["verify", "gb-bounds", "--q-list", "2",
                                      "--n-max", "5"])
    assert status == 0
    table = rows_by_statistic(out)
    assert all(rec["value"] == "1" for rec in table["gb_bounds_pass"])
    assert len(table["gb_bounds_pass"]) == sum(n + 1 for n in range(6))


def test_verify_volumes_small(capsys):
    status, out, _ = run_cli(capsys, ["verify", "volumes", "--q-list", "2,3",
                                      "--max-space-log", "6"])
    assert status == 0
    table = rows_by_statistic(out)
    assert table["volumes_pass"]
    assert all(rec["value"] == "1" for rec in table["volumes_pass"])


@pytest.mark.parametrize("space_log, work", [
    # the first refused shapes: (1, 1, 512) by its convolution products,
    # (1, 20, 1) by its 2^20 block matrices plus 4 products
    ("1000000", 1048578),
    ("20", 1048580),
])
def test_verify_volumes_prices_the_sweep_before_any_histogram(
        capsys, monkeypatch, space_log, work):
    built = []
    monkeypatch.setattr(cli.metric, "weight_histogram", built.append)
    start = time.perf_counter()
    status, out, err = run_cli(capsys, ["verify", "volumes", "--q-list", "2",
                                        "--max-space-log", space_log])
    assert time.perf_counter() - start < 1.0
    assert (status, out, built) == (3, "", [])
    assert err == (f"guard violation: weight histogram work = {work} "
                   f"exceeds the enumeration limit 1048576\n")


def test_verify_all_output_pinned(capsys):
    status, out, _ = run_cli(capsys, ["verify", "all"])
    assert status == 0
    assert out.count("\n") == 1361
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "e0010a3adb12b257d170e9bbb4217776c5d3ca946596b1bec1cbb0fe3b293313")


def test_guard_violation_exit_code(capsys):
    status, _, err = run_cli(capsys, [
        "chain", "--q", "2", "--gamma", "21", "--set-size", "4",
        "--instances", "1"])
    assert status == 3
    assert err.startswith("guard violation:")


@contextlib.contextmanager
def wall_clock_backstop(seconds):
    """Raise TimeoutError in the test if the block runs past `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Counts at large ell and block size: each finishes or is refused by a
# work guard within the backstop, never left running.
LARGE_COUNT_PROBES = [
    "volume --q 2 --m 2 --eta 2 --ell 100000 --r 10",
    "volume --q 2 --m 64 --eta 64 --ell 1000 --r 100",
    "count-decomposable --q 2 --eta 64 --ell 1000 --w 100",
    "sample ball --q 2 --m 200 --eta 200 --ell 50 --r 100",
    "count-decomposable --q 2 --eta 600 --ell 2 --w 1",
    "count-decomposable --q 2 --eta 400 --ell 3 --w 50",
    "count-decomposable --q 2 --eta 1000 --ell 2 --w 518",
]


@pytest.mark.parametrize("argv", LARGE_COUNT_PROBES)
def test_large_counts_finish_or_are_refused_quickly(capsys, argv):
    with wall_clock_backstop(5):
        status, out, err = run_cli(capsys, argv.split())
    assert status in (0, 3), err
    if status == 3:
        assert out == ""
        assert err.startswith("guard violation:")
        assert err.count("\n") == 1


# The largest shapes inside MAX_COUNT_WORK with the dearest products, and the
# next shape, which the guard refuses: (argv, flag, largest accepted value).
LARGEST_INSIDE_THE_GUARD = [
    ("volume --q 2 --m 45 --eta 45 --ell 50", "--r", 358),
    ("count-decomposable --q 2 --eta 64 --ell 1000", "--w", 11),
]


@pytest.mark.parametrize("argv, flag, largest", LARGEST_INSIDE_THE_GUARD)
def test_largest_count_inside_the_guard_runs_in_its_stated_time(
        capsys, argv, flag, largest):
    # MAX_COUNT_WORK states at most about 2 s on a 2-vCPU VM; the backstop
    # leaves room for a slower machine.
    with wall_clock_backstop(10):
        status, out, err = run_cli(
            capsys, argv.split() + [flag, str(largest)])
    assert status == 0, err
    assert out.startswith(",".join(CSV_HEADER))
    status, out, err = run_cli(capsys, argv.split() + [flag, str(largest + 1)])
    assert status == 3 and out == ""
    assert err.startswith("guard violation:")


def test_nonpositive_gamma_is_reported_before_the_space_size(capsys):
    status, out, err = run_cli(capsys, [
        "chain", "--q", "2", "--gamma", "-2", "--set-size", "3",
        "--instances", "1"])
    assert status == 2
    assert out == ""
    assert err == "error: gamma must be positive\n"


def test_exhaustive_shift_guard_fires_before_the_draw(capsys):
    # 2^40 shifts: drawing the 3,000,000-vector set first took seconds
    start = time.perf_counter()
    status, out, err = run_cli(capsys, [
        "chain", "--q", "2", "--gamma", "40", "--set-size", "3000000",
        "--instances", "1"])
    assert time.perf_counter() - start < 1.0
    assert status == 3
    assert out == ""
    assert err == ("guard violation: shift count = 2^40 exceeds "
                   "the enumeration limit 1048576\n")


def test_guard_on_a_count_past_the_str_digit_limit(capsys):
    # 3^10000 has 4,772 digits, past the interpreter's int-to-str limit;
    # the guard names the power and never builds it
    start = time.perf_counter()
    status, out, err = run_cli(capsys, [
        "chain", "--q", "3", "--gamma", "10000", "--set-size", "3",
        "--instances", "1"])
    assert time.perf_counter() - start < 1.0
    assert status == 3
    assert out == ""
    assert err == ("guard violation: shift count = 3^10000 exceeds the "
                   "enumeration limit 1048576\n")


def test_shift_guard_refuses_a_huge_exponent_before_the_power(capsys):
    # 1021^(10^8) has about 10^9 bits: refused by its exponent, never built
    start = time.perf_counter()
    status, out, err = run_cli(capsys, [
        "chain", "--q", "1021", "--gamma", "100000000", "--set-size", "3",
        "--instances", "1"])
    assert time.perf_counter() - start < 1.0
    assert status == 3
    assert out == ""
    assert err == ("guard violation: shift count = 1021^100000000 exceeds "
                   "the enumeration limit 1048576\n")


def test_general_code_guard_refuses_a_huge_exponent_before_the_power(capsys):
    # a space of 5^(5 * 10^8) points: refused by its exponent, never built
    start = time.perf_counter()
    status, out, err = run_cli(capsys, [
        "sample", "general-code", "--q", "5", "--m", "5", "--eta", "100000",
        "--ell", "1000", "--rate", "1"])
    assert time.perf_counter() - start < 1.0
    assert status == 3
    assert out == ""
    assert err == ("guard violation: code space size = 5^500000000 exceeds "
                   "the enumeration limit 1048576\n")


def test_count_past_the_str_digit_limit_is_written_in_full(capsys):
    params = SpaceParams(field_from_order(1021), 4, 4, 100)
    status, out, _ = run_cli(capsys, [
        "volume", "--q", "1021", "--m", "4", "--eta", "4", "--ell", "100",
        "--r", "400", "--format", "json"])
    assert status == 0
    rec = next(json.loads(line) for line in out.splitlines()
               if '"statistic":"sphere_volume"' in line)
    # digit by digit, from 1000-digit chunks that str() can still write
    rest, chunks = counting.sphere_volume(params, 400), []
    while rest:
        rest, chunk = divmod(rest, 10 ** 1000)
        chunks.append(chunk)
    expected = str(chunks.pop()) + "".join(
        f"{chunk:01000d}" for chunk in reversed(chunks))
    assert len(expected) > 4300
    assert rec["value"] == rec["exact"] == expected


@pytest.mark.parametrize("extra, message", [
    (["--shift-trials", "3"], "--shift-trials needs --mode random"),
    (["--mode", "exhaustive", "--shift-trials", "3"],
     "--shift-trials needs --mode random"),
    (["--mode", "random"], "--mode random needs a positive --shift-trials"),
    (["--mode", "random", "--shift-trials", "0"],
     "--mode random needs a positive --shift-trials"),
])
def test_chain_shift_trials_match_the_mode(capsys, extra, message):
    status, out, err = run_cli(capsys, [
        "chain", "--q", "2", "--gamma", "4", "--set-size", "4",
        "--instances", "1", *extra])
    assert status == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_chain_empty_set_is_an_input_error(capsys):
    status, out, err = run_cli(capsys, [
        "chain", "--q", "2", "--gamma", "4", "--set-size", "0",
        "--instances", "1"])
    assert status == 2
    assert out == ""
    assert err == "error: set_size must be positive\n"


def test_chain_sweep_tables_do_not_grow_with_gamma(capsys):
    # 3^20 shifts: a table indexed by whole codes would hold 3.5e9 entries
    start = time.perf_counter()
    status, out, _ = run_cli(capsys, [
        "chain", "--q", "3", "--gamma", "20", "--set-size", "30",
        "--mode", "random", "--shift-trials", "5", "--instances", "1"])
    assert time.perf_counter() - start < 1.0
    assert status == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "d421b36b3e6e74b0c8b4a5b293a1bfa4e7d7036bb19999694413dcb554a4f37e")


def test_random_search_guard_fires_before_the_draw(capsys):
    # 3 vectors, 3 shifts, gamma = 10^6: the sweep alone ran for minutes
    start = time.perf_counter()
    status, out, err = run_cli(capsys, [
        "chain", "--q", "3", "--gamma", "1000000", "--set-size", "3",
        "--instances", "5", "--mode", "random", "--shift-trials", "3"])
    assert time.perf_counter() - start < 1.0
    assert status == 3
    assert out == ""
    assert err == ("guard violation: random search digit steps = "
                   "12000000000000 exceeds the enumeration limit 1073741824\n")


def test_random_search_runs_at_gamma_2000(capsys):
    status, out, err = run_cli(capsys, [
        "chain", "--q", "3", "--gamma", "2000", "--set-size", "3",
        "--instances", "1", "--mode", "random", "--shift-trials", "3"])
    assert status == 0
    assert err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "a6413b7f8c8d367cec6909fb3d2709c282df05e0aacdbfb939c6ae76982b59c3")


@pytest.mark.parametrize("argv, message", [
    ("count-decomposable --q 4 --eta -1 --ell -1 --w 1", "eta"),
    ("count-decomposable --q 4 --eta 2 --ell 0 --w 0", "ell"),
    ("count-decomposable --q 4 --eta 0 --ell 3 --w 0", "eta"),
    ("sample decomposable --q 2 --eta 0 --ell 2 --w 0", "eta"),
    ("experiment dimension --q 2 --eta 2 --ell -1 --wx 0 --wy 0 "
     "--exact-dim 0 --trials 3", "ell"),
])
def test_nonpositive_eta_or_ell_is_an_input_error(capsys, argv, message):
    status, out, err = run_cli(capsys, argv.split())
    assert status == 2
    assert out == ""
    value = argv.split()[argv.split().index("--" + message) + 1]
    assert err == f"error: {message} must be a positive integer, got {value}\n"


@pytest.mark.parametrize("argv", [
    # --eta and --ell would be read as --eta-max and --ell-max
    "verify decomposable-bounds --q-list 2 --eta 1 --ell 1",
    "chain --q 2 --gamma 4 --set 4 --inst 1"])
def test_abbreviated_flags_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["sample"], ["experiment"], ["sample", "bal"], ["experiment", "lists"]])
def test_target_positional_is_named_target(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "TARGET" in err
    assert "what" not in err


@pytest.mark.parametrize("verb, table", [
    (verb, cli._TARGETS[verb]) for verb in ("sample", "experiment", "verify")])
def test_verb_help_lists_every_target(capsys, verb, table):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    listed = [line.split()[0] for line in out.splitlines()
              if line.startswith("    ") and not line.startswith("     ")]
    assert listed == list(table)


def test_bad_radius_exit_code(capsys):
    status, _, err = run_cli(capsys, [
        "volume", "--q", "2", "--m", "1", "--eta", "1", "--ell", "2",
        "--r", "5"])
    assert status == 2
    assert "error:" in err


def test_argparse_rejects_missing_pieces(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["volume", "--q", "2"])
    capsys.readouterr()


SPACE = ["--q", "2", "--m", "1", "--eta", "1", "--ell", "2"]


@pytest.mark.parametrize("argv, flags", [
    (["sample", "rank-matrix", "--q", "2", "--m", "2", "--eta", "2"],
     ["--r"]),
    (["sample", "subspace", "--q", "2"], ["--ambient", "--dim"]),
    (["sample", "ball", *SPACE], ["--r"]),
    (["sample", "linear-code", *SPACE], ["--rate"]),
    (["experiment", "correlation", *SPACE], ["--rho"]),
    (["experiment", "span-correlation", *SPACE, "--gamma", "2",
      "--bound-factor", "1"], ["--rho"]),
    (["experiment", "list-size", *SPACE, "--rho", "1/4"], ["--eps"]),
])
def test_missing_target_flag_is_an_input_error(capsys, argv, flags):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "error: the following arguments are required: " in captured.err
    assert all(flag in captured.err for flag in flags)


# Each target's argv with every flag it needs and a short run, and the
# flags it takes besides --q, --seed and the output flags.
TARGETS = {
    "ball": ("sample ball --q 2 --m 1 --eta 2 --ell 3 --r 2",
             "--m --eta --ell --r --radius --count"),
    "rank-matrix": ("sample rank-matrix --q 3 --m 2 --eta 2 --r 1",
                    "--m --eta --r --count"),
    "subspace": ("sample subspace --q 4 --ambient 4 --dim 2",
                 "--ambient --dim --count"),
    "decomposable": ("sample decomposable --q 2 --eta 2 --ell 2 --w 2",
                     "--eta --ell --w --count"),
    "linear-code": ("sample linear-code --q 2 --m 1 --eta 1 --ell 4 "
                    "--rate 1/2", "--m --eta --ell --rate --count"),
    "general-code": ("sample general-code --q 2 --m 1 --eta 1 --ell 3 "
                     "--rate 1/3", "--m --eta --ell --rate --count"),
    "correlation": ("experiment correlation --q 2 --m 1 --eta 1 --ell 3 "
                    "--rho 1/3 --trials 20",
                    "--m --eta --ell --rho --center --trials"),
    "dimension": ("experiment dimension --q 2 --eta 2 --ell 2 --wx 2 --wy 2 "
                  "--min-fraction 1/2 --trials 20",
                  "--eta --ell --wx --wy --min-fraction --exact-dim "
                  "--trials"),
    "span-correlation": ("experiment span-correlation --q 2 --m 1 --eta 1 "
                         "--ell 3 --rho 1/3 --gamma 2 --bound-factor 1 "
                         "--trials 20",
                         "--m --eta --ell --rho --gamma --bound-factor "
                         "--trials"),
    "subset-event": ("experiment subset-event --q 2 --m 1 --eta 1 --ell 4 "
                     "--rho 1/2 --vectors 1,0;0,1 --trials 20",
                     "--m --eta --ell --rho --vectors --trials"),
    "list-size": ("experiment list-size --q 2 --m 1 --eta 1 --ell 4 "
                  "--rho 1/4 --eps 1/8 --codes 1",
                  "--m --eta --ell --rho --eps --codes"),
    "volumes": ("verify volumes --q-list 2 --max-space-log 4",
                "--q-list --max-space-log"),
    "gb-bounds": ("verify gb-bounds --q-list 3 --n-max 4", "--q-list --n-max"),
    "volume-bounds": ("verify volume-bounds --q-list 2 --m-max 2 --ell-max 2",
                      "--q-list --m-max --ell-max"),
    "decomposable-bounds": ("verify decomposable-bounds --q-list 2 "
                            "--eta-max 2 --ell-max 2",
                            "--q-list --eta-max --ell-max"),
    "decomposable-dominance": ("verify decomposable-dominance --q-list 3 "
                               "--eta-max 2 --ell-max 2",
                               "--q-list --eta-max --ell-max"),
    "all": ("verify all --q-list 2 --max-space-log 3 --n-max 3 --m-max 2 "
            "--ell-max 2 --eta-max 2",
            "--q-list --max-space-log --n-max --m-max --ell-max --eta-max"),
}

# Every flag each verb took before it had one subcommand per target.
VERB_FLAGS = {
    "sample": "--m --eta --ell --r --w --ambient --dim --rate --count",
    "experiment": "--m --eta --ell --rho --center --wx --wy --min-fraction "
                  "--exact-dim --gamma --bound-factor --vectors --eps "
                  "--codes --trials",
    "verify": "--q-list --max-space-log --n-max --m-max --ell-max --eta-max",
}

FOREIGN_FLAGS = [
    (name, flag)
    for name, (argv, own) in TARGETS.items()
    for flag in VERB_FLAGS[argv.split()[0]].split()
    if flag not in own.split()
] + [("rank-matrix", "--radius")]
# one pair per flag that a target's verb took and the target ignored (verify
# all reads every verify flag), and rank-matrix's --radius, which it read as
# --r
assert len(FOREIGN_FLAGS) == 71 + 17 + 1
assert {name for name, _ in FOREIGN_FLAGS} == set(TARGETS) - {"all"}


@pytest.mark.parametrize("name, flag", FOREIGN_FLAGS,
                         ids=[" ".join(pair) for pair in FOREIGN_FLAGS])
def test_flag_of_another_target_is_an_input_error(capsys, name, flag):
    argv = TARGETS[name][0].split()
    assert main(argv) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"error: unrecognized arguments: {flag} 1\n" in captured.err


def test_options_follow_the_target_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--q", "2", "ball", "--m", "1", "--eta", "2",
              "--ell", "3", "--r", "2"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "sumrank sample: error: " in captured.err


def test_verify_options_follow_the_target_name(capsys):
    # verify took its flags before the target name until each target had
    # its own subcommand
    assert main(["verify", "volumes", "--q-list", "2"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q-list", "2", "volumes"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "sumrank verify: error: " in captured.err


@pytest.mark.parametrize("extra, message", [
    ([], "one of the arguments --min-fraction --exact-dim is required"),
    (["--min-fraction", "1/2", "--exact-dim", "1"],
     "argument --exact-dim: not allowed with argument --min-fraction"),
], ids=["neither", "both"])
def test_dimension_takes_exactly_one_event(capsys, extra, message):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "dimension", "--q", "2", "--eta", "2", "--ell",
              "2", "--wx", "2", "--wy", "2", "--trials", "10", *extra])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith(
        f"sumrank experiment dimension: error: {message}\n")


@pytest.mark.parametrize("name", TARGETS)
def test_target_help_lists_only_its_flags(capsys, name):
    verb = TARGETS[name][0].split()[0]
    with pytest.raises(SystemExit) as exc:
        main([verb, name, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.startswith(f"usage: sumrank {verb} {name} ")
    own = TARGETS[name][1].split()
    always = [] if verb == "verify" else ["--q", "--seed"]
    for flag in VERB_FLAGS[verb].split() + ["--radius", "--q", "--seed"]:
        assert (f" {flag} " in out) == (flag in own + always), flag


def test_vectors_are_parsed_by_the_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(TARGETS["subset-event"][0].replace("0;0", "a;0").split())
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith(
        "error: argument --vectors: not a vector list: '1,a;0,1'\n")


@pytest.mark.parametrize("argv, flag", [
    (["sample", "ball", *SPACE, "--r", "1", "--count", "-3"], "--count"),
    (["experiment", "list-size", *SPACE, "--rho", "1/4", "--eps", "1/8",
      "--codes", "-1"], "--codes"),
    (["chain", "--q", "2", "--gamma", "4", "--set-size", "4",
      "--instances", "-2"], "--instances"),
    (["capacity", "--m", "1", "--eta", "1", "--grid", "-2"], "--grid"),
    (["chain", "--q", "2", "--gamma", "4", "--set-size", "4",
      "--instances", "1", "--mode", "random", "--shift-trials", "-1"],
     "--shift-trials"),
    (["verify", "volumes", "--max-space-log", "-1"], "--max-space-log"),
    (["verify", "gb-bounds", "--n-max", "-1"], "--n-max"),
    (["verify", "volume-bounds", "--m-max", "-1"], "--m-max"),
    (["verify", "decomposable-bounds", "--ell-max", "-1"], "--ell-max"),
    (["verify", "decomposable-dominance", "--eta-max", "-1"], "--eta-max"),
])
def test_negative_count_is_an_input_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"error: argument {flag}: " in captured.err


@pytest.mark.parametrize("argv", [
    ["correlation", *SPACE, "--rho", "1/2"],
    ["dimension", "--q", "2", "--eta", "2", "--ell", "2", "--wx", "2",
     "--wy", "2", "--min-fraction", "1/2"],
    ["span-correlation", *SPACE, "--rho", "1/2", "--gamma", "2",
     "--bound-factor", "1"],
    ["subset-event", *SPACE, "--rho", "1/2", "--vectors", "1,0;0,1"],
], ids=lambda argv: argv[0])
def test_zero_trials_is_an_input_error(capsys, argv):
    status, out, err = run_cli(capsys, ["experiment", *argv, "--trials", "0"])
    assert status == 2
    assert out == ""
    assert err == "error: trials must be positive\n"


@pytest.mark.parametrize("argv", [
    ["capacity", "--q", "6", "--b", "1", "--rho", "1/2"],
    ["verify", "gb-bounds", "--q-list", "6", "--n-max", "1"],
    ["verify", "decomposable-bounds", "--q-list", "2,6", "--eta-max", "1",
     "--ell-max", "1"],
    ["verify", "decomposable-dominance", "--q-list", "6", "--eta-max", "1",
     "--ell-max", "1"],
])
def test_order_that_is_not_a_prime_power_is_an_input_error(capsys, argv):
    status, out, err = run_cli(capsys, argv)
    assert status == 2
    assert out == ""
    assert err == "error: q = 6 is not a prime power\n"


@pytest.mark.parametrize("q_list, message", [
    (",", "empty list: ','"),
    ("", "empty list: ''"),
    ("2,2", "repeated entry: '2,2'"),
    ("3,2,03", "repeated entry: '3,2,03'"),
])
def test_empty_or_repeated_q_list_is_an_input_error(capsys, q_list, message):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "volumes", "--q-list", q_list])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument --q-list: {message}\n")


def test_non_prime_order_needs_no_modulus(capsys):
    status, out, _ = run_cli(capsys, [
        "sample", "subspace", "--q", "32", "--ambient", "2", "--dim", "1"])
    assert status == 0
    assert len(out.splitlines()) == 2


def test_zero_count_emits_only_the_header(capsys):
    status, out, _ = run_cli(capsys, ["sample", "ball", *SPACE, "--r", "1",
                                      "--count", "0"])
    assert status == 0
    assert out == ",".join(CSV_HEADER) + "\n"


def test_list_size_rejects_a_zero_dimension(capsys):
    status, out, err = run_cli(capsys, [
        "experiment", "list-size", *SPACE, "--rho", "1/4", "--eps", "1/8",
        "--codes", "1"])
    assert status == 2
    assert out == ""
    assert err.startswith("error:")
    assert "capacity - eps = 7/16" in err
    assert "dimension 0" in err


def list_size_argv(ell):
    return ["experiment", "list-size", "--q", "2", "--m", "2", "--eta", "2",
            "--ell", str(ell), "--rho", "1/4", "--eps", "1/8", "--codes", "2"]


def test_list_size_past_the_code_space_cap(capsys):
    # 2^24 points; the coset histogram reads only the radius-3 ball
    status, out, err = run_cli(capsys, list_size_argv(6))
    assert status == 0
    assert err == ""
    assert len(rows_by_statistic(out)["max_list_size"]) == 2


@pytest.mark.parametrize("shape, refused", [
    # 715,033,918 ball points at radius 6
    ("--q 2 --m 2 --eta 2 --ell 12 --rho 1/4 --eps 1/8",
     "ball volume = 715033918 exceeds the enumeration limit 1048576"),
    # 2^24 ball points in 2^24 cosets of a k = 1 code
    ("--q 2 --m 1 --eta 1 --ell 25 --rho 1/2 --eps 1/5",
     "ball volume = 16777216 exceeds the enumeration limit 1048576"),
    # 4^12 block ranks, though the radius-1 ball is small
    ("--q 4 --m 4 --eta 3 --ell 1 --rho 1/3 --eps 1/12",
     "block matrix count = 16777216 exceeds the enumeration limit 1048576"),
    # 2 block codes plus 679,121 radius-4 points times 1 + k = 56
    ("--q 2 --m 1 --eta 1 --ell 64 --rho 1/16 --eps 1/64",
     "coset reduction steps = 38030778 exceeds the enumeration limit "
     "33554432")], ids=["ball", "ball-k1", "blocks", "steps"])
def test_list_size_past_the_coset_guard(capsys, shape, refused):
    status, out, err = run_cli(
        capsys, ["experiment", "list-size", *shape.split(), "--codes", "1"])
    assert status == 3
    assert out == ""
    assert err == f"guard violation: {refused}\n"


def test_list_size_guard_fires_before_the_first_code(capsys):
    # 2^900 block matrices: drawing the 11,812 x 27,000 generator first
    # ran for more than 20 s
    argv = ["experiment", "list-size", "--q", "2", "--m", "30", "--eta", "30",
            "--ell", "30", "--rho", "1/4", "--eps", "1/8"]
    start = time.perf_counter()
    status, out, err = run_cli(capsys, [*argv, "--codes", "1"])
    assert time.perf_counter() - start < 1.0
    assert status == 3
    assert out == ""
    assert err == ("guard violation: block matrix count = 2^900 exceeds "
                   "the enumeration limit 1048576\n")
    # with no code to draw there is nothing to refuse
    status, out, err = run_cli(capsys, [*argv, "--codes", "0"])
    assert status == 0
    assert err == ""
    assert set(rows_by_statistic(out)) == {"dimension", "radius"}


# Draws that ran for seconds or more before they were priced from their
# flags; the first three were still running after 20 s under a 3 GB
# address-space limit.
SAMPLES_PRICED_BEFORE_THE_DRAW = [
    pytest.param("sample rank-matrix --q 3 --m 100000 --eta 100000 --r 1",
                 "entries per draw = 10000200000", id="rank-matrix"),
    pytest.param("sample subspace --q 2 --ambient 100000 --dim 50000",
                 "entries per draw = 5000000000", id="subspace"),
    pytest.param("sample linear-code --q 2 --m 30 --eta 30 --ell 30 "
                 "--rate 1/2", "entries per draw = 364500000",
                 id="linear-code"),
    # two rank-500 factors of 10^6 entries, eliminated and multiplied: 46 s
    pytest.param("sample rank-matrix --q 3 --m 1000 --eta 1000 --r 500",
                 "matrix work per draw = 1000000000", id="rank-matrix-work"),
    # 10^7 blocks: still running at 120 s
    pytest.param("sample ball --q 2 --m 1 --eta 1 --ell 10000000 --r 1",
                 "entries per draw = 10000002", id="ball"),
]


@pytest.mark.parametrize("argv, refused", SAMPLES_PRICED_BEFORE_THE_DRAW)
def test_sample_is_priced_before_the_first_draw(capsys, argv, refused):
    start = time.perf_counter()
    status, out, err = run_cli(capsys, [*argv.split(), "--count", "1"])
    assert time.perf_counter() - start < 1.0
    assert status == 3
    assert out == ""
    assert err.startswith(f"guard violation: {refused} exceeds the "
                          "enumeration limit ")
    # with no draw there is nothing to refuse
    status, out, err = run_cli(capsys, [*argv.split(), "--count", "0"])
    assert status == 0
    assert err == ""
    assert out == ",".join(CSV_HEADER) + "\n"


# Ball and decomposable draws price the ell completion powers of their
# rank or dimension composition, ell x (deg + 1) coefficients built in
# Python, before building them: the ball took 44 s, the decomposable draw
# was still running at 100 s.
COMPLETION_POWERS_PRICED_BEFORE_THE_DRAW = [
    pytest.param("sample ball --q 2 --m 1 --eta 1 --ell 2000000 --r 1",
                 "completion power coefficients = 4000000", id="ball"),
    pytest.param("sample decomposable --q 2 --eta 1 --ell 10000000 --w 1",
                 "completion power coefficients = 20000000",
                 id="decomposable"),
]


@pytest.mark.parametrize("argv, refused",
                         COMPLETION_POWERS_PRICED_BEFORE_THE_DRAW)
def test_completion_powers_are_priced_before_they_are_built(capsys, argv,
                                                             refused):
    start = time.perf_counter()
    status, out, err = run_cli(capsys, argv.split())
    assert time.perf_counter() - start < 1.0
    assert status == 3
    assert out == ""
    assert err.startswith(f"guard violation: {refused} exceeds the "
                          "enumeration limit ")


# The largest ell the coefficient cap admits at degree 1 builds its ell
# completion powers once and caches none of them on its own: each argv
# took 6 to 8 s in-process with 524,289 cached powers, and prints the same
# bytes in about 2 s.
COMPLETION_POWERS_AT_THE_CAP = [
    pytest.param("sample ball --q 2 --m 1 --eta 1 --ell 524288 --r 1",
                 "c4f68f76842bb8e62c38ca1824680b59"
                 "081657a89e7df4af90d1c0de238036ed", id="ball"),
    pytest.param("sample decomposable --q 2 --eta 1 --ell 524288 --w 1",
                 "121432e8975ee7dd1f1d10c8ef4ea9b3"
                 "232f317e7898ace74f4999423b9e46b9", id="decomposable"),
]


def test_completion_powers_priced_in_runs_of_tails(capsys):
    # ell times the largest tail's work, 1,072,693,248, refused this draw;
    # the tails priced in 32 runs come to 508,003,328, within the cap
    status, out, err = run_cli(capsys, [
        "sample", "ball", "--q", "2", "--m", "1", "--eta", "1",
        "--ell", "1024", "--r", "512"])
    assert (status, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "16c75a5edeea1d1899819c32c71bbf9c34d0a3be9da458c6460b122a16c94aad")


@pytest.mark.parametrize("argv, digest", COMPLETION_POWERS_AT_THE_CAP)
def test_completion_powers_at_the_cap_cache_one_power(capsys, argv, digest):
    counting._POWERS.clear()
    counting.completion_powers.cache_clear()
    status, out, err = run_cli(capsys, argv.split())
    assert (status, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    # the per-block count vector is (1, 1) for both, read to ell blocks
    assert list(counting._POWERS) == [((1, 1), 524288)]


def test_list_size_prices_each_odd_q_add_by_its_chunks(capsys):
    # 4,001 points reduced against 18 rows, each add 400 chunk steps over
    # a 2,000-digit code: exit 0 after 9 s
    start = time.perf_counter()
    status, out, err = run_cli(capsys, [
        "experiment", "list-size", "--q", "3", "--m", "1", "--eta", "1",
        "--ell", "2000", "--rho", "1/2000", "--eps", "99/100", "--codes", "1"])
    assert time.perf_counter() - start < 1.0
    assert status == 3
    assert out == ""
    assert err.startswith("guard violation: coset reduction steps = "
                          "115232804 exceeds the enumeration limit ")


# Experiments price one draw as sample does: a ball point, or list-size's
# k x mn generator.
EXPERIMENTS_PRICED_BEFORE_THE_DRAW = [
    # points of 3,001,000 entries: exit 0 after 2.6 s
    pytest.param("experiment correlation --q 2 --m 500 --eta 500 --ell 12 "
                 "--rho 1/6000 --trials 2",
                 "entries per draw = 3001000", id="correlation"),
    # a 748 x 1500 generator, drawn for 29 s
    pytest.param("experiment list-size --q 2 --m 1 --eta 1 --ell 1500 "
                 "--rho 1/1500 --eps 1/2 --codes 1",
                 "matrix work per draw = 839256000", id="list-size"),
]


@pytest.mark.parametrize("argv, refused", EXPERIMENTS_PRICED_BEFORE_THE_DRAW)
def test_experiment_is_priced_before_the_first_draw(capsys, argv, refused):
    start = time.perf_counter()
    status, out, err = run_cli(capsys, argv.split())
    assert time.perf_counter() - start < 1.0
    assert status == 3
    assert out == ""
    assert err.startswith(f"guard violation: {refused} exceeds the "
                          "enumeration limit ")


@pytest.mark.parametrize("argv, message", [
    ("sample rank-matrix --q 2 --m 2 --eta 2 --r 3",
     "rank r = 3 outside [0, 2]"),
    ("sample rank-matrix --q 2 --m 10000000 --eta 10000000 --r -1",
     "rank r = -1 outside [0, 10000000]"),
    ("sample subspace --q 2 --ambient 2 --dim 3", "k = 3 outside [0, 2]"),
    ("sample ball --q 2 --m 1 --eta 1 --ell 2 --r 3",
     "radius r = 3 outside [0, 2]"),
])
def test_a_shape_out_of_range_gets_the_samplers_message(capsys, argv,
                                                         message):
    status, out, err = run_cli(capsys, argv.split())
    assert (status, out) == (2, "")
    assert err == f"error: {message}\n"


def test_list_size_walks_a_ball_of_more_blocks_than_the_recursion_limit(
        capsys):
    # one frame per block raised RecursionError, exit 1, from ell = 1,000 on
    status, out, err = run_cli(capsys, [
        "experiment", "list-size", "--q", "2", "--m", "1", "--eta", "1",
        "--ell", "1200", "--rho", "1/1200", "--eps", "99/100", "--codes", "1"])
    assert status == 0
    assert err == ""
    assert len(rows_by_statistic(out)["max_list_size"]) == 1


def test_span_correlation_of_large_draws_is_quick(capsys):
    # each span element decoded from a whole-point code: 48 s
    start = time.perf_counter()
    status, out, err = run_cli(capsys, [
        "experiment", "span-correlation", "--q", "3", "--m", "100",
        "--eta", "100", "--ell", "12", "--rho", "1/1200", "--gamma", "2",
        "--bound-factor", "1/2", "--trials", "1"])
    assert time.perf_counter() - start < 2.0
    assert status == 0
    assert err == ""
    assert rows_by_statistic(out)["successes"][0]["value"] == "1"


def test_correlation_without_center_builds_no_zero_point(capsys):
    # a point of 10^8 entries: building the zero center took 8 s before
    # the sampler's guard refused the draw
    start = time.perf_counter()
    status, out, err = run_cli(capsys, [
        "experiment", "correlation", "--q", "2", "--m", "1000",
        "--eta", "1000", "--ell", "100", "--rho", "1/2", "--trials", "1"])
    assert time.perf_counter() - start < 1.0
    assert status == 3
    assert out == ""
    assert err.startswith("guard violation: ")


@pytest.mark.parametrize("q", ["2", "3"])
def test_correlation_center_is_priced_before_it_is_built(capsys, q):
    # a center of 4 * 10^6 entries: built before the draws were priced, it
    # took 0.8 s at q = 2 and 1.3 s at q = 3 to reach the same refusal
    argv = ["experiment", "correlation", "--q", q, "--m", "200",
            "--eta", "200", "--ell", "100", "--rho", "1/2", "--trials", "1"]
    status, out, refused = run_cli(capsys, argv)
    assert status == 3 and out == ""
    start = time.perf_counter()
    status, out, err = run_cli(capsys, [*argv, "--center", "0"])
    assert time.perf_counter() - start < 1.0
    assert status == 3
    assert out == ""
    assert err == refused
    # a center outside the space is still an input error where it fits
    status, out, err = run_cli(capsys, [
        "experiment", "correlation", "--q", q, "--m", "1", "--eta", "1",
        "--ell", "2", "--rho", "1/2", "--trials", "1",
        "--center", str(int(q) ** 2)])
    assert status == 2
    assert out == ""
    assert err == f"error: code {int(q) ** 2} outside [0, {int(q) ** 2})\n"


@pytest.mark.parametrize("argv, status, message", [
    # the 10^7-entry center was built before the estimator refused the run:
    # still running after 20 s
    pytest.param("experiment correlation --q 3 --m 100000 --eta 100 "
                 "--ell 1 --rho 1/2 --center 0 --trials 0", 2,
                 "error: trials must be positive", id="center-no-trials"),
    # 10^9 ball points drawn before the span's guard: still running at 10 s
    pytest.param("experiment span-correlation --q 7 --m 3 --eta 3 --ell 2 "
                 "--rho 2/3 --gamma 1000000000 --bound-factor 2/3 --trials 2",
                 3, "guard violation: span combination count = 7^1000000000 "
                 "exceeds the enumeration limit 1048576", id="gamma"),
])
def test_an_experiment_refuses_before_building_its_inputs(capsys, argv,
                                                          status, message):
    start = time.perf_counter()
    with wall_clock_backstop(5):
        result = run_cli(capsys, argv.split())
    assert time.perf_counter() - start < 1.0
    assert result == (status, "", message + "\n")


def drawer_cache_sizes():
    return (metric._ball_drawer.cache_info().currsize,
            metric._block_drawers.cache_info().currsize)


# Shapes no other test draws from, so a drawer built here would be new.
@pytest.mark.parametrize("argv, status", [
    pytest.param("sample ball --q 2 --m 1 --eta 1 --ell 2000000 --r 1", 3,
                 id="ball-refused-in-its-draw"),
    pytest.param("sample ball --q 2 --m 1 --eta 2097152 --ell 1 --r 1", 3,
                 id="ball-refused-before-its-draw"),
    pytest.param("sample rank-matrix --q 2 --m 1 --eta 2097152 --r 1", 3,
                 id="rank-matrix-refused"),
    pytest.param("sample rank-matrix --q 2 --m 1 --eta 2097152 --r 2", 2,
                 id="rank-out-of-range"),
    pytest.param("sample ball --q 11 --m 3 --eta 2 --ell 5 --r 4 "
                 "--count 0", 0, id="ball-no-draws"),
    pytest.param("sample rank-matrix --q 11 --m 3 --eta 4 --r 2 --count 0",
                 0, id="rank-matrix-no-draws"),
    pytest.param("experiment correlation --q 3 --m 100000 --eta 100 "
                 "--ell 1 --rho 1/2 --center 0 --trials 0", 2,
                 id="correlation-no-trials"),
    pytest.param("experiment subset-event --q 11 --m 3 --eta 2 --ell 5 "
                 "--rho 1/2 --vectors 2 --trials 0", 2,
                 id="subset-event-no-trials"),
])
def test_a_refused_or_empty_run_builds_no_drawer(capsys, argv, status):
    before = drawer_cache_sizes()
    assert run_cli(capsys, argv.split())[0] == status
    assert drawer_cache_sizes() == before


def test_a_first_draw_builds_each_drawer_once(capsys):
    argv = "sample ball --q 13 --m 3 --eta 2 --ell 5 --r 4 --count 3".split()
    before = drawer_cache_sizes()
    assert run_cli(capsys, argv)[0] == 0
    assert drawer_cache_sizes() == (before[0] + 1, before[1] + 1)
    assert run_cli(capsys, argv)[0] == 0
    assert drawer_cache_sizes() == (before[0] + 1, before[1] + 1)


def test_the_long_line_ball_draw_keeps_its_bytes(capsys):
    # re-admitted when completion powers were priced in runs of tails
    status, out, err = run_cli(capsys, [
        "sample", "ball", "--q", "2", "--m", "1", "--eta", "1",
        "--ell", "1024", "--r", "512", "--count", "1"])
    assert (status, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "16c75a5edeea1d1899819c32c71bbf9c34d0a3be9da458c6460b122a16c94aad")


@pytest.mark.parametrize("q", ["2", "3"])
def test_correlation_center_zero_matches_the_default(capsys, q):
    argv = ["experiment", "correlation", "--q", q, "--m", "2", "--eta", "2",
            "--ell", "2", "--rho", "1/2", "--trials", "60"]
    cells = ("value", "exact", "ci_low", "ci_high", "trials", "seed")
    tables = []
    for extra in ([], ["--center", "0"]):
        status, out, err = run_cli(capsys, [*argv, *extra])
        assert status == 0 and err == ""
        table = rows_by_statistic(out)
        assert set(table) == {"correlation_probability", "successes"}
        tables.append({name: [[rec[c] for c in cells] for rec in recs]
                       for name, recs in table.items()})
    assert tables[0] == tables[1]


# One small op per sample target and per experiment, with the sha256 and
# line count of its stdout; every record config and draw is pinned.
@pytest.mark.parametrize("argv, lines, digest", [
    ("sample ball --q 2 --m 1 --eta 2 --ell 3 --r 2 --count 4", 5,
     "fafc68730fd5559ebc0d9eb9b016b77f3e92c54b44ecb7e23c86bd224ae20dde"),
    ("sample rank-matrix --q 3 --m 2 --eta 2 --r 1 --count 3", 4,
     "1dbae20eeef9c409a77d5be40b26faf05514ae5bbde499851c8ad759b54f2516"),
    ("sample subspace --q 4 --ambient 4 --dim 2 --count 2", 3,
     "627d2eb57e4c5a2f99ea6ee78b3448d05eb96ea7e6d42c8459024a86a466e941"),
    ("sample decomposable --q 2 --eta 2 --ell 2 --w 2 --count 3 "
     "--format json", 3,
     "8859ce7493fdbbd2e1ce77098c8462a00976a11c01969e953144f57c9d87e926"),
    ("sample linear-code --q 2 --m 1 --eta 1 --ell 4 --rate 1/2 --count 2",
     3, "dcfb053ceed5f20a1ef7e02101f9ff8c19e2029626655b2e3f0ccee39115c032"),
    ("sample general-code --q 2 --m 1 --eta 1 --ell 3 --rate 1/3 --count 2 "
     "--format json", 2,
     "bc46745574d21567dd0bde7e948298b4c03f13800b391d6ed6b65afa92aaaa0b"),
    ("experiment correlation --q 2 --m 1 --eta 1 --ell 3 --rho 1/3 "
     "--center 5 --trials 200", 3,
     "96303d168922cb01000c9c7b6432ab37d6d0e60106a3e110650a6fc3f43e80d4"),
    ("experiment dimension --q 2 --eta 2 --ell 2 --wx 2 --wy 2 "
     "--min-fraction 1/2 --trials 100 --format json", 3,
     "decdcb0c232a4ecb764782fd6019b084f0935c437c816518325cbc0813876ab2"),
    ("experiment dimension --q 3 --eta 2 --ell 1 --wx 1 --wy 1 "
     "--exact-dim 0 --trials 50", 4,
     "a0f72afd4663cddb9d69a05b0bc2ef7167505299e67edd8bf685d523230297f8"),
    ("experiment span-correlation --q 2 --m 1 --eta 1 --ell 3 --rho 1/3 "
     "--gamma 2 --bound-factor 1 --trials 100", 3,
     "e0bc0426c268070f74ee529f57b4855cd8fd89ff8c672d7466cf66211b1bdd18"),
    ("experiment subset-event --q 2 --m 1 --eta 1 --ell 4 --rho 1/2 "
     "--vectors 1,0;0,1 --trials 100", 3,
     "9aa17ef1ee329c1a2edf8ac1c060dc7c50ee9a854a124f6f9a199a55fdfd9ed1"),
    ("experiment list-size --q 2 --m 1 --eta 1 --ell 4 --rho 1/4 --eps 1/8 "
     "--codes 3 --format json", 10,
     "83bb39ebf5f6c78e00b3a9278efade1e0a39d5053c11e68169c612792ca0917a"),
    # the full-rank sampler at powers of two, where randrange redraws half
    # its words, and at a large prime
    ("sample rank-matrix --q 8 --m 3 --eta 4 --r 2 --count 5", 6,
     "f33851f904450d07bd74582f55331ee43dcf81385db59c7ffb63e62243d6aeb8"),
    ("sample rank-matrix --q 1021 --m 2 --eta 3 --r 2 --count 3", 4,
     "e59548f5ef7824c24c88bc0ef77276ad38ace57fcd03dc0173bde99f2d8a2b28"),
    ("sample subspace --q 16 --ambient 5 --dim 3 --count 3", 4,
     "563cf125a431b6fc58a5094814bde9358944b98d864a53285a2ab8e8898f10bf"),
    ("sample ball --q 2 --m 3 --eta 3 --ell 2 --r 3 --count 5", 6,
     "3a425ef0a37953810ca7f2ed0464bde4a50d3b17bc6939dcc96a9fdba0eea54f"),
    ("sample linear-code --q 4 --m 2 --eta 2 --ell 2 --rate 1/2 --count 2",
     3, "0962defa9d03b354a0eff635f12bd4543c49f227d2bd87291ce50ef9a7938ae4"),
])
def test_sample_and_experiment_output_pinned(capsys, argv, lines, digest):
    status, out, _ = run_cli(capsys, argv.split())
    assert status == 0
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_sample_ball_deterministic(capsys):
    argv = ["sample", "ball", "--q", "2", "--m", "1", "--eta", "1",
            "--ell", "4", "--r", "2", "--count", "5"]
    status, first, _ = run_cli(capsys, argv)
    assert status == 0
    status, second, _ = run_cli(capsys, argv)
    assert first == second
    table = rows_by_statistic(first)
    assert len(table["ball"]) == 5
    for rec in table["ball"]:
        code = int(rec["value"])
        assert 0 <= code < 16
        assert bin(code).count("1") <= 2


def test_sample_seed_changes_output(capsys):
    base = ["sample", "ball", "--q", "2", "--m", "1", "--eta", "1",
            "--ell", "4", "--r", "2", "--count", "8"]
    _, first, _ = run_cli(capsys, base)
    _, second, _ = run_cli(capsys, base + ["--seed", "2"])
    assert first != second


def test_sample_linear_code_json(capsys):
    status, out, _ = run_cli(capsys, [
        "sample", "linear-code", "--q", "2", "--m", "1", "--eta", "1",
        "--ell", "4", "--rate", "1/2", "--count", "2", "--format", "json"])
    assert status == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    for line in lines:
        rec = json.loads(line)
        assert rec["verb"] == "sample"
        assert rec["config"]["rate"] == "1/2"
        blob = json.loads(rec["value"])
        assert blob["kind"] == "linear"
        assert len(blob["basis"]) == 2


def test_experiment_correlation_records(capsys):
    status, out, _ = run_cli(capsys, [
        "experiment", "correlation", "--q", "2", "--m", "1", "--eta", "1",
        "--ell", "4", "--rho", "1/2", "--trials", "400"])
    assert status == 0
    table = rows_by_statistic(out)
    rec = table["correlation_probability"][0]
    est = float(rec["value"])
    assert float(rec["ci_low"]) <= est <= float(rec["ci_high"])
    assert rec["trials"] == "400"
    successes = int(table["successes"][0]["value"])
    assert successes == round(est * 400)


def test_experiment_dimension_records(capsys):
    status, out, _ = run_cli(capsys, [
        "experiment", "dimension", "--q", "2", "--eta", "2", "--ell", "1",
        "--wx", "1", "--wy", "1", "--min-fraction", "1",
        "--trials", "300"])
    assert status == 0
    table = rows_by_statistic(out)
    assert "event_probability" in table
    assert "mean_value" in table
    # two uniform lines of F_2^2 meet only when equal: probability 1/3
    est = float(table["event_probability"][0]["value"])
    assert 0.15 < est < 0.55


def test_experiment_subset_event_identity(capsys):
    status, out, _ = run_cli(capsys, [
        "experiment", "subset-event", "--q", "2", "--m", "1", "--eta", "1",
        "--ell", "4", "--rho", "1/2", "--vectors", "1,0;0,1",
        "--trials", "100"])
    assert status == 0
    table = rows_by_statistic(out)
    assert float(table["subset_event_probability"][0]["value"]) == 1.0


def test_chain_records(capsys):
    status, out, _ = run_cli(capsys, [
        "chain", "--q", "2", "--gamma", "6", "--set-size", "16",
        "--instances", "2"])
    assert status == 0
    table = rows_by_statistic(out)
    assert len(table["target"]) == 2
    assert all(rec["value"] == "1" for rec in table["target"])
    assert all(rec["value"] == "1" for rec in table["achieved"])
    agg = table["instances_achieved"][0]
    assert agg["value"] == "2"
    assert agg["trials"] == "2"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "run.csv"
    argv = ["volume", "--q", "2", "--m", "1", "--eta", "1", "--ell", "3",
            "--r", "1"]
    status, _, _ = run_cli(capsys, argv + ["--out", str(target)])
    assert status == 0
    assert capsys.readouterr().out == ""
    status, direct, _ = run_cli(capsys, argv)
    assert target.read_text() == direct


def test_out_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SUMRANK_OUT_DIR", str(tmp_path))
    status, _, _ = run_cli(capsys, [
        "capacity", "--b", "1", "--rho", "1/4", "--out", "cap.csv"])
    assert status == 0
    assert (tmp_path / "cap.csv").exists()
    # absolute paths ignore the env base
    absolute = tmp_path / "abs.csv"
    run_cli(capsys, ["capacity", "--b", "1", "--rho", "1/4",
                     "--out", str(absolute)])
    assert absolute.exists()


def test_timing_opt_in(capsys):
    argv = ["capacity", "--b", "1", "--rho", "1/2"]
    _, plain, _ = run_cli(capsys, argv)
    _, timed, _ = run_cli(capsys, argv + ["--timing"])
    for rec in rows_by_statistic(plain)["capacity"]:
        assert rec["runtime"] == ""
    for rec in rows_by_statistic(timed)["capacity"]:
        assert float(rec["runtime"]) >= 0.0


def test_emit_empty_and_bad_format():
    assert emit([], "csv", path="/dev/null").strip() == ",".join(CSV_HEADER)
    with pytest.raises(ValueError):
        emit([make_record("v", "s", 1, {})], "yaml", path="/dev/null")


def test_emit_csv_matches_the_per_cell_writer(tmp_path):
    shared = {"q": 3, "mode": "exhaustive", "rho": "1/4"}
    other = {"q": 5, "nested": {"b": [1, 2], "a": None}}
    values = [None, True, False, 0.1, 2.5e-300, Fraction(3, 7),
              Fraction(-1, 3 ** 40), 7 ** 2000, -12, "text, quoted \""]

    def run(configs):
        # several records per trial, out of order, so emit's sort matters
        return [make_record("v", f"s{i % 3}", value, config, trial=i % 4,
                            ci=(0.25, 1 / 3) if i % 2 else None, trials=i,
                            seed=None if i % 3 else 9)
                for i, (value, config) in enumerate(zip(values, configs))]
    n = len(values)
    cases = {
        "shared": [shared] * n,
        "equal": [dict(shared) for _ in range(n)],
        "alternating": [(shared, other)[i % 2] for i in range(n)],
        "empty": [{}] * n,
    }
    for name, configs in cases.items():
        records = run(configs)
        want = emit_csv_by_column(records)
        assert emit(records, "csv", path=str(tmp_path / name)) == want, name
        assert (tmp_path / name).read_text() == want


def test_make_record_converts_a_count_to_decimal_once(monkeypatch):
    calls = []
    digits = cli._digits
    monkeypatch.setattr(cli, "_digits", lambda n: calls.append(n) or digits(n))
    count = 7 ** 6000  # past the int-to-str limit
    rec = make_record("v", "s", count, {})
    assert calls == [count]
    assert rec["value"] == rec["exact"] == digits(count)
    calls.clear()
    rec = make_record("v", "s", 3, {}, exact=Fraction(3, 2 ** 20000))
    assert calls == [3, 3, 2 ** 20000]
    assert rec["exact"] == f"3/{digits(2 ** 20000)}"


# 2^2127 - 1 is the narrowest int with more than 640 digits.
@pytest.mark.parametrize("bits", [0, 1, 64, 1998, 1999, 2000, 2001, 2127,
                                  4095, 4096, 4097, 8192, 8193, 20000, 70001])
def test_digits_match_str_on_both_sides_of_the_split(bits):
    # str(n) below 2,000 bits, Decimal to 4,096 and the split past it, with
    # no int-to-str limit and with 640, the lowest one the interpreter
    # accepts; negatives, and a bool as its int
    rng = random.Random(bits)
    values = [sign * n for n in (rng.getrandbits(bits), 1 << bits,
                                 (1 << bits) - 1) for sign in (1, -1)]
    values.append(bits % 2 == 1)
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)  # str() itself past 4,300 digits
        expected = [str(int(n)) for n in values]
        for digits_limit in (0, 640):
            sys.set_int_max_str_digits(digits_limit)
            assert [cli._digits(n) for n in values] == expected
    finally:
        sys.set_int_max_str_digits(limit)


def test_rerun_byte_identical(capsys):
    argv = ["experiment", "correlation", "--q", "2", "--m", "1", "--eta", "1",
            "--ell", "3", "--rho", "1/3", "--trials", "200"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def run_op(capsys, argv):
    """(status, stdout, stderr) of one main call, argparse exits included."""
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


# One op of every verb, verify with and without --q-list, help, argparse
# errors, a runner's input error and a guard violation.
ONE_PROCESS_OPS = [
    ["volume", "--q", "2", "--m", "2", "--eta", "2", "--ell", "1", "--r", "1"],
    ["count-decomposable", "--q", "3", "--eta", "2", "--ell", "2", "--w", "2"],
    ["capacity", "--b", "1", "--rho", "1/2", "--format", "json"],
    ["verify", "gb-bounds", "--q-list", "5", "--n-max", "3"],
    ["verify", "gb-bounds", "--n-max", "2"],
    ["verify", "volumes", "--q-list", "2,2"],
    ["sample", "ball", "--q", "2", "--m", "1", "--eta", "2", "--ell", "3",
     "--r", "2", "--count", "4"],
    ["experiment", "correlation", "--q", "2", "--m", "1", "--eta", "1",
     "--ell", "3", "--rho", "1/3", "--trials", "50"],
    ["chain", "--q", "2", "--gamma", "6", "--set-size", "16",
     "--instances", "2"],
    ["--help"],
    ["volume", "--help"],
    ["sample", "ball", "--help"],
    [],
    ["experiment", "list-size", "--q", "2", "--m", "1", "--eta", "1",
     "--ell", "4", "--rho", "1/4", "--eps", "1/8", "--trials", "5"],
    ["capacity", "--rho", "0.5"],
    ["chain", "--q", "2", "--gamma", "21", "--set-size", "4",
     "--instances", "1"],
]


def test_one_process_prints_what_fresh_runs_print(capsys):
    fresh = []
    for argv in ONE_PROCESS_OPS:
        build_parser.cache_clear()
        fresh.append(run_op(capsys, argv))
    assert [status for status, _, _ in fresh] == [
        0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 2, 2, 2, 3]
    build_parser.cache_clear()
    order = list(range(len(ONE_PROCESS_OPS)))
    for i in order + order[::-1]:
        assert run_op(capsys, ONE_PROCESS_OPS[i]) == fresh[i], \
            ONE_PROCESS_OPS[i]


def test_parser_is_not_rebuilt(capsys, monkeypatch):
    argv = ["capacity", "--b", "1", "--rho", "1/2"]
    main(argv)
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == []


def test_no_runtime_dependency():
    import sumrank
    src = os.path.dirname(os.path.dirname(os.path.abspath(sumrank.__file__)))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sumrank.cli, sys; print('mpmath' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True)
    assert out.stdout == "False\n"
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(src), "pyproject.toml"),
              "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


# -- every row of the table under drawn flags ---------------------------------

# Values drawn for each flag type, the usable ones first and more often,
# then out-of-range and malformed text; "-1/2" reads as an option, so
# argparse refuses it too.  10^9 is past every cap: a guard or an input
# check must refuse it at once (an unpriced --gamma drew 10^9 points, an
# unpriced verify sweep ran for minutes).
_INTS = st.sampled_from(["1", "2", "3", "1", "2", "0", "-1", "1000000000"])
FUZZ_VALUES = {
    int: _INTS,
    cli._count: _INTS,
    cli._fraction: st.sampled_from(["1/4", "1/8", "1/2", "1/3", "2/3",
                                    "1/16", "0", "1", "3/2", "-1/2", "1/0",
                                    "x", ""]),
    cli._vectors: st.sampled_from(["1,0;0,1", "1,1", "1;1", "2,1;1,2",
                                   "1,0;0,1;1,1", "0,0", "1,0,1", "", ";",
                                   "1,a", "1,,0"]),
    cli._int_list: st.sampled_from(["2", "3", "2,3", "4", "5,7", "16", "6",
                                    "2,2", "", ",", "1000000000"]),
    str: st.sampled_from(["exhaustive", "random", "random", "x"]),
}
# Prime powers, then orders that are not.
FUZZ_Q = ["2", "3", "4", "2", "3", "5", "7", "8", "9", "16", "0", "1", "6",
          "12", "-2"]
# The largest run count drawn: a run count has no run-level price.
FUZZ_RUNS = {"count": 3, "trials": 20, "codes": 2, "grid": 3, "instances": 2}


@st.composite
def target_argvs(draw):
    verb, name = draw(st.sampled_from([
        (verb, name) for verb, rows in cli._TARGETS.items()
        for name in rows]))
    _, flags, optional, runs, *_ = cli._TARGETS[verb][name]
    argv = [verb] if name is None else [verb, name]
    for key in flags + tuple(key for key in optional + runs[1:]
                             if draw(st.booleans())):
        if isinstance(key, tuple):
            key = draw(st.sampled_from(key))
        kind = (cli._FLAGS.get((verb, key)) or cli._FLAGS[key])[1]["type"]
        argv += ["--" + key.replace("_", "-"),
                 draw(st.sampled_from(FUZZ_Q) if key == "q"
                      else FUZZ_VALUES[kind])]
    if runs:
        argv += ["--" + runs[0], str(draw(st.integers(0, FUZZ_RUNS[runs[0]])))]
    return argv


# Most drawn argvs are input errors, so the test draws 1,600 of them to run
# every row to exit 0 too; it takes about 5 s.
@settings(max_examples=1600)
@given(target_argvs())
def test_every_target_exits_cleanly_on_drawn_flags(argv):
    out, err = io.StringIO(), io.StringIO()
    with wall_clock_backstop(10), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse refusing a flag
            status = exc.code
    # an exception other than SystemExit fails the test with its traceback;
    # exit 1, a failed check, is verify's alone
    assert status in ((0, 1, 2, 3) if argv[0] == "verify" else (0, 2, 3)), \
        (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert status in (0, 1) or out.getvalue() == "", argv


# -- one runner for every row ------------------------------------------------

# An argv that each row with an admit runs to exit 0 (the TARGETS argvs in
# test_flag_of_another_target_is_an_input_error, the chain's in
# test_chain_records).
ADMITTED = {(argv.split()[0], name): argv
            for name, (argv, _) in TARGETS.items()}
ADMITTED["chain", None] = "chain --q 2 --gamma 6 --set-size 16 --instances 2"


@pytest.mark.parametrize("verb, name", [
    (verb, name) for verb, rows in cli._TARGETS.items()
    for name, row in rows.items() if row[5] is not None])
def test_a_refusing_admit_leaves_the_records_uncalled(capsys, monkeypatch,
                                                       verb, name):
    # the mutation "a guard moved after its work": the runner calls the
    # records only after the admit
    called = []

    def refuse(space, args):
        raise cli.GuardError("refused")
    row = cli._TARGETS[verb][name]
    monkeypatch.setitem(cli._TARGETS[verb], name, (
        *row[:5], refuse, lambda *run: called.append(run)))
    status, out, err = run_cli(capsys, ADMITTED[verb, name].split())
    assert (status, out, err, called) == (
        3, "", "guard violation: refused\n", [])


# -- verify sweeps priced from their flags -----------------------------------

# Sweeps that ran for minutes, or would never end, before each was priced
# as a whole: the admit sums the Gaussian-binomial rows and block-sum
# powers the sweep builds.  Each check is patched to record its calls.
SWEEPS_PRICED_BEFORE_THE_FIRST_CASE = [
    # exit 0 after 554 s
    pytest.param("verify decomposable-dominance --ell-max 100",
                 "decomposable_le_grassmannian",
                 "sweep work through decomposable_dominance_pass = 543083413",
                 id="dominance"),
    pytest.param("verify gb-bounds --n-max 1000000000",
                 "gaussian_binomial_bounds_ok",
                 "sweep work through gb_bounds_pass = 538640980", id="gb"),
    pytest.param("verify decomposable-bounds --eta-max 1000000000 "
                 "--ell-max 1", "decomposable_bounds_ok",
                 "sweep work through decomposable_bounds_pass = 548335709",
                 id="bounds-eta"),
    pytest.param("verify all --q-list 2 --ell-max 1000000000",
                 "sphere_bounds_ok",
                 "sweep work through volume_bounds_pass = 537104562",
                 id="all"),
]


@pytest.mark.parametrize("argv, check, refused",
                         SWEEPS_PRICED_BEFORE_THE_FIRST_CASE)
def test_verify_is_priced_before_its_first_case(capsys, monkeypatch, argv,
                                                 check, refused):
    calls = []
    monkeypatch.setattr(counting, check, lambda *case: calls.append(case))
    start = time.perf_counter()
    with wall_clock_backstop(5):
        status, out, err = run_cli(capsys, argv.split())
    assert time.perf_counter() - start < 1.0
    assert (status, out, calls) == (3, "", [])
    assert err == (f"guard violation: {refused} exceeds the enumeration "
                   "limit 536870912\n")


def test_the_largest_admitted_dominance_sweep_prints_what_it_did():
    # --ell-max 20 is the largest the price admits at the default flags
    # (0.2 s); 21 is refused
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main("verify decomposable-dominance --ell-max 20".split()) == 0
    assert out.getvalue().count("\n") == 9061
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == (
        "9d2bc7478a9f910c1ac4d28475022e77e2b490cfbf2230069b332d4272050bdd")
    with contextlib.redirect_stderr(io.StringIO()):
        assert main("verify decomposable-dominance --ell-max 21".split()) == 3


def test_chain_random_mode_past_the_exact_cap_is_undecided(capsys):
    # greedy misses the target at 2^21 shifts, past the exact search's cap:
    # the run exited 3 there after its draw and greedy search
    start = time.perf_counter()
    status, out, err = run_cli(capsys, [
        "chain", "--q", "2", "--gamma", "21", "--set-size", "65536",
        "--mode", "random", "--shift-trials", "10", "--instances", "1"])
    assert time.perf_counter() - start < 1.0
    assert (status, err) == (0, "")
    table = rows_by_statistic(out)
    assert int(table["greedy_length"][0]["value"]) < int(
        table["target"][0]["value"])
    assert [table[name][0]["value"] for name in (
        "achieved", "exact_used", "exact_length", "instances_achieved")] == [
        "", "0", "", "0"]
