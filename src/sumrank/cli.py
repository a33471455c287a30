"""Command line harness: seeded experiments emitting CSV or JSON lines.

Every run produces a list of flat records with one fixed schema, sorted by
(trial, statistic) so output is byte-identical for a given configuration
and master seed.  Counts are serialized as decimal strings (they exceed
every native integer width long before the guards trip), probabilities as
floats rounded to 12 significant digits, and exact rationals ride along as
"num/den" strings in the `exact` column.

Verbs: volume, count-decomposable, capacity, verify, sample, experiment,
chain.  Every verb is a row of one table, read by one runner and made into
the parser by one loop; verify, sample and experiment have a row and a
subcommand per target, so `sumrank verify gb-bounds --help` lists that
target's flags, and one it does not read, or one given before the target
name, is an input error.  A row's admit prices the run from its flags before
its first case or draw; a verify run sums the work of the rows and powers
its sweeps build, and past MAX_COUNT_WORK exits 3 with "sweep work through
<statistic> = N".  Records carry no timing by default; opt in with --timing,
which fills the runtime column and gives up byte-stable reruns.
"""

import argparse
import csv
import decimal
import functools
import io
import json
import operator
import os
import sys
import time
from fractions import Fraction

from . import chains, codes, counting, decomposable, guards, linalg, metric
from .counting import SpaceParams
from .galois import field_from_order
from .guards import GuardError, require_within
from .montecarlo import DEFAULT_MASTER_SEED, RandomStream

CSV_HEADER = ["verb", "statistic", "trial", "value", "exact", "ci_low",
              "ci_high", "trials", "seed", "runtime", "config"]

_OUT_DIR_ENV = "SUMRANK_OUT_DIR"

# Keys sorted, no spaces; built once, as json.dumps builds an encoder on
# every call that passes options.
_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


# -- record construction ---------------------------------------------------

def _sig12(x):
    return float(f"{float(x):.12g}")


_DIRECT_BITS = 4096  # below this, Decimal(n) is the faster conversion


def _digits(n):
    """Decimal digits of an int or bool, past the int-to-str limit too.

    Int-to-decimal conversion is quadratic in CPython, so a wide int is
    split by a power of two (a linear shift) and the halves recombined as
    hi * 2^h + lo in decimal, whose multiply is subquadratic.
    """
    n = int(n)
    if n.bit_length() <= _DIRECT_BITS:
        return str(decimal.Decimal(n))
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(_split_to_decimal(n, {}))


def _split_to_decimal(n, powers):
    # Splits at the largest power of two h below the bit length, so every
    # split at one depth shares its 2^h, built once into powers.
    bits = n.bit_length()
    if bits <= _DIRECT_BITS:
        return decimal.Decimal(n)
    h = 1 << ((bits - 1).bit_length() - 1)
    if h not in powers:
        powers[h] = decimal.Decimal(2) ** h
    return (_split_to_decimal(n >> h, powers) * powers[h]
            + _split_to_decimal(n & ((1 << h) - 1), powers))


def _value_cell(v):
    """Counts as decimal strings, floats trimmed to 12 significant digits."""
    if isinstance(v, int):
        return _digits(v)
    if isinstance(v, (Fraction, float)):
        return _sig12(v)
    return None if v is None else str(v)


def _exact_cell(v):
    if isinstance(v, Fraction):
        return f"{_digits(v.numerator)}/{_digits(v.denominator)}"
    return _digits(v) if isinstance(v, int) else None


def make_record(verb, statistic, value, config, trial=-1, exact=None,
                ci=None, trials=None, seed=None):
    value_cell = _value_cell(value)
    if exact is None and isinstance(value, int):
        exact_cell = value_cell  # a count is converted to decimal once
    else:
        exact_cell = _exact_cell(value if exact is None else exact)
    return {
        "verb": verb,
        "statistic": statistic,
        "trial": trial,
        "value": value_cell,
        "exact": exact_cell,
        "ci_low": None if ci is None else _sig12(ci[0]),
        "ci_high": None if ci is None else _sig12(ci[1]),
        "trials": trials,
        "seed": seed,
        "runtime": None,
        "config": config,
    }


def emit(records, fmt, path=None):
    """Write records, sorted by (trial, statistic), as CSV or JSON lines.

    CSV always starts with the fixed header, so an empty run still emits
    one line.  JSON emits one object per record with keys sorted, nested
    config included, which round-trips exactly.
    """
    records = sorted(records, key=lambda r: (r["trial"], r["statistic"]))
    buf = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        cells = operator.itemgetter(*CSV_HEADER[:-1])  # config comes last
        cfg = encoded = None
        for rec in records:
            # the records of one run share one config dict: encode it once
            if encoded is None or rec["config"] is not cfg:
                cfg = rec["config"]
                encoded = _compact(cfg)
            writer.writerow((*cells(rec), encoded))
    elif fmt == "json":
        for rec in records:
            buf.write(_compact(rec))
            buf.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    text = buf.getvalue()
    if path is None:
        sys.stdout.write(text)
    else:
        base = os.environ.get(_OUT_DIR_ENV)
        if base and not os.path.isabs(path):
            path = os.path.join(base, path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


# -- shared argument plumbing ----------------------------------------------

def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _int_list(text):
    """Distinct ints, comma separated, at least one."""
    try:
        values = tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an int list: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"empty list: {text!r}")
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError(f"repeated entry: {text!r}")
    return values


def _count(text):
    """A non-negative int: a count of 0 is an empty run, not an error.  A
    non-int gets the message argparse gives for type=int."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _vectors(text):
    """Rows of ints like 1,0;0,1;1,1; an empty row is skipped."""
    try:
        return tuple(tuple(int(c) for c in row.split(","))
                     for row in text.split(";") if row)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"not a vector list: {text!r}") from exc


def _field_of(args):
    return field_from_order(args.q)


def _space_of(args):
    return SpaceParams(field=_field_of(args), m=args.m, eta=args.eta,
                       ell=args.ell)


def _flag(kind, text, *aliases, **extra):
    """A flag's extra option strings and its add_argument keywords."""
    return aliases, dict(type=kind, help=text, **extra)


# Every flag by dest, which is also the record-config key and, with - for _,
# the option; (verb, dest) entries give that verb its own help or default.
_FLAGS = {
    "q": _flag(int, "field order, a prime power"),
    "m": _flag(int, "block row count"),
    "eta": _flag(int, "block column count"),
    "ell": _flag(int, "number of blocks"),
    "radius": _flag(int, "ball radius", "--r"),
    "r": _flag(int, "matrix rank"),
    "w": _flag(int, "total dimension"),
    "ambient": _flag(int, "ambient dimension"),
    "dim": _flag(int, "subspace dimension"),
    "rate": _flag(_fraction, "code rate as a fraction"),
    "rho": _flag(_fraction, "relative radius in (0,1)"),
    "center": _flag(int, "center point code (default zero)"),
    "wx": _flag(int, "first total dimension"),
    "wy": _flag(int, "second total dimension"),
    "min_fraction": _flag(_fraction, "event dim >= ceil(fraction * wx)"),
    "exact_dim": _flag(int, "event dim == this"),
    "gamma": _flag(int, "number of draws per trial"),
    "bound_factor": _flag(_fraction, "threshold factor on gamma"),
    "vectors": _flag(_vectors, "coefficient rows like 1,0;0,1"),
    "eps": _flag(_fraction, "capacity gap"),
    "b": _flag(_fraction, "shape ratio eta/m as a fraction"),
    "set_size": _flag(int, "vectors per instance"),
    "c": _flag(int, "required new support per step (default 2)", default=2),
    "q_list": _flag(_int_list, "field orders to sweep (default 2,3)",
                    default=(2, 3)),
    "max_space_log": _flag(_count, "volumes: cap q^(m eta ell) at 2^this "
                                   "(default 12)", default=12),
    "n_max": _flag(_count, "gb-bounds: largest n (default 8)", default=8),
    "m_max": _flag(_count, "volume-bounds: largest m = eta (default 4)",
                   default=4),
    "ell_max": _flag(_count, "largest block count (default 4)", default=4),
    "eta_max": _flag(_count, "decomposable sweeps: largest eta (default 6)",
                     default=6),
    ("volume", "r"): _flag(int, "radius"),
    ("capacity", "q"): _flag(int, "field order (default 2)", default=2),
    ("capacity", "m"): _flag(int, "block rows"),
    ("capacity", "eta"): _flag(int, "block columns"),
    ("capacity", "rho"): _flag(_fraction, "single relative radius in (0,1)"),
    ("chain", "gamma"): _flag(int, "ambient vector length"),
    "count": _flag(_count, "number of draws (default 1)", default=1),
    "trials": _flag(int, "trial count (default 10000)", default=10000),
    "codes": _flag(_count, "number of sampled codes (default 100)",
                   default=100),
    "grid": _flag(_count, "interior grid points i/(grid+1) when --rho "
                          "absent (default 19)"),
    "instances": _flag(_count, "random instances (default 100)",
                       default=100),
    "mode": _flag(str, "shift search mode", choices=("exhaustive", "random"),
                  default="exhaustive"),
    "shift_trials": _flag(_count, "random mode: shifts to try"),
    "seed": _flag(int, f"master seed (default {DEFAULT_MASTER_SEED})",
                  default=DEFAULT_MASTER_SEED),
}


def _record_config(args, runs):
    """Each flag given but the run flags, rationals as num/den and --vectors
    rows as 1,0;0,1."""
    cfg = {}
    for key, value in vars(args).items():
        if key == "vectors":
            value = ";".join(",".join(map(str, row)) for row in value)
        if key in _FLAGS and key not in runs and value is not None:
            cfg[key] = str(value) if isinstance(value, Fraction) else value
    return cfg


# -- verbs: volume, count-decomposable, capacity ----------------------------

def _volume_records(params, args, stream, cfg):
    r = args.r
    sphere = counting.sphere_volume(params, r)
    ball = counting.ball_volume(params, r)
    s_lo, s_hi = counting.sphere_bounds_logq(params, r)
    b_lo, b_hi = counting.ball_bounds_logq(params, r)
    return [make_record("volume", name, value, cfg) for name, value in (
        ("sphere_volume", sphere), ("ball_volume", ball),
        ("sphere_logq", counting.logq_int(sphere, params.q)),
        ("sphere_lower_logq", s_lo), ("sphere_upper_logq", s_hi),
        ("ball_logq", counting.logq_int(ball, params.q)),
        ("ball_lower_logq", b_lo), ("ball_upper_logq", b_hi))], 0


def _count_decomposable_records(field, args, stream, cfg):
    q, eta, ell, w = field.q, args.eta, args.ell, args.w
    count = counting.decomposable_count(eta, ell, w, q)
    grass = counting.gaussian_binomial(eta * ell, w, q)
    lo, hi = counting.decomposable_bounds_logq(eta, ell, w, q)
    return [make_record("count-decomposable", name, value, cfg)
            for name, value in (
                ("decomposable_count", count), ("grassmannian_count", grass),
                ("decomposable_logq", counting.logq_int(count, q)),
                ("lower_logq", lo), ("upper_logq", hi),
                ("dominated", count <= grass))], 0


def _capacity_records(field, args, stream, cfg):
    if args.b is not None and (args.m is not None or args.eta is not None):
        raise ValueError("capacity takes --b or --m and --eta, not both")
    if args.rho is not None and args.grid is not None:
        raise ValueError("capacity takes --rho or --grid, not both")
    if args.b is None and (args.m is None or args.eta is None):
        raise ValueError("capacity needs --b, or both --m and --eta")
    b = Fraction(args.eta, args.m) if args.b is None else args.b
    steps = 19 if args.grid is None else args.grid
    points = ([args.rho] if args.rho is not None else
              [Fraction(i, steps + 1) for i in range(1, steps + 1)])
    records = []
    for trial, rho in enumerate(points):
        cfg = {"q": field.q, "b": str(b), "rho": str(rho)}
        records += [make_record("capacity", name, value, cfg, trial=trial)
                    for name, value in (
                        ("capacity", counting.list_decoding_capacity(rho, b)),
                        ("penalty", counting.capacity_penalty(rho, b)),
                        ("entropy_capacity",
                         1 - counting.q_ary_entropy(rho, field.q)),
                        ("singleton", 1 - rho))]
    return records, 0


# -- verb: verify ----------------------------------------------------------
#
# A sweep yields, in the order its cases run, groups (records, price,
# cases) over the fields of --q-list: price() is the work of the
# Gaussian-binomial row or block-sum power the cases build first, as its own
# guard prices it, and cases lazily yields (config, verdict), reading the
# sweep's loop variables, so each group is read before the next.  A
# per-block vector is priced in a group of its own before it is built.

@functools.lru_cache(maxsize=None)
def _volume_shapes(field, space_log):
    """Every shape with q^(m eta ell) at most 2^space_log, each priced by
    the histogram guard, found once per process.  Each loop stops at its
    first value past the cap, as every larger one is past it too."""
    def fits(n):  # q^n <= 2^space_log, never building 2^space_log
        return n <= space_log and (field.q ** n - 1).bit_length() <= space_log
    shapes = []
    for m in range(1, space_log + 1):
        if not fits(m):
            break
        for eta in range(1, space_log + 1):
            if not fits(m * eta):
                break
            for ell in range(1, space_log + 1):
                if not fits(m * eta * ell):
                    break
                shapes.append(SpaceParams(field=field, m=m, eta=eta, ell=ell))
                metric.require_histogram_within(shapes[-1])
    return tuple(shapes)


def _volumes(fields, args):
    """Histograms against sphere volumes, priced per shape (int() is 0)."""
    for field in fields:
        shapes = _volume_shapes(field, args.max_space_log)
        yield len(shapes), int, _volume_cases(shapes)


def _volume_cases(shapes):
    # _volume_shapes walks ell upward from 1 for each (m, eta), so a shape
    # with ell > 1 follows the same blocks at ell - 1, whose histogram one
    # convolution extends.
    hist = None
    for p in shapes:
        hist = metric.weight_histogram(p, hist if p.ell > 1 else None)
        yield ({"q": p.q, "m": p.m, "eta": p.eta, "ell": p.ell},
               all(hist[r] == counting.sphere_volume(p, r)
                   for r in range(p.max_weight + 1)))


def _binomials_work(n, q):
    """The work of gaussian_binomial(n, k, q), k = 0..n: rows to n // 2."""
    return sum((1 + (2 * k < n)) * counting.binomial_work(n, k, q)
               for k in range(n // 2 + 1))


def _gb_bounds(fields, args):
    for q in (field.q for field in fields):
        for n in range(0, args.n_max + 1):
            yield n + 1, functools.partial(_binomials_work, n, q), (
                ({"q": q, "n": n, "k": k},
                 counting.gaussian_binomial_bounds_ok(n, k, q))
                for k in range(0, n + 1))


def _volume_bounds(fields, args):
    for field in fields:
        for side in range(1, args.m_max + 1):
            yield 0, functools.partial(counting.binomial_work, side, side,
                                       field.q, side), ()
            base = counting.rank_count_vector(side, side, field.q)
            for ell in range(1, args.ell_max + 1):
                params = SpaceParams(field=field, m=side, eta=side, ell=ell)
                yield side * ell + 1, functools.partial(
                    counting.power_work, base, ell, side * ell), (
                    ({"q": field.q, "m": side, "eta": side, "ell": ell,
                      "r": r}, counting.sphere_bounds_ok(params, r)
                     and counting.ball_bounds_ok(params, r))
                    for r in range(side * ell + 1))


def _decomposable(check, rows=None):
    """counting.<check>(eta, ell, w, q) over the (q, eta, ell, w) grid: a row
    per (q, eta), a power per (q, eta, ell), and rows(n, q) per (eta, ell)."""
    def sweep(fields, args):
        verdict = getattr(counting, check)
        for q in (field.q for field in fields):
            for eta in range(1, args.eta_max + 1):
                yield 0, functools.partial(counting.binomial_work, eta,
                                           eta // 2, q), ()
                base = counting.grassmannian_vector(eta, q)
                for ell in range(1, args.ell_max + 1):
                    n = eta * ell
                    yield 0, functools.partial(counting.power_work, base,
                                               ell, n), ()
                    yield n + 1, (functools.partial(rows, n, q) if rows
                                  else int), (
                        ({"q": q, "eta": eta, "ell": ell, "w": w},
                         verdict(eta, ell, w, q)) for w in range(n + 1))
    return sweep


def _verify(text, flags, *sweeps):
    """The row of a verify target, whose sweeps (statistic, groups) run in
    turn.  The admit refuses it at the first group that takes the summed
    price past MAX_COUNT_WORK, or the records held past MAX_SWEEP."""
    def admit(fields, args):
        work = held = 0
        for statistic, sweep in sweeps:
            for records, price, _ in sweep(fields, args):
                work += price()
                held += records
                if work > guards.MAX_COUNT_WORK or held > guards.MAX_SWEEP:
                    require_within(work, guards.MAX_COUNT_WORK,
                                   f"sweep work through {statistic}")
                    require_within(held, guards.MAX_SWEEP,
                                   f"sweep records through {statistic}")

    def records(fields, args, stream, cfg):
        recs, failed = [], False
        for statistic, sweep in sweeps:
            for _, _, cases in sweep(fields, args):
                for config, good in cases:
                    failed = failed or not good
                    recs.append(make_record("verify", statistic, good,
                                            config))
        return recs, int(failed)
    return (text, (), ("q_list", *flags), (),
            lambda args: [field_from_order(q) for q in args.q_list], admit,
            records)


_VOLUMES = ("volumes_pass", _volumes)
_GB_BOUNDS = ("gb_bounds_pass", _gb_bounds)
_VOLUME_BOUNDS = ("volume_bounds_pass", _volume_bounds)
_DECOMPOSABLE_BOUNDS = ("decomposable_bounds_pass",
                        _decomposable("decomposable_bounds_ok"))
_DOMINANCE = ("decomposable_dominance_pass",
              _decomposable("decomposable_le_grassmannian", _binomials_work))


# -- verbs: sample and experiment ------------------------------------------

def _draws(draw):
    """Records of --count draws, each one draw(space, args, rng) from its
    child stream: a point code or compact JSON."""
    def records(space, args, stream, cfg):
        return [make_record("sample", args.what,
                            draw(space, args, stream.child(i)), cfg, trial=i,
                            seed=args.seed)
                for i in range(args.count)], 0
    return records


def _estimator(statistic, estimate):
    """Records of one Monte Carlo estimate: the probability under the given
    statistic name, its successes, and the mean value when there is one."""
    def records(space, args, stream, cfg):
        est = estimate(space, args, stream)
        seed = args.seed
        recs = [
            make_record("experiment", statistic, est.estimate, cfg,
                        ci=(est.ci_low, est.ci_high), trials=est.trials,
                        seed=seed),
            make_record("experiment", "successes", est.successes, cfg,
                        trials=est.trials, seed=seed),
        ]
        if est.mean_value is not None:
            recs.append(make_record("experiment", "mean_value",
                                    est.mean_value, cfg, trials=est.trials,
                                    seed=seed))
        return recs, 0
    return records


def _correlation(params, args, stream):
    center = None  # none for a run of no trials, which the estimator refuses
    if args.center is not None and args.trials >= 1:  # after the price
        counting.ball_volume(params, codes.radius_for(params, args.rho))
        center = metric.tuple_from_code(params, args.center)
    return codes.correlation_estimate(params, args.rho, args.trials, stream,
                                      center=center)


def _list_size_records(params, args, stream, cfg):
    """Sample linear codes at rate capacity - eps and tabulate exhaustive
    worst-case list sizes at radius floor(rho n)."""
    seed = args.seed
    rate = counting.list_decoding_capacity(args.rho, params.b) - args.eps
    if rate <= 0:
        raise ValueError(f"rate {rate} not positive; lower rho or eps")
    k = int(rate * params.total_dim)  # floor to an integral dimension
    if k == 0:
        raise ValueError(f"rate capacity - eps = {rate} gives dimension 0 "
                         f"at n = {params.total_dim}; lower rho or eps")
    rate_used = Fraction(k, params.total_dim)
    radius = codes.radius_for(params, args.rho)
    if args.codes:  # fail before drawing a code a guard refuses
        codes.require_coset_histogram_within(params, radius, k)
        linalg.require_full_rank_within(k, params.total_dim)
    cfg.update(rate=str(rate_used), radius=radius)
    records = [
        make_record("experiment", "dimension", k, cfg, seed=seed),
        make_record("experiment", "radius", radius, cfg, seed=seed),
    ]
    sizes = {}
    for i in range(args.codes):
        code = codes.sample_linear_code(params, rate_used, stream.child(i))
        size, witness = codes.max_list_size(code, radius)
        sizes[size] = sizes.get(size, 0) + 1
        records.append(make_record("experiment", "max_list_size", size, cfg,
                                   trial=i, seed=seed))
        records.append(make_record("experiment", "witness_center", witness,
                                   cfg, trial=i, seed=seed))
    for size in sorted(sizes):
        records.append(make_record(
            "experiment", f"codes_with_max_list_{size:04d}", sizes[size],
            cfg, seed=seed, trials=args.codes))
    return records, 0


def _admit_rho_ball(params, args):
    metric.require_ball_draw_within(params, codes.radius_for(params, args.rho))


# -- verb: chain -----------------------------------------------------------

def _chain_field(args):
    field = _field_of(args)
    if args.mode == "random" and not args.shift_trials:
        raise ValueError("--mode random needs a positive --shift-trials")
    if args.mode == "exhaustive" and args.shift_trials is not None:
        raise ValueError("--shift-trials needs --mode random")
    return field


def _chain_records(field, args, stream, cfg):
    """The bound report of each instance, and the decided ones achieved."""
    cfg.update(mode=args.mode)
    records, achieved = [], 0
    for i in range(args.instances):
        inst = chains.random_chain_instance(field, args.gamma, args.set_size,
                                            args.c, stream.child(i))
        rep = chains.bound_attainment_report(
            inst, mode=args.mode, trials=args.shift_trials,
            rng=stream.child(i, "shift"))
        achieved += bool(rep.achieved)
        records += [make_record("chain", name, getattr(rep, name), cfg,
                                trial=i, seed=args.seed)
                    for name in ("bound", "target", "greedy_length",
                                 "achieved", "exact_used", "exact_length")]
    records.append(make_record("chain", "instances_achieved", achieved, cfg,
                               seed=args.seed, trials=args.instances))
    return records, 0


# -- the table -------------------------------------------------------------

# Every verb, in help order, and its rows: one per target, or one keyed None
# for a verb that takes no target.  A row gives its help line; the flags it
# needs (a tuple among them: exactly one of those) and its optional flags,
# its record config when given; its run flags, the run count first; how to
# build its field, space or fields; the check that refuses the run past its
# price before the first case or draw (none at a run count of 0), None where
# a guard inside bounds each count or draw; and its records and exit status,
# looking samplers up when called, so a patched module attribute runs.
_TARGETS = {"volume": {None: (
    "exact sphere and ball volumes with log-domain bounds",
    ("q", "m", "eta", "ell", "r"), (), (), _space_of, None, _volume_records),
}, "count-decomposable": {None: (
    "product-subspace counts, bounds, and the Grassmannian comparison",
    ("q", "eta", "ell", "w"), (), (), _field_of, None,
    _count_decomposable_records),
}, "capacity": {None: (
    "list-decoding capacity against entropy and Singleton style baselines",
    (), ("q", "b", "m", "eta", "rho"), ("grid",), _field_of, None,
    _capacity_records),
}, "verify": {
    "volumes": _verify("weight histograms against the closed-form sphere "
                       "volumes", ("max_space_log",), _VOLUMES),
    "gb-bounds": _verify("Gaussian binomials against their two-sided bounds",
                         ("n_max",), _GB_BOUNDS),
    "volume-bounds": _verify("sphere and ball volumes against their "
                             "log-domain bounds", ("m_max", "ell_max"),
                             _VOLUME_BOUNDS),
    "decomposable-bounds": _verify("decomposable counts against their "
                                   "log-domain bounds",
                                   ("eta_max", "ell_max"),
                                   _DECOMPOSABLE_BOUNDS),
    "decomposable-dominance": _verify("decomposable counts against the "
                                      "Grassmannian", ("eta_max", "ell_max"),
                                      _DOMINANCE),
    "all": _verify("every sweep above, in that order",
                   ("max_space_log", "n_max", "m_max", "ell_max", "eta_max"),
                   _VOLUMES, _GB_BOUNDS, _VOLUME_BOUNDS,
                   _DECOMPOSABLE_BOUNDS, _DOMINANCE),
}, "sample": {
    "ball": ("uniform points of the sum-rank ball of radius --r",
             ("q", "m", "eta", "ell", "radius"), (), ("count", "seed"),
             _space_of,
             lambda params, args: metric.require_ball_draw_within(
                 params, args.radius),
             _draws(lambda params, args, rng: metric.tuple_code(
                 metric.sample_ball_uniform(params, args.radius, rng)))),
    "rank-matrix": ("uniform m x eta matrices of rank --r",
                    ("q", "m", "eta", "r"), (), ("count", "seed"), _field_of,
                    lambda field, args: metric.require_rank_matrix_within(
                        args.m, args.eta, args.r),
                    _draws(lambda field, args, rng: metric.vector_code(
                        field.q, metric.sample_entries_of_rank(
                            field, args.m, args.eta, args.r, rng)))),
    "subspace": ("uniform --dim-dimensional subspaces of F_q^ambient",
                 ("q", "ambient", "dim"), (), ("count", "seed"), _field_of,
                 lambda field, args: linalg.require_subspace_within(
                     args.ambient, args.dim),
                 _draws(lambda field, args, rng: _compact(
                     linalg.sample_subspace(
                         field, args.ambient, args.dim, rng).to_json()))),
    "decomposable": ("uniform products of per-block subspaces of total "
                     "dimension --w", ("q", "eta", "ell", "w"), (),
                     ("count", "seed"), _field_of, None,
                     _draws(lambda field, args, rng: _compact(
                         decomposable.sample_decomposable_uniform(
                             field, args.eta, args.ell, args.w,
                             rng).to_json()))),
    "linear-code": ("row spaces of uniform full-rank generators at --rate",
                    ("q", "m", "eta", "ell", "rate"), (), ("count", "seed"),
                    _space_of,
                    lambda params, args: linalg.require_full_rank_within(
                        codes.dimension_from_rate(params, args.rate),
                        params.total_dim),
                    _draws(lambda params, args, rng: _compact(
                        codes.sample_linear_code(
                            params, args.rate, rng).to_json()))),
    "general-code": ("codes holding each point with probability "
                     "q^((rate-1)mn)", ("q", "m", "eta", "ell", "rate"), (),
                     ("count", "seed"), _space_of, None,
                     _draws(lambda params, args, rng: _compact(
                         codes.sample_general_code(
                             params, args.rate, rng).to_json()))),
}, "experiment": {
    "correlation": ("Pr[X1 + X2 in the ball around --center (default 0)] "
                    "for uniform ball points X1, X2",
                    ("q", "m", "eta", "ell", "rho"), ("center",),
                    ("trials", "seed"), _space_of, _admit_rho_ball,
                    _estimator("correlation_probability", _correlation)),
    "dimension": ("intersection dimension of two uniform decomposable "
                  "subspaces",
                  ("q", "eta", "ell", "wx", "wy",
                   ("min_fraction", "exact_dim")),
                  (), ("trials", "seed"), _field_of, None, _estimator(
                      "event_probability",
                      lambda field, args, stream:
                      decomposable.intersection_dimension_estimate(
                          field, args.eta, args.ell, args.wx, args.wy,
                          args.trials, stream, min_fraction=args.min_fraction,
                          exact_dim=args.exact_dim))),
    "span-correlation": ("Pr[the span of --gamma ball points meets the ball "
                         "in bound-factor * gamma points or more]",
                         ("q", "m", "eta", "ell", "rho", "gamma",
                          "bound_factor"), (), ("trials", "seed"), _space_of,
                         _admit_rho_ball, _estimator(
                             "span_correlation_probability",
                             lambda params, args, stream:
                             codes.limited_correlation_estimate(
                                 params, args.rho, args.gamma,
                                 args.bound_factor, args.trials, stream))),
    "subset-event": ("Pr[every combination in --vectors of ball points "
                     "lands in the ball]",
                     ("q", "m", "eta", "ell", "rho", "vectors"), (),
                     ("trials", "seed"), _space_of, _admit_rho_ball,
                     _estimator(
                         "subset_event_probability",
                         lambda params, args, stream:
                         codes.subset_span_event_estimate(
                             params, args.rho, args.vectors, args.trials,
                             stream))),
    "list-size": ("worst-case list sizes of random linear codes at rate "
                  "capacity - eps", ("q", "m", "eta", "ell", "rho", "eps"),
                  (), ("codes", "seed"), _space_of, None,
                  _list_size_records),
}, "chain": {None: (
    "support-chain bound attainment on random vector sets",
    ("q", "gamma", "set_size"), ("c",),
    ("instances", "mode", "shift_trials", "seed"), _chain_field,
    lambda field, args: chains.require_search_within(
        field.q, args.gamma, args.set_size, args.mode, args.shift_trials),
    _chain_records),
}}

_VERB_HELP = {"verify": "exact and log-domain bound sweeps; exit 1 when "
                        "any check fails",
              "sample": "seeded draws from the exact samplers",
              "experiment": "Monte Carlo estimators with Wilson intervals"}


def _run(args):
    *_, runs, build, admit, records = _TARGETS[args.verb][args.what]
    space = build(args)
    if admit and (not runs or getattr(args, runs[0]) >= 1):
        admit(space, args)  # refuse before the first case or draw
    key = (args.verb,) if args.what is None else (args.verb, args.what)
    stream = RandomStream(args.seed, *key) if "seed" in runs else None
    return records(space, args, stream, _record_config(args, runs))


# -- parser ----------------------------------------------------------------

def _add_output_flags(parser):
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    parser.add_argument("--out", metavar="PATH",
                        help=f"output file; relative paths land in "
                             f"${_OUT_DIR_ENV} when set, default stdout")
    parser.add_argument("--timing", action="store_true",
                        help="fill the runtime column (breaks byte-identical"
                             " reruns)")


def _add_flag(parser, verb, key, **kwargs):
    aliases, spec = _FLAGS.get((verb, key)) or _FLAGS[key]
    parser.add_argument(*aliases, "--" + key.replace("_", "-"), dest=key,
                        **spec, **kwargs)


def _add_row(parsers, verb, name, text, flags, optional, runs):
    """The subcommand of one row.  Abbreviations are off: --m must not be
    read as --min-fraction, nor --eta as --eta-max."""
    p = parsers.add_parser(name, help=text, allow_abbrev=False)
    for key in flags:
        if isinstance(key, tuple):
            group = p.add_mutually_exclusive_group(required=True)
            for choice in key:
                _add_flag(group, verb, choice)
        else:
            _add_flag(p, verb, key, required=True)
    for key in optional + runs:
        _add_flag(p, verb, key)
    _add_output_flags(p)


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argparse tree, built once per process: it holds no run state.

    Every call returns the one parser that `main` uses; do not add to it or
    change its defaults.  `build_parser.cache_clear()` drops it.
    """
    parser = argparse.ArgumentParser(
        prog="sumrank",
        description="Sum-rank metric volumes, random codes, and seeded "
                    "experiments.")
    parser.set_defaults(what=None)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, rows in _TARGETS.items():
        parsers = sub if None in rows else sub.add_parser(
            verb, help=_VERB_HELP[verb]).add_subparsers(
                dest="what", required=True, metavar="TARGET")
        for name, row in rows.items():
            _add_row(parsers, verb, name or verb, *row[:4])
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        records, status = _run(args)
    except GuardError as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.timing:
        elapsed = _sig12(time.monotonic() - started)
        for rec in records:
            rec["runtime"] = elapsed
    emit(records, args.format, args.out)
    return status


if __name__ == "__main__":
    sys.exit(main())
