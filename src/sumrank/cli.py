"""Command line harness: seeded experiments emitting CSV or JSON lines.

Every run produces a list of flat records with one fixed schema, sorted by
(trial, statistic) so output is byte-identical for a given configuration
and master seed.  Counts are serialized as decimal strings (they exceed
every native integer width long before the guards trip), probabilities as
floats rounded to 12 significant digits, and exact rationals ride along as
"num/den" strings in the `exact` column.

Verbs: volume, count-decomposable, capacity, verify, sample, experiment,
chain.  `sumrank <verb> --help` lists each verb's flags; sample and
experiment read one table of targets, one subcommand each, so `sumrank
sample ball --help` lists that target's, and a flag that a target does not
take is an input error.  Records carry no timing by default; opt in with
--timing, which fills the runtime column and gives up byte-stable reruns.
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

from . import chains, codes, counting, decomposable, linalg, metric
from .counting import SpaceParams
from .galois import field_from_order
from .guards import GuardError
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


def _field_of(args):
    return field_from_order(args.q)


def _space_of(args):
    return SpaceParams(field=_field_of(args), m=args.m, eta=args.eta,
                       ell=args.ell)


def _space_config(params, **extra):
    cfg = {"q": params.q, "m": params.m, "eta": params.eta, "ell": params.ell}
    cfg.update(extra)
    return cfg


def _add_output_flags(parser):
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    parser.add_argument("--out", metavar="PATH",
                        help=f"output file; relative paths land in "
                             f"${_OUT_DIR_ENV} when set, default stdout")
    parser.add_argument("--timing", action="store_true",
                        help="fill the runtime column (breaks byte-identical"
                             " reruns)")


def _add_field_flags(parser):
    parser.add_argument("--q", type=int, required=True,
                        help="field order, a prime power")


def _add_space_flags(parser, m=True):
    _add_field_flags(parser)
    for key in ("m", "eta", "ell")[0 if m else 1:]:
        _add_flag(parser, key, required=True)


# -- verb: volume ----------------------------------------------------------

def _run_volume(args):
    params = _space_of(args)
    r = args.r
    cfg = _space_config(params, r=r)
    records = []

    def add(name, value, exact=None):
        records.append(make_record("volume", name, value, cfg, exact=exact))

    sphere = counting.sphere_volume(params, r)
    ball = counting.ball_volume(params, r)
    add("sphere_volume", sphere)
    add("ball_volume", ball)
    s_lo, s_hi = counting.sphere_bounds_logq(params, r)
    b_lo, b_hi = counting.ball_bounds_logq(params, r)
    add("sphere_logq", counting.logq_int(sphere, params.q))
    add("sphere_lower_logq", s_lo)
    add("sphere_upper_logq", s_hi)
    add("ball_logq", counting.logq_int(ball, params.q))
    add("ball_lower_logq", b_lo)
    add("ball_upper_logq", b_hi)
    return records, 0


# -- verb: count-decomposable ----------------------------------------------

def _run_count_decomposable(args):
    field = _field_of(args)
    q = field.q
    eta, ell, w = args.eta, args.ell, args.w
    cfg = {"q": q, "eta": eta, "ell": ell, "w": w}
    records = []
    count = counting.decomposable_count(eta, ell, w, q)
    grass = counting.gaussian_binomial(eta * ell, w, q)
    lo, hi = counting.decomposable_bounds_logq(eta, ell, w, q)
    records.append(make_record("count-decomposable", "decomposable_count",
                               count, cfg))
    records.append(make_record("count-decomposable", "grassmannian_count",
                               grass, cfg))
    records.append(make_record("count-decomposable", "decomposable_logq",
                               counting.logq_int(count, q), cfg))
    records.append(make_record("count-decomposable", "lower_logq", lo, cfg))
    records.append(make_record("count-decomposable", "upper_logq", hi, cfg))
    records.append(make_record("count-decomposable", "dominated",
                               count <= grass, cfg))
    return records, 0


# -- verb: capacity --------------------------------------------------------

def _capacity_records(q, b, rho, trial):
    cfg = {"q": q, "b": str(b), "rho": str(rho)}
    penalty = counting.capacity_penalty(rho, b)
    cap = counting.list_decoding_capacity(rho, b)
    ent_cap = 1 - counting.q_ary_entropy(rho, q)
    singleton = 1 - rho
    recs = [
        make_record("capacity", "capacity", cap, cfg, trial=trial),
        make_record("capacity", "penalty", penalty, cfg, trial=trial),
        make_record("capacity", "entropy_capacity", ent_cap, cfg, trial=trial),
        make_record("capacity", "singleton", singleton, cfg, trial=trial),
    ]
    return recs


def _run_capacity(args):
    q = field_from_order(args.q).q
    if args.b is not None and (args.m is not None or args.eta is not None):
        raise ValueError("capacity takes --b or --m and --eta, not both")
    if args.rho is not None and args.grid is not None:
        raise ValueError("capacity takes --rho or --grid, not both")
    if args.b is not None:
        b = args.b
    elif args.m is not None and args.eta is not None:
        b = Fraction(args.eta, args.m)
    else:
        raise ValueError("capacity needs --b, or both --m and --eta")
    records = []
    if args.rho is not None:
        records.extend(_capacity_records(q, b, args.rho, trial=0))
    else:
        steps = 19 if args.grid is None else args.grid
        for i in range(1, steps + 1):
            rho = Fraction(i, steps + 1)
            records.extend(_capacity_records(q, b, rho, trial=i - 1))
    return records, 0


# -- verb: verify ----------------------------------------------------------

def _volume_shapes(fields, space_log):
    """Every shape with q^(m eta ell) at most 2^space_log, each priced by
    the histogram guard as it is reached.  Each loop stops at its first
    value past the cap, as every larger one is past it too."""
    def fits(q, n):  # q^n <= 2^space_log, never building 2^space_log
        return n <= space_log and (q ** n - 1).bit_length() <= space_log
    for field in fields:
        q = field.q
        for m in range(1, space_log + 1):
            if not fits(q, m):
                break
            for eta in range(1, space_log + 1):
                if not fits(q, m * eta):
                    break
                for ell in range(1, space_log + 1):
                    if not fits(q, m * eta * ell):
                        break
                    params = SpaceParams(field=field, m=m, eta=eta, ell=ell)
                    metric.require_histogram_within(params)
                    yield params


def _volume_cases(fields, args):
    """Histogram brute force against the closed-form sphere volumes.  The
    whole sweep is priced before its first histogram, so a refused shape
    stops it at once."""
    for params in list(_volume_shapes(fields, args.max_space_log)):
        hist = metric.weight_histogram(params)
        yield _space_config(params), all(
            hist[r] == counting.sphere_volume(params, r)
            for r in range(params.max_weight + 1))


def _gb_bound_cases(fields, args):
    for q in (field.q for field in fields):
        for n in range(0, args.n_max + 1):
            for k in range(0, n + 1):
                yield ({"q": q, "n": n, "k": k},
                       counting.gaussian_binomial_bounds_ok(n, k, q))


def _volume_bound_cases(fields, args):
    for field in fields:
        for side in range(1, args.m_max + 1):
            for ell in range(1, args.ell_max + 1):
                params = SpaceParams(field=field, m=side, eta=side, ell=ell)
                for r in range(0, params.max_weight + 1):
                    yield _space_config(params, r=r), (
                        counting.sphere_bounds_ok(params, r)
                        and counting.ball_bounds_ok(params, r))


def _decomposable_cases(check):
    """Cases of check(eta, ell, w, q) over the (q, eta, ell, w) grid."""
    def cases(fields, args):
        for q in (field.q for field in fields):
            for eta in range(1, args.eta_max + 1):
                for ell in range(1, args.ell_max + 1):
                    for w in range(0, eta * ell + 1):
                        yield ({"q": q, "eta": eta, "ell": ell, "w": w},
                               check(eta, ell, w, q))
    return cases


# Each target is a statistic name and a generator of (config, passed)
# cases over the fields of --q-list; one failed case makes the run exit 1.
_VERIFY_TARGETS = {
    "volumes": ("volumes_pass", _volume_cases),
    "gb-bounds": ("gb_bounds_pass", _gb_bound_cases),
    "volume-bounds": ("volume_bounds_pass", _volume_bound_cases),
    "decomposable-bounds": ("decomposable_bounds_pass", _decomposable_cases(
        counting.decomposable_bounds_ok)),
    "decomposable-dominance": ("decomposable_dominance_pass",
                               _decomposable_cases(
                                   counting.decomposable_le_grassmannian)),
}


def _run_verify(args):
    targets = list(_VERIFY_TARGETS) if args.target == "all" else [args.target]
    fields = [field_from_order(q) for q in args.q_list]
    records = []
    all_ok = True
    for name in targets:
        statistic, cases = _VERIFY_TARGETS[name]
        for cfg, good in cases(fields, args):
            all_ok = all_ok and good
            records.append(make_record("verify", statistic, good, cfg))
    return records, 0 if all_ok else 1


# -- verbs: sample and experiment ------------------------------------------

def _vectors(text):
    """Rows of ints like 1,0;0,1;1,1; an empty row is skipped."""
    try:
        return tuple(tuple(int(c) for c in row.split(","))
                     for row in text.split(";") if row)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"not a vector list: {text!r}") from exc


# Every target flag and every --m/--eta/--ell by dest, which is also the
# record-config key and, with - for _, the option: type, help, aliases.
_FLAGS = {
    "m": (int, "block row count"),
    "eta": (int, "block column count"),
    "ell": (int, "number of blocks"),
    "radius": (int, "ball radius", "--r"),
    "r": (int, "matrix rank"),
    "w": (int, "total dimension"),
    "ambient": (int, "ambient dimension"),
    "dim": (int, "subspace dimension"),
    "rate": (_fraction, "code rate as a fraction"),
    "rho": (_fraction, "relative radius in (0,1)"),
    "center": (int, "center point code (default zero)"),
    "wx": (int, "first total dimension"),
    "wy": (int, "second total dimension"),
    "min_fraction": (_fraction, "event dim >= ceil(fraction * wx)"),
    "exact_dim": (int, "event dim == this"),
    "gamma": (int, "number of draws per trial"),
    "bound_factor": (_fraction, "threshold factor on gamma"),
    "vectors": (_vectors, "coefficient rows like 1,0;0,1"),
    "eps": (_fraction, "capacity gap"),
}

# Each target's run count (type, default, help), never in its config.
_RUN_COUNTS = {"count": (_count, 1, "number of draws"),
               "trials": (int, 10000, "trial count"),
               "codes": (_count, 100, "number of sampled codes")}


def _record_config(args):
    """q plus each target flag that was given, rationals as num/den and
    --vectors rows as 1,0;0,1."""
    cfg = {"q": args.q}
    for key, value in vars(args).items():
        if key == "vectors":
            value = ";".join(",".join(map(str, row)) for row in value)
        if key in _FLAGS and value is not None:
            cfg[key] = str(value) if isinstance(value, Fraction) else value
    return cfg


def _draws(draw):
    """Records of --count draws, each one draw(space, args, rng) from its
    child stream: a point code or compact JSON."""
    def records(space, args, stream, cfg):
        return [make_record("sample", args.what,
                            draw(space, args, stream.child(i)), cfg, trial=i,
                            seed=args.seed)
                for i in range(args.count)]
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
        return recs
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
    return records


def _admit_rho_ball(params, args):
    metric.require_ball_draw_within(params, codes.radius_for(params, args.rho))


# Each target of each verb: its help line; the flags it needs (a tuple among
# them: exactly one of those) and its optional flags, which with q are its
# record config when given; its run count; how to build its field or space;
# the check that refuses one draw past its price, called once before the
# first, None where the records price it (list-size) or the sampler's own
# guard bounds it; and its records.  Records look their samplers up when
# called, so a patched module attribute is the one that runs.
_TARGETS = {"sample": {
    "ball": ("uniform points of the sum-rank ball of radius --r",
             ("m", "eta", "ell", "radius"), (), "count", _space_of,
             lambda params, args: metric.require_ball_draw_within(
                 params, args.radius),
             _draws(lambda params, args, rng: metric.tuple_code(
                 metric.sample_ball_uniform(params, args.radius, rng)))),
    "rank-matrix": ("uniform m x eta matrices of rank --r",
                    ("m", "eta", "r"), (), "count", _field_of,
                    lambda field, args: metric.require_rank_matrix_within(
                        args.m, args.eta, args.r),
                    _draws(lambda field, args, rng: metric.matrix_code(
                        field.q, metric.sample_uniform_matrix_of_rank(
                            field, args.m, args.eta, args.r, rng)))),
    "subspace": ("uniform --dim-dimensional subspaces of F_q^ambient",
                 ("ambient", "dim"), (), "count", _field_of,
                 lambda field, args: linalg.require_subspace_within(
                     args.ambient, args.dim),
                 _draws(lambda field, args, rng: _compact(
                     linalg.sample_subspace(
                         field, args.ambient, args.dim, rng).to_json()))),
    "decomposable": ("uniform products of per-block subspaces of total "
                     "dimension --w", ("eta", "ell", "w"), (), "count",
                     _field_of, None,
                     _draws(lambda field, args, rng: _compact(
                         decomposable.sample_decomposable_uniform(
                             field, args.eta, args.ell, args.w,
                             rng).to_json()))),
    "linear-code": ("row spaces of uniform full-rank generators at --rate",
                    ("m", "eta", "ell", "rate"), (), "count", _space_of,
                    lambda params, args: linalg.require_full_rank_within(
                        codes.dimension_from_rate(params, args.rate),
                        params.total_dim),
                    _draws(lambda params, args, rng: _compact(
                        codes.sample_linear_code(
                            params, args.rate, rng).to_json()))),
    "general-code": ("codes holding each point with probability "
                     "q^((rate-1)mn)", ("m", "eta", "ell", "rate"), (),
                     "count", _space_of, None,
                     _draws(lambda params, args, rng: _compact(
                         codes.sample_general_code(
                             params, args.rate, rng).to_json()))),
}, "experiment": {
    "correlation": ("Pr[X1 + X2 in the ball around --center (default 0)] "
                    "for uniform ball points X1, X2",
                    ("m", "eta", "ell", "rho"), ("center",), "trials",
                    _space_of, _admit_rho_ball,
                    _estimator("correlation_probability", _correlation)),
    "dimension": ("intersection dimension of two uniform decomposable "
                  "subspaces",
                  ("eta", "ell", "wx", "wy", ("min_fraction", "exact_dim")),
                  (), "trials", _field_of, None, _estimator(
                      "event_probability",
                      lambda field, args, stream:
                      decomposable.intersection_dimension_estimate(
                          field, args.eta, args.ell, args.wx, args.wy,
                          args.trials, stream, min_fraction=args.min_fraction,
                          exact_dim=args.exact_dim))),
    "span-correlation": ("Pr[the span of --gamma ball points meets the ball "
                         "in bound-factor * gamma points or more]",
                         ("m", "eta", "ell", "rho", "gamma", "bound_factor"),
                         (), "trials", _space_of, _admit_rho_ball,
                         _estimator(
                             "span_correlation_probability",
                             lambda params, args, stream:
                             codes.limited_correlation_estimate(
                                 params, args.rho, args.gamma,
                                 args.bound_factor, args.trials, stream))),
    "subset-event": ("Pr[every combination in --vectors of ball points "
                     "lands in the ball]",
                     ("m", "eta", "ell", "rho", "vectors"), (), "trials",
                     _space_of, _admit_rho_ball, _estimator(
                         "subset_event_probability",
                         lambda params, args, stream:
                         codes.subset_span_event_estimate(
                             params, args.rho, args.vectors, args.trials,
                             stream))),
    "list-size": ("worst-case list sizes of random linear codes at rate "
                  "capacity - eps", ("m", "eta", "ell", "rho", "eps"), (),
                  "codes", _space_of, None, _list_size_records),
}}


def _run_target(args):
    _, _, _, count, build, admit, records = _TARGETS[args.verb][args.what]
    space = build(args)
    if getattr(args, count) >= 1 and admit:  # refuse before the first draw
        admit(space, args)
    stream = RandomStream(args.seed, args.verb, args.what)
    return records(space, args, stream, _record_config(args)), 0


# -- verb: chain -----------------------------------------------------------

def _run_chain(args):
    field = _field_of(args)
    if args.mode == "random" and not args.shift_trials:
        raise ValueError("--mode random needs a positive --shift-trials")
    if args.mode == "exhaustive" and args.shift_trials is not None:
        raise ValueError("--shift-trials needs --mode random")
    if args.instances:  # fail before drawing a set the guard refuses
        chains.require_search_within(field.q, args.gamma, args.set_size,
                                     args.mode, args.shift_trials)
    seed = args.seed
    stream = RandomStream(seed, "chain")
    cfg = {"q": field.q, "gamma": args.gamma, "set_size": args.set_size,
           "c": args.c, "mode": args.mode}
    records = []
    achieved = 0
    for i in range(args.instances):
        inst = chains.random_chain_instance(field, args.gamma, args.set_size,
                                            args.c, stream.child(i))
        rep = chains.bound_attainment_report(
            inst, mode=args.mode, trials=args.shift_trials,
            rng=stream.child(i, "shift"))
        achieved += rep.achieved

        def add(name, value):
            records.append(make_record("chain", name, value, cfg, trial=i,
                                       seed=seed))
        add("bound", rep.bound)
        add("target", rep.target)
        add("greedy_length", rep.greedy_length)
        add("achieved", rep.achieved)
        add("exact_used", rep.exact_used)
        add("exact_length", rep.exact_length)
    records.append(make_record("chain", "instances_achieved", achieved, cfg,
                               seed=seed, trials=args.instances))
    return records, 0


# -- parser ----------------------------------------------------------------

def _add_flag(parser, key, **kwargs):
    kind, text, *aliases = _FLAGS[key]
    parser.add_argument(*aliases, "--" + key.replace("_", "-"), dest=key,
                        type=kind, help=text, **kwargs)


def _add_target(targets, name, text, flags, optional, count):
    """The subcommand of one sample or experiment target.  Abbreviations
    are off: --m must not be read as dimension's --min-fraction."""
    p = targets.add_parser(name, allow_abbrev=False, help=text)
    _add_field_flags(p)
    for key in flags:
        if isinstance(key, tuple):
            group = p.add_mutually_exclusive_group(required=True)
            for choice in key:
                _add_flag(group, choice)
        else:
            _add_flag(p, key, required=True)
    for key in optional:
        _add_flag(p, key)
    kind, default, text = _RUN_COUNTS[count]
    p.add_argument("--" + count, type=kind, default=default,
                   help=f"{text} (default {default})")
    p.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED,
                   help=f"master seed (default {DEFAULT_MASTER_SEED})")
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
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("volume", help="exact sphere and ball volumes with "
                                      "log-domain bounds")
    _add_space_flags(p)
    p.add_argument("--r", type=int, required=True, help="radius")
    _add_output_flags(p)

    p = sub.add_parser("count-decomposable",
                       help="product-subspace counts, bounds, and the "
                            "Grassmannian comparison")
    _add_space_flags(p, m=False)
    p.add_argument("--w", type=int, required=True, help="total dimension")
    _add_output_flags(p)

    p = sub.add_parser("capacity",
                       help="list-decoding capacity against entropy and "
                            "Singleton style baselines")
    p.add_argument("--q", type=int, default=2, help="field order (default 2)")
    p.add_argument("--b", type=_fraction, default=None,
                   help="shape ratio eta/m as a fraction")
    p.add_argument("--m", type=int, default=None, help="block rows")
    p.add_argument("--eta", type=int, default=None, help="block columns")
    p.add_argument("--rho", type=_fraction, default=None,
                   help="single relative radius in (0,1)")
    p.add_argument("--grid", type=_count, default=None,
                   help="interior grid points i/(grid+1) when --rho absent "
                        "(default 19)")
    _add_output_flags(p)

    p = sub.add_parser("verify", help="exact and log-domain bound sweeps; "
                                      "exit 1 when any check fails")
    p.add_argument("target", choices=sorted(_VERIFY_TARGETS) + ["all"])
    p.add_argument("--q-list", type=_int_list, default=(2, 3),
                   help="field orders to sweep (default 2,3)")
    p.add_argument("--max-space-log", type=_count, default=12,
                   help="volumes: cap q^(m eta ell) at 2^this (default 12)")
    p.add_argument("--n-max", type=_count, default=8,
                   help="gb-bounds: largest n (default 8)")
    p.add_argument("--m-max", type=_count, default=4,
                   help="volume-bounds: largest m = eta (default 4)")
    p.add_argument("--ell-max", type=_count, default=4,
                   help="largest block count (default 4)")
    p.add_argument("--eta-max", type=_count, default=6,
                   help="decomposable sweeps: largest eta (default 6)")
    _add_output_flags(p)

    for verb, text in (
            ("sample", "seeded draws from the exact samplers"),
            ("experiment", "Monte Carlo estimators with Wilson intervals")):
        p = sub.add_parser(verb, help=text)
        targets = p.add_subparsers(dest="what", required=True,
                                   metavar="TARGET")
        for name, entry in _TARGETS[verb].items():
            _add_target(targets, name, *entry[:4])

    p = sub.add_parser("chain", help="support-chain bound attainment on "
                                     "random vector sets")
    _add_field_flags(p)
    p.add_argument("--gamma", type=int, required=True,
                   help="ambient vector length")
    p.add_argument("--set-size", type=int, required=True,
                   help="vectors per instance")
    p.add_argument("--c", type=int, default=2,
                   help="required new support per step (default 2)")
    p.add_argument("--instances", type=_count, default=100,
                   help="random instances (default 100)")
    p.add_argument("--mode", choices=("exhaustive", "random"),
                   default="exhaustive", help="shift search mode")
    p.add_argument("--shift-trials", type=_count, default=None,
                   help="random mode: shifts to try")
    p.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED,
                   help=f"master seed (default {DEFAULT_MASTER_SEED})")
    _add_output_flags(p)
    return parser


_RUNNERS = {
    "volume": _run_volume,
    "count-decomposable": _run_count_decomposable,
    "capacity": _run_capacity,
    "verify": _run_verify,
    "sample": _run_target,
    "experiment": _run_target,
    "chain": _run_chain,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        records, status = _RUNNERS[args.verb](args)
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
