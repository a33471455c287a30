"""Seeded op lists for the four benchmark workloads.

An op is one argv list for ``sumrank.cli.main``.  Each workload is a round
of slots; a slot holds a finite list of shapes of about the same cost, and a
shape is an argv with, for seeded verbs, the range its ``--seed`` is drawn
from.  A seeded run plays round after round, shuffling the slot order inside
each round and dealing each slot's shapes, and each shape's op seeds,
from shuffled decks, so every seed runs the same mix of op kinds, shapes and
op seeds in a different order.

Because shapes and op seeds are finite, every op any seed can produce has a
recorded golden stdout digest (``golden/<workload>.json``), and ``bank()``
lists them all.

``exact-counts`` deals without reshuffling: every shape is new to the
process, so the unbounded ``lru_cache`` tables in counting never turn a
repeated op into a lookup.  Its op list therefore ends when the smallest
slot runs out.  The other workloads reshuffle and never end.
"""

import random

WORKLOADS = ("mc-estimators", "exact-counts", "exhaustive-oracles",
             "large-field")
DEFAULT_SEED = 1

# Upper bound on the rounds generated up front for workloads that draw with
# replacement; far more than any run finishes.
_MAX_ROUNDS = 400


def _argv(*parts):
    return [str(p) for p in parts]


def _seeded(argvs, seeds=range(8)):
    """Shapes whose ``--seed`` is drawn from `seeds` when dealt."""
    return [(argv, tuple(seeds)) for argv in argvs]


def _plain(argvs):
    """Shapes of verbs that take no seed."""
    return [(argv, ()) for argv in argvs]


# -- mc-estimators -----------------------------------------------------------

def _mc_estimators():
    # Nine slots of about the same cost and, as the tail, the two dimension
    # slots whose decomposable sampler rebuilds its table on every draw.
    slots = {
        "correlation-small-q": _seeded(
            [_argv("experiment", "correlation", "--q", q, "--m", 2, "--eta", 2,
                   "--ell", 3, "--rho", rho, "--trials", 150)
             for q in (2, 3, 4) for rho in ("1/3", "1/2")]),
        "correlation-wide-q": _seeded(
            [_argv("experiment", "correlation", "--q", q, "--m", 1, "--eta", 2,
                   "--ell", 3, "--rho", "1/2", "--trials", 170)
             for q in (5, 7, 8, 9, 11, 13, 16)]),
        "span-correlation": _seeded(
            [_argv("experiment", "span-correlation", "--q", q, "--m", 2,
                   "--eta", 2, "--ell", 3, "--rho", "1/2", "--gamma", 3,
                   "--bound-factor", "1/2", "--trials", trials)
             for q, trials in ((2, 60), (3, 28))]),
        "subset-event": _seeded(
            [_argv("experiment", "subset-event", "--q", q, "--m", 2,
                   "--eta", 2, "--ell", 3, "--rho", "1/2",
                   "--vectors", "1,0;0,1;1,1", "--trials", 90)
             for q in (2, 3)]),
        "sample-ball": _seeded(
            [_argv("sample", "ball", "--q", q, "--m", 3, "--eta", 3,
                   "--ell", 4, "--r", 4, "--count", 200)
             for q in (2, 4, 8, 16)]),
        "sample-rank-matrix": _seeded(
            [_argv("sample", "rank-matrix", "--q", q, "--m", 4, "--eta", 4,
                   "--r", r, "--count", 400)
             for q in (3, 5, 9, 13) for r in (2, 3)]),
        "sample-subspace": _seeded(
            [_argv("sample", "subspace", "--q", q, "--ambient", 8, "--dim", 4,
                   "--count", 300)
             for q in (2, 7, 8, 16)]),
        "sample-decomposable": _seeded(
            [_argv("sample", "decomposable", "--q", q, "--eta", 3, "--ell", 4,
                   "--w", 6, "--count", 90)
             for q in (2, 3, 5)]),
        "sample-linear-code": _seeded(
            [_argv("sample", "linear-code", "--q", q, "--m", 2, "--eta", 2,
                   "--ell", 3, "--rate", "1/2", "--count", 100)
             for q in (2, 4)]),
        "dimension-eta3": _seeded(
            [_argv("experiment", "dimension", "--q", q, "--eta", 3, "--ell", 4,
                   "--wx", 6, "--wy", 6, "--min-fraction", "1/2",
                   "--trials", 120)
             for q in (2, 3, 4)]),
        "dimension-eta4": _seeded(
            [_argv("experiment", "dimension", "--q", 2, "--eta", 4,
                   "--ell", ell, "--wx", w, "--wy", w, "--min-fraction", "1/2",
                   "--trials", trials)
             for ell, w, trials in ((5, 9, 20), (6, 6, 16))]),
    }
    return slots


# -- exact-counts ------------------------------------------------------------

_SMALL_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31)


def _non_square(cap, extra):
    """(m, eta) pairs with min(m, eta) = cap, both orientations."""
    out = []
    for d in range(cap + 1, cap + 1 + extra):
        out += [(cap, d), (d, cap)]
    return out


def _volume_slot(ell, cap, r, extra=3):
    # Non-square blocks only, so no volume op shares a cached sphere with the
    # square-block volume-bounds sweeps.
    return _plain([_argv("volume", "--q", q, "--m", m, "--eta", eta,
                         "--ell", ell, "--r", r)
                   for q in _SMALL_Q for m, eta in _non_square(cap, extra)])


def _exact_counts():
    # count-decomposable keeps off q <= 4, which the decomposable-bounds
    # sweeps fill into the decomposable_count cache.
    dec_q = [q for q in _SMALL_Q if q > 4]
    slots = {
        "volume-l10-c2": _volume_slot(10, 2, 8),
        "volume-l11-c2": _volume_slot(11, 2, 7),
        "volume-l9-c3": _volume_slot(9, 3, 7),
        "volume-l8-c4": _volume_slot(8, 4, 7),
        "volume-l5-c2": _volume_slot(5, 2, 6),
        "volume-l4-c3": _volume_slot(4, 3, 5),
        "count-decomposable-e3-l10": _plain([
            _argv("count-decomposable", "--q", q, "--eta", 3, "--ell", 10,
                  "--w", w) for q in dec_q for w in (8, 22)]),
        "count-decomposable-e4-l8": _plain([
            _argv("count-decomposable", "--q", q, "--eta", 4, "--ell", 8,
                  "--w", w) for q in dec_q for w in (11, 21)]),
        "count-decomposable-e2-l11": _plain([
            _argv("count-decomposable", "--q", q, "--eta", 2, "--ell", 11,
                  "--w", w) for q in dec_q for w in (8, 14)]),
        "capacity": _plain([
            _argv("capacity", "--q", q, "--m", m, "--eta", eta, "--grid", 60)
            for q in _SMALL_Q
            for m in range(1, 6) for eta in range(1, m + 1)]),
        "verify-gb-bounds": _plain([
            _argv("verify", "gb-bounds", "--q-list", q, "--n-max", n)
            for q in _SMALL_Q for n in (13, 14, 15)]),
        # Two corners of about the same cost: this slot holds the median.
        "verify-volume-bounds": _plain([
            _argv("verify", "volume-bounds", "--q-list", q, "--m-max", m,
                  "--ell-max", ell)
            for q in _SMALL_Q for m, ell in ((3, 6), (4, 5))]),
        # The decomposable lower bound fails for q >= 5 (see README), so this
        # sweep stays on q <= 4, the range `verify all` covers.
        "verify-decomposable-bounds": _plain([
            _argv("verify", "decomposable-bounds", "--q-list", q,
                  "--eta-max", eta, "--ell-max", ell)
            for q in (2, 3, 4)
            for eta, ell in ((1, 13), (2, 9), (3, 7), (4, 6), (6, 5),
                             (9, 4))]),
    }
    return slots


# -- exhaustive-oracles ------------------------------------------------------

def _exhaustive_oracles():
    # Seven slots of about the same cost; list-size at ell = 3 and the dense
    # q = 3 chains, where the exact search takes over, are the tail.
    slots = {
        "list-size-l2": _seeded(
            [_argv("experiment", "list-size", "--q", 2, "--m", 2, "--eta", 2,
                   "--ell", 2, "--rho", rho, "--eps", "1/8", "--codes", 8)
             for rho in ("1/4", "1/3")]),
        "chain-q2-g8": _seeded(
            [_argv("chain", "--q", 2, "--gamma", 8, "--set-size", size,
                   "--instances", 6) for size in (48, 64)]),
        "chain-q3-g5": _seeded(
            [_argv("chain", "--q", 3, "--gamma", 5, "--set-size", size,
                   "--instances", 5) for size in (30, 40)]),
        # Sets of half the space or more: greedy mostly falls one short of
        # the target and the exact search takes over.
        "chain-q2-g7-dense": _seeded(
            [_argv("chain", "--q", 2, "--gamma", 7, "--set-size", size,
                   "--instances", 7) for size in (96, 112)]),
        "chain-q2-g8-dense": _seeded(
            [_argv("chain", "--q", 2, "--gamma", 8, "--set-size", size,
                   "--instances", 3) for size in (128, 160)]),
        "verify-volumes-q2": _plain([
            _argv("verify", "volumes", "--q-list", 2, "--max-space-log", 10)]),
        "verify-volumes-q3": _plain([
            _argv("verify", "volumes", "--q-list", 3, "--max-space-log", 12)]),
        "list-size-l3": _seeded(
            [_argv("experiment", "list-size", "--q", 2, "--m", 2, "--eta", 2,
                   "--ell", 3, "--rho", "1/4", "--eps", "1/8", "--codes", 1)]),
        "chain-q3-g5-dense": _seeded(
            [_argv("chain", "--q", 3, "--gamma", 5, "--set-size", 200,
                   "--instances", 2)]),
    }
    return slots


# -- large-field -------------------------------------------------------------

# Field tables are O(q^2): each slot pins its q so the cost of a round does
# not depend on the seed.  The volume and correlation ops leave their field
# alive in counting's and metric's lru_caches, so peak memory is the sum of
# the fields those ops have touched; pinning q keeps that sum the same for
# every seed once each slot has dealt a few ops.
_LARGE_SMALL_Q = (127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181)
_LARGE_MID_Q = (191, 199, 211, 223, 233, 241, 251)
_LARGE_TOP_Q = 509
# The largest field is built once, by the first op of every run, a volume op
# whose field then stays cached.
_LARGE_HEAD_Q = 1021


def _large_volume(q):
    return _plain([_argv("volume", "--q", q, "--m", 2, "--eta", 2, "--ell", 3,
                         "--r", 3)])


def _large_field():
    # One shape per op kind: after a slot has dealt its volume and its
    # correlation op, later ops of those kinds hit the caches and leave no
    # further field alive.
    return {f"q{q}": _large_volume(q) + _seeded([
        _argv("sample", "rank-matrix", "--q", q, "--m", 3, "--eta", 3,
              "--r", 2, "--count", 5),
        _argv("sample", "subspace", "--q", q, "--ambient", 6, "--dim", 3,
              "--count", 5),
        _argv("experiment", "correlation", "--q", q, "--m", 1, "--eta", 2,
              "--ell", 2, "--rho", "1/2", "--trials", 20),
    ], range(3)) for q in _LARGE_SMALL_Q + _LARGE_MID_Q + (_LARGE_TOP_Q,)}


_SLOT_TABLES = {
    "mc-estimators": _mc_estimators,
    "exact-counts": _exact_counts,
    "exhaustive-oracles": _exhaustive_oracles,
    "large-field": _large_field,
}
_HEADS = {"large-field": lambda: _large_volume(_LARGE_HEAD_Q)}
_DISTINCT = {"exact-counts"}


def slots(workload):
    """Slot name -> list of (argv, op seeds) shapes."""
    return _SLOT_TABLES[workload]()


def _expand(shape):
    argv, seeds = shape
    if not seeds:
        return [argv]
    return [argv + ["--seed", str(s)] for s in seeds]


def bank(workload):
    """Every op the workload can produce for any seed."""
    shapes = [shape for slot in slots(workload).values() for shape in slot]
    shapes += _HEADS[workload]() if workload in _HEADS else []
    return [op for shape in shapes for op in _expand(shape)]


def ops(workload, seed):
    """The seeded op list: argv lists in play order."""
    if workload not in _SLOT_TABLES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"perfbench/{workload}/{seed}")
    table = slots(workload)
    names = sorted(table)
    dealt = []
    if workload in _HEADS:
        dealt.append(rng.choice(_HEADS[workload]()))
    if workload in _DISTINCT:
        pools = {name: rng.sample(table[name], len(table[name]))
                 for name in names}
        rounds = min(len(pool) for pool in pools.values())
        for i in range(rounds):
            order = rng.sample(names, len(names))
            dealt += [pools[name][i] for name in order]
    else:
        # Each slot deals its shapes from a shuffled deck, so over a run
        # every shape comes up about equally often whatever the seed.
        decks = {name: [] for name in names}
        for _ in range(_MAX_ROUNDS):
            for name in rng.sample(names, len(names)):
                if not decks[name]:
                    decks[name] = rng.sample(table[name], len(table[name]))
                dealt.append(decks[name].pop())
    # Each shape deals its op seeds from a shuffled deck of its own, so the
    # op seeds, whose cost differs, come up equally often whatever the seed.
    seed_decks = {}
    out = []
    for argv, seeds in dealt:
        if not seeds:
            out.append(argv)
            continue
        deck = seed_decks.setdefault(op_key(argv), [])
        if not deck:
            deck.extend(rng.sample(seeds, len(seeds)))
        out.append(argv + ["--seed", str(deck.pop())])
    return out


def op_key(argv):
    """Canonical text of one op, the key of the golden digest files."""
    return " ".join(argv)


# Traced functions each workload is declared to exercise: a short traced run
# must call every one of them at least once.
_ALL = ("galois.field_from_order", "cli.main", "cli.emit",
        "montecarlo.RandomStream.child")
EXERCISED = {
    "mc-estimators": _ALL + (
        "linalg._rank_rows", "linalg.sample_full_rank",
        "linalg.sample_subspace", "linalg.mat_mul", "linalg.Subspace.span",
        "linalg.Subspace.intersect",
        "counting.gaussian_binomial", "counting.decomposable_count",
        "counting.ball_volume", "counting.sphere_volume",
        "metric.sample_ball_uniform", "metric.sample_uniform_matrix_of_rank",
        "metric.BlockTuple.__init__", "metric.BlockTuple.add",
        "metric.BlockTuple.weight", "metric.tuple_code",
        "decomposable.sample_decomposable_uniform",
        "decomposable.DecomposableSubspace.intersect",
        "codes.correlation_estimate", "codes.limited_correlation_estimate",
        "codes.subset_span_event_estimate", "codes.span_ball_count",
        "codes.sample_linear_code"),
    "exact-counts": (
        "galois.field_from_order", "cli.main", "cli.emit",
        "counting.sphere_volume", "counting.ball_volume",
        "counting.decomposable_count", "counting.gaussian_binomial",
        "counting.logq_int", "counting.sphere_bounds_logq",
        "counting.ball_bounds_logq", "counting.decomposable_bounds_logq"),
    "exhaustive-oracles": _ALL + (
        "linalg._rank_rows", "linalg.sample_full_rank",
        "metric.BlockTuple.__init__", "metric.BlockTuple.add",
        "metric.BlockTuple.weight", "metric.tuple_code",
        "metric.tuple_from_code", "metric.weight_histogram",
        "counting.sphere_volume",
        "codes.sample_linear_code", "codes.Code.codewords",
        "codes.max_list_size",
        "chains.random_chain_instance", "chains.best_shift_chain",
        "chains.max_chain_exact", "chains.bound_attainment_report"),
    "large-field": _ALL + (
        "linalg._rank_rows", "linalg.sample_full_rank",
        "linalg.sample_subspace", "linalg.mat_mul", "linalg.Subspace.span",
        "counting.sphere_volume", "counting.ball_volume",
        "counting.logq_int", "metric.sample_ball_uniform",
        "codes.correlation_estimate"),
}
