"""Random code ensembles in the sum-rank metric and list-size statistics.

Two ensembles: general codes include every point of the space independently
with probability q^((R-1)mn), drawn exactly as an integer Bernoulli (success
iff a uniform draw below q^((1-R)mn) is zero); linear codes are row spaces
of uniform full-rank k x mn generators with k = R*mn.  Both require the
code dimension R*mn to be an integer, which keeps every inclusion
probability a rational with power-of-q denominator.

Enumerated points (codewords, list-size witnesses) are integer codes and
sampled ball points stay BlockTuples; only Code.to_json decodes a code.
"""

import collections
import operator
from itertools import repeat

from . import guards, linalg, metric
from .counting import ball_volume, _as_fraction
from .guards import require_power_within, require_within
from .metric import BlockTuple
from .montecarlo import EstimateResult


def radius_for(params, rho):
    """Decoding radius floor(rho * n) for relative radius rho in (0, 1)."""
    rho = _as_fraction(rho)
    if not 0 < rho < 1:
        raise ValueError(f"rho = {rho} outside (0, 1)")
    return int(rho * params.n)


def dimension_from_rate(params, rate):
    """The code dimension rate * mn, for a rate in (0, 1] that makes it an
    integer."""
    rate = _as_fraction(rate)
    if not 0 < rate <= 1:
        raise ValueError(f"rate = {rate} outside (0, 1]")
    k = rate * params.total_dim
    if k.denominator != 1:
        raise ValueError(
            f"rate {rate} gives non-integral dimension {k} for mn = {params.total_dim}")
    return int(k)


class Code:
    """A code in the metric space: linear, held as the entry rows of its
    basis, or general, held as the sorted integer codes of its words."""

    __slots__ = ("params", "basis", "words")

    def __init__(self, params, basis=None, words=None):
        if (basis is None) == (words is None):
            raise ValueError("provide exactly one of basis and words")
        self.params = params
        if basis is not None:
            basis = tuple(metric.check_entries(params, row) for row in basis)
            if basis and linalg._rank_rows(params.field, basis) != len(basis):
                raise ValueError("basis rows are linearly dependent")
            self.basis, self.words = basis, None
        else:
            words = tuple(sorted(set(map(operator.index, words))))
            space = params.q ** params.total_dim if words else 0
            for end in words[:1] + words[-1:]:  # sorted: the ends suffice
                if not 0 <= end < space:
                    raise ValueError(f"code {end} outside [0, {space})")
            self.basis, self.words = None, words

    @classmethod
    def _built(cls, params, rows):
        """The linear code of a sampler's independent rows of field
        entries: no check_entries and no second rank check."""
        code = object.__new__(cls)
        code.params = params
        code.basis, code.words = tuple(rows), None
        return code

    @property
    def is_linear(self):
        return self.basis is not None

    @property
    def dimension(self):
        if not self.is_linear:
            raise ValueError("general codes have no dimension")
        return len(self.basis)

    @property
    def size(self):
        if self.is_linear:
            return self.params.q ** len(self.basis)
        return len(self.words)

    def codewords(self):
        """The codes of all codewords.  A linear code lists its q^k
        combinations, the first basis row's coefficient varying fastest."""
        if not self.is_linear:
            return list(self.words)
        require_within(self.size, guards.MAX_SWEEP, "codeword count")
        field = self.params.field
        add = metric.code_adder(field, self.params.total_dim)
        combos = [0]
        for row in self.basis:
            combos += [add(c, s) for s in _multiples(field, row)[1:]
                       for c in combos]
        return combos

    def to_json(self):
        params = self.params
        if self.is_linear:
            return {"kind": "linear", "basis": [  # rows checked on entry
                BlockTuple._built(params, row).to_json() for row in self.basis]}
        return {"kind": "general", "codewords": [
            metric.tuple_from_code(params, w).to_json() for w in self.words]}


def _multiples(field, row):
    """The codes of c * row, by c in [0, q)."""
    return [metric.vector_code(field.q, map(mul.__getitem__, row))
            for mul in field._mul]


def sample_linear_code(params, rate, rng):
    """Row space of a uniform full-rank k x mn generator, k = rate * mn."""
    k = dimension_from_rate(params, rate)
    return Code._built(params, linalg.sample_full_rank(
        params.field, k, params.total_dim, rng))


def sample_general_code(params, rate, rng):
    """Each point included independently with probability q^((rate-1)mn).

    The Bernoulli draw is exact: include iff randrange(q^((1-rate)mn)) == 0.
    Guarded: sweeps the whole space, q^mn points.
    """
    k = dimension_from_rate(params, rate)
    space = require_power_within(params.q, params.total_dim, guards.MAX_SWEEP,
                                 "code space size")
    denom = params.q ** (params.total_dim - k)
    return Code(params, words=[code for code in range(space)
                               if rng.randrange(denom) == 0])


# -- list sizes ------------------------------------------------------------

def _occupancy_by_center(code, radius):
    """Map center -> |B(center, radius) meet C| for all centers hit.

    Spreads each codeword over the ball around it; centers never hit hold
    list size zero and are omitted.
    """
    params = code.params
    require_power_within(params.q, params.total_dim, guards.MAX_SWEEP,
                         "code space size")
    add = metric.code_adder(params.field, params.total_dim)
    words = code.codewords()
    counts = collections.Counter()
    for offset in metric.iter_ball(params, radius):
        counts.update(map(add, words, repeat(offset)))
    return counts


def require_coset_histogram_within(params, radius, dimension):
    """Raise GuardError unless a dimension-k linear code's coset histogram
    is within its caps: q^(m*eta) block ranks and the ball points (one class
    each at most) at MAX_SWEEP apiece, and block ranks plus ball points
    times 1 + k adds (walked, then reduced against k rows), an add priced
    by metric.code_adder_steps, at MAX_COSET_STEPS."""
    blocks = require_power_within(params.q, params.m * params.eta,
                                  guards.MAX_SWEEP, "block matrix count")
    ball = require_within(ball_volume(params, radius), guards.MAX_SWEEP,
                          "ball volume")
    add = metric.code_adder_steps(params.field, params.total_dim)
    require_within(blocks + ball * (1 + dimension * add),
                   guards.MAX_COSET_STEPS, "coset reduction steps")


def _coset_histogram(code, radius):
    """Map reduced code -> number of ball points in its coset, for a linear
    code: every center of a coset has that many codewords within radius.

    Each ball point is reduced against the RREF basis: at each pivot in
    turn, read its digit c and add -c times the pivot's row, which zeroes
    that digit.  That leaves the smallest code of its coset.  Guarded by
    require_coset_histogram_within.
    """
    params = code.params
    field, q, n = params.field, params.q, params.total_dim
    require_coset_histogram_within(params, radius, code.dimension)
    rows, pivots = linalg._rref(field, code.basis)
    add = metric.code_adder(field, n)
    points = list(metric.iter_ball(params, radius))
    for p, row in zip(pivots, rows):
        # minus[c] is the code of -c * row
        minus = list(map(_multiples(field, row).__getitem__, field._neg))
        place = q ** (n - 1 - p)
        points = [add(x, minus[x // place % q]) for x in points]
    return collections.Counter(points)


def max_list_size(code, radius):
    """Largest list size over every center, with a witness: the smallest
    center code among the largest lists.

    A linear code reads its coset histogram of B(0, radius) (guarded by
    block and ball size and by MAX_COSET_STEPS); a general code spreads
    every codeword over the ball (guarded at MAX_SWEEP points of
    space).
    """
    params = code.params
    params.check_radius(radius)
    counts = (_coset_histogram if code.is_linear
              else _occupancy_by_center)(code, radius)
    best = max(counts.values(), default=0)
    witness = min((key for key, value in counts.items() if value == best),
                  default=0)  # the zero center when no center is hit
    return best, witness


# -- correlation style estimators ------------------------------------------

def _ball_trials(params, radius, gamma, trials, stream, event):
    """Estimate Pr[event(points)] over independent draws of gamma points
    uniform on B(0, radius), trial i drawing from stream.child(i)."""
    successes = 0
    for i in range(trials):
        rng = stream.child(i)
        if event([metric.sample_ball_uniform(params, radius, rng)
                  for _ in range(gamma)]):
            successes += 1
    return EstimateResult.from_counts(successes, trials)


def _inside(row, points, radius):
    """Whether sum_i row[i] * points[i], over the shorter of the two, lies
    in B(0, radius)."""
    total = points[0] if row[0] == 1 else points[0].scale(row[0])
    for c, x in zip(row[1:], points[1:]):
        if c:
            total = total.add(x if c == 1 else x.scale(c))
    return total.weight() <= radius


def correlation_estimate(params, rho, trials, stream, center=None):
    """Estimate Pr[X1 + X2 in B(center, radius)] for independent uniform
    ball draws X1, X2 at radius floor(rho * n); center defaults to zero.
    The center is negated once: X1 + X2 - center is one more addition."""
    radius = radius_for(params, rho)
    shift = [] if center is None else [center.neg()]
    return _ball_trials(params, radius, 2, trials, stream,
                        lambda xs: _inside((1, 1, 1), xs + shift, radius))


def span_ball_count(points, radius):
    """Number of distinct span elements of the given points inside
    B(0, radius); guarded at q^len(points) combinations, each built from
    one before it by one addition."""
    if not points:
        raise ValueError("need at least one point")
    params = points[0].params  # add refuses points of another space
    require_power_within(params.q, len(points), guards.MAX_SWEEP,
                         "span combination count")
    combos = [points[0].scale(c) for c in range(params.q)]
    for x in points[1:]:
        combos += [y.add(s) for s in [x.scale(c) for c in range(1, params.q)]
                   for y in combos]
    distinct = {y.entries: y for y in combos}.values()
    return sum(1 for y in distinct if y.weight() <= radius)


def limited_correlation_estimate(params, rho, gamma, bound_factor, trials, stream):
    """Estimate Pr[|span(X1..Xgamma) meet B(0, radius)| >= bound_factor * gamma]
    for independent uniform ball draws at radius floor(rho * n)."""
    radius = radius_for(params, rho)
    threshold = _as_fraction(bound_factor) * gamma
    require_power_within(params.q, gamma, guards.MAX_SWEEP,
                         "span combination count")  # before any draw
    return _ball_trials(params, radius, gamma, trials, stream,
                        lambda xs: span_ball_count(xs, radius) >= threshold)


def subset_span_event_estimate(params, rho, coefficient_vectors, trials, stream):
    """Estimate the probability that every listed coefficient combination of
    gamma independent ball draws lands back in B(0, radius).

    coefficient_vectors holds rows over [0, q), all of one length gamma.
    """
    radius = radius_for(params, rho)
    vectors = [tuple(int(c) for c in row) for row in coefficient_vectors]
    if not vectors or not vectors[0]:
        raise ValueError("need at least one nonempty coefficient vector")
    gamma = len(vectors[0])
    for row in vectors:
        if len(row) != gamma:
            raise ValueError("coefficient vectors have unequal lengths")
        if any(not 0 <= c < params.q for c in row):
            raise ValueError("coefficient outside field range")
    return _ball_trials(params, radius, gamma, trials, stream, lambda xs: all(
        _inside(row, xs, radius) for row in vectors))
