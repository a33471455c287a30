"""Brute-force references that the tests check the package against.

Each oracle enumerates, sums or samples the plain way: every ball point,
every decomposable subspace, every vector of a subspace, one distance per
codeword.  None of them is called by package code, so a change to the
package cannot rewrite the reference it is checked against.  Each keeps its
own guard, so a test that asks for too much fails fast instead of running
for hours.
"""

import csv
import io
import itertools
import json
import math
import operator
from fractions import Fraction

from sumrank import cli, counting, linalg, metric
from sumrank.counting import SpaceParams, ball_volume
from sumrank.decomposable import (DecomposableSubspace, _event_threshold,
                                  sample_decomposable_uniform)
from sumrank.galois import field_from_order
from sumrank.guards import MAX_SWEEP, require_power_within, require_within
from sumrank.metric import BlockTuple, iter_ball, tuple_from_code
from sumrank.montecarlo import EstimateResult, uniform_draws

# Hard cap on full-space enumeration, q^(m*eta*ell) points.
MAX_ENUMERATION = 2 ** 16
# enumerate_decomposable refuses families larger than this.
MAX_DECOMPOSABLE = 10 ** 6


def params_for(q, m, eta, ell):
    return SpaceParams(field=field_from_order(q), m=m, eta=eta, ell=ell)


def is_prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


# -- integer codes ---------------------------------------------------------

def decode(q, length, code):
    """The length base-q digits of code, most significant first, one divmod
    by q per digit."""
    if not 0 <= code < q ** length:
        raise ValueError(f"code {code} outside [0, {q ** length})")
    out = []
    for _ in range(length):
        code, digit = divmod(code, q)
        out.append(digit)
    return tuple(reversed(out))


def encode(field, length, vector):
    """The base-q code of a vector over the field, checked: `length`
    entries, each an int (operator.index) in [0, q)."""
    vector = tuple(map(operator.index, vector))
    if len(vector) != length:
        raise ValueError("vector length does not match")
    if any(not 0 <= x < field.q for x in vector):
        raise ValueError("vector entry outside field range")
    code = 0
    for x in vector:
        code = code * field.q + x
    return code


def rank_table_by_elimination(field, m, eta):
    """Rank of every m x eta matrix by matrix code, each decoded on its own
    and ranked by elimination."""
    q = field.q
    require_power_within(q, m * eta, MAX_ENUMERATION, "matrix count")
    out = bytearray()
    for code in range(q ** (m * eta)):
        entries = decode(q, m * eta, code)
        out.append(linalg._rank_rows(
            field, [entries[r * eta:(r + 1) * eta] for r in range(m)]))
    return bytes(out)


# -- points and balls ------------------------------------------------------

def zero_tuple(params):
    return BlockTuple(params, (0,) * params.total_dim)


def sum_rank_distance(x, y):
    return x.sub(y).weight()


def enumerate_ball(params, r):
    """All points at weight <= r, as BlockTuples in code order, guarded at
    MAX_ENUMERATION points of space."""
    params.check_radius(r)
    require_power_within(params.q, params.total_dim, MAX_ENUMERATION,
                         "space size")
    return [tuple_from_code(params, code) for code in iter_ball(params, r)]


def sample_rank_matrix_by_factors(field, m, eta, r, rng):
    """A uniform m x eta matrix of rank r as U V at every r >= 1: full-rank
    factors from linalg.sample_full_rank, multiplied by linalg.mat_mul."""
    if r == 0:
        return tuple((0,) * eta for _ in range(m))
    left = linalg.sample_full_rank(field, m, r, rng)
    right = linalg.sample_full_rank(field, r, eta, rng)
    return tuple(linalg.mat_mul(field, left, right))


def matrix_code(q, block):
    """The code of a matrix: its rows' entries in order, as vector_code."""
    return metric.vector_code(q, [v for row in block for v in row])


def _nonzero_vector(draws, length):
    # a length x 1 or 1 x length full-rank draw: redrawn while all zero
    while not any(vector := tuple(itertools.islice(draws, length))):
        pass
    return vector


def sample_rank_matrix_by_rows(field, m, eta, r, rng):
    """A uniform m x eta matrix of rank r as a grid, with the generator
    words the package has always taken: the rows u_i v of an outer product
    at rank 1, and sample_rank_matrix_by_factors at every other rank."""
    if not 0 <= r <= min(m, eta):
        raise ValueError(f"rank r = {r} outside [0, {min(m, eta)}]")
    if r != 1:
        return sample_rank_matrix_by_factors(field, m, eta, r, rng)
    draws = uniform_draws(field.q, rng)
    u = _nonzero_vector(draws, m)
    v = _nonzero_vector(draws, eta)
    return tuple(tuple(map(field._mul[x].__getitem__, v)) for x in u)


def ball_composition(params, radius, u):
    """Per-block ranks of the point at offset u of the ball, with points
    ordered by weight and then by rank composition in lexicographic order,
    the powers read afresh for each offset."""
    base = counting.rank_count_vector(params.m, params.eta, params.q)
    spheres = counting.block_sum_power(base, params.ell, radius)
    counting.completion_powers(base, params.ell, radius)
    weight = 0
    while u >= spheres[weight]:
        u -= spheres[weight]
        weight += 1
    return counting.unrank_block_sum(base, params.ell, weight, u)


def sample_ball_by_blocks(params, radius, rng):
    """A point uniform on the ball, with the generator words the package
    has always taken: one offset below the volume for the composition, then
    each block drawn as a grid by sample_rank_matrix_by_rows."""
    params.check_radius(radius)
    comp = ball_composition(params, radius,
                            rng.randrange(ball_volume(params, radius)))
    entries = []
    for part in comp:
        for row in sample_rank_matrix_by_rows(params.field, params.m,
                                              params.eta, part, rng):
            entries += row
    return BlockTuple(params, entries)


def block_rank_sum(x):
    """The weight of a point, each block ranked by elimination."""
    return sum(linalg._rank_rows(x.params.field, block) for block in x.blocks)


def sample_uniform_tuple(params, rng):
    """A point uniform on the whole space."""
    q = params.q
    return BlockTuple(params, [rng.randrange(q) for _ in range(params.total_dim)])


# -- codes -----------------------------------------------------------------

def list_size_at(code, center, radius):
    """Exact |B(center, radius) meet C|, one distance per codeword."""
    params = code.params
    params.check_radius(radius)
    return sum(1 for w in code.codewords() if sum_rank_distance(
        tuple_from_code(params, w), center) <= radius)


def expected_ball_occupancy(code, radius):
    """(closed form, exhaustive average) of |B(X, radius) meet C| over
    uniform centers X.

    Closed form: |C| * ball_volume / q^mn.  The exhaustive side recomputes
    the average from scratch, one sum w + x per codeword w and center x (x
    and -x range over the same space), its weight read off the block ranks
    that rank_table found by elimination, so agreement is a real check and
    not an algebraic echo.
    """
    params = code.params
    space = require_power_within(params.q, params.total_dim, MAX_SWEEP,
                                 "code space size")
    closed = Fraction(code.size * ball_volume(params, radius), space)
    ranks = metric.rank_table(params.field, params.m, params.eta)
    weights = ranks  # of every point, by code: its block ranks summed
    for _ in range(params.ell - 1):
        weights = bytes(a + b for a in ranks for b in weights)
    inside = weights.translate(bytes(w <= radius for w in range(256)))
    add = metric.code_adder(params.field, params.total_dim)
    words = code.codewords()
    hits = sum(inside[add(w, center)]
               for center in range(space) for w in words)
    return closed, Fraction(hits, space)


# -- chains ----------------------------------------------------------------

def support(vector):
    """Indices of the nonzero coordinates."""
    return frozenset(i for i, v in enumerate(vector) if v)


def is_increasing_chain(vectors, c):
    """True when every vector adds at least c coordinates of new support."""
    cover = frozenset()
    for v in vectors:
        gain = support(v) - cover
        if len(gain) < c:
            return False
        cover = cover | gain
    return True


def chain_by_deepening(items, gamma, c, cap):
    """The codes of the canonically first longest chain over the (support
    mask, code) items, at most cap long, by iterative deepening: one
    depth-first search per length 1, 2, ... up to cap, vectors in code
    order, keeping the chain of the last length found."""
    items = sorted(items, key=operator.itemgetter(1))

    def first(length, cover, depth):
        if depth == length:
            return []
        if depth + (gamma - cover.bit_count()) // c < length:
            return None
        for mask, val in items:
            if (mask & ~cover).bit_count() >= c:
                rest = first(length, cover | mask, depth + 1)
                if rest is not None:
                    return [val] + rest
        return None
    best = []
    while len(best) < cap and (found := first(len(best) + 1, 0, 0)) is not None:
        best = found
    return best


# -- decomposable subspaces ------------------------------------------------

def enumerate_decomposable(field, eta, ell, w):
    """All decomposable subspaces of total dimension w; guarded brute force."""
    expected = counting.decomposable_count(eta, ell, w, field.q)
    require_within(expected, MAX_DECOMPOSABLE, "decomposable family size")
    out = []
    for comp in counting.bounded_compositions(w, ell, upper=eta):
        per_block = [linalg.enumerate_subspaces(field, eta, k) for k in comp]
        for combo in itertools.product(*per_block):
            out.append(DecomposableSubspace(combo))
    assert len(out) == expected
    return out


def intersection_event_probability_exact(field, eta, ell, w_x, w_y,
                                         min_fraction=None, exact_dim=None):
    """Exact event probability by double enumeration; guarded like
    enumerate_decomposable."""
    event = _event_threshold(w_x, min_fraction, exact_dim)
    xs = enumerate_decomposable(field, eta, ell, w_x)
    ys = enumerate_decomposable(field, eta, ell, w_y) if w_y != w_x else xs
    hits = 0
    for x in xs:
        for y in ys:
            if event(x.intersect(y).total_dim):
                hits += 1
    return Fraction(hits, len(xs) * len(ys))


def intersection_dimension_estimate_by_meets(field, eta, ell, w_x, w_y,
                                             trials, stream, min_fraction=None,
                                             exact_dim=None):
    """decomposable.intersection_dimension_estimate the object way: each
    trial samples X and Y as DecomposableSubspaces and reads the total
    dimension of their blockwise Zassenhaus meet."""
    event = _event_threshold(w_x, min_fraction, exact_dim)
    successes = dim_total = 0
    for i in range(trials):
        rng = stream.child(i)
        x = sample_decomposable_uniform(field, eta, ell, w_x, rng)
        y = sample_decomposable_uniform(field, eta, ell, w_y, rng)
        d = x.intersect(y).total_dim
        dim_total += d
        if event(d):
            successes += 1
    return EstimateResult.from_counts(successes, trials, dim_total)


def flatten(space):
    """The decomposable space inside F_q^(eta*ell); block i occupies
    coordinates [i*eta, (i+1)*eta)."""
    ambient = space.eta * space.ell
    rows = []
    for i, f in enumerate(space.factors):
        for row in f.basis:
            flat = [0] * ambient
            flat[i * space.eta:(i + 1) * space.eta] = row
            rows.append(tuple(flat))
    return linalg.Subspace.span(space.field, ambient, rows)


# -- subspaces -------------------------------------------------------------

def vec_add(field, u, v):
    add = field._add
    return tuple(add[x][y] for x, y in zip(u, v))


def vec_scale(field, c, u):
    mrow = field._mul[c]
    return tuple(mrow[x] for x in u)


def vectors(space):
    """Iterate all q^dim vectors of the subspace."""
    field = space.field
    if not space.basis:
        yield (0,) * space.ambient
        return
    for coeffs in itertools.product(range(field.q), repeat=space.dim):
        vec = (0,) * space.ambient
        for c, row in zip(coeffs, space.basis):
            if c:
                vec = vec_add(field, vec, vec_scale(field, c, row))
        yield vec


def rref_by_gauss_jordan(field, rows):
    """(reduced rows without zero rows, pivot column tuple) by Gauss-Jordan
    elimination: each pivot column is scaled and cleared in every other row
    before the next column is searched."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    add, mul, neg, inv = field._add, field._mul, field._neg, field._inv
    pivots = []
    for col in range(ncols):
        prow = len(pivots)
        pivot = next((i for i in range(prow, nrows) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[prow], mat[pivot] = mat[pivot], mat[prow]
        mrow = mul[inv[mat[prow][col]]]
        mat[prow] = [mrow[x] for x in mat[prow]]
        for i in range(nrows):
            if i != prow and mat[i][col]:
                mrow = mul[neg[mat[i][col]]]  # target -= factor * source
                mat[i] = [add[x][mrow[y]] for x, y in zip(mat[i], mat[prow])]
        pivots.append(col)
    return [tuple(r) for r in mat[:len(pivots)]], tuple(pivots)


def sample_subspace_in_two_steps(field, ambient, k, rng):
    """A uniform k-dimensional subspace as a full-rank draw from
    linalg.sample_full_rank, reduced on its own by Gauss-Jordan."""
    if k == 0:
        return linalg.Subspace.zero(field, ambient)
    rows = linalg.sample_full_rank(field, k, ambient, rng)
    return linalg.Subspace(field, ambient,
                           tuple(rref_by_gauss_jordan(field, rows)[0]))


def contains(space, vector):
    """Membership: the vector leaves the rank of the basis unchanged."""
    vector = tuple(vector)
    if len(vector) != space.ambient:
        raise ValueError("vector length does not match ambient dimension")
    for v in vector:
        space.field.check(v)
    return linalg._rank_rows(space.field, (*space.basis, vector)) == space.dim


# -- chi-squared -----------------------------------------------------------

def chi_squared_tail(stat, dof):
    """P(X >= stat) for X chi-squared with a positive integer dof.

    The regularized upper gamma Q(dof/2, stat/2) in closed form: with
    x = stat/2, Q(n, x) = e^-x sum_{a<n} x^a/a! and
    Q(n + 1/2, x) = erfc(sqrt x) + e^-x sum_{a<n} x^(a+1/2)/Gamma(a + 3/2).
    Each term is taken in the log domain, so none under- or overflows on its
    own for thousands of degrees of freedom.
    """
    if dof < 1:
        raise ValueError("dof must be positive")
    x = stat / 2
    if x <= 0:
        return 1.0
    n, odd = divmod(dof, 2)
    shift = 0.5 * odd
    log_x = math.log(x)
    terms = [math.exp((a + shift) * log_x - x - math.lgamma(a + 1 + shift))
             for a in range(n)]
    if odd:
        terms.append(math.erfc(math.sqrt(x)))
    return math.fsum(terms)


def chi_squared_uniform_pvalue(counts):
    """Upper tail p-value of Pearson's chi-squared against the uniform law.

    counts holds one observed count per category; expected counts are equal.
    """
    k = len(counts)
    if k < 2:
        raise ValueError("need at least two categories")
    total = sum(counts)
    if total == 0:
        raise ValueError("no observations")
    expected = total / k
    stat = sum((c - expected) ** 2 for c in counts) / expected
    return chi_squared_tail(stat, k - 1)


def emit_csv_by_column(records):
    """The CSV text of records, sorted as cli.emit sorts them, written one
    cell at a time with every record's config encoded anew."""
    records = sorted(records, key=lambda r: (r["trial"], r["statistic"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cli.CSV_HEADER)
    for rec in records:
        row = []
        for col in cli.CSV_HEADER:
            v = rec[col]
            if col == "config":
                v = json.dumps(v, sort_keys=True, separators=(",", ":"))
            row.append("" if v is None else v)
        writer.writerow(row)
    return buf.getvalue()
