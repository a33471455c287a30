"""The sum-rank metric space: tuples of matrices, weights, balls, samplers.

A point is an ell-tuple of m x eta matrices over F_q; its weight is the sum
of the block ranks.  A sampled point is a BlockTuple, its flat vector: the
blocks in order, each block row-major, the same entries every other layer
reads (linalg rows, code bases, the integer encoding).  Enumeration code
indexes points, matrices and plain vectors by one integer encoding (base q,
entries in to_vector() order, most significant first).  Only this module
decodes a code: at the CLI/JSON edge, and in code_set, which cuts a set of
codes once into chunk columns for the chain searches.

The ball sampler is exact.  It draws weight and per-block ranks by inverse
CDF on exact integer counts, then draws each block of rank r as U V with
uniform full-rank factors, rank 1 as an outer product; every rank-r matrix
has the same number of such factorizations, so the result is exactly
uniform on the ball.  A draw reads drawers built once per shape, at its
first draw: per (params, radius) the ball volume, sphere sums and
completion tails, and per (field, m, eta) one block drawer per rank, each
giving the block's entries flat and row-major.  They take the generator
words, and so give the points, of a draw that builds each block as a grid
of rows.  Points the sampler and the point arithmetic build from the field
tables skip the entry check, and a weight reads each block's rank from
rank_table where the table is small.
"""

import functools
import itertools
import operator

from . import counting, guards, linalg
from .montecarlo import uniform_draws
# sphere_volume is not called here: perfbench's tracer test checks that the
# tracer also patches a copy imported into another module, this one.
from .counting import ball_volume, sphere_volume  # noqa: F401
from .guards import require_int, require_power_within, require_within


class BlockTuple:
    """An immutable point of the metric space, held as its flat vector of
    m*eta*ell element indices in to_vector() order."""

    __slots__ = ("params", "entries", "_weight")

    def __init__(self, params, vector):
        self.params = params
        self.entries = check_entries(params, vector)
        self._weight = None

    @classmethod
    def _built(cls, params, entries):
        """The point of a tuple of total_dim entries read from the field
        tables, so already in [0, q): no check_entries."""
        point = object.__new__(cls)
        point.params = params
        point.entries = entries
        point._weight = None
        return point

    @property
    def blocks(self):
        """The ell blocks, each a tuple of m rows of eta entries."""
        return _blocks(self.entries, self.params.m, self.params.eta)

    def weight(self):
        """Sum of the block ranks; cached after the first call."""
        if self._weight is None:
            p = self.params
            self._weight = _weigher(p.field, p.m, p.eta)(self.entries)
        return self._weight

    def add(self, other):
        if self.params is not other.params and self.params != other.params:
            raise ValueError("points live in different spaces")
        rows = map(self.params.field._add.__getitem__, self.entries)
        return BlockTuple._built(self.params, tuple(
            map(operator.getitem, rows, other.entries)))

    def neg(self):
        return BlockTuple._built(self.params, tuple(
            map(self.params.field._neg.__getitem__, self.entries)))

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, c):
        mrow = self.params.field._mul[self.params.field.check(c)]
        return BlockTuple._built(self.params, tuple(
            map(mrow.__getitem__, self.entries)))

    def to_vector(self):
        """The m*eta*ell entries, blocks in order, each block row-major."""
        return self.entries

    def __eq__(self, other):
        return (isinstance(other, BlockTuple)
                and self.params == other.params and self.entries == other.entries)

    def __hash__(self):
        return hash((self.params, self.entries))

    def __repr__(self):
        return f"BlockTuple(weight={self.weight()}, params={self.params!r})"

    def to_json(self):
        return [[list(row) for row in block] for block in self.blocks]


def check_entries(params, vector):
    """The vector as a tuple of m*eta*ell field indices, or ValueError."""
    entries = tuple(map(operator.index, vector))
    if len(entries) != params.total_dim:
        raise ValueError(f"expected {params.total_dim} entries, "
                         f"got {len(entries)}")
    low, high = min(entries), max(entries)
    if low < 0 or high >= params.q:
        bad = low if low < 0 else high
        raise ValueError(f"entry {bad} outside field of order {params.q}")
    return entries


def _blocks(entries, m, eta):
    rows = [entries[i:i + eta] for i in range(0, len(entries), eta)]
    return tuple(tuple(rows[i:i + m]) for i in range(0, len(rows), m))


@functools.lru_cache(maxsize=None)
def _weigher(field, m, eta):
    """weigh(entries), the sum of the block ranks of a point's entries: the
    nonzero blocks counted when min(m, eta) = 1, rank_table read at each
    block code when q^(m*eta) <= WEIGHT_TABLE_CODES, and each block ranked
    by elimination otherwise."""
    size = m * eta
    if min(m, eta) == 1:
        return lambda entries: sum(map(any, zip(*[iter(entries)] * size)))
    if (size < WEIGHT_TABLE_CODES.bit_length()  # q^size >= 2^size
            and field.q ** size <= WEIGHT_TABLE_CODES):
        q, ranks = field.q, rank_table(field, m, eta)
        return lambda entries: sum(
            ranks[vector_code(q, entries[i:i + size])]
            for i in range(0, len(entries), size))
    return lambda entries: sum(
        linalg._rank_rows(field, block) for block in _blocks(entries, m, eta))


# -- integer codes ---------------------------------------------------------
#
# One encoding serves vectors, matrices and points: the base-q integer whose
# digits are the entries, most significant first.  A matrix's digits are its
# rows in order and a point's are its to_vector() entries, so a point's
# blocks are its digits in base q^(m*eta), most significant block first.

def vector_code(q, entries):
    """Base-q integer of the entries (any iterable), most significant first:
    Horner's rule up to 64 entries, and high * q^len(low) + low over the
    halves above that, near-linear in the length rather than quadratic."""
    if not isinstance(entries, (list, tuple)):
        entries = list(entries)
    if len(entries) > 64:
        half = len(entries) // 2
        return (vector_code(q, entries[:half]) * q ** (len(entries) - half)
                + vector_code(q, entries[half:]))
    code = 0
    for v in entries:
        code = code * q + v
    return code


def vector_from_code(q, length, code):
    """The length entries whose vector_code is code, the mirror of
    vector_code: one divmod by q per entry up to 64 entries, and
    divmod(code, q^(length - half)) into the halves above that."""
    if not 0 <= code < q ** length:
        raise ValueError(f"code {code} outside [0, {q ** length})")
    if length > 64:
        half = length // 2
        high, low = divmod(code, q ** (length - half))
        return (vector_from_code(q, half, high)
                + vector_from_code(q, length - half, low))
    out = [0] * length
    for i in range(length - 1, -1, -1):
        code, out[i] = divmod(code, q)
    return tuple(out)


def tuple_code(x):
    return vector_code(x.params.q, x.to_vector())


def tuple_from_code(params, code):
    return BlockTuple(params, vector_from_code(params.q, params.total_dim, code))


# Odd characteristic adds codes k digits at a time through a q^k x q^k
# table, with q^k at most this whatever the length is (or k = 1).
CHUNK_CODES = 256
# BlockTuple.weight reads rank_table for blocks of at most this many codes,
# a table of at most 4 KB.
WEIGHT_TABLE_CODES = 2 ** 12


@functools.lru_cache(maxsize=None)
def _chunk_tables(field):
    """(k, sums, supports, negatives) for k-digit chunks, q^k <= CHUNK_CODES
    or k = 1: sums[a][b] is the code of the digit-wise sum of codes a and b,
    supports[a] the support mask of a, first digit in the top bit, negatives[a]
    the code of -a.  Above one digit q^k <= 256, so rows are bytes."""
    q, k = field.q, _chunk_digits(field.q)
    sums, supports = field._add, (0,) + (1,) * (q - 1)
    for _ in range(k - 1):  # append one low digit
        sums = tuple(bytes(s * q + d for s in row for d in low)
                     for row in sums for low in field._add)
        supports = bytes(m << 1 | (d > 0) for m in supports for d in range(q))
    return k, sums, supports, tuple(row.index(0) for row in sums)


def _chunk_digits(q):
    # the k of _chunk_tables: the most digits with q^k <= CHUNK_CODES, or 1
    k = 1
    while q ** (k + 1) <= CHUNK_CODES:
        k += 1
    return k


def _join(columns, radix):
    # the numbers whose base-radix digits, top first, are the columns
    out = list(columns[0])
    for column in columns[1:]:
        out = list(map(operator.add, map(operator.mul, out,
                                         itertools.repeat(radix)), column))
    return out


def _columns(codes, base, count):
    """The count base-`base` digit columns of codes below base^count, top
    digit first, each a tuple in list order: every code split at once by
    divmod(code, base^(count - half)), as vector_from_code halves one, and
    the high and low parts cut in turn."""
    if count == 1:
        return [tuple(codes)]
    half = count // 2
    parts = list(zip(*map(divmod, codes,
                          itertools.repeat(base ** (count - half)))))
    high, low = parts or ((), ())
    return _columns(high, base, half) + _columns(low, base, count - half)


def code_set(field, length, codes):
    """(shift, neg) for codes of `length` entries read as a set A: shift(w)
    gives the support masks and codes of A + w, neg() the codes of -A, in
    list order.  At q = 2 a code is its mask and + w is XOR; otherwise the
    codes are cut here, once, into k-digit chunk columns read at C level."""
    if field.q == 2:
        return (lambda w: (list(map(operator.xor, codes,
                                    itertools.repeat(w))),) * 2,
                lambda: list(codes))
    k, sums, supports, negatives = _chunk_tables(field)
    base, count = field.q ** k, -(-length // k)
    cut = functools.partial(vector_from_code, base, count)
    columns = _columns(codes, base, count)

    def shift(w):
        parts = [list(map(sums[d].__getitem__, column))
                 for d, column in zip(cut(w), columns)]
        return (_join([map(supports.__getitem__, p) for p in parts], 1 << k),
                _join(parts, base))

    def neg():
        return _join([map(negatives.__getitem__, c) for c in columns], base)
    return shift, neg


def code_adder(field, length):
    """add(a, b), the code of the digit-wise sum of codes a and b of
    `length` entries: XOR at every q = 2^e, whose digits are bit fields of
    the code, and k digits at a time through _chunk_tables otherwise."""
    if field.p == 2:
        return operator.xor
    k, sums = _chunk_tables(field)[:2]
    base = field.q ** k
    places = [base ** i for i in range(-(-length // k))]

    def add(a, b):
        total = 0
        for place in places:
            a, x = divmod(a, base)
            b, y = divmod(b, base)
            total += sums[x][y] * place
        return total
    return add


def code_adder_steps(field, length):
    """The price of one code_adder(field, length) call: 1 at q = 2^e, one
    XOR; otherwise its ceil(length / k) chunk steps, each counted once per
    started 1,024 bits of code, as its divmods run over the whole code."""
    if field.p == 2:
        return 1
    bits = length * field.q.bit_length()
    return -(-length // _chunk_digits(field.q)) * -(-bits // 1024)


@functools.lru_cache(maxsize=None, typed=True)
def rank_table(field, m, eta):
    """Rank of every m x eta matrix as bytes indexed by matrix code; the
    caller guards the q^(m*eta) eliminations.  product() yields the
    matrices as row tuples in code order, each row a shared tuple."""
    m, eta = require_int("m", m), require_int("eta", eta)
    rows = itertools.product(range(field.q), repeat=eta)
    return bytes(map(functools.partial(linalg._rank_rows, field),
                     itertools.product(rows, repeat=m)))


def require_histogram_within(params):
    """Raise GuardError unless weight_histogram(params) is within
    MAX_SWEEP: q^(m*eta) block matrices plus ell^2 (t + 1)^2
    products, t = min(m, eta).  Arithmetic only."""
    blocks = require_power_within(params.q, params.m * params.eta,
                                  guards.MAX_SWEEP, "block matrix count")
    require_within(blocks + (params.ell * (params.block_rank_cap + 1)) ** 2,
                   guards.MAX_SWEEP, "weight histogram work")


@functools.lru_cache(maxsize=None)
def _block_rank_counts(field, m, eta):
    """Entry k counts the m x eta matrices of rank k: rank_table's bytes
    counted once per block shape; the caller guards the table."""
    return tuple(map(rank_table(field, m, eta).count,
                     range(min(m, eta) + 1)))


def weight_histogram(params, shorter=None):
    """Exact weight distribution of the whole space: entry w counts the
    points of weight w among all q^(m*eta*ell).

    This is the brute-force oracle for the volume formulas.  Every block is
    ranked by elimination (rank_table); a point's weight is the sum of its
    ell independent block ranks, so the block rank histogram convolved ell
    times counts the points by weight.  The plain convolution here shares
    nothing with counting's recurrence.  shorter, when given, is this
    histogram for the same blocks at ell - 1, and one convolution extends
    it.  Guarded by require_histogram_within.
    """
    require_histogram_within(params)
    block = _block_rank_counts(params.field, params.m, params.eta)
    hist, steps = ([1], params.ell) if shorter is None else (shorter, 1)
    for _ in range(steps):
        out = [0] * (len(hist) + len(block) - 1)
        for w, count in enumerate(hist):
            for k, ranked in enumerate(block, w):
                out[k] += count * ranked
        hist = out
    return hist


def iter_ball(params, r):
    """Codes of every point at weight <= r, increasing; the caller guards
    the q^(m*eta) block codes ranked, once, by rank_table.

    Blocks are chosen most significant first, each among the block codes
    whose rank fits the radius left, so every prefix walked extends to a
    ball point.  The walk keeps a stack of its own, not a frame per block.
    """
    params.check_radius(r)
    base = params.q ** (params.m * params.eta)
    ranks = rank_table(params.field, params.m, params.eta)
    full = min(params.m, params.eta)  # every block fits from this radius on
    fits = [range(base) if t >= full
            else list(itertools.compress(range(base), map(t.__ge__, ranks)))
            for t in range(r + 1)]

    def walk():
        # per block being chosen: (code of the blocks before it, radius
        # left, its choices left)
        stack = [(0, r, iter(fits[r]))]
        while stack:
            prefix, left, heads = stack[-1]
            after = params.ell - len(stack)  # blocks after this one
            if after == 0:  # the last block: each choice is a point
                stack.pop()
                yield from map((prefix * base).__add__, fits[left])
            elif (head := next(heads, None)) is None:
                stack.pop()
            elif (rest := left - ranks[head]) == 0:  # the rest are zero
                yield (prefix * base + head) * base ** after
            else:
                stack.append((prefix * base + head, rest, iter(fits[rest])))
    return walk()


# -- samplers --------------------------------------------------------------

def _nonzero_vector(draws, length):
    # sample_full_rank's rejection on a length x 1 or 1 x length draw: a
    # vector has rank 1 unless all its entries are zero
    while not any(vector := tuple(itertools.islice(draws, length))):
        pass
    return vector


@functools.lru_cache(maxsize=None)
def _block_drawers(field, m, eta):
    """Entry r, for the r in [0, min(m, eta)] that callers admit, is
    draw(rng): the m*eta entries, row-major, of a uniform m x eta matrix
    of rank r.  Rank 0 is a zero tuple made per draw (a shared one would
    keep up to MAX_ENTRIES entries alive per shape for the life of the
    process), rank 1 the outer product u v, each row u_i v appended to one
    list, and rank r >= 2 the product U V of uniform full-rank factors."""
    size, mul, q = m * eta, field._mul, field.q

    def rank_one(rng):
        draws = uniform_draws(q, rng)
        u = _nonzero_vector(draws, m)
        v = _nonzero_vector(draws, eta)
        entries = []
        for x in u:
            entries += map(mul[x].__getitem__, v)
        return entries

    def product(r):
        def draw(rng):
            left = linalg.sample_full_rank(field, m, r, rng)
            right = linalg.sample_full_rank(field, r, eta, rng)
            entries = []
            for row in linalg.mat_mul(field, left, right):
                entries += row
            return entries
        return draw

    return (lambda rng: (0,) * size), rank_one, *map(
        product, range(2, min(m, eta) + 1))


def require_rank_matrix_within(m, eta, r):
    """Price one rank-r block draw: U (m x r) and V (r x eta), each drawn
    and eliminated, and their product built.  An r outside
    [0, min(m, eta)] is left to the sampler's ValueError."""
    if 0 <= r <= min(m, eta):
        entries = (m + eta) * r + m * eta
        guards.require_draw_within(entries, r * entries)


def sample_entries_of_rank(field, m, eta, r, rng):
    """The m*eta entries, row-major, of a uniform m x eta matrix of rank
    exactly r.

    Rank r >= 2 is U V with U uniform full-rank m x r and V uniform
    full-rank r x eta; each rank-r matrix has exactly |GL_r| such
    factorizations, so the product is uniform.  Rank 1 is the outer product
    of a nonzero column u and a nonzero row v, drawn with the generator
    words, and redrawn at the all-zero vectors, that sample_full_rank takes
    for U and V; row i is u_i v, which is row i of U V.
    """
    m, eta, r = (require_int("m", m), require_int("eta", eta),
                 require_int("rank r", r))
    if not 0 <= r <= min(m, eta):
        raise ValueError(f"rank r = {r} outside [0, {min(m, eta)}]")
    return _block_drawers(field, m, eta)[r](rng)


def sample_uniform_matrix_of_rank(field, m, eta, r, rng):
    """A uniform m x eta matrix of rank exactly r, as a grid of rows: the
    entries sample_entries_of_rank draws, cut into rows."""
    entries = sample_entries_of_rank(field, m, eta, r, rng)
    return tuple(tuple(entries[i * eta:(i + 1) * eta]) for i in range(m))


def require_ball_draw_within(params, radius):
    """Price one sample_ball_uniform draw: the point and the factors of its
    blocks, whose ranks sum to at most the radius; the draw's count guard
    bounds their work."""
    params.check_radius(radius)
    guards.require_draw_within(
        params.total_dim + (params.m + params.eta) * radius, 0)


@functools.lru_cache(maxsize=None)
def _ball_drawer(params, radius):
    """draw(rng), a point uniform on the ball of the radius around zero.

    Built at the first draw: the ball volume, the sphere sums and the
    completion tails to degree radius, each read from counting in the order
    that prices them.  A draw takes one offset below the volume; the
    spheres pick its weight, unrank_block_sum its per-block ranks, with
    points ordered by weight and then by rank composition in lexicographic
    order, and each block is drawn at its rank.
    """
    params.check_radius(radius)
    volume = ball_volume(params, radius)
    base = counting.rank_count_vector(params.m, params.eta, params.q)
    ell = params.ell
    spheres = counting.block_sum_power(base, ell, radius)
    tails = counting.completion_powers(base, ell, radius)
    blocks = _block_drawers(params.field, params.m, params.eta)

    def draw(rng):
        u = rng.randrange(volume)
        weight = 0
        while u >= spheres[weight]:
            u -= spheres[weight]
            weight += 1
        entries = []
        for part in counting.unrank_block_sum(base, ell, weight, u, tails):
            entries += blocks[part](rng)
        return BlockTuple._built(params, tuple(entries))
    return draw


def sample_ball_uniform(params, radius, rng):
    """A point uniform on the ball of the given radius around zero, from
    the drawer of (params, radius); a radius that is not an int raises
    ValueError before any drawer is read."""
    return _ball_drawer(params, require_int("radius", radius))(rng)
