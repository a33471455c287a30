"""Matrices and subspaces over a finite field.

A matrix is its rows: a sequence of equal-length tuples of canonical
element indices, with no wrapper type.  A subspace is identified with the
reduced row echelon basis of its row space, so equality of subspaces is
grid equality of bases.  Enumeration walks pivot patterns; sampling is
rejection on uniform full-rank matrices, which is exactly uniform on the
Grassmannian because every subspace has the same number of spanning k x n
matrices.

There is one elimination: a forward pass (_echelon), whose row count is the
rank, and a back substitution that takes its echelon rows on to the reduced
row echelon form.  Over F_2 each row is packed into an int and reduced by
XOR against the basis found so far, in both passes.  The samplers take their
entries from one iterator over ``getrandbits`` words, which consumes exactly
the words that one ``randrange(q)`` per entry would.  The subspace draw
(_sample_echelon) keeps the forward pass that ranked its accepted draw:
sample_subspace back-substitutes it, so each draw is eliminated once and a
rejected one costs the forward pass alone, and the decomposable dimension
estimator reads it as it is.  meet_dimension counts dim(A meet B) of two
forward passes by Grassmann's identity, dim A + dim B - rank [A; B], with
one more forward pass and no basis of the meet.
"""

import functools
from itertools import combinations, islice, product

from . import counting, guards
from .guards import require_within
from .montecarlo import uniform_draws


def _echelon(field, rows):
    """Forward elimination of the rows: one echelon row per unit of rank,
    so its length is the rank.

    Over F_2 each row is packed into an int, one entry per byte, and each
    basis vector lacks the leading bits of those before it, so min(v, v ^ b)
    in order clears every lead from v for good: v ends nonzero exactly when
    the row is new.  Otherwise they are rows whose leading columns
    increase, each lead left unscaled.
    """
    if field.q == 2:
        basis = []
        for row in rows:
            v = int.from_bytes(bytes(row), "big")
            for b in basis:
                v = min(v, v ^ b)
            if v:
                basis.append(v)
        return basis
    mat = list(rows)
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    add, mul, neg, inv = field._add, field._mul, field._neg, field._inv
    rank = 0
    for col in range(ncols):
        for i in range(rank, nrows):
            if mat[i][col]:
                break
        else:
            continue
        mat[rank], mat[i] = mat[i], mat[rank]
        source = mat[rank]
        minus_inv = neg[inv[source[col]]]
        rank += 1
        if rank == nrows:
            break
        for i in range(rank, nrows):
            target = mat[i]
            if target[col]:
                mrow = mul[mul[target[col]][minus_inv]]
                mat[i] = [add[x][mrow[y]] for x, y in zip(target, source)]
    return mat[:rank]


@functools.lru_cache(maxsize=None)
def _identity(n):
    """The n x n identity rows: the RREF basis of the whole of F_q^n."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _back_substitute(field, echelon, ncols):
    """The reduced row echelon basis, as a tuple of row tuples, of the row
    space of _echelon's rows of width ncols.

    Rows are reduced from the last to the first: each is scaled to a leading
    1 and cleared at the pivots of the rows below it, which are already
    reduced, so no step undoes an earlier one.
    """
    if len(echelon) == ncols:
        return _identity(ncols)
    if field.q == 2:
        basis = sorted(echelon, reverse=True)  # the leads are distinct
        for j in range(len(basis) - 1, 0, -1):
            b = basis[j]
            for i in range(j):
                basis[i] = min(basis[i], basis[i] ^ b)
        return tuple(tuple(v.to_bytes(ncols, "big")) for v in basis)
    add, mul, neg, inv = field._add, field._mul, field._neg, field._inv
    pivots = []
    col = 0
    for row in echelon:
        while not row[col]:
            col += 1
        pivots.append(col)
    reduced = []  # the rows below, last first
    for h in range(len(echelon) - 1, -1, -1):
        row = echelon[h]
        lead = row[pivots[h]]
        if lead != 1:
            mrow = mul[inv[lead]]
            row = [mrow[x] for x in row]
        for p, below in zip(reversed(pivots), reduced):
            if row[p]:
                mrow = mul[neg[row[p]]]  # row -= row[p] * below
                row = [add[x][mrow[y]] for x, y in zip(row, below)]
        reduced.append(tuple(row))
    return tuple(reversed(reduced))


def _right_halves(field, echelon, n):
    """The rows of an _echelon result, over rows of width 2n, that are zero
    on their first n entries, cut to their last n: again an _echelon result,
    of width n.  A packed F_2 row is zero there when it is below 2^(8n)."""
    if field.q == 2:
        return [v for v in echelon if not v >> 8 * n]
    return [row[n:] for row in echelon if not any(row[:n])]


def _rref(field, rows):
    """Reduced row echelon form: (reduced rows without zero rows, pivot
    column tuple)."""
    reduced = _back_substitute(field, _echelon(field, rows),
                               len(rows[0]) if rows else 0)
    return list(reduced), tuple(row.index(1) for row in reduced)


def _rank_rows(field, rows):
    """Rank of the rows, by forward elimination only."""
    return len(_echelon(field, rows))


def mat_mul(field, a_rows, b_rows):
    """Raw row-tuple matrix product over field."""
    mul = field._mul
    add = field._add
    b_cols = len(b_rows[0])
    out = []
    for arow in a_rows:
        row = [0] * b_cols
        for k, coeff in enumerate(arow):
            if coeff:
                mrow = mul[coeff]
                brow = b_rows[k]
                for j in range(b_cols):
                    if brow[j]:
                        row[j] = add[row[j]][mrow[brow[j]]]
        out.append(tuple(row))
    return out


class Subspace:
    """A subspace of F_q^ambient, canonically held as its RREF basis."""

    __slots__ = ("field", "ambient", "basis")

    def __init__(self, field, ambient, basis):
        self.field = field
        self.ambient = ambient
        self.basis = basis

    @classmethod
    def span(cls, field, ambient, rows):
        """Subspace spanned by arbitrary rows; rows may be dependent."""
        rows = [tuple(r) for r in rows]
        for r in rows:
            if len(r) != ambient:
                raise ValueError(f"row length {len(r)} != ambient {ambient}")
            for v in r:
                field.check(v)
        return cls(field, ambient, _back_substitute(
            field, _echelon(field, rows), ambient))

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, ())

    @property
    def dim(self):
        return len(self.basis)

    def intersect(self, other):
        """Zassenhaus intersection: eliminate [[A A], [B 0]] forward.  The
        echelon rows whose left half vanished span the meet, so only their
        right halves are back-substituted."""
        self._check_compatible(other)
        n = self.ambient
        stacked = [row + row for row in self.basis]
        zero = (0,) * n
        stacked += [row + zero for row in other.basis]
        meet = _right_halves(self.field, _echelon(self.field, stacked), n)
        return Subspace(self.field, n, _back_substitute(self.field, meet, n))

    def add(self, other):
        """Smallest subspace containing both (the subspace sum)."""
        self._check_compatible(other)
        return Subspace.span(self.field, self.ambient,
                             list(self.basis) + list(other.basis))

    def _check_compatible(self, other):
        if self.field != other.field or self.ambient != other.ambient:
            raise ValueError("subspaces live in different ambient spaces")

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient == other.ambient and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, q={self.field.q})"

    def to_json(self):
        return {"ambient": self.ambient, "basis": [list(r) for r in self.basis]}


def enumerate_subspaces(field, ambient, k):
    """All k-dimensional subspaces of F_q^ambient, one per RREF basis.

    Walks pivot-column patterns and fills free entries; refuses Grassmannians
    above MAX_GRASSMANNIAN elements.
    """
    if not 0 <= k <= ambient:
        raise ValueError(f"k = {k} outside [0, {ambient}]")
    expected = counting.gaussian_binomial(ambient, k, field.q)
    require_within(expected, guards.MAX_GRASSMANNIAN, "Grassmannian size")
    out = []
    if k == 0:
        return [Subspace.zero(field, ambient)]
    for pivots in combinations(range(ambient), k):
        pivot_set = set(pivots)
        free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, ambient)
                if j not in pivot_set]
        base = [[0] * ambient for _ in range(k)]
        for i, col in enumerate(pivots):
            base[i][col] = 1
        for values in product(range(field.q), repeat=len(free)):
            rows = [list(r) for r in base]
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            out.append(Subspace(field, ambient, tuple(tuple(r) for r in rows)))
    assert len(out) == expected
    return out


def require_full_rank_within(nrows, ncols):
    """Price one sample_full_rank draw, eliminated once: its entries, and
    rows x rank x columns steps."""
    guards.require_draw_within(
        nrows * ncols, nrows * min(nrows, ncols) * ncols)


def sample_full_rank(field, nrows, ncols, rng):
    """Uniform full-rank nrows x ncols row tuples by rejection.

    Full rank means rank min(nrows, ncols), so either side may be the longer
    one.  The acceptance rate is at least the Euler product constant, so a
    handful of tries suffice.
    """
    target = min(nrows, ncols)
    draws = uniform_draws(field.q, rng)
    while True:
        rows = [tuple(islice(draws, ncols)) for _ in range(nrows)]
        if _rank_rows(field, rows) == target:
            return rows


def require_subspace_within(ambient, k):
    """Price one sample_subspace draw: a full-rank k x ambient draw,
    eliminated forward for its rank and back-substituted to its RREF, at
    most 2 k^2 ambient steps.  A k outside [0, ambient] is left to the
    sampler's ValueError."""
    if 0 <= k <= ambient:
        guards.require_draw_within(k * ambient, 2 * k * k * ambient)


def _sample_echelon(field, ambient, k, rng):
    """The _echelon rows, k of width ambient, of the draw that
    sample_full_rank(field, k, ambient, rng) returns, from the same
    generator words: the forward pass that ranks each draw is kept."""
    if not 0 <= k <= ambient:
        raise ValueError(f"k = {k} outside [0, {ambient}]")
    if k == 0:
        return []
    draws = uniform_draws(field.q, rng)
    while True:
        echelon = _echelon(field, [tuple(islice(draws, ambient))
                                   for _ in range(k)])
        if len(echelon) == k:
            return echelon


def sample_subspace(field, ambient, k, rng):
    """A uniformly random k-dimensional subspace of F_q^ambient: the RREF
    of the draw that sample_full_rank(field, k, ambient, rng) returns, from
    the same generator words, back-substituted from its forward pass."""
    return Subspace(field, ambient, _back_substitute(
        field, _sample_echelon(field, ambient, k, rng), ambient))


def meet_dimension(field, ambient, a, b):
    """dim(A meet B) for the row spaces A, B of two _echelon results of
    width ambient, as dim A + dim B - rank [A; B].

    Over F_2 the packed basis of a is continued with the rows of b, which
    keeps _echelon's order of leads, so a row of b that ends nonzero is new.
    """
    if not a or not b:
        return 0
    if len(a) == ambient:
        return len(b)
    if len(b) == ambient:
        return len(a)
    if field.q != 2:
        return len(a) + len(b) - len(_echelon(field, a + b))
    basis = list(a)
    for v in b:
        for u in basis:
            v = min(v, v ^ u)
        if v:
            basis.append(v)
    return len(a) + len(b) - len(basis)
