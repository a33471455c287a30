"""Matrices and subspaces over a finite field.

A matrix is its rows: a sequence of equal-length tuples of canonical
element indices, with no wrapper type.  A subspace is identified with the
reduced row echelon basis of its row space, so equality of subspaces is
grid equality of bases.  Enumeration walks pivot patterns; sampling is
rejection on uniform full-rank matrices, which is exactly uniform on the
Grassmannian because every subspace has the same number of spanning k x n
matrices.

A rank alone is read by forward elimination, with no reduced form built:
over F_2 each row is packed into an int and reduced by XOR against the
basis found so far.  The full-rank sampler takes its entries from one
iterator over ``getrandbits`` words, which consumes exactly the words that
one ``randrange(q)`` per entry would.
"""

from itertools import combinations, islice, product

from . import counting, guards
from .guards import require_within
from .montecarlo import uniform_draws


def _rref(field, rows):
    """In-place style reduced row echelon form on copied rows.

    Returns (reduced row list without zero rows, pivot column tuple).
    """
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    add, mul, neg, inv = field._add, field._mul, field._neg, field._inv
    pivots = []
    prow = 0
    for col in range(ncols):
        pivot = None
        for i in range(prow, nrows):
            if mat[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[prow], mat[pivot] = mat[pivot], mat[prow]
        lead = mat[prow][col]
        if lead != 1:
            row = mat[prow]
            mrow = mul[inv[lead]]
            for j in range(col, ncols):
                row[j] = mrow[row[j]]
        for i in range(nrows):
            if i != prow and mat[i][col]:
                mrow = mul[neg[mat[i][col]]]  # target -= factor * source
                target = mat[i]
                source = mat[prow]
                for j in range(col, ncols):
                    if source[j]:
                        target[j] = add[target[j]][mrow[source[j]]]
        pivots.append(col)
        prow += 1
        if prow == nrows:
            break
    return [tuple(r) for r in mat[:prow]], tuple(pivots)


def _rank_rows(field, rows):
    """Rank of the rows, by forward elimination only."""
    if field.q == 2:
        # One entry per byte.  Each basis vector lacks the leading bits of
        # those before it, so min(v, v ^ b) in order clears every lead
        # from v for good: v ends nonzero exactly when the row is new.
        basis = []
        for row in rows:
            v = int.from_bytes(bytes(row), "big")
            for b in basis:
                v = min(v, v ^ b)
            if v:
                basis.append(v)
        return len(basis)
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
    return rank


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
        if not rows:
            return cls(field, ambient, ())
        reduced, _ = _rref(field, rows)
        return cls(field, ambient, tuple(reduced))

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, ())

    @property
    def dim(self):
        return len(self.basis)

    def intersect(self, other):
        """Zassenhaus intersection: reduce [[A A], [B 0]] and read off the
        rows whose left half vanished."""
        self._check_compatible(other)
        n = self.ambient
        stacked = [row + row for row in self.basis]
        zero = (0,) * n
        stacked += [row + zero for row in other.basis]
        if not stacked:
            return Subspace.zero(self.field, n)
        # Every pivot column is zero in every other row, so the right halves
        # of the rows whose left half vanished are already a reduced basis.
        reduced, _ = _rref(self.field, stacked)
        return Subspace(self.field, n, tuple(
            row[n:] for row in reduced if not any(row[:n])))

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
    eliminated for its rank and again for its RREF.  A k outside
    [0, ambient] is left to the sampler's ValueError."""
    if 0 <= k <= ambient:
        guards.require_draw_within(k * ambient, 2 * k * k * ambient)


def sample_subspace(field, ambient, k, rng):
    """A uniformly random k-dimensional subspace of F_q^ambient."""
    if not 0 <= k <= ambient:
        raise ValueError(f"k = {k} outside [0, {ambient}]")
    if k == 0:
        return Subspace.zero(field, ambient)
    rows = sample_full_rank(field, k, ambient, rng)
    return Subspace(field, ambient, tuple(_rref(field, rows)[0]))
