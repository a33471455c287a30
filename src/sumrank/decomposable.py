"""Products of per-block subspaces of F_q^eta.

A decomposable subspace is a tuple of ell factors, one subspace per block;
its total dimension is the sum of the factor dimensions.  Intersections and
sums factor blockwise, so dimensions of intersections and sums are sums of
the per-block ones.  Uniform sampling is two-stage: first the dimension
composition, weighted by the product of Grassmannian sizes, then each factor
uniform from its Grassmannian independently.

The dimension estimator reads only dim(X meet Y), so it keeps each factor
as the forward pass of its draw and counts each block's meet by Grassmann's
identity, dim(A meet B) = dim A + dim B - rank [A; B]: no basis of a factor
or of a meet is built, and the generator words are those the sampler takes.
"""

import functools

from . import counting, linalg
from .montecarlo import EstimateResult


class DecomposableSubspace:
    """A product of per-block subspaces, all with the same ambient eta."""

    __slots__ = ("field", "eta", "ell", "factors")

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("need at least one factor")
        field = factors[0].field
        eta = factors[0].ambient
        for f in factors:
            if f.field != field:
                raise ValueError("factors use different fields")
            if f.ambient != eta:
                raise ValueError("factors have different ambient dimensions")
        self.field = field
        self.eta = eta
        self.ell = len(factors)
        self.factors = factors

    @property
    def composition(self):
        """Per-block dimensions."""
        return tuple(f.dim for f in self.factors)

    @property
    def total_dim(self):
        return sum(f.dim for f in self.factors)

    def intersect(self, other):
        self._check(other)
        return DecomposableSubspace(
            tuple(a.intersect(b) for a, b in zip(self.factors, other.factors)))

    def add(self, other):
        self._check(other)
        return DecomposableSubspace(
            tuple(a.add(b) for a, b in zip(self.factors, other.factors)))

    def _check(self, other):
        if (self.field != other.field or self.eta != other.eta
                or self.ell != other.ell):
            raise ValueError("decomposable subspaces have different shapes")

    def __eq__(self, other):
        return (isinstance(other, DecomposableSubspace)
                and self.factors == other.factors)

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return (f"DecomposableSubspace(dims={self.composition}, "
                f"eta={self.eta}, q={self.field.q})")

    def to_json(self):
        return {"eta": self.eta, "ell": self.ell,
                "factors": [[list(r) for r in f.basis] for f in self.factors]}


def sample_decomposable_uniform(field, eta, ell, w, rng):
    """A uniform decomposable subspace of total dimension w.

    Stage one draws the dimension composition with probability proportional
    to the product of Grassmannian sizes (exact integer inverse CDF); stage
    two draws each factor uniformly and independently.
    """
    return DecomposableSubspace(tuple(
        linalg.Subspace(field, eta, linalg._back_substitute(field, rows, eta))
        for rows in _sample_echelons(field, eta, ell, w, rng)))


def _sample_echelons(field, eta, ell, w, rng):
    """The draw of sample_decomposable_uniform, factor by factor as the
    _echelon rows of linalg._sample_echelon: the composition first, then
    each block's draw."""
    q = field.q
    u = rng.randrange(counting.decomposable_count(eta, ell, w, q))
    comp = counting.unrank_block_sum(counting.grassmannian_vector(eta, q), ell, w, u)
    return [linalg._sample_echelon(field, eta, k, rng) for k in comp]


def _event_threshold(w_x, min_fraction, exact_dim):
    if (min_fraction is None) == (exact_dim is None):
        raise ValueError("specify exactly one of min_fraction and exact_dim")
    if min_fraction is not None:
        frac = counting._as_fraction(min_fraction)
        threshold = -(-frac.numerator * w_x // frac.denominator)  # ceil
        return lambda d: d >= threshold
    return lambda d: d == exact_dim


def intersection_dimension_estimate(field, eta, ell, w_x, w_y, trials, stream,
                                    min_fraction=None, exact_dim=None):
    """Monte Carlo law of dim(X meet Y) for independent uniform decomposable
    X, Y of total dimensions w_x, w_y.

    The event is either dim >= min_fraction * w_x or dim == exact_dim.
    Returns an EstimateResult whose mean_value is the empirical mean
    intersection dimension.  Trial i uses stream.child(i), so the estimate
    is independent of scheduling.  X and Y take the words that
    sample_decomposable_uniform would; dim(X meet Y) is summed block by
    block from their forward passes by linalg.meet_dimension.
    """
    event = _event_threshold(w_x, min_fraction, exact_dim)
    meet = functools.partial(linalg.meet_dimension, field, eta)
    successes = dim_total = 0
    for i in range(trials):
        rng = stream.child(i)
        x = _sample_echelons(field, eta, ell, w_x, rng)
        y = _sample_echelons(field, eta, ell, w_y, rng)
        d = sum(map(meet, x, y))
        dim_total += d
        if event(d):
            successes += 1
    return EstimateResult.from_counts(successes, trials, dim_total)

