"""Exact q-combinatorics for spaces of matrix tuples.

Counts (compositions, Gaussian binomials, sphere and ball volumes,
decomposable-subspace counts) are exact Python integers.  The two-sided
volume bounds involve the irrational constant prod_{i>=1}(1 - q^-i); those
comparisons happen in the log-base-q domain with a declared margin, never in
binary floating point on the raw counts.  Every log there is a natural log
in integer fixed point with _FRAC fractional bits; a log_q value is a ratio
of such integers (plus exact rationals), rounded to float once by an exact
int/int true division.
"""

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import guards
from .galois import FieldSpec
from .guards import require_within

# Fractional bits of every fixed-point natural log.
_FRAC = 160

# Default slack used when comparing exact counts against irrational bounds.
LOG_MARGIN = 1e-9


@dataclass(frozen=True)
class SpaceParams:
    """Shape of the ambient space: ell blocks of m x eta matrices over field."""

    field: FieldSpec
    m: int
    eta: int
    ell: int

    def __post_init__(self):
        _require_positive(m=self.m, eta=self.eta, ell=self.ell)

    @property
    def q(self):
        return self.field.q

    @property
    def n(self):
        """Code length: eta * ell."""
        return self.eta * self.ell

    @property
    def total_dim(self):
        """F_q dimension of the whole space, m * eta * ell."""
        return self.m * self.eta * self.ell

    @property
    def block_rank_cap(self):
        return min(self.m, self.eta)

    @property
    def max_weight(self):
        return self.ell * self.block_rank_cap

    def check_radius(self, r):
        """Raise ValueError unless 0 <= r <= max_weight."""
        if not 0 <= r <= self.max_weight:
            raise ValueError(f"radius r = {r} outside [0, {self.max_weight}]")

    @property
    def b(self):
        """Aspect ratio eta / m as an exact rational."""
        return Fraction(self.eta, self.m)


def _require_positive(**shape):
    """Raise ValueError naming the first value that is not an int >= 1."""
    for name, value in shape.items():
        if not (isinstance(value, int) and value >= 1):
            raise ValueError(
                f"{name} must be a positive integer, got {value!r}")


# -- compositions ----------------------------------------------------------

def bounded_compositions(total, parts, upper=None):
    """Yield ordered compositions of total into parts, lexicographically.

    Every part lies in [0, upper]; upper defaults to no cap.
    """
    if parts < 0 or total < 0:
        raise ValueError("total and parts must be nonnegative")
    hi = total if upper is None else upper
    if parts == 0:
        if total == 0:
            yield ()
        return

    def rec(i, remaining, prefix):
        if i == parts:
            yield tuple(prefix)
            return
        rest = parts - i - 1
        for v in range(max(0, remaining - hi * rest), min(hi, remaining) + 1):
            prefix.append(v)
            yield from rec(i + 1, remaining - v, prefix)
            prefix.pop()

    yield from rec(0, total, [])


# -- Gaussian binomials and matrix counts ----------------------------------

def binomial_work(n, k, q, eta=0):
    """The work that _binomial_row(n, k, q, eta) prices; arithmetic only."""
    # Step j's widest product, entry j + 1 times q^(j + 1) - 1, is below
    # 4 q^((j + 1)(n + eta - j)) with q <= 2^width, widest at the vertex j
    # clamped to k - 1.  Each of its 2 or 3 products (the division counted
    # as one) takes a factor of at most max(n, eta) powers of q.
    width = (q - 1).bit_length()
    j = min(k - 1, (n + eta - 1) // 2)
    widest = (j + 1) * (n + eta - j) * width + 2
    pieces = 1 + max(n, eta) * width // 2048
    return (3 if eta else 2) * k * widest * pieces


def _binomial_row(n, k, q, eta=0):
    """[n, j]_q for j = 0..k <= n by the ratio recurrence
        [n, j + 1] = [n, j] (q^(n - j) - 1) / (q^(j + 1) - 1),
    each division exact.  With k <= eta, step j also takes the factor
    q^eta - q^j, so entry j counts the n x eta matrices of rank j.  Raises
    GuardError, before the first step, past MAX_COUNT_WORK.
    """
    row = [1]
    if not k:
        return row  # no step, so no power of q is built
    require_within(binomial_work(n, k, q, eta), guards.MAX_COUNT_WORK,
                   "Gaussian binomial work")
    top, low = q ** n, q  # q^(n - j) and q^(j + 1)
    full, gone = q ** eta, 1  # q^eta and q^j
    for _ in range(k):
        entry = row[-1] * (top - 1)
        if eta:
            entry *= full - gone
            gone *= q
        row.append(entry // (low - 1))
        top //= q
        low *= q
    return row


def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of an n-dimensional F_q space.

    The last entry of the row to min(k, n - k); zero outside 0 <= k <= n.
    Raises GuardError past MAX_COUNT_WORK.
    """
    if n < 0 or q < 2:
        raise ValueError("need n >= 0 and q >= 2")
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    return _binomial_row(n, k, q)[k]


# -- the Euler product constant --------------------------------------------

def euler_product_interval(q, tol):
    """Exact rational interval enclosing prod_{i>=1}(1 - q^-i), width <= tol.

    The truncated product overestimates; the tail is controlled by
    prod_{i>N}(1 - q^-i) >= 1 - sum_{i>N} q^-i = 1 - q^-N/(q-1).
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    tol = Fraction(tol) if not isinstance(tol, float) else Fraction(str(tol))
    if tol <= 0:
        raise ValueError("tol must be positive")
    partial = Fraction(1)
    i = 0
    while True:
        i += 1
        partial *= 1 - Fraction(1, q ** i)
        tail = Fraction(1, q ** i * (q - 1))
        if partial * tail <= tol:
            return (partial * (1 - tail), partial)


def _atanh2(t, frac):
    # 2 atanh(t) for fixed-point 0 <= t < 1 (frac fractional bits), by the
    # series t + t^3/3 + ...; each term shrinks by t^2, so it stops after
    # about frac / log2(1/t^2) terms.
    t2 = t * t >> frac
    total = term = t
    k = 3
    while term:
        term = term * t2 >> frac
        total += term // k
        k += 2
    return 2 * total


@functools.lru_cache(maxsize=None)
def _ln_constants(frac):
    # ln 2 and ln((32 + j)/32) for j = 0..31, at frac fractional bits:
    # ln 2 = 2 atanh(1/3) and ln((32 + j)/32) = 2 atanh(j / (64 + j)).
    ln2 = _atanh2((1 << frac) // 3, frac)
    table = tuple(_atanh2((j << frac) // (64 + j), frac) for j in range(32))
    return ln2, table


def _ln_fixed(value, frac=_FRAC):
    """ln of a positive integer as an integer with frac fractional bits.

    value = 2^e y with 1 <= y < 2 and (32 + j)/32 <= y < (33 + j)/32, so
    ln value = e ln 2 + ln((32 + j)/32) + 2 atanh(t) with the exact
    t = (32 value - (32 + j) 2^e) / (32 value + (32 + j) 2^e) < 1/65.  Only
    t is taken to fixed point, so the series costs the same at any size of
    value.  The error is mostly e times that of ln 2, a few dozen units of
    2^-frac; at frac = 160 it stays below 2^-140 up to 3,000-bit values.
    """
    ln2, table = _ln_constants(frac)
    e = value.bit_length() - 1
    scaled = value << 5
    top = scaled >> e  # 32 + j
    c = top << e
    t = ((scaled - c) << frac) // (scaled + c)
    return e * ln2 + table[top - 32] + _atanh2(t, frac)


@functools.lru_cache(maxsize=None)
def _ln(q):
    """ln q in fixed point, the divisor of every log_q below."""
    return _ln_fixed(q)


@functools.lru_cache(maxsize=None)
def _logq_euler_product(q):
    """log_q of the Euler product, as a fixed-point numerator over _ln(q).

    The rational midpoint lies within 10^-36 of the product, far below
    LOG_MARGIN.
    """
    lo, hi = euler_product_interval(q, Fraction(1, 10 ** 36))
    mid = (lo + hi) / 2
    return _ln_fixed(mid.numerator) - _ln_fixed(mid.denominator)


@functools.lru_cache(maxsize=None)
def _ln_comb(n, k):
    # ln C(n, k) in fixed point: the composition-count term of the bounds,
    # which repeats across radii, shapes and fields.
    return _ln_fixed(math.comb(n, k))


def logq_int(value, q):
    """log_q of a positive integer, from fixed-point logs rounded once."""
    value, q = operator.index(value), operator.index(q)
    if value <= 0:
        raise ValueError("value must be positive")
    if q < 2:
        raise ValueError("q must be >= 2")
    return _ln_fixed(value) / _ln(q)


def _within(count, q, bounds, margin):
    # Whether log_q(count) lies in the (lower, upper) log_q bounds, give or
    # take the margin.
    exact = logq_int(count, q)
    lower, upper = bounds
    return lower - margin <= exact <= upper + margin


def gaussian_binomial_bounds_ok(n, k, q, margin=LOG_MARGIN):
    """Check q^((n-k)k) <= [n k]_q <= q^((n-k)k) / prod(1 - q^-i).

    Comparison in the log-base-q domain with the declared margin.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    base = (n - k) * k
    lnq = _ln(q)
    upper = (base * lnq - _logq_euler_product(q)) / lnq
    return _within(gaussian_binomial(n, k, q), q, (base, upper), margin)


# -- the block-sum engine --------------------------------------------------
#
# Points and product subspaces split into ell independent blocks.  The
# objects whose blocks have weights (k_1, ..., k_ell) number
# prod_i P[k_i], where P is the per-block count vector, so the sum over all
# compositions of s is the coefficient of x^s in P(x)^ell.  One loop,
# _miller, computes those coefficients by Miller's recurrence
# (Knuth, TAOCP Vol. 2, 4.7): Q = P^ell satisfies P Q' = ell P' Q, so
#     n P_0 Q_n = sum_{k=1..min(n, b)} ((ell + 1) k - n) P_k Q_{n-k},
# an exact division.  Degrees 0..d cost about d b products for b + 1 = len(P),
# and ell enters only through the size of the integers.  Every reader asks
# for the degree it reads.  Samplers unrank one uniform integer through the
# powers P^j, visiting compositions in lexicographic order: the order of a
# flat inverse-CDF table over bounded_compositions, so a given integer picks
# the same composition.


@functools.lru_cache(maxsize=None)
def rank_count_vector(m, eta, q):
    """Per-block counts by rank: the numbers of m x eta matrices of rank
    k = 0..min(m, eta), from one priced row."""
    return tuple(_binomial_row(m, min(m, eta), q, eta))


@functools.lru_cache(maxsize=None)
def grassmannian_vector(eta, q):
    """Per-block counts by dimension: gaussian_binomial(eta, k, q) for
    k = 0..eta, from one priced row to eta // 2 mirrored by
    [eta, k] = [eta, eta - k]."""
    row = _binomial_row(eta, eta // 2, q)
    return (*row, *reversed(row[:(eta + 1) // 2]))


def _power_bits(base, ell, deg):
    # An upper bound on the bit length of coefficients 0..deg of base^ell,
    # for base[0] >= 1 and base[k] >= 0.  Q_n <= (sum P)^ell, and Q_n sums
    # C(n + ell - 1, n) <= (ell + n)^n compositions, each at most P_0^ell
    # <= 2^(ell bits(P_0 - 1)) times P_k < 2^bits(P_k) per nonzero part k.
    near = min(deg, len(base) - 1)
    rate = max((base[k].bit_length() / k for k in range(1, near + 1)), default=0)
    return min(max(1, ell * sum(base).bit_length()),
               ell * (base[0] - 1).bit_length()
               + int(deg * (math.log2(ell + deg + 1) + rate)) + 1)


def power_work(base, ell, deg):
    """Work of coefficients 0..deg of base^ell by the recurrence, the
    price block_sum_power checks against MAX_COUNT_WORK: each product
    takes a coefficient of at most _power_bits bits times P_k, one pass
    per 2,048 bits of P_k (CPython multiplies schoolbook up to about that
    size, so large blocks cost more per product).  It grows with deg."""
    top = len(base) - 1
    deg = min(deg, ell * top)
    near = min(deg, top)
    products = near * (near + 1) // 2 + (deg - near) * top
    pieces = 1 + max(map(int.bit_length, base[:near + 1])) // 2048
    return products * _power_bits(base, ell, deg) * pieces


@functools.lru_cache(maxsize=None)
def _whole_power_fits(base, ell):
    # Whether every degree of base^ell is within MAX_COUNT_WORK, so that the
    # reads of an ascending sweep need not each be priced.
    return (power_work(base, ell, ell * (len(base) - 1))
            <= guards.MAX_COUNT_WORK)


_POWERS = {}  # (base, ell) -> the longest prefix of base^ell computed


def _miller(base, ell, deg, prefix=()):
    # base^ell through degree deg or its top degree, extending a prefix
    top = len(base) - 1
    power = list(prefix) or [base[0] ** ell]
    for n in range(len(power), min(deg, ell * top) + 1):
        power.append(sum(((ell + 1) * k - n) * base[k] * power[n - k]
                         for k in range(1, min(n, top) + 1)) // (n * base[0]))
    return tuple(power)


def block_sum_power(base, ell, deg):
    """Coefficients of base(x)^ell through degree deg or further (all of
    them past its top degree), for base[0] >= 1: entry s sums
    prod_i base[k_i] over the compositions (k_1, ..., k_ell) of s.  Raises
    GuardError, before computing, past MAX_COUNT_WORK."""
    deg = min(deg, ell * (len(base) - 1))
    power = _POWERS.get((base, ell), ())
    if len(power) <= deg:
        if not _whole_power_fits(base, ell):
            require_within(power_work(base, ell, deg), guards.MAX_COUNT_WORK,
                           "block-sum work")
        power = _POWERS[base, ell] = _miller(base, ell, deg, power)
    return power


@functools.lru_cache(maxsize=None)
def completion_powers(base, ell, deg):
    """(base^(ell-1), ..., base^0), each through degree deg or further:
    entry i holds the masses of the completions of a prefix of i blocks.
    Raises GuardError, before the first power, past MAX_SWEEP for the ell
    powers of at most deg + 1 coefficients, or past MAX_COUNT_WORK for
    their work, at most 32 runs of exponents each priced at its largest
    (work never falls as the exponent grows).  No power is cached alone."""
    require_within(ell * (deg + 1), guards.MAX_SWEEP,
                   "completion power coefficients")
    step = -(-ell // 32) or 1
    require_within(sum(min(step, top + 1) * power_work(base, top, deg)
                       for top in range(ell - 1, -1, -step)),
                   guards.MAX_COUNT_WORK, "block-sum work")
    return tuple(_miller(base, j, deg) for j in reversed(range(ell)))


def unrank_block_sum(base, ell, total, u, tails=None):
    """The composition of total into ell parts at offset u, where the
    compositions are taken in lexicographic order and each one covers
    prod_i base[k_i] consecutive offsets.

    Offsets run over [0, block_sum_power(base, ell, total)[total]); anything
    else raises ValueError.  The powers read are completion_powers(base,
    ell, total), or tails when given: completion_powers(base, ell, deg) for
    a deg >= total, which agrees on every coefficient a composition of
    total reads, so a sampler of every total up to deg keeps one tails.
    """
    if u < 0 or total < 0:
        raise ValueError(f"offset {u} or total {total} is negative")
    top = len(base) - 1
    comp = []
    rest = total
    if tails is None:
        tails = completion_powers(base, ell, total)
    for tail in tails:
        for v in range(max(0, rest - len(tail) + 1), min(top, rest) + 1):
            mass = base[v] * tail[rest - v]
            if u < mass:
                break
            u -= mass
        else:
            raise ValueError(f"offset outside the compositions of {total}")
        # The mass under prefix + (v,) is base[v] times the completions'
        # masses, so dividing by base[v] keeps the cell boundaries.
        u //= base[v]
        comp.append(v)
        rest -= v
    assert rest == 0 and u == 0
    return tuple(comp)


# -- sphere and ball volumes -----------------------------------------------

@functools.lru_cache(maxsize=None)
def sphere_volume(params, r):
    """Exact number of tuples at sum-rank weight r around any fixed center."""
    params.check_radius(r)
    base = rank_count_vector(params.m, params.eta, params.q)
    return block_sum_power(base, params.ell, r)[r]


@functools.lru_cache(maxsize=None)
def ball_volume(params, r):
    """Exact number of tuples at sum-rank distance <= r from a fixed center."""
    params.check_radius(r)
    # Top sphere first, so the power is computed once to degree r.
    return sum(sphere_volume(params, s) for s in range(r, -1, -1))


def _volume_exponent(params, r):
    # (m + eta - r/ell) * r as an exact rational
    return (Fraction(params.m + params.eta) - Fraction(r, params.ell)) * r


def _volume_bounds_logq(params, r, parts):
    # Two-sided bounds as log_q values, each summed exactly over the common
    # denominator of its terms and rounded once.  The upper bound counts the
    # weight compositions of r into `parts` parts, C(parts + r - 1, r): ell
    # parts for the sphere, and one slack part more for the ball.
    params.check_radius(r)
    q, ell = params.q, params.ell
    lnq, lnk = _ln(q), _logq_euler_product(q)
    expo = _volume_exponent(params, r)
    a, b = expo.numerator, expo.denominator
    # ell log_q k + a/b - ell/4 and -ell log_q k + log_q C + a/b
    lower = (4 * b * ell * lnk + (4 * a - ell * b) * lnq) / (4 * b * lnq)
    ln_comp = _ln_comb(parts + r - 1, r)
    upper = (b * (ln_comp - ell * lnk) + a * lnq) / (b * lnq)
    return lower, upper


def sphere_bounds_logq(params, r):
    """Two-sided sphere volume bounds, returned as log_q values."""
    return _volume_bounds_logq(params, r, params.ell)


def ball_bounds_logq(params, r):
    """Two-sided ball volume bounds, returned as log_q values."""
    return _volume_bounds_logq(params, r, params.ell + 1)


def sphere_bounds_ok(params, r, margin=LOG_MARGIN):
    return _within(sphere_volume(params, r), params.q,
                   sphere_bounds_logq(params, r), margin)


def ball_bounds_ok(params, r, margin=LOG_MARGIN):
    return _within(ball_volume(params, r), params.q,
                   ball_bounds_logq(params, r), margin)


# -- decomposable subspace counts ------------------------------------------

def _check_decomposable(eta, ell, w):
    """Raise ValueError unless eta, ell >= 1 and 0 <= w <= eta * ell."""
    _require_positive(eta=eta, ell=ell)
    if not 0 <= w <= eta * ell:
        raise ValueError(f"w = {w} outside [0, {eta * ell}]")


@functools.lru_cache(maxsize=None)
def decomposable_count(eta, ell, w, q):
    """Number of products of per-block subspaces with total dimension w."""
    _check_decomposable(eta, ell, w)
    return block_sum_power(grassmannian_vector(eta, q), ell, w)[w]


def decomposable_bounds_logq(eta, ell, w, q):
    """Two-sided bounds on the decomposable count, as log_q values."""
    _check_decomposable(eta, ell, w)
    lnq, lnk = _ln(q), _logq_euler_product(q)
    expo = Fraction(eta * w) - Fraction(w * w, ell)
    a, b = expo.numerator, expo.denominator
    # a/b and -ell log_q k + log_q C(w + ell - 1, ell - 1) + a/b
    ln_comp = _ln_comb(w + ell - 1, ell - 1)
    upper = (b * (ln_comp - ell * lnk) + a * lnq) / (b * lnq)
    return a / b, upper


def decomposable_bounds_ok(eta, ell, w, q, margin=LOG_MARGIN):
    return _within(decomposable_count(eta, ell, w, q), q,
                   decomposable_bounds_logq(eta, ell, w, q), margin)


def decomposable_le_grassmannian(eta, ell, w, q):
    """Exact integer check: decomposable spaces never outnumber w-subspaces."""
    return decomposable_count(eta, ell, w, q) <= gaussian_binomial(eta * ell, w, q)


# -- capacity curves -------------------------------------------------------

def _as_fraction(x):
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def capacity_penalty(rho, b):
    """Rate loss at relative radius rho for block aspect ratio b = eta/m.

    Exact rational: rho + rho*b - rho^2*b.
    """
    rho = _as_fraction(rho)
    b = _as_fraction(b)
    if not 0 < rho < 1:
        raise ValueError(f"rho = {rho} outside (0, 1)")
    if not 0 < b <= 1:
        raise ValueError(f"b = {b} outside (0, 1]")
    return rho + rho * b - rho * rho * b


def list_decoding_capacity(rho, b):
    """Largest achievable rate at relative radius rho: 1 minus the penalty."""
    return 1 - capacity_penalty(rho, b)


def q_ary_entropy(rho, q):
    """H_q(rho) = rho log_q(q-1) - rho log_q rho - (1-rho) log_q(1-rho)."""
    rho = float(rho)
    if not 0 < rho < 1:
        raise ValueError(f"rho = {rho} outside (0, 1)")
    if q < 2:
        raise ValueError("q must be >= 2")
    logq = math.log(q)
    return (rho * math.log(q - 1) - rho * math.log(rho)
            - (1 - rho) * math.log(1 - rho)) / logq
