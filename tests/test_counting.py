"""Counting layer: q-binomials, volumes, bounds, capacity.

Frozen values were computed by hand or by the brute-force enumerations in
this file; the closed forms must reproduce them exactly.
"""

import dataclasses
import inspect
import math
import pickle
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from sumrank import counting
from sumrank.counting import (SpaceParams, ball_volume, block_sum_power,
                              bounded_compositions, capacity_penalty,
                              completion_powers, decomposable_bounds_ok,
                              decomposable_count,
                              decomposable_le_grassmannian,
                              euler_product_interval, gaussian_binomial,
                              gaussian_binomial_bounds_ok,
                              grassmannian_vector, list_decoding_capacity,
                              q_ary_entropy, rank_count_vector,
                              sphere_volume)
from sumrank.galois import field_from_order
from sumrank.guards import MAX_Q
from sumrank.linalg import _rank_rows

from oracles import (capacity_penalty_by_fractions,
                     decomposable_bounds_logq_by_fractions, is_prime_power,
                     params_for, volume_bounds_logq_by_fractions)


# -- Gaussian binomials ----------------------------------------------------

def test_gaussian_binomial_frozen():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(5, 2, 2) == 155
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(6, 3, 2) == 1395
    assert gaussian_binomial(3, 0, 5) == 1
    assert gaussian_binomial(3, 3, 5) == 1


def test_gaussian_binomial_symmetry_and_edges():
    for n in range(8):
        for k in range(n + 1):
            for q in (2, 3, 4):
                assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)
    assert gaussian_binomial(5, 6, 2) == 0


@given(st.integers(min_value=1, max_value=9), st.data(),
       st.sampled_from([2, 3, 4, 5]))
def test_gaussian_binomial_pascal_recurrence(n, data, q):
    k = data.draw(st.integers(min_value=1, max_value=n))
    # [n k] = q^k [n-1 k] + [n-1 k-1]
    assert gaussian_binomial(n, k, q) == (
        q ** k * gaussian_binomial(n - 1, k, q)
        + gaussian_binomial(n - 1, k - 1, q))


def test_gaussian_binomial_rejects_bad_args():
    with pytest.raises(ValueError):
        gaussian_binomial(-1, 0, 2)
    with pytest.raises(ValueError):
        gaussian_binomial(3, 1, 1)
    # out-of-range k is zero by contract, not an error
    assert gaussian_binomial(3, -1, 2) == 0


# -- the ratio recurrence against the quotient of products -----------------

ORACLE_FIELDS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31)


def quotient_gaussian_binomial(n, k, q):
    """[n, k]_q as the quotient of q-factorial products."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def quotient_rank_count(m, eta, r, q):
    """m x eta matrices of rank r as the quotient of products."""
    num = den = 1
    for j in range(r):
        num *= (q ** m - q ** j) * (q ** eta - q ** j)
        den *= q ** r - q ** j
    assert num % den == 0
    return num // den


def row_mismatches(row):
    """The (n, q) rows for n <= 15 and (m, eta, q) rank vectors for
    m, eta <= 6 that row(n, k, q, eta=0) gets wrong, over every q <= 31."""
    bad = []
    for q in ORACLE_FIELDS:
        for n in range(16):
            want = [quotient_gaussian_binomial(n, k, q) for k in range(n + 1)]
            if row(n, n, q) != want:
                bad.append((n, q))
        for m in range(1, 7):
            for eta in range(1, 7):
                want = [quotient_rank_count(m, eta, r, q)
                        for r in range(min(m, eta) + 1)]
                if row(m, min(m, eta), q, eta) != want:
                    bad.append((m, eta, q))
    return bad


def test_row_matches_the_quotient_oracle():
    assert row_mismatches(counting._binomial_row) == []
    for q in ORACLE_FIELDS:
        for n in range(16):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, q) == \
                    quotient_gaussian_binomial(n, k, q)
        for m in range(1, 7):
            for eta in range(1, 7):
                assert counting.rank_count_vector(m, eta, q) == tuple(
                    quotient_rank_count(m, eta, r, q)
                    for r in range(min(m, eta) + 1))
                assert counting.grassmannian_vector(eta, q) == tuple(
                    quotient_gaussian_binomial(eta, k, q)
                    for k in range(eta + 1))


def _mutant(function, line, mutant, *callers):
    """function with line replaced by mutant, and each caller rebuilt to
    call it, in a copy of counting's namespace; returns the last one."""
    namespace = dict(vars(counting))
    source = inspect.getsource(function)
    assert source.count(line) == 1
    exec(source.replace(line, mutant), namespace)
    for caller in callers:
        exec(inspect.getsource(caller), namespace)
    return namespace[(callers or (function,))[-1].__name__]


@pytest.mark.parametrize("line, mutant", [
    ("top //= q", "pass"),
    ("for _ in range(k):", "for _ in range(k - 1):"),
    ("top, low = q ** n, q", "top, low = q ** (n + 1), q"),
    ("top, low = q ** n, q", "top, low = q ** n, q * q"),
    ("full, gone = q ** eta, 1", "full, gone = q ** eta, q"),
])
def test_row_mutants_fail_the_oracle(line, mutant):
    assert row_mismatches(_mutant(counting._binomial_row, line, mutant))


class PowerlessInt(int):
    """An int that refuses to be raised to a power."""

    def __pow__(self, exponent):
        raise AssertionError(f"q^{exponent} built")


def test_a_row_without_steps_builds_no_power_of_q():
    assert gaussian_binomial(10 ** 9, 10 ** 9, 2) == 1
    q = PowerlessInt(2)
    for k in (0, 10 ** 9):
        assert gaussian_binomial(10 ** 9, k, q) == 1
    assert counting._binomial_row(10 ** 9, 0, q, 10 ** 9) == [1]


# -- rank counts -----------------------------------------------------------

def brute_rank_census(q, m, eta):
    """Rank histogram of all q^(m eta) matrices via Gaussian elimination."""
    field = field_from_order(q)
    hist = [0] * (min(m, eta) + 1)
    for flat in product(range(q), repeat=m * eta):
        grid = [flat[i * eta:(i + 1) * eta] for i in range(m)]
        hist[_rank_rows(field, grid)] += 1
    return hist


@pytest.mark.parametrize("q,m,eta", [(2, 2, 2), (2, 3, 2), (2, 2, 3),
                                     (2, 3, 3), (3, 2, 2), (3, 2, 3)])
def test_rank_matrix_count_matches_brute_force(q, m, eta):
    hist = brute_rank_census(q, m, eta)
    assert rank_count_vector(m, eta, q) == tuple(hist)
    assert sum(hist) == q ** (m * eta)


def test_rank_matrix_count_frozen():
    # ranks 0..2 of the 2 x 2 binary matrices: no count past min(m, eta)
    assert rank_count_vector(2, 2, 2) == (1, 9, 6)
    assert rank_count_vector(3, 2, 2)[2] == 42


# -- Euler product ---------------------------------------------------------

def test_euler_product_interval_frozen():
    lo, hi = euler_product_interval(2, Fraction(1, 10 ** 6))
    assert Fraction(28878, 100000) < lo <= hi < Fraction(28879, 100000)
    assert hi - lo <= Fraction(1, 10 ** 6)


def test_euler_product_inverse_below_four():
    for q in (2, 3, 4, 5, 7):
        lo, hi = euler_product_interval(q, Fraction(1, 10 ** 9))
        assert 1 / lo < 4
        assert lo > 0


def test_euler_product_decreasing_in_tol():
    wide = euler_product_interval(3, Fraction(1, 100))
    tight = euler_product_interval(3, Fraction(1, 10 ** 12))
    assert wide[0] <= tight[0] <= tight[1] <= wide[1]


# -- compositions ----------------------------------------------------------

def test_bounded_compositions_explicit():
    got = list(bounded_compositions(3, 2, upper=2))
    assert got == [(1, 2), (2, 1)]
    assert list(bounded_compositions(0, 3)) == [(0, 0, 0)]
    assert list(bounded_compositions(5, 2, upper=2)) == []


def test_bounded_compositions_lexicographic_and_counted():
    for total, parts, upper in [(4, 3, 2), (6, 4, 3), (5, 2, 5), (0, 2, 1)]:
        seq = list(bounded_compositions(total, parts, upper=upper))
        assert seq == sorted(seq)
        assert len(set(seq)) == len(seq)
        # the block-sum engine counts them: all-ones per-part vector
        assert len(seq) == block_sum_power((1,) * (upper + 1), parts,
                                          total)[total]
        for comp in seq:
            assert sum(comp) == total
            assert all(0 <= part <= upper for part in comp)


@given(st.integers(min_value=0, max_value=8),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=8))
def test_bounded_compositions_match_filtered_product(total, parts, upper):
    naive = [c for c in product(range(upper + 1), repeat=parts)
             if sum(c) == total]
    assert list(bounded_compositions(total, parts, upper=upper)) == naive


# -- sphere and ball volumes -----------------------------------------------

def test_sphere_volumes_sum_to_space_size():
    for q, m, eta, ell in [(2, 2, 2, 2), (2, 1, 3, 2), (3, 2, 2, 1),
                           (2, 1, 1, 5), (3, 1, 2, 2)]:
        params = params_for(q, m, eta, ell)
        total = sum(sphere_volume(params, r)
                    for r in range(params.max_weight + 1))
        assert total == q ** params.total_dim
        assert ball_volume(params, params.max_weight) == q ** params.total_dim


def test_sphere_volume_frozen():
    params = params_for(2, 2, 2, 2)
    assert [sphere_volume(params, r) for r in range(5)] == [1, 18, 93, 108, 36]
    assert ball_volume(params, 2) == 112


def test_hamming_specialization_spot():
    params = params_for(3, 1, 1, 6)
    for r in range(7):
        expected = sum(math.comb(6, j) * 2 ** j for j in range(r + 1))
        assert ball_volume(params, r) == expected


def test_rank_specialization_spot():
    params = params_for(2, 3, 4, 1)
    for r in range(4):
        assert sphere_volume(params, r) == rank_count_vector(3, 4, 2)[r]


def test_volume_radius_validation():
    params = params_for(2, 2, 2, 2)
    with pytest.raises(ValueError):
        sphere_volume(params, 5)
    with pytest.raises(ValueError):
        ball_volume(params, -1)


def test_volume_bounds_spot():
    for q, m, eta, ell in [(2, 2, 2, 2), (3, 3, 3, 2), (2, 1, 1, 4)]:
        params = params_for(q, m, eta, ell)
        for r in range(params.max_weight + 1):
            assert counting.sphere_bounds_ok(params, r)
            assert counting.ball_bounds_ok(params, r)


def test_gb_bounds_spot():
    for q in (2, 3):
        for n in range(9):
            for k in range(n + 1):
                assert gaussian_binomial_bounds_ok(n, k, q)


# -- fixed-point logs ------------------------------------------------------

PRIME_POWERS = [q for q in range(2, MAX_Q + 1) if is_prime_power(q)]
FRAC = counting._FRAC


def test_logq_int_at_and_around_powers_of_q():
    lnf = counting._ln_fixed
    for q in PRIME_POWERS:
        lnq = counting._ln(q)
        v = 1
        for k in range(1, 401):
            v *= q
            assert counting.logq_int(v, q) == k, (q, k)
            below = counting.logq_int(v - 1, q)
            above = counting.logq_int(v + 1, q)
            assert below <= k <= above, (q, k)
            # The gap to k is about 1/(v ln q): above the float resolution
            # at k below 2^40, above the fixed-point error below 2^128.
            if v < 2 ** 40:
                assert below < k < above, (q, k)
            if v < 2 ** 128:
                assert lnf(v - 1) < k * lnq < lnf(v + 1), (q, k)


def test_fixed_point_log_agrees_with_twice_the_precision():
    rng = random.Random(2024)
    bound = Fraction(1, 2 ** 120)
    for _ in range(400):
        value = rng.getrandbits(rng.randint(1, 3000)) or 1
        q = rng.choice(PRIME_POWERS)
        fine_v = counting._ln_fixed(value, 2 * FRAC)
        fine_q = counting._ln_fixed(q, 2 * FRAC)
        ln_v = counting._ln_fixed(value)
        assert abs(Fraction(ln_v, 2 ** FRAC)
                   - Fraction(fine_v, 2 ** (2 * FRAC))) < bound
        assert abs(Fraction(ln_v, counting._ln(q))
                   - Fraction(fine_v, fine_q)) < bound


def test_fixed_point_log_matches_known_constants():
    bound = Fraction(1, 2 ** 150)
    known = {  # 60 digits
        2: "0.69314718055994530941723212145817656807550013436025525412068",
        3: "1.09861228866810969139524523692252570464749055782274945173469",
        10: "2.30258509299404568401799145468436420760110148862877297603333"}
    for value, digits in known.items():
        assert abs(Fraction(counting._ln_fixed(value), 2 ** FRAC)
                   - Fraction(digits)) < bound
    rng = random.Random(7)
    for _ in range(2000):
        value = rng.getrandbits(rng.randint(1, 1000)) or 1
        assert (counting._ln_fixed(value) / 2 ** FRAC
                == pytest.approx(math.log(value), rel=1e-15, abs=1e-15))


def test_bounds_are_their_exact_sums_rounded_once():
    # Each bound equals its terms summed as exact rationals over
    # double-precision logs, then rounded to float once.
    def ln(v):
        return Fraction(counting._ln_fixed(v, 2 * FRAC), 2 ** (2 * FRAC))

    def lnk(q):
        lo, hi = counting.euler_product_interval(q, Fraction(1, 10 ** 36))
        mid = (lo + hi) / 2
        return ln(mid.numerator) - ln(mid.denominator)

    for q, m, eta, ell in [(2, 2, 2, 2), (3, 3, 3, 2), (7, 2, 3, 5),
                           (1021, 1, 2, 3)]:
        params = params_for(q, m, eta, ell)
        logk = lnk(q) / ln(q)
        for r in range(params.max_weight + 1):
            expo = (m + eta - Fraction(r, ell)) * r
            lower = float(ell * logk + expo - Fraction(ell, 4))
            for parts, bounds in [(ell, counting.sphere_bounds_logq),
                                  (ell + 1, counting.ball_bounds_logq)]:
                upper = float(-ell * logk + expo
                              + ln(math.comb(parts + r - 1, r)) / ln(q))
                assert bounds(params, r) == (lower, upper), (q, r, parts)
        for w in range(eta * ell + 1):
            expo = Fraction(eta * w) - Fraction(w * w, ell)
            upper = float(-ell * logk + expo
                          + ln(math.comb(w + ell - 1, ell - 1)) / ln(q))
            assert counting.decomposable_bounds_logq(eta, ell, w, q) == (
                float(expo), upper)


# The bounds keep each exponent as an unreduced integer pair and the
# penalty as one Fraction of integers; the oracles reduce them by Fraction
# arithmetic.  Each int/int division rounds the exact rational, so the
# floats must be equal, not close.
BIT_FIELDS = (2, 3, 4, 5, 7, 8, 9, 16, 127, 1021)
PENALTY_STEPS = (2, 3, 7, 20, 61, 200)


def volume_bound_mismatches(bounds):
    """The (q, m, eta, ell, r, parts) where bounds(params, r, parts)
    differs from the Fraction oracle, lazily.  The bounds read m + eta and
    min(m, eta) only, so eta >= m covers every shape up to 5 x 5."""
    for q in BIT_FIELDS:
        for m in range(1, 6):
            for eta in range(m, 6):
                for ell in (1, 2, 3, 7, 11, 40, 100):
                    params = params_for(q, m, eta, ell)
                    top = params.max_weight
                    for r in range(0, top + 1, max(1, top // 12)):
                        for parts in (ell, ell + 1):
                            if bounds(params, r, parts) != \
                                    volume_bounds_logq_by_fractions(
                                        params, r, parts):
                                yield q, m, eta, ell, r, parts


def decomposable_bound_mismatches(bounds):
    for q in BIT_FIELDS:
        for eta in range(1, 7):
            for ell in (1, 2, 5, 13, 50):
                for w in range(eta * ell + 1):
                    if bounds(eta, ell, w, q) != \
                            decomposable_bounds_logq_by_fractions(
                                eta, ell, w, q):
                        yield q, eta, ell, w


def penalty_mismatches(penalty):
    # rho at every i/S, b at every j/S for the four smallest S
    for steps in PENALTY_STEPS:
        for i in range(1, steps):
            rho = Fraction(i, steps)
            for b_steps in PENALTY_STEPS[:4]:
                for j in range(1, b_steps + 1):
                    b = Fraction(j, b_steps)
                    if penalty(rho, b) != capacity_penalty_by_fractions(rho,
                                                                         b):
                        yield rho, b


def test_volume_bounds_are_bit_identical_to_the_fraction_formulas():
    assert list(volume_bound_mismatches(counting._volume_bounds_logq)) == []


def test_decomposable_bounds_are_bit_identical_to_the_fraction_formulas():
    assert list(decomposable_bound_mismatches(
        counting.decomposable_bounds_logq)) == []


def test_capacity_penalty_equals_the_fraction_formula():
    assert list(penalty_mismatches(capacity_penalty)) == []
    penalty = capacity_penalty(Fraction(1, 3), Fraction(1, 2))
    assert type(penalty) is Fraction and penalty == Fraction(4, 9)


@pytest.mark.parametrize("mismatches, mutant", [
    (volume_bound_mismatches,
     (counting._volume_exponent, "ell - r) * r", "ell - r + 1) * r",
      counting._volume_bounds_logq)),
    (volume_bound_mismatches,
     (counting._volume_exponent, "ell - r) * r", "ell - r) * (r - 1)",
      counting._volume_bounds_logq)),
    (decomposable_bound_mismatches,
     (counting.decomposable_bounds_logq, "(eta * ell - w) * w",
      "(eta * ell - w + 1) * w")),
    (penalty_mismatches,
     (capacity_penalty, "(y * v + y * u - x * u)", "(y * v + y * u)")),
], ids=["volume-r-plus-1", "volume-r-minus-1", "decomposable",
        "penalty-without-rho-squared-b"])
def test_bound_mutants_fail_the_fraction_oracles(mismatches, mutant):
    assert next(mismatches(_mutant(*mutant)), None) is not None


def test_logq_int_rejects_bad_input():
    with pytest.raises(TypeError):
        counting.logq_int(2.5, 2)
    with pytest.raises(TypeError):
        counting.logq_int(8.0, 2)
    with pytest.raises(TypeError):
        counting.logq_int(8, 2.5)
    with pytest.raises(ValueError, match="q must be >= 2"):
        counting.logq_int(8, 1)
    with pytest.raises(ValueError, match="positive"):
        counting.logq_int(0, 2)
    assert counting.logq_int(1, 2) == 0.0


# -- decomposable counts ---------------------------------------------------

def test_decomposable_count_frozen():
    # eta = 2, ell = 2: compositions of w into two parts bounded by 2
    assert [decomposable_count(2, 2, w, 2) for w in range(5)] == [1, 6, 11, 6, 1]
    assert decomposable_count(3, 2, 2, 2) == 63


def test_decomposable_count_via_gaussian_products():
    for eta, ell, w, q in [(2, 3, 2, 2), (3, 2, 4, 3), (2, 2, 3, 5)]:
        total = 0
        for comp in bounded_compositions(w, ell, upper=eta):
            term = 1
            for part in comp:
                term *= gaussian_binomial(eta, part, q)
            total += term
        assert decomposable_count(eta, ell, w, q) == total


@pytest.mark.parametrize("eta, ell, w, name, value", [
    (-1, -1, 1, "eta", -1),  # eta * ell = 1 once let w = 1 through
    (0, 3, 0, "eta", 0),
    (2, 0, 0, "ell", 0),
    (2, -2, 0, "ell", -2),
])
def test_decomposable_shape_checked_as_space_params_checks_it(
        eta, ell, w, name, value):
    message = f"{name} must be a positive integer, got {value}"
    for count in (counting.decomposable_count,
                  counting.decomposable_bounds_logq):
        with pytest.raises(ValueError, match=message):
            count(eta, ell, w, 4)
    with pytest.raises(ValueError, match=message):
        SpaceParams(field_from_order(4), 1, eta, ell)


def test_decomposable_dominance_spot():
    for q in (2, 3):
        for eta in range(1, 5):
            for ell in range(1, 4):
                for w in range(eta * ell + 1):
                    assert decomposable_le_grassmannian(eta, ell, w, q)


def test_decomposable_bounds_spot():
    for q in (2, 3):
        for eta, ell in [(2, 2), (3, 2), (2, 3)]:
            for w in range(eta * ell + 1):
                assert decomposable_bounds_ok(eta, ell, w, q)


# -- capacity --------------------------------------------------------------

def test_capacity_penalty_frozen():
    assert capacity_penalty(Fraction(1, 2), 1) == Fraction(3, 4)
    assert list_decoding_capacity(Fraction(1, 2), 1) == Fraction(1, 4)
    assert capacity_penalty(Fraction(1, 4), 1) == Fraction(7, 16)


@given(st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)),
       st.fractions(min_value=Fraction(1, 100), max_value=1))
def test_capacity_penalty_formula(rho, b):
    assert capacity_penalty(rho, b) == rho + rho * b - rho * rho * b
    assert list_decoding_capacity(rho, b) == (1 - rho) * (1 - rho * b)


def test_capacity_monotone_in_rho():
    caps = [list_decoding_capacity(Fraction(i, 10), Fraction(1, 2))
            for i in range(1, 10)]
    assert caps == sorted(caps, reverse=True)


def test_capacity_domain():
    with pytest.raises(ValueError):
        capacity_penalty(Fraction(0), 1)
    with pytest.raises(ValueError):
        capacity_penalty(Fraction(1, 2), Fraction(3, 2))
    with pytest.raises(ValueError):
        capacity_penalty(Fraction(1, 2), 0)


def test_q_ary_entropy_values():
    assert q_ary_entropy(Fraction(1, 2), 2) == pytest.approx(1.0)
    assert q_ary_entropy(Fraction(2, 3), 3) == pytest.approx(1.0)
    assert q_ary_entropy(Fraction(1, 10), 2) == pytest.approx(0.4689956, abs=1e-6)


def test_space_params_derived_fields():
    params = params_for(2, 2, 3, 4)
    assert params.n == 12
    assert params.total_dim == 24
    assert params.block_rank_cap == 2
    assert params.max_weight == 8
    assert params.b == Fraction(3, 2)
    with pytest.raises(ValueError):
        params_for(2, 0, 2, 1)


def test_space_params_hash_once_and_stay_a_plain_frozen_dataclass():
    params = params_for(3, 2, 3, 4)
    twin = SpaceParams(field_from_order(3), 2, 3, 4)
    assert params == twin and hash(params) == hash(twin)
    assert hash(params) == hash((params.field, 2, 3, 4))
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.m = 3
    for copy in (dataclasses.replace(params),
                 pickle.loads(pickle.dumps(params))):
        assert copy == params and hash(copy) == hash(params)
    wider = dataclasses.replace(params, ell=5)
    assert wider != params and hash(wider) == hash((params.field, 2, 3, 5))
    assert "_hash" not in repr(params)
    assert [f.name for f in dataclasses.fields(params)] == [
        "field", "m", "eta", "ell"]

    class Field:
        hashed = 0

        def __hash__(self):
            Field.hashed += 1
            return 7

    shape = SpaceParams(Field(), 1, 2, 3)
    assert {hash(shape) for _ in range(5)} == {hash((shape.field, 1, 2, 3))}
    assert Field.hashed == 2  # once at construction, once in the check


@pytest.mark.parametrize("int_first", [False, True],
                         ids=["float-first", "int-first"])
def test_a_count_key_that_is_not_an_int_is_refused_in_either_order(
        int_first):
    # an untyped lru_cache takes 2.0 and 2 as one key, and so does the
    # _POWERS dict: unchecked, a float returned the int's count once the int
    # had filled the cache
    params = params_for(3, 2, 2, 2)
    for count in (sphere_volume, ball_volume, decomposable_count,
                  rank_count_vector, grassmannian_vector, completion_powers):
        count.cache_clear()
    counting._POWERS.clear()
    base = (1, 32, 48)  # rank_count_vector(2, 2, 3)
    # (name, call, a good key, its count)
    counts = [
        ("radius", lambda x: sphere_volume(params, x), 2, 1120),
        ("radius", lambda x: ball_volume(params, x), 2, 1185),
        ("eta", lambda x: decomposable_count(x, 2, 2, 3), 2, 18),
        ("ell", lambda x: decomposable_count(2, x, 2, 3), 2, 18),
        ("w", lambda x: decomposable_count(2, 2, x, 3), 2, 18),
        ("q", lambda x: decomposable_count(2, 2, 2, x), 3, 18),
        ("m", lambda x: rank_count_vector(x, 2, 3), 2, base),
        ("eta", lambda x: rank_count_vector(2, x, 3), 2, base),
        ("q", lambda x: rank_count_vector(2, 2, x), 3, base),
        ("eta", lambda x: grassmannian_vector(x, 3), 2, (1, 4, 1)),
        ("q", lambda x: grassmannian_vector(2, x), 3, (1, 4, 1)),
        ("ell", lambda x: completion_powers(base, x, 2), 2, (base, (1,))),
        ("deg", lambda x: completion_powers(base, 2, x), 2, (base, (1,))),
        # through degree 2 or further, so read to degree 2
        ("ell", lambda x: block_sum_power(base, x, 2)[:3], 2, (1, 64, 1120)),
        ("deg", lambda x: block_sum_power(base, 2, x)[:3], 2, (1, 64, 1120)),
    ]
    for name, count, good, value in counts:
        if int_first:
            assert count(good) == value
        for bad in (float(good), Fraction(good), str(good)):
            with pytest.raises(ValueError) as exc:
                count(bad)
            assert str(exc.value) == f"{name} must be an integer, got {bad!r}"
        assert count(good) == value
    assert sphere_volume.cache_info().currsize == 3  # the ball's spheres
    assert ball_volume.cache_info().currsize == 1
    assert decomposable_count.cache_info().currsize == 1


def test_a_float_exponent_leaves_no_float_power_behind():
    # _POWERS is a dict, which an lru_cache's typed keys cannot guard: a
    # float ell stored float coefficients under the int key (base, 3), which
    # the sphere and ball volumes then read
    p = params_for(2, 2, 2, 3)
    for count in (sphere_volume, ball_volume):
        count.cache_clear()
    counting._POWERS.clear()
    with pytest.raises(ValueError) as exc:
        block_sum_power(rank_count_vector(2, 2, 2), 3.0, 4)
    assert str(exc.value) == "ell must be an integer, got 3.0"
    for volume, value in ((sphere_volume(p, 4), 1566),
                          (ball_volume(p, 4), 2908)):
        assert volume == value and type(volume) is int


def test_grassmannian_vector_mirrors_the_half_row():
    # the row to eta // 2 and its mirror, at even, odd and zero eta
    for q in (2, 3, 4, 7):
        for eta in range(20):
            assert counting.grassmannian_vector(eta, q) == tuple(
                gaussian_binomial(eta, k, q) for k in range(eta + 1))
