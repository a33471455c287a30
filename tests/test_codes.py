"""Random code ensembles, list sizes, occupancy, correlation estimators."""

import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from sumrank import codes, counting, metric
from sumrank.codes import (Code, correlation_estimate,
                           limited_correlation_estimate, max_list_size,
                           radius_for, sample_general_code,
                           sample_linear_code, span_ball_count,
                           subset_span_event_estimate)
from sumrank.counting import ball_volume
from sumrank.galois import field_from_order
from sumrank.guards import MAX_COSET_STEPS, MAX_SWEEP, GuardError
from sumrank.linalg import Subspace, _rank_rows
from sumrank.metric import BlockTuple, tuple_code, tuple_from_code
from sumrank.montecarlo import DEFAULT_MASTER_SEED, RandomStream

import oracles
from oracles import (enumerate_ball, expected_ball_occupancy,
                     is_prime_power, list_size_at, params_for,
                     sum_rank_distance, vectors, zero_tuple)

F2 = field_from_order(2)


def all_points(params):
    """Every point of the space, in code order."""
    return [tuple_from_code(params, code)
            for code in range(params.q ** params.total_dim)]


P114 = params_for(2, 1, 1, 4)
P222 = params_for(2, 2, 2, 2)


def test_radius_for():
    assert radius_for(P114, Fraction(1, 2)) == 2
    assert radius_for(P222, Fraction(1, 4)) == 1
    assert radius_for(P114, 0.5) == 2
    with pytest.raises(ValueError):
        radius_for(P114, Fraction(3, 2))


def test_every_radius_check_gives_one_message():
    # P222 has max weight 4
    code = sample_linear_code(P222, Fraction(1, 2), random.Random(5))
    checks = [
        lambda r: counting.sphere_volume(P222, r),
        lambda r: counting.ball_volume(P222, r),
        lambda r: counting.sphere_bounds_logq(P222, r),
        lambda r: counting.ball_bounds_logq(P222, r),
        lambda r: metric.iter_ball(P222, r),
        lambda r: metric.sample_ball_uniform(P222, r, random.Random(1)),
        lambda r: list_size_at(code, zero_tuple(P222), r),
        lambda r: max_list_size(code, r),
    ]
    for check in checks:
        for r in (-1, 5):
            with pytest.raises(ValueError) as exc:
                check(r)
            assert str(exc.value) == f"radius r = {r} outside [0, 4]"


def test_linear_code_structure():
    rng = random.Random(71)
    code = sample_linear_code(P114, Fraction(1, 2), rng)
    words = code.codewords()
    assert code.is_linear and code.dimension == 2
    assert code.size == len(words) == len(set(words)) == 4
    assert 0 in words
    members = set(words)
    # closed under addition, added as points
    points = [tuple_from_code(P114, w) for w in words]
    for a in points:
        for b in points:
            assert tuple_code(a.add(b)) in members
    # the members are the row space of the basis
    rows = list(code.basis)
    for x in all_points(P114):
        assert (tuple_code(x) in members) == (
            _rank_rows(F2, rows + [x.to_vector()]) == 2)


def test_non_integral_dimension_rejected():
    with pytest.raises(ValueError):
        sample_linear_code(P114, Fraction(1, 3), random.Random(1))
    with pytest.raises(ValueError):
        sample_general_code(P222, Fraction(7, 16), random.Random(1))


def test_general_code_membership_and_size_concentration():
    # inclusion probability 1/4 over 16 points: mean size 4
    sizes = []
    for seed in range(40):
        code = sample_general_code(P114, Fraction(1, 2), random.Random(seed))
        sizes.append(code.size)
        words = code.codewords()
        assert len(set(words)) == code.size
        assert words == sorted(words) == list(code.words)
    mean = sum(sizes) / len(sizes)
    assert 2.0 < mean < 6.5


def test_list_size_at_matches_direct_count():
    rng = random.Random(73)
    cases = [(sample_linear_code(P222, Fraction(1, 2), rng),
              tuple_from_code(P222, rng.randrange(256)), (0, 1, 2))
             for _ in range(10)]
    general = sample_general_code(P222, Fraction(1, 2), random.Random(81))
    cases.append((general, tuple_from_code(P222, 77), (0, 1, 2, 4)))
    # reference: scan the ball around the center for codewords
    for code, center, radii in cases:
        members = set(code.codewords())
        for radius in radii:
            direct = sum(1 for offset in enumerate_ball(P222, radius)
                         if tuple_code(center.add(offset)) in members)
            assert list_size_at(code, center, radius) == direct


def test_list_size_crossover_paths_agree():
    # more codewords than the radius-1 ball holds; radius 4 is the space
    rng = random.Random(79)
    code = sample_linear_code(P222, Fraction(3, 4), rng)  # 64 words
    center = tuple_from_code(P222, 77)
    assert ball_volume(P222, 1) < code.size
    direct = sum(1 for w in code.codewords()
                 if sum_rank_distance(tuple_from_code(P222, w), center) <= 1)
    assert list_size_at(code, center, 1) == direct
    assert list_size_at(code, center, 4) == code.size


def test_max_list_size_matches_center_sweep():
    rng = random.Random(83)
    for _ in range(5):
        code = sample_linear_code(P222, Fraction(3, 8), rng)
        size, witness = max_list_size(code, 1)
        sweep = max(list_size_at(code, center, 1)
                    for center in all_points(P222))
        assert size == sweep
        assert list_size_at(code, tuple_from_code(P222, witness), 1) == size


def test_max_list_size_exhaustive_above_the_enumeration_cap():
    # 2^17 points: more than enumerate_ball takes, within MAX_SWEEP
    params = params_for(2, 1, 1, 17)
    assert oracles.MAX_ENUMERATION < 2 ** 17 <= MAX_SWEEP
    with pytest.raises(GuardError):
        enumerate_ball(params, 2)
    code = sample_linear_code(params, Fraction(2, 17), random.Random(113))
    size, witness = max_list_size(code, 2)
    assert 1 <= size <= code.size
    assert list_size_at(code, tuple_from_code(params, witness), 2) == size


def test_max_list_size_monotone_in_radius():
    rng = random.Random(89)
    code = sample_linear_code(P222, Fraction(3, 8), rng)
    sizes = [max_list_size(code, r)[0] for r in range(5)]
    assert sizes == sorted(sizes)
    assert sizes[-1] == code.size


def test_max_list_size_witness_deterministic():
    rng = random.Random(101)
    code = sample_linear_code(P222, Fraction(3, 8), rng)
    first = max_list_size(code, 1)
    second = max_list_size(code, 1)
    assert first == second


@pytest.mark.parametrize("shape, rate", [
    ((3, 1, 2, 2), Fraction(1, 2)), ((4, 1, 2, 2), Fraction(1, 2)),
    ((5, 1, 1, 3), Fraction(1, 3))], ids=str)
def test_general_max_list_size_is_the_largest_list_over_every_center(
        shape, rate):
    # one sum_rank_distance per codeword and center, sharing no code
    # arithmetic with the sweep; the linear code, run as a general one,
    # anchors the coset histogram that the sweep is compared with
    params = params_for(*shape)
    rng = random.Random(151)
    linear = sample_linear_code(params, rate, rng)
    for code in (sample_general_code(params, rate, rng),
                 Code(params, words=linear.codewords())):
        for radius in range(params.max_weight + 1):
            lists = [list_size_at(code, center, radius)
                     for center in all_points(params)]
            best = max(lists)
            assert max_list_size(code, radius) == (best, lists.index(best))


def assert_cosets_match_the_sweep(code, radii=None):
    """The coset histogram against the occupancy sweep, run on the same
    codewords as a general code, at the radii given or every radius: size
    and witness."""
    general = Code(code.params, words=code.codewords())
    if radii is None:
        radii = range(code.params.max_weight + 1)
    for radius in radii:
        assert max_list_size(code, radius) == max_list_size(general, radius), \
            radius


def test_cosets_match_the_sweep_on_acceptance_13_codes():
    # the 200 codes of `experiment list-size` at acceptance 13's shape
    stream = RandomStream(DEFAULT_MASTER_SEED, "experiment", "list-size")
    for i in range(200):
        code = sample_linear_code(P222, Fraction(3, 8), stream.child(i))
        assert_cosets_match_the_sweep(code)


@pytest.mark.parametrize("ell, k, seeds, count", [
    (2, 3, range(8), 8), (2, 2, range(8), 8),  # rho 1/4 and 1/3, eps 1/8
    (3, 5, range(2), 1)], ids=["l2-k3", "l2-k2", "l3-k5"])
def test_cosets_match_the_sweep_on_the_benchmark_shapes(ell, k, seeds, count):
    # the list-size shapes of perfbench's exhaustive-oracles: its op seeds
    # and code counts (the sweep over the whole ell = 3 space is slow)
    params = params_for(2, 2, 2, ell)
    rate = Fraction(k, params.total_dim)
    for seed in seeds:
        stream = RandomStream(seed, "experiment", "list-size")
        for i in range(count):
            assert_cosets_match_the_sweep(
                sample_linear_code(params, rate, stream.child(i)))


@pytest.mark.parametrize("shape, rate", [
    ((3, 1, 2, 2), Fraction(1, 2)), ((3, 1, 1, 5), Fraction(2, 5)),
    ((3, 2, 2, 1), Fraction(1, 4)), ((4, 1, 1, 3), Fraction(1, 3)),
    ((4, 1, 2, 2), Fraction(1, 4))], ids=str)
def test_cosets_match_the_sweep_at_odd_q(shape, rate):
    params = params_for(*shape)
    rng = random.Random(127)
    for _ in range(6):
        assert_cosets_match_the_sweep(sample_linear_code(params, rate, rng))


def test_witness_is_the_smallest_reduced_code_among_tied_classes():
    # Three cosets hold two radius-1 points each.  Their reduced codes are
    # 16, 6 and 64 in the order the ball first meets them; 6 has weight 2,
    # so it lies outside the ball and is the witness.
    code = Code(P222, basis=[tuple_from_code(P222, 38).to_vector(),
                             tuple_from_code(P222, 198).to_vector()])
    classes = codes._coset_histogram(code, 1)
    assert sorted(key for key, size in classes.items() if size == 2) \
        == [6, 16, 64]
    assert max(classes.values()) == 2
    assert tuple_from_code(P222, 6).weight() == 2
    assert max_list_size(code, 1) == (2, 6)
    assert_cosets_match_the_sweep(code)


def test_linear_list_size_past_the_code_space_cap():
    # 2^24 points, past MAX_SWEEP; the radius-1 ball has 55
    params = params_for(2, 2, 2, 6)
    assert params.q ** params.total_dim > MAX_SWEEP
    code = sample_linear_code(params, Fraction(1, 2), random.Random(131))
    classes = codes._coset_histogram(code, 1)
    assert sum(classes.values()) == ball_volume(params, 1) == 55
    size, witness = max_list_size(code, 1)
    assert size == max(classes.values())
    assert list_size_at(code, tuple_from_code(params, witness), 1) == size


def test_large_block_shape_of_the_old_cap_still_runs():
    # one block of 2^20 matrices: past MAX_ENUMERATION, as large a space
    # as MAX_SWEEP allowed
    params = params_for(2, 4, 5, 1)
    base = params.q ** (params.m * params.eta)
    assert oracles.MAX_ENUMERATION < base == MAX_SWEEP
    code = sample_linear_code(params, Fraction(1, 10), random.Random(137))
    size, witness = max_list_size(code, 1)
    assert list_size_at(code, tuple_from_code(params, witness), 1) == size
    assert_cosets_match_the_sweep(code, (1,))


def test_coset_guard_admits_every_space_the_old_cap_admitted():
    # block codes and ball points each at most q^mn, k at most mn
    for q in range(2, 1025):
        n = 1
        while q ** n <= MAX_SWEEP:
            assert q ** n * (2 + n) <= MAX_COSET_STEPS, (q, n)
            n += 1


def test_coset_guard_prices_every_add_by_its_chunks():
    # an add walks ceil(n / k) chunks at odd q, again per 1,024 bits of
    # code, and is one XOR at q = 2^e; every space of at most MAX_SWEEP
    # points still fits
    for q in (2, 4, 8, 16, 256):
        assert metric.code_adder_steps(field_from_order(q), 5000) == 1
    f3, f5 = field_from_order(3), field_from_order(5)
    assert [metric.code_adder_steps(f3, n) for n in (1, 5, 6, 12)] == \
        [1, 1, 2, 3]
    assert metric.code_adder_steps(f3, 512) == 103
    assert metric.code_adder_steps(f3, 513) == 103 * 2
    assert metric.code_adder_steps(f3, 2000) == 400 * 4
    assert metric.code_adder_steps(f5, 10) == 4
    for q in range(3, 1025, 2):
        if not is_prime_power(q):
            continue
        field = SimpleNamespace(p=next(d for d in range(3, q + 1)
                                       if q % d == 0), q=q)
        n = 1
        while q ** n <= MAX_SWEEP:
            steps = metric.code_adder_steps(field, n)
            assert q ** n * (2 + n * steps) <= MAX_COSET_STEPS, (q, n)
            n += 1


def test_coset_guard_counts_walks_and_reductions():
    # 679,121 radius-4 points, each walked and reduced against k = 60 rows
    params = params_for(2, 1, 1, 64)
    code = sample_linear_code(params, Fraction(60, 64), random.Random(139))
    ball = ball_volume(params, 4)
    assert ball <= MAX_SWEEP
    steps = 2 + ball * 61
    with pytest.raises(GuardError, match=f"coset reduction steps = {steps} "):
        max_list_size(code, 4)
    assert max_list_size(code, 2)[0] >= 1


def test_coset_guard_caps_the_ball_at_zero_dimension():
    # k = 0 reduces nothing, but every ball point is still a class
    params = params_for(2, 1, 1, 25)
    empty = Code(params, basis=[])
    with pytest.raises(GuardError, match="ball volume = 16777216 "):
        max_list_size(empty, 12)
    assert max_list_size(empty, 3) == (1, 0)


def test_coset_guard_caps_the_block_table():
    # 4^12 block ranks, each one elimination, though the ball is small
    params = params_for(4, 4, 3, 1)
    code = sample_linear_code(params, Fraction(1, 12), random.Random(149))
    with pytest.raises(GuardError, match="block matrix count = 16777216 "):
        max_list_size(code, 1)


def test_expected_occupancy_identity():
    for rate in (Fraction(1, 4), Fraction(1, 2)):
        rng = random.Random(103)
        linear = sample_linear_code(P114, rate, rng)
        general = sample_general_code(P114, rate, rng)
        for code in (linear, general):
            for radius in (0, 1, 2):
                closed, exhaustive = expected_ball_occupancy(code, radius)
                assert closed == exhaustive


def test_empty_general_code_occupancy():
    code = Code(P114, words=())
    closed, exhaustive = expected_ball_occupancy(code, 1)
    assert closed == exhaustive == 0
    assert code.size == 0


def test_correlation_estimate_reproducible_and_bracketed():
    est1 = correlation_estimate(P114, Fraction(1, 2), 2000,
                                RandomStream(9, "corr"))
    est2 = correlation_estimate(P114, Fraction(1, 2), 2000,
                                RandomStream(9, "corr"))
    assert est1 == est2
    assert est1.ci_low <= est1.estimate <= est1.ci_high
    # exact probability 91/121 for this configuration
    assert est1.ci_low <= 91 / 121 <= est1.ci_high


def test_correlation_estimate_center_shift():
    # for the all-ones center, membership flips to weight(X1+X2) >= 2,
    # which happens with probability 78/121
    far = tuple_from_code(P114, 0b1111)
    shifted = correlation_estimate(P114, Fraction(1, 2), 1500,
                                   RandomStream(10, "corr-far"), center=far)
    assert shifted.ci_low <= 78 / 121 <= shifted.ci_high


def span_elements(points):
    """All distinct span elements via flattened coordinates."""
    params = points[0].params
    flat = Subspace.span(params.field, params.total_dim,
                         [p.to_vector() for p in points])
    return [BlockTuple(params, v) for v in vectors(flat)]


@pytest.mark.parametrize("params", [
    P114, params_for(3, 1, 2, 2), params_for(4, 1, 1, 3)],
    ids=lambda p: f"q{p.q}")
def test_span_ball_count_matches_subspace_enumeration(params):
    # at q > 2 a combination scales its points by c != 1
    rng = random.Random(107)
    for _ in range(15):
        points = [tuple_from_code(params, rng.randrange(
            params.q ** params.total_dim)) for _ in range(3)]
        for radius in range(1, params.max_weight):
            expected = sum(1 for x in span_elements(points)
                           if x.weight() <= radius)
            assert span_ball_count(points, radius) == expected


def test_span_ball_count_of_two_large_draws_is_quick():
    # nine combinations of 120,000-entry points: decoding each span element
    # from its whole-point code took about 48 s
    params = params_for(3, 100, 100, 12)
    rng = random.Random(163)
    points = [metric.sample_ball_uniform(params, 10, rng) for _ in range(2)]
    start = time.perf_counter()
    count = span_ball_count(points, 10)
    assert time.perf_counter() - start < 5.0
    # zero, the draws and their doubles, which are their negatives; every
    # other combination leaves the ball
    assert count == 5


def test_limited_correlation_probability_range():
    est = limited_correlation_estimate(P114, Fraction(1, 2), 2, Fraction(3, 2),
                                       1000, RandomStream(11, "lim"))
    assert 0.0 <= est.estimate <= 1.0


def test_subset_event_identity_rows_always_hit():
    # picking each draw alone always lands in the ball it was drawn from
    est = subset_span_event_estimate(P114, Fraction(1, 2),
                                     ((1, 0), (0, 1)), 500,
                                     RandomStream(12, "subset"))
    assert est.estimate == 1.0


def test_subset_event_validation():
    stream = RandomStream(13, "subset-val")
    with pytest.raises(ValueError):
        subset_span_event_estimate(P114, Fraction(1, 2), (), 10, stream)
    with pytest.raises(ValueError):
        subset_span_event_estimate(P114, Fraction(1, 2), ((),), 10, stream)
    with pytest.raises(ValueError):
        subset_span_event_estimate(P114, Fraction(1, 2), ((1, 0), (1,)), 10,
                                   stream)
    with pytest.raises(ValueError):
        subset_span_event_estimate(P114, Fraction(1, 2), ((2, 0),), 10, stream)


def test_code_checks_its_rows_and_word_codes():
    row = (0, 1, 1, 0)
    Code(P114, basis=[row])
    with pytest.raises(ValueError, match="exactly one"):
        Code(P114)
    with pytest.raises(ValueError, match="expected 4 entries, got 3"):
        Code(P114, basis=[row[:3]])
    with pytest.raises(ValueError, match="entry 2 outside field of order 2"):
        Code(P114, basis=[(0, 2, 0, 0)])
    with pytest.raises(ValueError, match="linearly dependent"):
        Code(P114, basis=[row, row])
    assert Code(P114, words=[15, 0, 15]).words == (0, 15)
    for bad in (-1, 16):
        with pytest.raises(ValueError, match=rf"code {bad} outside \[0, 16\)"):
            Code(P114, words=[3, bad])


def test_code_json_shapes():
    rng = random.Random(109)
    linear = sample_linear_code(P114, Fraction(1, 2), rng)
    general = sample_general_code(P114, Fraction(1, 2), rng)
    assert linear.to_json()["kind"] == "linear"
    blob = general.to_json()
    assert blob["kind"] == "general"
    assert len(blob["codewords"]) == general.size


def test_linear_code_json_reads_its_checked_rows():
    rng = random.Random(113)
    for params in (P114, params_for(3, 2, 2, 2), params_for(4, 2, 2, 2)):
        code = sample_linear_code(params, Fraction(1, 2), rng)
        rows = [list(row) for row in code.basis]
        blob = {"kind": "linear",
                "basis": [BlockTuple(params, row).to_json() for row in rows]}
        assert code.to_json() == Code(params, basis=rows).to_json() == blob
        with pytest.raises(ValueError, match="outside field of order"):
            Code(params, basis=rows[:-1] + [[params.q] * len(rows[-1])])


@pytest.mark.parametrize("q", [2, 3, 4])
def test_sampled_code_rows_are_independent_field_entries(q):
    params = params_for(q, 2, 2, 2)
    rng = random.Random(q)
    for rate, k in ((Fraction(1, 8), 1), (Fraction(1, 2), 4), (1, 8)):
        for _ in range(30):
            rows = sample_linear_code(params, rate, rng).basis
            assert all(len(row) == 8 and 0 <= min(row) <= max(row) < q
                       for row in rows)
            assert len(oracles.rref_by_gauss_jordan(params.field, rows)[0]) \
                == len(rows) == k
            with pytest.raises(ValueError, match="linearly dependent"):
                Code(params, basis=rows + rows[:1])
