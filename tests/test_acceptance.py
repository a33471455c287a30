"""Acceptance gate: one test per numbered criterion, heavy sweeps included.

Everything here is seeded, so reruns are bit-for-bit repeatable.  Expect a
few minutes of wall time for the full module.

Two tests fail by design and are left failing rather than weakened: the
monotone-trend assertions on the two correlation estimators (11a and 11b).
The decoding radius floor(rho * n) at rho = 1/2 gains a whole unit only on
even n, so the exact hit probabilities zigzag with the parity of ell
(7/9, 5/8, 91/121, 83/128 for ell = 2..5) and no faithful estimator can
report a nonincreasing sequence over that family.  The even-ell companion
test, where the parity effect cancels, shows the expected decreasing trend
with CI separation.  The span version increases in ell for every threshold
choice because the ball volume grows while the finite span stays at q^gamma
points, so its trend assertion fails at this scale too.
"""

import csv
import math
import time
from fractions import Fraction

from sumrank import codes, counting, decomposable, linalg, metric
from sumrank.chains import (bound_attainment_report, bound_target,
                            random_chain_instance)
from sumrank.cli import main as cli_main
from sumrank.counting import SpaceParams
from sumrank.galois import field_from_order
from sumrank.montecarlo import DEFAULT_MASTER_SEED, RandomStream

from oracles import (chi_squared_uniform_pvalue, enumerate_ball,
                     enumerate_decomposable, expected_ball_occupancy, flatten,
                     intersection_event_probability_exact, matrix_code,
                     rank_table_by_elimination, sample_uniform_tuple,
                     sum_rank_distance)

F2 = field_from_order(2)
STREAM = RandomStream(DEFAULT_MASTER_SEED, "acceptance")

# pinned tolerances
LOG_MARGIN = 1e-9        # log-domain slack for all sandwich bounds
CHI2_THRESHOLD = 0.001   # uniformity rejection level
# confidence intervals are Wilson 95% throughout


def space(q, m, eta, ell):
    return SpaceParams(field=field_from_order(q), m=m, eta=eta, ell=ell)


def test_criterion_01_volume_oracle_brute_force():
    started = time.monotonic()
    checked = 0
    for q in (2, 3):
        for m in range(1, 17):
            for eta in range(1, 17):
                for ell in range(1, 17):
                    if q ** (m * eta * ell) > 2 ** 16:
                        continue
                    params = space(q, m, eta, ell)
                    hist = metric.weight_histogram(params)
                    running = 0
                    for r in range(params.max_weight + 1):
                        assert hist[r] == counting.sphere_volume(params, r)
                        running += hist[r]
                        assert running == counting.ball_volume(params, r)
                    checked += 1
    elapsed = time.monotonic() - started
    print(f"criterion 1: {checked} configurations exact, {elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_02_hamming_and_rank_specializations():
    for q in (2, 3, 4):
        for ell in range(1, 11):
            params = space(q, 1, 1, ell)
            for r in range(ell + 1):
                binomial_sum = sum(math.comb(ell, j) * (q - 1) ** j
                                   for j in range(r + 1))
                assert counting.ball_volume(params, r) == binomial_sum
        for m in range(1, 5):
            for eta in range(1, 5):
                params = space(q, m, eta, 1)
                for r in range(min(m, eta) + 1):
                    assert counting.sphere_volume(params, r) == \
                        counting.rank_count_vector(m, eta, q)[r]
    print("criterion 2: Hamming balls and single-block spheres exact")


def test_criterion_03_volume_bounds_sandwich():
    checked = 0
    for q in (2, 3):
        for side in range(1, 5):
            for ell in range(1, 5):
                params = space(q, side, side, ell)
                for r in range(params.max_weight + 1):
                    assert counting.sphere_bounds_ok(params, r,
                                                     margin=LOG_MARGIN)
                    assert counting.ball_bounds_ok(params, r,
                                                   margin=LOG_MARGIN)
                    checked += 1
    print(f"criterion 3: {checked} sandwich checks at margin {LOG_MARGIN}")


def test_criterion_04_decomposable_dominated_by_grassmannian():
    checked = 0
    for q in (2, 3):
        for eta in range(1, 7):
            for ell in range(1, 5):
                for w in range(eta * ell + 1):
                    assert counting.decomposable_le_grassmannian(
                        eta, ell, w, q)
                    checked += 1
    print(f"criterion 4: dominance exact on {checked} configurations")


def test_criterion_05_decomposable_count_vs_enumeration_and_bounds():
    for eta in range(1, 4):
        for ell in range(1, 3):
            for w in range(eta * ell + 1):
                count = counting.decomposable_count(eta, ell, w, 2)
                assert count == len(enumerate_decomposable(F2, eta, ell, w))
                assert counting.decomposable_bounds_ok(eta, ell, w, 2,
                                                       margin=LOG_MARGIN)
    print("criterion 5: closed-form counts equal enumeration, bounds hold")


def test_criterion_06_intersection_dimensions_exact():
    configs = [(2, 2, 2, 1, 2), (2, 3, 2, 2, 2), (3, 2, 2, 1, 1)]
    for q, eta, ell, wx, wy in configs:
        field = field_from_order(q)
        stream = STREAM.child("dims", q, eta, ell, wx, wy)
        for i in range(1000):
            rng = stream.child(i)
            x = decomposable.sample_decomposable_uniform(field, eta, ell, wx,
                                                         rng)
            y = decomposable.sample_decomposable_uniform(field, eta, ell, wy,
                                                         rng)
            meet = x.intersect(y)
            fx, fy = flatten(x), flatten(y)
            flat_meet = fx.intersect(fy)
            assert meet.total_dim == flat_meet.dim
            assert wx + wy == flat_meet.dim + fx.add(fy).dim
    print(f"criterion 6: 1000 exact pairs per configuration, {configs}")


def test_criterion_07_sampler_uniformity_chi_squared():
    draws = 100_000
    pvalues = {}

    def check(label, categories, draw_key):
        counter = {}
        stream = STREAM.child("uniformity", label)
        for i in range(draws):
            key = draw_key(stream.child(i))
            counter[key] = counter.get(key, 0) + 1
        assert set(counter) <= set(categories)
        pvalue = chi_squared_uniform_pvalue(
            [counter.get(k, 0) for k in categories])
        pvalues[label] = pvalue
        assert pvalue > CHI2_THRESHOLD, f"{label}: p = {pvalue}"

    subspaces = linalg.enumerate_subspaces(F2, 4, 2)
    assert len(subspaces) == 35
    check("subspace", [s.basis for s in subspaces],
          lambda rng: linalg.sample_subspace(F2, 4, 2, rng).basis)

    rank_one = [code for code, rank
                in enumerate(rank_table_by_elimination(F2, 2, 2)) if rank == 1]
    assert len(rank_one) == 9
    check("rank-matrix", rank_one,
          lambda rng: matrix_code(
              2, metric.sample_uniform_matrix_of_rank(F2, 2, 2, 1, rng)))

    def decomposable_key(sub):
        return tuple(tuple(map(tuple, factor.basis)) for factor in sub.factors)

    decs = enumerate_decomposable(F2, 2, 2, 1)
    assert len(decs) == 6
    check("decomposable", [decomposable_key(d) for d in decs],
          lambda rng: decomposable_key(
              decomposable.sample_decomposable_uniform(F2, 2, 2, 1, rng)))

    p113 = space(2, 1, 1, 3)
    ball = [metric.tuple_code(x) for x in enumerate_ball(p113, 1)]
    assert len(ball) == 4
    check("ball", ball,
          lambda rng: metric.tuple_code(
              metric.sample_ball_uniform(p113, 1, rng)))

    p114 = space(2, 1, 1, 4)

    def code_key(code):
        return linalg.Subspace.span(F2, 4, code.basis).basis

    check("linear-code", [s.basis for s in subspaces],
          lambda rng: code_key(
              codes.sample_linear_code(p114, Fraction(1, 2), rng)))

    print(f"criterion 7: chi-squared p-values at {draws} draws: {pvalues}")


def test_criterion_08_translation_and_scaling_invariance():
    configs = [(2, 2, 2, 2), (3, 1, 2, 2), (2, 1, 1, 6), (4, 2, 1, 3)]
    for q, m, eta, ell in configs:
        params = space(q, m, eta, ell)
        stream = STREAM.child("invariance", q, m, eta, ell)
        for i in range(1000):
            rng = stream.child(i)
            x = sample_uniform_tuple(params, rng)
            y = sample_uniform_tuple(params, rng)
            z = sample_uniform_tuple(params, rng)
            alpha = rng.randrange(1, q)
            base = sum_rank_distance(x, y)
            assert sum_rank_distance(x.add(z), y.add(z)) == base
            assert sum_rank_distance(x.sub(z), y.sub(z)) == base
            assert sum_rank_distance(x.scale(alpha), y.scale(alpha)) == base
            r = rng.randrange(params.max_weight + 1)
            inside = x.weight() <= r
            assert (sum_rank_distance(x.add(y), y) <= r) == inside
            assert (sum_rank_distance(x.sub(y), y.neg()) <= r) == inside
            assert (x.scale(alpha).weight() <= r) == inside
    print(f"criterion 8: 1000 exact triples per configuration, {configs}")


def test_criterion_09_expectation_identity_exact():
    params = space(2, 2, 2, 2)
    stream = STREAM.child("occupancy")
    for kind in ("linear", "general"):
        for i in range(20):
            rng = stream.child(kind, i)
            if kind == "linear":
                code = codes.sample_linear_code(params, Fraction(1, 2), rng)
            else:
                code = codes.sample_general_code(params, Fraction(1, 2), rng)
            for radius in (0, 1, 2):
                closed, exhaustive = expected_ball_occupancy(code, radius)
                assert closed == exhaustive
    print("criterion 9: closed form equals exhaustive average, 40 codes")


def test_criterion_10_correlation_oracle_within_ci():
    params = space(2, 1, 1, 4)
    ball = enumerate_ball(params, 2)
    assert len(ball) == 11
    hits = sum(1 for x1 in ball for x2 in ball
               if x1.add(x2).weight() <= 2)
    exact = Fraction(hits, len(ball) ** 2)
    assert exact == Fraction(91, 121)
    est = codes.correlation_estimate(params, Fraction(1, 2), 100_000,
                                     STREAM.child("corr-oracle"))
    assert est.ci_low <= float(exact) <= est.ci_high
    print(f"criterion 10: exact {exact} in [{est.ci_low:.5f}, "
          f"{est.ci_high:.5f}] at {est.trials} trials")


def _correlation_family(label, estimator, trials):
    results = []
    for ell in (2, 3, 4, 5):
        params = space(2, 1, 1, ell)
        results.append(estimator(params, STREAM.child(label, ell), trials))
    return results


def test_criterion_11a_correlation_trend_nonincreasing():
    # fails by design: the exact probabilities zigzag with the parity of
    # ell (see the module docstring), so this sequence cannot decrease
    results = _correlation_family(
        "corr-trend",
        lambda params, stream, trials: codes.correlation_estimate(
            params, Fraction(1, 2), trials, stream),
        20_000)
    values = [est.estimate for est in results]
    print(f"criterion 11a: correlation estimates over ell 2..5: {values}")
    assert all(a >= b for a, b in zip(values, values[1:])), \
        f"sequence {values} is not nonincreasing"
    assert results[0].ci_low > results[-1].ci_high


def test_criterion_11b_limited_correlation_trend_nonincreasing():
    # fails by design: the span hit probability grows with ell because the
    # ball fills up while the span stays at q^gamma points
    results = _correlation_family(
        "span-trend",
        lambda params, stream, trials: codes.limited_correlation_estimate(
            params, Fraction(1, 2), 2, Fraction(3, 2), trials, stream),
        10_000)
    values = [est.estimate for est in results]
    print(f"criterion 11b: span estimates over ell 2..5: {values}")
    assert all(a >= b for a, b in zip(values, values[1:])), \
        f"sequence {values} is not nonincreasing"
    assert results[0].ci_low > results[-1].ci_high


def test_criterion_11c_dimension_estimator_matches_oracle():
    exact = intersection_event_probability_exact(
        F2, 3, 2, 2, 2, min_fraction=Fraction(1, 2))
    est = decomposable.intersection_dimension_estimate(
        F2, 3, 2, 2, 2, 10_000, STREAM.child("dim-oracle"),
        min_fraction=Fraction(1, 2))
    assert est.ci_low <= float(exact) <= est.ci_high
    print(f"criterion 11c: exact {exact} in [{est.ci_low:.5f}, "
          f"{est.ci_high:.5f}]")


def test_criterion_11_companion_even_family_decreasing():
    # the parity effect cancels on even ell, where the decreasing trend the
    # estimators are meant to surface does hold, with CI separation
    frozen = {2: Fraction(7, 9), 4: Fraction(91, 121),
              6: Fraction(617, 882), 8: Fraction(18379, 26569)}
    results = []
    for ell in (2, 4, 6, 8):
        params = space(2, 1, 1, ell)
        radius = ell // 2
        ball = enumerate_ball(params, radius)
        hits = sum(1 for x1 in ball for x2 in ball
                   if x1.add(x2).weight() <= radius)
        exact = Fraction(hits, len(ball) ** 2)
        assert exact == frozen[ell]
        est = codes.correlation_estimate(params, Fraction(1, 2), 10_000,
                                         STREAM.child("corr-even", ell))
        assert est.ci_low <= float(exact) <= est.ci_high
        results.append(est)
    exacts = list(frozen.values())
    assert all(a > b for a, b in zip(exacts, exacts[1:]))
    assert results[0].ci_low > results[-1].ci_high
    values = [est.estimate for est in results]
    print(f"criterion 11 companion: even-ell estimates {values}")


def test_criterion_12_chain_bound_attained():
    targets = {(6, 16): 1, (6, 64): 2, (8, 16): 0, (8, 64): 1,
               (10, 16): 0, (10, 64): 1}
    fallback_report = {}
    for gamma in (6, 8, 10):
        for set_size in (16, 64):
            stream = STREAM.child("chain", gamma, set_size)
            fallbacks = 0
            for i in range(100):
                inst = random_chain_instance(F2, gamma, set_size, 2,
                                             stream.child(i))
                report = bound_attainment_report(inst)
                assert report.target == targets[(gamma, set_size)]
                assert report.target == bound_target(set_size, 2, gamma, 2)
                assert report.achieved
                if report.exact_used:
                    fallbacks += 1
                    assert report.exact_length >= report.target
                else:
                    assert report.greedy_length >= report.target
            fallback_report[(gamma, set_size)] = fallbacks
    print(f"criterion 12: 100 instances per configuration achieved; "
          f"exact fallbacks used: {fallback_report}")


def test_criterion_13_list_size_experiment(tmp_path):
    argv = ["experiment", "list-size", "--q", "2", "--m", "2", "--eta", "2",
            "--ell", "2", "--rho", "1/4", "--eps", "1/8", "--codes", "200"]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli_main(argv + ["--out", str(first)]) == 0
    assert cli_main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    with open(first, newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_stat = {}
    for row in rows:
        by_stat.setdefault(row["statistic"], []).append(row)
    assert by_stat["dimension"][0]["value"] == "3"
    assert by_stat["radius"][0]["value"] == "1"
    emitted = {int(row["trial"]): int(row["value"])
               for row in by_stat["max_list_size"]}
    assert sorted(emitted) == list(range(200))
    distribution = {stat: int(recs[0]["value"])
                    for stat, recs in by_stat.items()
                    if stat.startswith("codes_with_max_list_")}
    assert sum(distribution.values()) == 200

    # regenerate the same codes and check the monotonicity invariant
    params = space(2, 2, 2, 2)
    stream = RandomStream(DEFAULT_MASTER_SEED, "experiment", "list-size")
    for i in range(200):
        code = codes.sample_linear_code(params, Fraction(3, 8),
                                        stream.child(i))
        sizes = [codes.max_list_size(code, r)[0] for r in range(5)]
        assert sizes == sorted(sizes)
        assert sizes[1] == emitted[i]
        assert sizes[4] == code.size == 8
    print(f"criterion 13: byte-identical reruns, distribution "
          f"{distribution}, monotone on all 200 codes")
