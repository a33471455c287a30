"""Seeded stream derivation, Wilson intervals, chi-squared uniformity."""

import hashlib
import math
import random

import pytest
from hypothesis import given, strategies as st

from sumrank.montecarlo import (DEFAULT_MASTER_SEED, EstimateResult,
                                RandomStream, wilson_interval)

from oracles import chi_squared_tail, chi_squared_uniform_pvalue


def test_same_key_same_draws():
    a = RandomStream(1, "alpha", 3)
    b = RandomStream(1, "alpha", 3)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_keys_differ():
    draws = {tuple(RandomStream(seed, tag).randrange(2 ** 62) for _ in range(3))
             for seed in (1, 2) for tag in ("x", "y")}
    assert len(draws) == 4


def test_child_streams_are_independent_of_creation_order():
    parent = RandomStream(42, "exp")
    forward = [parent.child(i).random() for i in range(4)]
    parent2 = RandomStream(42, "exp")
    backward = [parent2.child(i).random() for i in reversed(range(4))]
    assert forward == list(reversed(backward))


def test_child_extends_key():
    s = RandomStream(7, "a")
    assert s.child(2, "b").key == (7, "a", 2, "b")


def test_drawing_from_parent_does_not_shift_children():
    p1 = RandomStream(9, "t")
    p1.random()
    p2 = RandomStream(9, "t")
    assert p1.child(0).random() == p2.child(0).random()


def keyed_random(*key):
    """random.Random seeded by the sha256 of the key parts' reprs joined
    with "/", read as a big-endian int."""
    text = "/".join(map(repr, key))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest, "big"))


@pytest.mark.parametrize("key", [(), (1729,), ("",), (7, "a", 2),
                                 ("alpha", -3, "b/c")])
def test_stream_state_is_the_sha256_of_its_key_text(key):
    stream = RandomStream(*key)
    assert stream.getstate() == keyed_random(*key).getstate()
    for indices in [(), (0,), (5, "x"), ("",)]:
        child = stream.child(*indices)
        assert child.key == key + indices
        assert child.getstate() == keyed_random(*key, *indices).getstate()
        assert child.child(3).getstate() == \
            keyed_random(*key, *indices, 3).getstate()


def test_stream_key_parts_must_be_int_or_str():
    with pytest.raises(TypeError):
        RandomStream(1.0)
    with pytest.raises(TypeError):
        RandomStream(1, "a").child(2.0)


def test_default_master_seed_is_fixed():
    assert DEFAULT_MASTER_SEED == 1729


def test_wilson_interval_frozen():
    low, high = wilson_interval(50, 100)
    assert abs(low - 0.40383) < 5e-5
    assert abs(high - 0.59617) < 5e-5
    low, high = wilson_interval(0, 100)
    assert low == 0.0 and 0 < high < 0.05
    low, high = wilson_interval(100, 100)
    assert high == 1.0 and 0.95 < low < 1


@given(st.integers(min_value=1, max_value=10 ** 6), st.data())
def test_wilson_interval_brackets_estimate(trials, data):
    successes = data.draw(st.integers(min_value=0, max_value=trials))
    low, high = wilson_interval(successes, trials)
    assert 0.0 <= low <= successes / trials <= high <= 1.0


def test_estimate_result_from_counts():
    est = EstimateResult.from_counts(30, 200)
    assert est.estimate == 0.15
    assert est.ci_low < 0.15 < est.ci_high
    assert est.mean_value is None


def test_chi_squared_uniform_counts_give_p_one():
    assert chi_squared_uniform_pvalue([10] * 10) == pytest.approx(1.0)


def test_chi_squared_frozen_value():
    # two cells, statistic (5-10)^2/10 * 2 = 5, one degree of freedom:
    # p = erfc(sqrt(5/2))
    p = chi_squared_uniform_pvalue([5, 15])
    assert p == pytest.approx(math.erfc(math.sqrt(2.5)), rel=1e-9)


def test_chi_squared_tail_at_textbook_critical_values():
    assert chi_squared_tail(3.841459, 1) == pytest.approx(0.05, abs=1e-6)
    assert chi_squared_tail(18.30704, 10) == pytest.approx(0.05, abs=1e-6)


def test_chi_squared_tail_at_two_dof_is_exponential():
    for stat in (0.1, 1.0, 5.5, 40.0, 1000.0):
        assert chi_squared_tail(stat, 2) == math.exp(-stat / 2)


def test_chi_squared_thousands_of_categories_frozen():
    # 100,000 draws over 2,000 categories; the literal was computed with an
    # 80-bit regularized incomplete gamma.
    rng = random.Random(1)
    counts = [0] * 2000
    for _ in range(100_000):
        counts[rng.randrange(2000)] += 1
    assert chi_squared_uniform_pvalue(counts) == pytest.approx(
        0.3029890180458671, rel=1e-12)


def test_chi_squared_tail_rejects_no_dof():
    with pytest.raises(ValueError):
        chi_squared_tail(1.0, 0)


def test_chi_squared_detects_gross_skew():
    assert chi_squared_uniform_pvalue([1000, 10]) < 1e-6


def test_chi_squared_rejects_degenerate_input():
    with pytest.raises(ValueError):
        chi_squared_uniform_pvalue([7])
    with pytest.raises(ValueError):
        chi_squared_uniform_pvalue([0, 0])
