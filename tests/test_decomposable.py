"""Product subspaces: construction, counting, intersection, sampling."""

import random
from fractions import Fraction

import pytest

from sumrank import linalg
from sumrank.counting import decomposable_bounds_logq, decomposable_count
from sumrank.decomposable import (DecomposableSubspace,
                                  intersection_dimension_estimate,
                                  sample_decomposable_uniform)
from sumrank.galois import field_from_order
from sumrank.guards import GuardError
from sumrank.linalg import Subspace
from sumrank.montecarlo import RandomStream

from oracles import (chi_squared_uniform_pvalue, contains,
                     enumerate_decomposable, flatten,
                     intersection_dimension_estimate_by_meets,
                     intersection_event_probability_exact)

F2 = field_from_order(2)
F3 = field_from_order(3)


def build(field, eta, rows_per_factor):
    return DecomposableSubspace([Subspace.span(field, eta, rows)
                                 for rows in rows_per_factor])


def test_build_and_dims():
    d = build(F2, 2, [[(1, 0)], [(0, 1), (1, 0)]])
    assert d.composition == (1, 2)
    assert d.total_dim == 3
    assert d.eta == 2 and d.ell == 2


def test_build_rejects_mixed_fields_and_ambients():
    with pytest.raises(ValueError):
        DecomposableSubspace([Subspace.span(F2, 2, [(1, 0)]),
                              Subspace.span(F3, 2, [(1, 0)])])
    with pytest.raises(ValueError):
        DecomposableSubspace([Subspace.span(F2, 2, [(1, 0)]),
                              Subspace.span(F2, 3, [(1, 0, 0)])])
    with pytest.raises(ValueError):
        DecomposableSubspace([])


def test_enumeration_count_matches_closed_form():
    for eta, ell in [(1, 1), (2, 1), (2, 2), (1, 3)]:
        for w in range(eta * ell + 1):
            subs = enumerate_decomposable(F2, eta, ell, w)
            assert len(subs) == decomposable_count(eta, ell, w, 2)
            assert len(set(subs)) == len(subs)
            for d in subs:
                assert d.total_dim == w


def test_every_dimension_check_gives_one_message():
    eta, ell = 2, 3
    checks = [
        lambda w: decomposable_count(eta, ell, w, 2),
        lambda w: decomposable_bounds_logq(eta, ell, w, 2),
        lambda w: enumerate_decomposable(F2, eta, ell, w),
        lambda w: sample_decomposable_uniform(F2, eta, ell, w,
                                              random.Random(1)),
    ]
    for check in checks:
        for w in (-1, eta * ell + 1):
            with pytest.raises(ValueError) as exc:
                check(w)
            assert str(exc.value) == f"w = {w} outside [0, {eta * ell}]"


def test_enumeration_guard():
    with pytest.raises(GuardError):
        enumerate_decomposable(F2, 6, 4, 12)


def test_flatten_dimension_and_membership():
    d = build(F2, 2, [[(1, 1)], [(0, 1)]])
    flat = flatten(d)
    assert flat.ambient == 4
    assert flat.dim == d.total_dim == 2
    # members are blockwise concatenations
    assert contains(flat, (1, 1, 0, 1))
    assert contains(flat, (1, 1, 0, 0))
    assert not contains(flat, (1, 0, 0, 1))


def test_blockwise_intersection_matches_flattened():
    rng = random.Random(61)
    for field, eta, ell in [(F2, 2, 2), (F2, 3, 2), (F3, 2, 2)]:
        for _ in range(60):
            wx = rng.randrange(eta * ell + 1)
            wy = rng.randrange(eta * ell + 1)
            x = sample_decomposable_uniform(field, eta, ell, wx, rng)
            y = sample_decomposable_uniform(field, eta, ell, wy, rng)
            meet = x.intersect(y)
            join = x.add(y)
            assert flatten(meet) == flatten(x).intersect(flatten(y))
            assert (x.total_dim + y.total_dim
                    == join.total_dim + meet.total_dim)


def test_intersect_requires_matching_shape():
    x = build(F2, 2, [[(1, 0)], [(0, 1)]])
    y = build(F2, 2, [[(1, 0)]])
    with pytest.raises(ValueError):
        x.intersect(y)


def test_eq_hash_and_json():
    x = build(F2, 2, [[(1, 0)], [(0, 1)]])
    y = build(F2, 2, [[(1, 0)], [(0, 1)]])
    assert x == y and hash(x) == hash(y)
    blob = x.to_json()
    rebuilt = DecomposableSubspace([
        Subspace.span(F2, blob["eta"], rows) for rows in blob["factors"]])
    assert rebuilt == x


def test_sampler_dimensions_and_uniformity():
    # the 6 one-dimensional subspaces of (F_2^2)^2: 3 per factor placement
    draws = 3000
    stream = RandomStream(5, "dec-uniform")
    counts = {}
    for i in range(draws):
        d = sample_decomposable_uniform(F2, 2, 2, 1, stream.child(i))
        assert d.total_dim == 1
        key = tuple(tuple(f.basis) for f in d.factors)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    assert chi_squared_uniform_pvalue(list(counts.values())) > 0.001


def test_sampler_covers_compositions():
    stream = RandomStream(6, "dec-comp")
    comps = {sample_decomposable_uniform(F2, 2, 2, 2, stream.child(i)).composition
             for i in range(400)}
    assert comps == {(0, 2), (1, 1), (2, 0)}


def test_estimator_matches_exact_probability():
    exact = intersection_event_probability_exact(F2, 2, 2, 1, 1, exact_dim=1)
    assert exact == Fraction(1, 6)
    est = intersection_dimension_estimate(
        F2, 2, 2, 1, 1, 4000, RandomStream(7, "dec-est"), exact_dim=1)
    assert est.ci_low <= float(exact) <= est.ci_high
    assert 0 <= est.mean_value <= 1


def test_estimator_event_validation():
    stream = RandomStream(8, "dec-val")
    with pytest.raises(ValueError):
        intersection_dimension_estimate(F2, 2, 2, 1, 1, 10, stream)
    with pytest.raises(ValueError):
        intersection_dimension_estimate(F2, 2, 2, 1, 1, 10, stream,
                                        min_fraction=Fraction(1, 2),
                                        exact_dim=1)


def test_min_fraction_threshold_is_ceiling():
    # w_x = 3, fraction 1/2: event requires dim >= 2
    exact_half = intersection_event_probability_exact(
        F2, 3, 1, 3, 3, min_fraction=Fraction(1, 2))
    exact_two = intersection_event_probability_exact(
        F2, 3, 1, 3, 3, exact_dim=3)
    # with w_x = w_y = 3 = eta the spaces coincide: dim is always 3
    assert exact_half == exact_two == 1


class RecordingStream(RandomStream):
    """A stream that keeps every trial stream it hands out."""

    def __init__(self, *key):
        super().__init__(*key)
        self.children = []

    def child(self, *indices):
        stream = super().child(*indices)
        self.children.append(stream)
        return stream


def recorded(q, key, estimate, *args, **event):
    stream = RecordingStream(q, key)
    result = estimate(field_from_order(q), *args, stream, **event)
    return result, [child.getstate() for child in stream.children]


# (eta, ell, w_x, w_y): an empty X, a Y that is the whole space, and shapes
# of the benchmark, whose blocks meet in every dimension
ESTIMATOR_SHAPES = [(3, 4, 6, 6), (2, 3, 0, 4), (2, 3, 3, 6), (4, 2, 5, 3),
                    (1, 5, 2, 3), (3, 2, 6, 6)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8])
def test_estimator_is_the_meet_by_meet_loop(q):
    for eta, ell, w_x, w_y in ESTIMATOR_SHAPES:
        for event in ({"min_fraction": Fraction(1, 2)},
                      {"exact_dim": min(w_x, w_y) // 2}):
            args = (eta, ell, w_x, w_y, 40)
            ours = recorded(q, "dec-rank", intersection_dimension_estimate,
                            *args, **event)
            ref = recorded(q, "dec-rank",
                           intersection_dimension_estimate_by_meets,
                           *args, **event)
            assert ours == ref


def test_estimator_builds_no_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("the estimator built a basis")

    monkeypatch.setattr(linalg, "_back_substitute", refuse)
    monkeypatch.setattr(linalg.Subspace, "intersect", refuse)
    for q in (2, 3):
        est = intersection_dimension_estimate(
            field_from_order(q), 3, 4, 6, 6, 20, RandomStream(q, "no-basis"),
            min_fraction=Fraction(1, 2))
        assert est.trials == 20
