"""Row reduction, subspaces, Grassmannian enumeration, samplers."""

import random
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from sumrank import linalg
from sumrank.counting import gaussian_binomial
from sumrank.galois import field_from_order
from sumrank.guards import MAX_Q, GuardError
from sumrank.linalg import (Subspace, _back_substitute, _echelon, _rank_rows,
                            _rref, _sample_echelon, enumerate_subspaces,
                            mat_mul, meet_dimension, sample_full_rank,
                            sample_subspace)

from oracles import (contains, is_prime_power, rref_by_gauss_jordan,
                     sample_subspace_in_two_steps, vec_add, vec_scale, vectors)

F2 = field_from_order(2)
F3 = field_from_order(3)


def test_rank_frozen_cases():
    assert _rank_rows(F2, [(1, 0), (0, 1)]) == 2
    assert _rank_rows(F2, [(1, 1), (1, 1)]) == 1
    assert _rank_rows(F2, [(0, 0, 0)] * 3) == 0
    assert _rank_rows(F3, [(1, 2, 0), (0, 1, 1), (0, 0, 2)]) == 3
    # second row is twice the first over GF(3)
    assert _rank_rows(F3, [(1, 2, 0), (2, 1, 0), (0, 0, 1)]) == 2
    # rows 1 and 2 sum to row 3 over GF(3): 1+2=0, 2+2=1, 0+1=1
    assert _rank_rows(F3, [(1, 2, 0), (2, 2, 1), (0, 1, 1)]) == 2


def span_size(field, rows):
    """|row space| by closing over all linear combinations."""
    vectors = {tuple([0] * len(rows[0]))}
    for row in rows:
        new = set(vectors)
        for c in range(1, field.q):
            scaled = vec_scale(field, c, row)
            for v in vectors:
                new.add(tuple(vec_add(field, v, scaled)))
        # close repeatedly: small cases stabilize in <= dim passes
        while True:
            grown = {tuple(vec_add(field, u, v)) for u in new for v in new}
            if grown <= new:
                break
            new |= grown
        vectors = new
    return len(vectors)


@given(st.sampled_from([F2, F3]), st.data())
def test_rank_matches_span_size(field, data):
    nrows = data.draw(st.integers(min_value=1, max_value=3))
    ncols = data.draw(st.integers(min_value=1, max_value=3))
    grid = [tuple(data.draw(st.integers(min_value=0, max_value=field.q - 1))
                  for _ in range(ncols)) for _ in range(nrows)]
    r = _rank_rows(field, grid)
    assert field.q ** r == span_size(field, grid)


def test_rref_idempotent_and_rank_stable():
    rng = random.Random(11)
    for _ in range(40):
        grid = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(3)]
        reduced, pivots = _rref(F3, grid)
        again, pivots2 = _rref(F3, reduced)
        assert (reduced, pivots) == (again, pivots2)
        assert len(reduced) == _rank_rows(F3, grid) == len(pivots)


def test_mat_mul_against_direct_sum():
    a = [(1, 2), (0, 1)]
    b = [(2, 1, 0), (1, 1, 2)]
    got = mat_mul(F3, a, b)
    for i in range(2):
        for j in range(3):
            s = 0
            for t in range(2):
                s = F3._add[s][F3._mul[a[i][t]][b[t][j]]]
            assert got[i][j] == s


def test_subspace_span_is_canonical():
    s1 = Subspace.span(F2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    s2 = Subspace.span(F2, 4, [(1, 1, 1, 1), (0, 0, 1, 1)])
    assert s1 == s2 and hash(s1) == hash(s2)
    assert s1.dim == 2
    assert Subspace.zero(F2, 4).dim == 0


def test_subspace_contains_exhaustive():
    s = Subspace.span(F3, 3, [(1, 0, 2)])
    members = {tuple(vec_scale(F3, c, (1, 0, 2))) for c in range(3)}
    for v in product(range(3), repeat=3):
        assert contains(s, v) == (v in members)


@pytest.mark.parametrize("field, entry", [(F2, 2), (F2, -1), (F3, 3)])
def test_subspace_contains_rejects_entries_outside_the_field(field, entry):
    # the packed F_2 rank would read an entry of 2 as a vector of its own
    s = Subspace.span(field, 2, [(1, 0)])
    with pytest.raises(ValueError):
        contains(s, (entry, 0))


def test_subspace_vectors_enumerates_whole_space():
    s = Subspace.span(F2, 4, [(1, 0, 0, 0), (0, 1, 1, 0)])
    vs = list(vectors(s))
    assert len(vs) == 4
    assert len(set(vs)) == 4
    for v in vs:
        assert contains(s, v)


def test_intersection_matches_set_intersection():
    rng = random.Random(23)
    for _ in range(30):
        a = sample_subspace(F2, 4, rng.randrange(4), rng)
        b = sample_subspace(F2, 4, rng.randrange(4), rng)
        got = set(vectors(a.intersect(b)))
        expected = set(vectors(a)) & set(vectors(b))
        assert got == expected


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_intersection_basis_is_already_reduced(q):
    # the right halves of the Zassenhaus rows whose left half vanished are
    # the basis that a second reduction through Subspace.span would give
    field = field_from_order(q)
    rng = random.Random(q)
    for _ in range(300):
        n = rng.randint(1, 6)
        a, b = (Subspace.span(field, n, [
            tuple(rng.randrange(q) for _ in range(n))
            for _ in range(rng.randint(0, n + 1))]) for _ in range(2))
        stacked = [row + row for row in a.basis]
        stacked += [row + (0,) * n for row in b.basis]
        rows = [row[n:] for row in _rref(field, stacked)[0]
                if not any(row[:n])] if stacked else []
        assert a.intersect(b) == Subspace.span(field, n, rows)


def test_dimension_formula_random_pairs():
    rng = random.Random(5)
    for field in (F2, F3):
        for _ in range(25):
            a = sample_subspace(field, 4, rng.randrange(5), rng)
            b = sample_subspace(field, 4, rng.randrange(5), rng)
            assert (a.dim + b.dim
                    == a.add(b).dim + a.intersect(b).dim)


def test_sum_contains_both_operands():
    a = Subspace.span(F2, 3, [(1, 1, 0)])
    b = Subspace.span(F2, 3, [(0, 1, 1)])
    total = a.add(b)
    assert total.dim == 2
    for v in list(vectors(a)) + list(vectors(b)):
        assert contains(total, v)


def test_enumerate_subspaces_counts():
    for ambient, k, field in [(4, 0, F2), (4, 1, F2), (4, 2, F2), (4, 3, F2),
                              (3, 1, F3), (3, 2, F3)]:
        subs = enumerate_subspaces(field, ambient, k)
        assert len(subs) == gaussian_binomial(ambient, k, field.q)
        assert len(set(subs)) == len(subs)
        for s in subs:
            assert s.dim == k


def test_enumerate_subspaces_guard():
    with pytest.raises(GuardError):
        enumerate_subspaces(F2, 30, 15)


def test_sample_full_rank_always_full_rank():
    rng = random.Random(3)
    for _ in range(50):
        rows = sample_full_rank(F3, 2, 4, rng)
        assert _rank_rows(F3, rows) == 2
    # tall shapes target the column count
    assert _rank_rows(F2, sample_full_rank(F2, 3, 2, rng)) == 2


PRIME_POWERS = [q for q in range(2, MAX_Q + 1) if is_prime_power(q)]


def rank_by_rref(field, rows):
    return len(_rref(field, rows)[0])


def randrange_full_rank(field, nrows, ncols, rng, rank):
    # the sampler as one randrange(q) per entry, the draws it must keep
    q = field.q
    while True:
        rows = [tuple(rng.randrange(q) for _ in range(ncols))
                for _ in range(nrows)]
        if rank(field, rows) == min(nrows, ncols):
            return rows


# (nrows, ncols): square, wide, tall, a row and the empty shapes
DRAW_SHAPES = [(1, 1), (2, 2), (3, 3), (2, 5), (4, 2), (1, 6), (0, 3), (3, 0)]


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_sample_full_rank_consumes_the_randrange_draws(monkeypatch, q):
    # A stand-in rank that rejects about half the draws at every q, so the
    # redraws are compared without building q x q tables.
    def coin_rank(field, rows):
        return min(len(rows), len(rows[0]) if rows else 0) - (
            sum(map(sum, rows)) % 2)
    monkeypatch.setattr(linalg, "_rank_rows", coin_rank)
    field = SimpleNamespace(q=q)
    for seed, (nrows, ncols) in enumerate(DRAW_SHAPES):
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert sample_full_rank(field, nrows, ncols, ours) == \
                randrange_full_rank(field, nrows, ncols, ref, coin_rank)
            assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("q", [2, 3, 4, 8, 16, 127, 1021])
def test_sample_full_rank_keeps_its_draws_with_the_real_rank(q):
    field = field_from_order(q)
    for seed, (nrows, ncols) in enumerate(DRAW_SHAPES):
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert sample_full_rank(field, nrows, ncols, ours) == \
                randrange_full_rank(field, nrows, ncols, ref, rank_by_rref)
            assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS if q <= 64])
def test_rank_matches_rref_on_every_small_matrix(q):
    field = field_from_order(q)
    for k in range(13):
        for n in range(13):
            if q ** (k * n) > 2 ** 12:
                continue
            for entries in product(range(q), repeat=k * n):
                rows = [entries[i * n:(i + 1) * n] for i in range(k)]
                assert _rank_rows(field, rows) == rank_by_rref(field, rows)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 13, 16, 27, 32, 49, 127,
                               128, 256, 509, 512, 1021])
def test_rank_matches_rref_on_seeded_matrices(q):
    # At large q a uniform matrix is nearly always of full rank, so half the
    # matrices get a row that is a combination of the others.
    field = field_from_order(q)
    rng = random.Random(q)
    for _ in range(300):
        k, n = rng.randint(1, 7), rng.randint(1, 7)
        rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)]
        if k > 1 and rng.random() < 0.5:
            combo = (0,) * n
            for row in rows[1:]:
                combo = vec_add(field, combo,
                                vec_scale(field, rng.randrange(q), row))
            rows[0] = combo
            rng.shuffle(rows)
        assert _rank_rows(field, rows) == rank_by_rref(field, rows)


def test_sample_subspace_dims_and_membership():
    rng = random.Random(9)
    for k in range(5):
        s = sample_subspace(F2, 4, k, rng)
        assert s.dim == k
        assert s.ambient == 4


def test_subspace_json_round_trip():
    s = Subspace.span(F3, 3, [(1, 2, 0), (0, 0, 1)])
    blob = s.to_json()
    rebuilt = Subspace.span(F3, blob["ambient"], blob["basis"])
    assert rebuilt == s


SUBSPACE_QS = [2, 3, 4, 5, 7, 8, 9, 16]


@pytest.mark.parametrize("q", SUBSPACE_QS)
def test_rref_is_gauss_jordan_on_every_small_matrix(q):
    field = field_from_order(q)
    for k in range(1, 11):
        for n in range(1, 11):
            if q ** (k * n) > 2 ** 10:
                continue
            for entries in product(range(q), repeat=k * n):
                rows = [entries[i * n:(i + 1) * n] for i in range(k)]
                assert _rref(field, rows) == rref_by_gauss_jordan(field, rows)


@pytest.mark.parametrize("q", SUBSPACE_QS + [27, 127, 256, 1021])
def test_rref_is_gauss_jordan_on_seeded_matrices(q):
    # Half the matrices get a row that is a combination of the others, so
    # rank-deficient ones come up at every q.
    field = field_from_order(q)
    rng = random.Random(q)
    for _ in range(300):
        k, n = rng.randint(1, 8), rng.randint(1, 8)
        rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)]
        if k > 1 and rng.random() < 0.5:
            combo = (0,) * n
            for row in rows[1:]:
                combo = vec_add(field, combo,
                                vec_scale(field, rng.randrange(q), row))
            rows[0] = combo
            rng.shuffle(rows)
        assert _rref(field, rows) == rref_by_gauss_jordan(field, rows)


# (ambient, k): a single row, the whole space (the square q = 2 shape
# rejects most often), a middle shape and the 4 x 8 shape of the benchmark
SUBSPACE_SHAPES = [(6, 1), (4, 4), (5, 3), (8, 4), (3, 3)]


@pytest.mark.parametrize("q", SUBSPACE_QS)
def test_sample_subspace_is_the_two_step_draw(q):
    field = field_from_order(q)
    for ambient, k in SUBSPACE_SHAPES:
        for seed in range(300):
            ours, ref = random.Random(seed), random.Random(seed)
            assert sample_subspace(field, ambient, k, ours) == \
                sample_subspace_in_two_steps(field, ambient, k, ref)
            assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_intersection_is_the_gauss_jordan_zassenhaus_meet(q):
    field = field_from_order(q)
    rng = random.Random(q)
    for _ in range(300):
        n = rng.randint(1, 6)
        a, b = (sample_subspace(field, n, rng.randint(0, n), rng)
                for _ in range(2))
        stacked = [row + row for row in a.basis]
        stacked += [row + (0,) * n for row in b.basis]
        meet = [row[n:] for row in rref_by_gauss_jordan(field, stacked)[0]
                if not any(row[:n])]
        assert a.intersect(b).basis == tuple(meet)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_meet_dimension_on_every_small_pair(q):
    field = field_from_order(q)
    for n in range(1, 4):
        spaces = [s for k in range(n + 1)
                  for s in enumerate_subspaces(field, n, k)]
        forward = [_echelon(field, s.basis) for s in spaces]
        for a, ea in zip(spaces, forward):
            for b, eb in zip(spaces, forward):
                assert meet_dimension(field, n, ea, eb) == a.intersect(b).dim


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27, 127])
def test_meet_dimension_on_seeded_draws(q):
    # The forward passes of real draws, not reduced, at every pair of
    # dimensions from 0 to the whole space.
    field = field_from_order(q)
    rng = random.Random(q)
    for n in range(1, 6):
        for ka, kb in product(range(n + 1), repeat=2):
            for _ in range(3):
                ea = _sample_echelon(field, n, ka, rng)
                eb = _sample_echelon(field, n, kb, rng)
                a, b = (Subspace(field, n, _back_substitute(field, e, n))
                        for e in (ea, eb))
                assert meet_dimension(field, n, ea, eb) == a.intersect(b).dim


@pytest.mark.parametrize("q", SUBSPACE_QS)
def test_echelon_draw_is_the_full_rank_draw_eliminated(q):
    field = field_from_order(q)
    for ambient, k in SUBSPACE_SHAPES + [(5, 0)]:
        for seed in range(100):
            ours, ref, sub = (random.Random(seed) for _ in range(3))
            echelon = _sample_echelon(field, ambient, k, ours)
            assert echelon == _echelon(
                field, sample_full_rank(field, k, ambient, ref))
            assert sample_subspace(field, ambient, k, sub) == Subspace(
                field, ambient, _back_substitute(field, echelon, ambient))
            assert ours.getstate() == ref.getstate() == sub.getstate()
