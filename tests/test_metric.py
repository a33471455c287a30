"""Block tuples, weight and distance, enumeration, exact samplers."""

import functools
import itertools
import math
import operator
import random
import re
import time
import tracemalloc
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sumrank.counting import ball_volume, sphere_volume
from sumrank.galois import field_from_order
from sumrank.guards import GuardError, require_power_within, require_within
from sumrank.linalg import _rank_rows
from sumrank import metric
from sumrank.metric import (BlockTuple, code_adder, iter_ball, rank_table,
                            sample_ball_uniform, sample_entries_of_rank,
                            sample_uniform_matrix_of_rank, tuple_code,
                            tuple_from_code, vector_code, vector_from_code,
                            weight_histogram)
from sumrank.montecarlo import RandomStream

from oracles import (block_rank_sum, decode, encode, enumerate_ball,
                     matrix_code, params_for, rank_table_by_elimination,
                     sample_ball_by_blocks, sample_rank_matrix_by_factors,
                     sample_rank_matrix_by_rows, sample_uniform_tuple,
                     sum_rank_distance, zero_tuple)

F2 = field_from_order(2)
F3 = field_from_order(3)


P222 = params_for(2, 2, 2, 2)
# Shapes over q in {2, 3, 4} for the integer encoding.
CODE_SHAPES = (P222, params_for(3, 1, 2, 2), params_for(3, 2, 2, 1),
               params_for(4, 1, 2, 2), params_for(4, 2, 1, 2))


def random_tuple(params, rng):
    return tuple_from_code(params, rng.randrange(params.q ** params.total_dim))


def test_block_tuple_validation():
    with pytest.raises(ValueError):
        BlockTuple(P222, (0,) * 4)                    # one block short
    with pytest.raises(ValueError):
        BlockTuple(P222, (0,) * 9)                    # one entry long
    with pytest.raises(ValueError):
        BlockTuple(P222, (0, 2, 0, 0, 0, 0, 0, 0))    # entry equal to q
    with pytest.raises(ValueError):
        BlockTuple(P222, (0, 0, 0, 0, 0, 0, 0, -1))   # negative entry


@pytest.mark.parametrize("vector", [[1.9, 0], "10"])
def test_block_tuple_rejects_entries_that_are_not_integers(vector):
    # int() would read 1.9 as 1 and the string "10" as the entries 1, 0
    with pytest.raises(TypeError):
        BlockTuple(params_for(2, 1, 1, 2), vector)


@pytest.mark.parametrize("q, m, eta", [(2, 2, 3), (2, 3, 2), (3, 2, 3),
                                       (3, 3, 2)])
def test_blocks_are_row_major_chunks_of_the_vector(q, m, eta):
    # Entry (block b, row i, column j) sits at b*m*eta + i*eta + j; on
    # non-square blocks a transposed or column-major view breaks this.
    params = params_for(q, m, eta, 2)
    rng = random.Random(43)
    for _ in range(20):
        vector = [rng.randrange(q) for _ in range(params.total_dim)]
        x = BlockTuple(params, vector)
        grid = tuple(tuple(tuple(vector[b * m * eta + i * eta + j]
                                 for j in range(eta))
                           for i in range(m))
                     for b in range(params.ell))
        assert x.to_vector() == tuple(vector)
        assert x.blocks == grid
        assert x.to_json() == [[list(row) for row in block] for block in grid]
        assert x.weight() == sum(_rank_rows(params.field, block)
                                 for block in grid)


def test_weight_equals_rank_sum():
    rng = random.Random(17)
    for params in (P222, params_for(3, 2, 3, 2)):
        for _ in range(50):
            x = random_tuple(params, rng)
            expected = sum(_rank_rows(params.field, block)
                           for block in x.blocks)
            assert x.weight() == expected


def test_weight_frozen():
    x = BlockTuple(P222, (1, 0, 0, 1, 1, 1, 1, 1))
    assert x.weight() == 3
    assert x.blocks == (((1, 0), (0, 1)), ((1, 1), (1, 1)))
    assert zero_tuple(P222).weight() == 0


def test_distance_axioms_random():
    rng = random.Random(29)
    for _ in range(60):
        x, y, z = (random_tuple(P222, rng) for _ in range(3))
        assert sum_rank_distance(x, y) == sum_rank_distance(y, x)
        assert (sum_rank_distance(x, y) == 0) == (x == y)
        assert (sum_rank_distance(x, z)
                <= sum_rank_distance(x, y) + sum_rank_distance(y, z))


def test_invariances_random():
    rng = random.Random(31)
    params = params_for(3, 1, 2, 2)
    for _ in range(60):
        x, y, z = (random_tuple(params, rng) for _ in range(3))
        assert sum_rank_distance(x.add(z), y.add(z)) == sum_rank_distance(x, y)
        assert x.neg().weight() == x.weight()
        for c in range(1, params.q):
            assert x.scale(c).weight() == x.weight()


def test_add_neg_sub_consistency():
    rng = random.Random(37)
    for _ in range(30):
        x, y = random_tuple(P222, rng), random_tuple(P222, rng)
        assert x.sub(y).add(y) == x
        assert x.add(x.neg()) == zero_tuple(P222)


@pytest.mark.parametrize("q, n", [
    (2, 5), (4, 6), (8, 3), (16, 4),  # characteristic 2: XOR
    (3, 4), (3, 5), (3, 7), (3, 12),  # k = 5: inside, at and past a chunk
    (5, 4), (7, 5), (9, 3),  # k = 3, 2, 2, each with a partial top chunk
    (17, 3), (257, 3), (1021, 2)], ids=str)  # k = 1: bytes, then uint16 rows
def test_code_adder_matches_point_addition(q, n):
    params = params_for(q, 1, 1, n)
    field = params.field
    add = code_adder(field, n)
    if field.p == 2:
        assert add is operator.xor
    else:
        k, sums = metric._chunk_tables(field)[:2]
        assert isinstance(sums[0], bytes if q <= 256 else array)
        assert (k == 1) == (q > 16)
    top = q ** n - 1
    rng = random.Random(1000 * q + n)
    codes = [0, top] + [rng.randrange(top + 1) for _ in range(30)]
    for a in codes:
        x = tuple_from_code(params, a)
        for b in [0, top] + rng.sample(codes, 6):
            assert add(a, b) == tuple_code(x.add(tuple_from_code(params, b)))


# k = 5, 4, 3 and 2 digits per chunk at q = 3, 4, 5 and 9, and 1 above 16
CODE_SET_ORDERS = [3, 4, 5, 9, 17, 257, 1021]


@pytest.mark.parametrize("q", CODE_SET_ORDERS)
def test_code_set_matches_digit_by_digit_arithmetic(q):
    field = field_from_order(q)
    k = metric._chunk_tables(field)[0]
    rng = random.Random(7 * q)
    # one chunk, several chunks, and a partial top chunk
    for length in sorted({1, k, 3 * k, 3 * k + 1, 2 * k - 1}):
        top = q ** length
        for size in (0, 1, 7):
            codes = [rng.randrange(top) for _ in range(size)]
            shift, neg = metric.code_set(field, length, codes)
            vectors = [decode(q, length, x) for x in codes]
            assert neg() == [
                encode(field, length, [field._neg[x] for x in v])
                for v in vectors]
            for w in {0, top - 1, rng.randrange(top)}:
                sums = [[field._add[x][y] for x, y in
                         zip(v, decode(q, length, w))] for v in vectors]
                assert shift(w) == (
                    [int("".join("1" if x else "0" for x in s), 2)
                     for s in sums],
                    [encode(field, length, s) for s in sums])


@pytest.mark.parametrize("q", [3, 4, 5, 17])
def test_columns_match_per_code_decoding(q):
    # one chunk, a few, and past the 64 digits where vector_from_code halves
    k = metric._chunk_tables(field_from_order(q))[0]
    base = q ** k
    rng = random.Random(11 * q)
    for count in [*range(1, 10), 65, 66, 131]:
        top = base ** count
        for size in (0, 1, 2, 30):
            codes = [0, top - 1][:size] + [rng.randrange(top)
                                           for _ in range(size - 2)]
            want = list(zip(*(metric.vector_from_code(base, count, x)
                              for x in codes))) or [()] * count
            assert metric._columns(codes, base, count) == want


@pytest.mark.parametrize("q", CODE_SET_ORDERS)
def test_every_chunk_code_plus_its_negative_is_zero(q):
    k, sums, _, negatives = metric._chunk_tables(field_from_order(q))
    assert [sums[a][negatives[a]] for a in range(q ** k)] == [0] * q ** k


@given(st.integers(min_value=0, max_value=2 ** 8 - 1))
def test_tuple_code_round_trip(code):
    for params in CODE_SHAPES:
        q = params.q
        c = code % q ** params.total_dim
        x = tuple_from_code(params, c)
        assert tuple_code(x) == c
        assert tuple_from_code(params, c).blocks == x.blocks
        # one encoding: the base-q number whose digits are the entries
        digits = x.to_vector()
        assert int("".join(map(str, digits)), q) == c == vector_code(q, digits)
        for block in x.blocks:
            for row in block:
                assert vector_code(q, row) == matrix_code(q, (row,))


def test_long_vector_code_equals_horner_from_any_iterable():
    rng = random.Random(41)
    for q in (2, 3, 16):
        for length in (0, 1, 63, 64, 65, 128, 1000, 4099):
            entries = [rng.randrange(q) for _ in range(length)]
            code = 0
            for v in entries:
                code = code * q + v
            assert vector_code(q, entries) == code
            assert vector_code(q, tuple(entries)) == code
            assert vector_code(q, map(int, entries)) == code
            assert vector_code(q, iter(entries)) == code


def test_long_vector_from_code_is_the_digit_by_digit_decoder():
    rng = random.Random(43)
    for q in (2, 3, 16, 1021):
        for length in (0, 1, 63, 64, 65, 128, 1000, 4099):
            top = q ** length - 1
            for code in (0, top, rng.randrange(top + 1)):
                assert vector_from_code(q, length, code) == \
                    decode(q, length, code)


def test_a_long_code_decodes_in_near_linear_time():
    # One divmod by q per digit off the whole code took seconds here;
    # halving the code, the mirror of vector_code, takes well under one.
    rng = random.Random(47)
    entries = tuple(rng.randrange(3) for _ in range(120_000))
    code = vector_code(3, entries)
    start = time.perf_counter()
    assert vector_from_code(3, len(entries), code) == entries
    assert time.perf_counter() - start < 1.0


def test_tuple_code_range_checked():
    with pytest.raises(ValueError):
        tuple_from_code(P222, 2 ** 8)
    with pytest.raises(ValueError):
        tuple_from_code(P222, -1)
    for code in (-1, 3 ** 100):
        with pytest.raises(ValueError):
            vector_from_code(3, 100, code)


def test_vector_round_trip():
    rng = random.Random(41)
    for _ in range(20):
        x = random_tuple(P222, rng)
        assert BlockTuple(P222, x.to_vector()) == x
    assert len(zero_tuple(P222).to_vector()) == P222.total_dim


def test_matrix_code_round_trip():
    for code in range(3 ** 4):
        entries = decode(3, 4, code)
        assert matrix_code(3, (entries[:2], entries[2:])) == code


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_rank_table_is_elimination_on_each_matrix(q):
    # every block shape with q^(m*eta) <= 2^12, the one-row and one-column
    # edges among them at every length up to that
    field = field_from_order(q)
    shapes = [(m, eta) for m in range(1, 13) for eta in range(1, 13)
              if q ** (m * eta) <= 2 ** 12]
    longest = max(eta for m, eta in shapes)
    assert {(1, longest), (longest, 1)} <= set(shapes)
    for m, eta in shapes:
        assert rank_table(field, m, eta) == \
            rank_table_by_elimination(field, m, eta), (m, eta)


def test_enumeration_matches_volumes():
    for params in (P222, params_for(3, 1, 2, 2)):
        for r in range(params.max_weight + 1):
            ball = enumerate_ball(params, r)
            assert len(ball) == ball_volume(params, r)
            assert sum(x.weight() == r for x in ball) == sphere_volume(params, r)
            # the same points, in code order, as a weight() scan of the space
            space = map(functools.partial(tuple_from_code, params),
                        range(params.q ** params.total_dim))
            assert ball == [x for x in space if x.weight() <= r]


def product_histogram(params):
    """Weight distribution by walking all q^(m*eta*ell) points as ell-tuples
    of block ranks."""
    table = rank_table(params.field, params.m, params.eta)
    hist = [0] * (params.max_weight + 1)
    for ranks in itertools.product(table, repeat=params.ell):
        hist[sum(ranks)] += 1
    return hist


# Every shape that `verify volumes --max-space-log 12` sweeps at q = 2, 3, 4.
SWEPT_SHAPES = [params_for(q, m, eta, ell) for q in (2, 3, 4)
                for m in range(1, 13) for eta in range(1, 13)
                for ell in range(1, 13) if q ** (m * eta * ell) <= 2 ** 12]


def test_weight_histogram_is_the_walk_over_every_point():
    assert len(SWEPT_SHAPES) == 74 + 28 + 25
    for params in SWEPT_SHAPES:
        assert weight_histogram(params) == product_histogram(params)


def test_weight_histogram_extends_the_histogram_one_block_shorter():
    # the ell sweep of verify volumes: one convolution per ell
    for q, m, eta in [(2, 1, 1), (2, 2, 3), (3, 2, 2), (4, 1, 2), (5, 1, 1)]:
        hist = None
        for ell in range(1, 7):
            params = params_for(q, m, eta, ell)
            hist = weight_histogram(params, hist)
            assert hist == weight_histogram(params) == [
                sphere_volume(params, r) for r in range(params.max_weight + 1)]


def test_weight_histogram_matches_volumes():
    params = params_for(2, 2, 3, 2)
    hist = weight_histogram(params)
    assert hist == [sphere_volume(params, r)
                    for r in range(params.max_weight + 1)]


def test_weight_histogram_guard():
    # 2^18 points, past MAX_ENUMERATION, but only 2^9 block matrices ranked
    params = params_for(2, 3, 3, 2)
    assert weight_histogram(params) == [
        sphere_volume(params, r) for r in range(params.max_weight + 1)]
    # 2 block matrices plus (511 * 2)^2 products is inside 2^20; the points
    # of weight w are those with w nonzero entries
    assert weight_histogram(params_for(2, 1, 1, 511)) == [
        math.comb(511, w) for w in range(512)]
    for shape, refused in [
            # past the cap by the exponent alone
            ((2, 3, 7, 1), "block matrix count = 2^21 exceeds"),
            ((3, 1, 13, 1), "block matrix count = 1594323 exceeds"),
            # 2 + 1024^2
            ((2, 1, 1, 512), "weight histogram work = 1048578 exceeds"),
            # 2^18 + 888^2, each part inside the cap
            ((2, 3, 6, 222), "weight histogram work = 1050688 exceeds")]:
        with pytest.raises(GuardError, match=re.escape(refused)):
            weight_histogram(params_for(*shape))


def test_guards_refuse_huge_powers_before_building_them():
    started = time.monotonic()
    with pytest.raises(GuardError, match=r"block matrix count = 3\^1000000 "):
        weight_histogram(params_for(3, 1000, 1000, 1))
    with pytest.raises(GuardError, match=r"space size = 3\^1000000000 "):
        enumerate_ball(params_for(3, 1000, 1000, 1000), 1)
    assert time.monotonic() - started < 1.0


def test_require_power_within_matches_require_within():
    for q in (2, 3, 4, 7):
        for e in range(0, 20):
            try:
                want = require_within(q ** e, 2 ** 16, "x")
            except GuardError as exc:
                with pytest.raises(GuardError) as got:
                    require_power_within(q, e, 2 ** 16, "x")
                # past 2^16 by the bit length alone, or by the value
                assert str(got.value) in (
                    str(exc), f"x = {q}^{e} exceeds the enumeration limit "
                              f"{2 ** 16}")
            else:
                assert require_power_within(q, e, 2 ** 16, "x") == want


def test_rank_matrix_sampler_rank_exact():
    rng = random.Random(43)
    for r in range(3):
        for _ in range(40):
            grid = sample_uniform_matrix_of_rank(F2, 2, 3, r, rng)
            assert _rank_rows(F2, grid) == r


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 127, 256, 1021])
def test_rank_matrix_sampler_is_the_factor_product_draw_for_draw(q):
    # rank 1 is an outer product, drawn from the words U and V would take
    field = field_from_order(q)
    for m, eta in itertools.product(range(1, 5), repeat=2):
        for r in range(min(m, eta) + 1):
            for seed in range(3):
                ours = random.Random(f"{q}/{m}/{eta}/{r}/{seed}")
                theirs = random.Random(f"{q}/{m}/{eta}/{r}/{seed}")
                for _ in range(4):
                    grid = sample_uniform_matrix_of_rank(field, m, eta, r, ours)
                    assert grid == sample_rank_matrix_by_factors(
                        field, m, eta, r, theirs), (m, eta, r, seed)
                    assert all(type(row) is tuple for row in grid)
                assert ours.getstate() == theirs.getstate(), (m, eta, r, seed)


# m = 1, eta = 1, m < eta and m > eta
DRAWER_SHAPES = [(1, 3), (3, 1), (2, 3), (3, 2)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 127, 257])
def test_the_drawers_take_the_same_words_as_the_block_loop(q):
    # q = 257 is the first order whose table rows are array('H')
    field = field_from_order(q)
    for m, eta in DRAWER_SHAPES:
        for r in range(min(m, eta) + 1):
            flat, grids, theirs = (random.Random(f"{q}/{m}/{eta}/{r}")
                                   for _ in range(3))
            for _ in range(3):
                want = sample_rank_matrix_by_rows(field, m, eta, r, theirs)
                entries = sample_entries_of_rank(field, m, eta, r, flat)
                assert tuple(entries) == sum(want, ()), (m, eta, r)
                assert sample_uniform_matrix_of_rank(
                    field, m, eta, r, grids) == want, (m, eta, r)
                assert (flat.getstate() == grids.getstate()
                        == theirs.getstate()), (m, eta, r)
        for ell in (1, 3, 6):
            params = params_for(q, m, eta, ell)
            for radius in (0, 1, params.max_weight):
                ours = random.Random(f"{q}/{m}/{eta}/{ell}/{radius}")
                theirs = random.Random(f"{q}/{m}/{eta}/{ell}/{radius}")
                for _ in range(3):
                    point = sample_ball_uniform(params, radius, ours)
                    assert point == sample_ball_by_blocks(
                        params, radius, theirs), (m, eta, ell, radius)
                    assert ours.getstate() == theirs.getstate()


def test_a_drawer_keeps_no_drawn_block_alive():
    # one shared zero block of 2^21 entries kept 17 MB alive after the op
    tracemalloc.start()
    try:
        for _ in range(2):
            sample_entries_of_rank(F2, 1, 2 ** 20, 0, random.Random(1))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 ** 20


@pytest.mark.parametrize("int_first", [False, True],
                         ids=["float-first", "int-first"])
def test_a_drawer_key_that_is_not_an_int_is_refused_in_either_order(
        int_first):
    # an untyped lru_cache takes 2.0 and 2 as one key: unchecked, a float
    # drew a point or read a rank table once the int had built it, and
    # raised TypeError before
    params = params_for(3, 2, 2, 2)
    field = params.field
    metric._ball_drawer.cache_clear()
    metric._block_drawers.cache_clear()
    rank_table.cache_clear()
    draws = [
        ("radius", lambda x: sample_ball_uniform(params, x, random.Random(1))),
        ("m", lambda x: sample_uniform_matrix_of_rank(field, x, 2, 1,
                                                      random.Random(1))),
        ("eta", lambda x: sample_uniform_matrix_of_rank(field, 2, x, 1,
                                                        random.Random(1))),
        ("rank r", lambda x: sample_entries_of_rank(field, 2, 2, x,
                                                    random.Random(1))),
        ("m", lambda x: rank_table(field, x, 2)),
        ("eta", lambda x: rank_table(field, 2, x)),
    ]
    for name, draw in draws:
        kept = draw(2) if int_first else None
        for bad in (2.0, Fraction(2), "2"):
            with pytest.raises(ValueError) as exc:
                draw(bad)
            assert str(exc.value) == f"{name} must be an integer, got {bad!r}"
        got = draw(2)
        assert kept is None or got == kept
    assert rank_table(field, 2, 2).count(2) == 48  # the rank-2 2 x 2 over F_3


@pytest.mark.parametrize("q, m, eta", [(2, 2, 2), (3, 1, 3), (4, 2, 3),
                                       (1021, 2, 1)], ids=str)
def test_built_points_are_the_checked_points(q, m, eta):
    # the sampler and the point arithmetic skip check_entries
    params = params_for(q, m, eta, 3)
    rng = RandomStream(3, "built", q, m, eta)
    for _ in range(20):
        x = sample_ball_uniform(params, params.max_weight, rng)
        y = sample_ball_uniform(params, 2, rng)
        c = rng.randrange(q)
        for point in (x, y, x.add(y), x.scale(c), x.neg(), x.sub(y)):
            checked = BlockTuple(params, point.to_vector())
            assert type(point.entries) is tuple
            assert point == checked and hash(point) == hash(checked)
            assert point.weight() == checked.weight() == block_rank_sum(point)
    with pytest.raises(ValueError, match=f"entry {q} outside field"):
        BlockTuple(params, (q,) + (0,) * (params.total_dim - 1))


# Each weight branch: min(m, eta) = 1 counts nonzero blocks, q^(m*eta) <=
# WEIGHT_TABLE_CODES reads rank_table (the last three shapes exactly at it),
# and larger blocks are eliminated.
WEIGHT_SHAPES = [(1021, 1, 2), (2, 3, 1), (5, 1, 1), (2, 2, 2), (3, 2, 2),
                 (4, 2, 2), (5, 2, 2), (7, 2, 2), (8, 2, 2), (4, 2, 3),
                 (2, 3, 4), (4, 3, 3), (3, 3, 3), (2, 2, 7)]


@pytest.mark.parametrize("q, m, eta", WEIGHT_SHAPES, ids=str)
def test_weight_is_the_sum_of_block_eliminations(q, m, eta):
    params = params_for(q, m, eta, 3)
    rng = RandomStream(5, "weight", q, m, eta)
    for _ in range(40):
        x = random_tuple(params, rng)
        y = sample_ball_uniform(params, rng.randrange(params.max_weight + 1),
                                rng)
        for point in (x, y, x.add(y)):
            assert point.weight() == block_rank_sum(point)


def test_weight_builds_no_rank_table_above_its_threshold(monkeypatch):
    built = []

    def recording_rank_table(field, m, eta):
        built.append((field.q, m, eta))
        return rank_table(field, m, eta)
    monkeypatch.setattr(metric, "rank_table", recording_rank_table)
    metric._weigher.cache_clear()
    for q, m, eta in WEIGHT_SHAPES:
        params = params_for(q, m, eta, 2)
        x = random_tuple(params, random.Random(53))
        assert x.weight() == block_rank_sum(x)
    assert built == [(q, m, eta) for q, m, eta in WEIGHT_SHAPES
                     if min(m, eta) > 1
                     and q ** (m * eta) <= metric.WEIGHT_TABLE_CODES]
    assert (8, 2, 2) in built and (2, 3, 4) in built and (4, 2, 3) in built
    assert metric.WEIGHT_TABLE_CODES == 2 ** 12


def test_ball_sampler_stays_inside_and_reproduces():
    stream = RandomStream(1, "ball-test")
    draws = [sample_ball_uniform(P222, 2, stream.child(i)) for i in range(200)]
    assert all(x.weight() <= 2 for x in draws)
    stream2 = RandomStream(1, "ball-test")
    again = [sample_ball_uniform(P222, 2, stream2.child(i)) for i in range(200)]
    assert draws == again


def test_ball_sampler_hits_every_weight():
    stream = RandomStream(2, "ball-weights")
    weights = {sample_ball_uniform(P222, 2, stream.child(i)).weight()
               for i in range(300)}
    assert weights == {0, 1, 2}


def test_uniform_tuple_sampler_marginal():
    rng = random.Random(47)
    params = params_for(2, 1, 1, 3)
    counts = [0] * 8
    for _ in range(4000):
        counts[tuple_code(sample_uniform_tuple(params, rng))] += 1
    assert min(counts) > 0


@pytest.mark.parametrize("shape", [(2, 2, 3, 2), (2, 1, 1, 6), (3, 2, 2, 1),
                                   (4, 1, 2, 2), (5, 1, 1, 3)], ids=str)
def test_iter_ball_is_a_weight_scan_in_code_order(shape):
    params = params_for(*shape)
    for r in range(params.max_weight + 1):
        assert list(iter_ball(params, r)) == [
            code for code in range(params.q ** params.total_dim)
            if tuple_from_code(params, code).weight() <= r]


@pytest.mark.parametrize("q, ell", [(2, 1200), (3, 1100)])
def test_iter_ball_walks_more_blocks_than_the_recursion_limit(q, ell):
    # one block per frame raised RecursionError from ell = 1,000 on
    params = params_for(q, 1, 1, ell)
    codes = list(iter_ball(params, 1))
    assert len(codes) == ball_volume(params, 1)
    assert all(a < b for a, b in zip(codes, codes[1:]))
    assert codes == sorted(
        [0] + [c * q ** i for i in range(ell) for c in range(1, q)])
