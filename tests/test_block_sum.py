"""The block-sum engine: counts as coefficients of P(x)^ell, samplers by
unranking.

The oracle for the samplers is the flat inverse-CDF table they used to
build: one (cumulative mass, composition) cell per bounded composition, in
the order bounded_compositions yields them.  Unranking must pick the same
cell for every offset, which is what keeps seeded draws byte-identical.
"""

import bisect
import random

import pytest

from sumrank import counting, decomposable, guards, linalg, metric
from sumrank.galois import field_from_order
from sumrank.guards import MAX_COUNT_WORK, GuardError

from oracles import ball_composition, params_for


# -- the flat tables, kept as oracles --------------------------------------

def flat_ball_table(params, radius):
    base = counting.rank_count_vector(params.m, params.eta, params.q)
    cells = []
    cum = 0
    for s in range(radius + 1):
        for comp in counting.bounded_compositions(s, params.ell,
                                                  upper=params.block_rank_cap):
            mass = 1
            for part in comp:
                mass *= base[part]
            cum += mass
            cells.append((cum, comp))
    return cells, cum


def flat_decomposable_table(eta, ell, w, q):
    cells = []
    cum = 0
    for comp in counting.bounded_compositions(w, ell, upper=eta):
        mass = 1
        for part in comp:
            mass *= counting.gaussian_binomial(eta, part, q)
        cum += mass
        cells.append((cum, comp))
    return cells, cum


def flat_lookup(cells, u):
    bounds = [cum for cum, _ in cells]
    return cells[bisect.bisect_right(bounds, u)][1]


def offsets(total, limit, seed):
    """Every offset below total when there are at most limit of them, else
    limit seeded ones including both ends."""
    if total <= limit:
        return range(total)
    rng = random.Random(seed)
    return [0, total - 1] + [rng.randrange(total) for _ in range(limit - 2)]


BALL_SHAPES = [  # q, m, eta, ell, radius
    (2, 2, 2, 3, 5),
    (2, 3, 2, 3, 4),
    (3, 2, 1, 3, 2),
    (3, 2, 2, 2, 4),
    (4, 1, 1, 5, 4),
    (4, 2, 2, 2, 3),
]

DECOMPOSABLE_SHAPES = [  # eta, ell, w, q
    (3, 3, 4, 2),
    (4, 3, 5, 2),
    (2, 3, 3, 3),
    (2, 4, 4, 3),
    (2, 2, 2, 4),
    (3, 2, 3, 4),
]


@pytest.mark.parametrize("q, m, eta, ell, radius", BALL_SHAPES)
def test_ball_unranking_matches_flat_table(q, m, eta, ell, radius):
    params = params_for(q, m, eta, ell)
    cells, total = flat_ball_table(params, radius)
    assert total == counting.ball_volume(params, radius)
    for u in offsets(total, 20000, seed=q * 1000 + ell):
        assert ball_composition(params, radius, u) == \
            flat_lookup(cells, u), u


@pytest.mark.parametrize("eta, ell, w, q", DECOMPOSABLE_SHAPES)
def test_decomposable_unranking_matches_flat_table(eta, ell, w, q):
    cells, total = flat_decomposable_table(eta, ell, w, q)
    assert total == counting.decomposable_count(eta, ell, w, q)
    base = counting.grassmannian_vector(eta, q)
    for u in offsets(total, 20000, seed=q * 1000 + ell):
        assert counting.unrank_block_sum(base, ell, w, u) == \
            flat_lookup(cells, u), u


class FirstDraw:
    """An rng whose first randrange returns a chosen offset; later draws,
    and the getrandbits words that the full-rank sampler reads, come from a
    seeded Random."""

    def __init__(self, u, seed):
        self.u = u
        self.rng = random.Random(seed)

    def randrange(self, n):
        if self.u is None:
            return self.rng.randrange(n)
        u, self.u = self.u, None
        assert 0 <= u < n
        return u

    def getrandbits(self, k):
        return self.rng.getrandbits(k)


@pytest.mark.parametrize("q, m, eta, ell, radius", BALL_SHAPES[:3])
def test_ball_sampler_block_ranks_follow_flat_table(q, m, eta, ell, radius):
    params = params_for(q, m, eta, ell)
    cells, total = flat_ball_table(params, radius)
    for u in offsets(total, 40, seed=7):
        point = metric.sample_ball_uniform(params, radius, FirstDraw(u, u))
        ranks = tuple(linalg._rank_rows(params.field, block)
                      for block in point.blocks)
        assert ranks == flat_lookup(cells, u)


@pytest.mark.parametrize("eta, ell, w, q", DECOMPOSABLE_SHAPES[:3])
def test_decomposable_sampler_dims_follow_flat_table(eta, ell, w, q):
    field = field_from_order(q)
    cells, total = flat_decomposable_table(eta, ell, w, q)
    for u in offsets(total, 40, seed=7):
        space = decomposable.sample_decomposable_uniform(
            field, eta, ell, w, FirstDraw(u, u))
        assert space.composition == flat_lookup(cells, u)


def test_unrank_rejects_offsets_outside_the_count():
    base = counting.grassmannian_vector(2, 2)
    total = counting.decomposable_count(2, 3, 3, 2)
    assert counting.unrank_block_sum(base, 3, 3, total - 1) == (2, 1, 0)
    for u in (-1, total):
        with pytest.raises(ValueError):
            counting.unrank_block_sum(base, 3, 3, u)
    with pytest.raises(ValueError):
        counting.unrank_block_sum(base, 3, 7, 0)


# -- the power kernel against the schoolbook product ------------------------

def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        for i, x in enumerate(a):
            out[i + j] += x * y
    return out


def schoolbook_power(base, ell):
    """All coefficients of base(x)^ell by ell schoolbook products."""
    power = [1]
    for _ in range(ell):
        power = poly_mul(power, base)
    return power


def count_vectors():
    for q in (2, 3, 4):
        for eta in range(1, 5):
            yield counting.grassmannian_vector(eta, q)
            for m in range(1, 5):
                yield counting.rank_count_vector(m, eta, q)


# Bases whose constant term exceeds 1, or with zero entries inside.
WIDE_CONSTANT_BASES = [(2,), (2, 3), (3, 0, 5), (5, 1, 1, 7), (4, 0, 0, 9)]


@pytest.mark.parametrize("base", [counting.rank_count_vector(2, 3, 3),
                                  counting.grassmannian_vector(3, 2),
                                  *WIDE_CONSTANT_BASES], ids=str)
def test_unrank_reads_deeper_tails_as_its_own(base):
    # a sampler of every total up to deg unranks through the tails to deg
    ell, deg = 4, 6
    tails = counting.completion_powers(base, ell, deg)
    power = counting.block_sum_power(base, ell, deg)
    for total in range(min(deg, ell * (len(base) - 1)) + 1):
        for u in offsets(power[total], 200, seed=total):
            assert counting.unrank_block_sum(base, ell, total, u, tails) == \
                counting.unrank_block_sum(base, ell, total, u), (total, u)


@pytest.fixture
def fresh_powers():
    counting._POWERS.clear()
    counting.completion_powers.cache_clear()
    yield
    counting._POWERS.clear()
    counting.completion_powers.cache_clear()


def test_kernel_matches_schoolbook_at_every_prefix(fresh_powers):
    for base in dict.fromkeys(count_vectors()):
        for ell in range(13):
            expected = schoolbook_power(base, ell)
            # Reading one degree deeper each time extends the cached prefix.
            for deg in range(len(expected)):
                got = counting.block_sum_power(base, ell, deg)
                assert got == tuple(expected[:deg + 1]), (base, ell, deg)
            # Past the top degree the prefix is the whole power.
            assert counting.block_sum_power(base, ell, len(expected) + 3) == \
                tuple(expected)


def test_kernel_matches_schoolbook_when_the_constant_exceeds_one(fresh_powers):
    for base in WIDE_CONSTANT_BASES:
        for ell in range(9):
            expected = tuple(schoolbook_power(base, ell))
            assert counting.block_sum_power(base, ell, len(expected)) == \
                expected, (base, ell)
            for deg in range(len(expected)):
                counting._POWERS.clear()
                assert counting.block_sum_power(base, ell, deg) == \
                    expected[:deg + 1], (base, ell, deg)


def test_short_then_long_read_equals_a_fresh_long_read(fresh_powers):
    base, ell = counting.rank_count_vector(3, 3, 3), 9
    short = counting.block_sum_power(base, ell, 5)
    long_after_short = counting.block_sum_power(base, ell, 20)
    counting._POWERS.clear()
    fresh = counting.block_sum_power(base, ell, 20)
    assert long_after_short == fresh
    assert fresh[:6] == short
    assert len(fresh) == 21
    # A shallower read after a deeper one hands back the deeper prefix.
    assert counting.block_sum_power(base, ell, 5) == fresh


def test_callers_cannot_change_the_cached_coefficients(fresh_powers):
    base, ell = counting.grassmannian_vector(3, 2), 6
    power = counting.block_sum_power(base, ell, 10)
    with pytest.raises(TypeError):
        power[3] = 0
    tails = counting.completion_powers(base, ell, 10)
    with pytest.raises((TypeError, AttributeError)):
        tails[0].append(0)
    expected = tuple(schoolbook_power(base, ell)[:11])
    assert counting.block_sum_power(base, ell, 10) == expected
    assert counting.block_sum_power(base, ell, 12) == \
        tuple(schoolbook_power(base, ell)[:13])
    assert tails == tuple(tuple(schoolbook_power(base, j)[:11])
                          for j in reversed(range(ell)))


def test_power_bit_bound_is_never_below_the_real_bit_count():
    bases = [*count_vectors(), *WIDE_CONSTANT_BASES,
             counting.rank_count_vector(8, 8, 2),
             counting.grassmannian_vector(8, 5),
             counting.rank_count_vector(2, 3, 1021)]
    for base in bases:
        for ell in (0, 1, 2, 3, 7, 12, 40):
            power = schoolbook_power(base, ell)
            widest = 0
            for deg, coeff in enumerate(power):
                widest = max(widest, coeff.bit_length())
                assert counting._power_bits(base, ell, deg) >= widest, \
                    (base, ell, deg)


def test_kernel_refuses_work_past_the_cap_before_computing(fresh_powers):
    base = counting.rank_count_vector(64, 64, 2)
    assert counting.power_work(base, 1000, 10 ** 4) > MAX_COUNT_WORK
    with pytest.raises(GuardError):
        counting.block_sum_power(base, 1000, 10 ** 4)
    assert (base, 1000) not in counting._POWERS
    with pytest.raises(GuardError):
        counting.completion_powers(base, 1000, 200)
    assert counting.completion_powers.cache_info().currsize == 0
    assert [key for key in counting._POWERS if key[0] == base] == []
    # The same request below the cap runs, and its guard does not depend
    # on what is cached.
    assert len(counting.block_sum_power(base, 1000, 20)) == 21
    with pytest.raises(GuardError):
        counting.block_sum_power(base, 1000, 10 ** 4)
    assert len(counting._POWERS[base, 1000]) == 21


@pytest.mark.parametrize("base, ell, deg", [
    ((1, 1), 1024, 512),
    (counting.grassmannian_vector(2, 2), 512, 1024),
    (counting.rank_count_vector(4, 4, 3), 128, 512),
    (counting.rank_count_vector(2, 2, 16), 256, 512),
    ((1, 3, 1), 7, 5),  # fewer tails than runs: each priced on its own
], ids=["ball-q2-1x1", "decomposable-q2-eta2", "ball-q3-4x4", "ball-q16-2x2",
        "short"])
def test_completion_price_bounds_the_tails_work_closely(
        fresh_powers, monkeypatch, base, ell, deg):
    # The price is at least the work of the ell tails priced one by one,
    # and within 5 % of it on these shapes; ell times the largest tail's
    # work, the price it replaces, is 2 to 3 times the sum where ell > 32.
    exact = sum(counting.power_work(base, j, deg) for j in range(ell))
    monkeypatch.setattr(counting, "_miller", lambda *args: ())  # price only
    monkeypatch.setattr(guards, "MAX_COUNT_WORK", exact - 1)
    with pytest.raises(GuardError, match="^block-sum work = "):
        counting.completion_powers(base, ell, deg)
    monkeypatch.setattr(guards, "MAX_COUNT_WORK", exact * 105 // 100)
    assert counting.completion_powers(base, ell, deg) == ((),) * ell
    if ell > 32:
        assert ell * counting.power_work(base, ell - 1, deg) > exact * 2


def test_gaussian_binomial_refuses_work_past_the_cap():
    with pytest.raises(GuardError):
        counting.gaussian_binomial(64 * 1000, 100, 2)
    assert counting.gaussian_binomial(64 * 1000, 100 * 1000 * 64, 2) == 0


def test_block_sum_power_matches_composition_sum():
    base = (1, 5, 3)
    power = counting.block_sum_power(base, 4, 8)
    assert len(power) == 9
    for s, coeff in enumerate(power):
        total = 0
        for comp in counting.bounded_compositions(s, 4, upper=2):
            term = 1
            for part in comp:
                term *= base[part]
            total += term
        assert coeff == total
    assert sum(power) == 9 ** 4


# -- large ell -------------------------------------------------------------

@pytest.mark.parametrize("q, side, ell", [(2, 4, 64), (3, 2, 128)])
def test_volume_bounds_at_large_ell(q, side, ell):
    params = params_for(q, side, side, ell)
    spheres = [counting.sphere_volume(params, r)
               for r in range(params.max_weight + 1)]
    assert sum(spheres) == q ** params.total_dim
    assert counting.ball_volume(params, params.max_weight) == \
        q ** params.total_dim
    for r in range(params.max_weight + 1):
        assert counting.sphere_bounds_ok(params, r), r
        assert counting.ball_bounds_ok(params, r), r


def test_decomposable_bounds_at_large_ell():
    eta, ell, q = 4, 64, 2
    counts = [counting.decomposable_count(eta, ell, w, q)
              for w in range(eta * ell + 1)]
    # Every product of subspaces is counted once, by its total dimension.
    assert sum(counts) == sum(counting.grassmannian_vector(eta, q)) ** ell
    for w in range(eta * ell + 1):
        assert counting.decomposable_bounds_ok(eta, ell, w, q), w
        assert counting.decomposable_le_grassmannian(eta, ell, w, q), w


# -- no fallback to enumeration --------------------------------------------

def test_counts_and_samplers_never_enumerate_compositions(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("bounded_compositions called")

    for cached in (counting.sphere_volume, counting.ball_volume,
                   counting.decomposable_count):
        cached.cache_clear()
    counting._POWERS.clear()
    counting.completion_powers.cache_clear()
    monkeypatch.setattr(counting, "bounded_compositions", refuse)
    params = params_for(2, 2, 2, 12)
    assert sum(counting.sphere_volume(params, r)
               for r in range(params.max_weight + 1)) == 2 ** 48
    assert counting.ball_volume(params, 12) == sum(
        counting.sphere_volume(params, r) for r in range(13))
    assert counting.decomposable_count(3, 12, 18, 2) > 0
    rng = random.Random(5)
    point = metric.sample_ball_uniform(params, 12, rng)
    assert point.weight() <= 12
    space = decomposable.sample_decomposable_uniform(
        field_from_order(2), 3, 12, 18, rng)
    assert sum(space.composition) == 18
