"""Support chains inside shifted vector sets: greedy, exact, bound targets."""

import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from sumrank import chains, metric
from sumrank.chains import (BoundReport, ChainInstance, best_shift_chain,
                            bound_attainment_report, bound_target,
                            chain_length_bound, max_chain_exact,
                            random_chain_instance)
from sumrank.galois import field_from_order
from sumrank.guards import MAX_RANDOM_DIGIT_STEPS, GuardError
from sumrank.metric import vector_from_code
from sumrank.montecarlo import RandomStream

from oracles import (chain_by_deepening, decode, encode,
                     is_increasing_chain, matrix_code, support)

F2 = field_from_order(2)
F3 = field_from_order(3)
F4 = field_from_order(4)


def instance(field, gamma, vectors, c):
    """A ChainInstance of vectors given by their entries."""
    return ChainInstance(field, gamma,
                         [encode(field, gamma, v) for v in vectors], c)


def vectors_of(inst, codes=None):
    """The vectors of the codes, those of A by default, decoded."""
    q, gamma = inst.field.q, inst.gamma
    return [decode(q, gamma, x)
            for x in (inst.codes if codes is None else codes)]


def greedy_chain(inst, shift):
    """The greedy chain inside A + shift, decoded: chains._greedy over the
    sweep of the checked shift."""
    shift_code = encode(inst.field, inst.gamma, shift)
    return vectors_of(inst, chains._greedy(*inst.sweep(shift_code), inst.c))


def exact_chain(inst, shift, target=None):
    """max_chain_exact inside A + shift, the shift and chain as vectors."""
    return vectors_of(inst, max_chain_exact(
        inst, encode(inst.field, inst.gamma, shift), target=target))


def assert_chain_in_shifted_set(inst, shift_code, chain):
    """The chain's codes, decoded, are an increasing chain inside A + shift."""
    shift = decode(inst.field.q, inst.gamma, shift_code)
    add = inst.field._add
    shifted = {tuple(add[x][s] for x, s in zip(v, shift))
               for v in vectors_of(inst)}
    vectors = vectors_of(inst, chain)
    assert is_increasing_chain(vectors, inst.c)
    assert set(vectors) <= shifted


def test_support():
    assert support((0, 0, 0)) == frozenset()
    assert support((1, 0, 2)) == frozenset({0, 2})
    assert support((1, 1, 1, 1)) == frozenset({0, 1, 2, 3})


def test_is_increasing_chain():
    assert is_increasing_chain([], 2)
    assert is_increasing_chain([(1, 1, 0, 0), (0, 0, 1, 1)], 2)
    assert not is_increasing_chain([(1, 1, 0, 0), (0, 1, 1, 0)], 2)
    assert is_increasing_chain([(1, 1, 0, 0), (0, 1, 1, 0)], 1)
    # full-support opener leaves nothing for the second vector
    assert not is_increasing_chain([(1, 1, 1, 1), (1, 1, 0, 0)], 1)


def test_instance_validation():
    with pytest.raises(ValueError):
        instance(F2, 2, ((1, 0), (1, 0)), 1)
    with pytest.raises(ValueError):
        instance(F2, 2, ((1, 2),), 1)
    with pytest.raises(ValueError):
        instance(F2, 2, ((1, 0, 1),), 1)
    with pytest.raises(ValueError):
        instance(F2, 0, ((),), 1)
    with pytest.raises(ValueError):
        instance(F2, 2, ((1, 0),), 0)
    # codes given directly: each in [0, q^gamma), none repeated
    for codes in ((4,), (-1,), (0, 4), (-1, 3), (2, 2)):
        with pytest.raises(ValueError):
            ChainInstance(F2, 2, codes, 1)
    assert ChainInstance(F3, 2, (8, 0), 1).codes == (0, 8)


def test_instance_rejects_entries_that_are_not_integers():
    with pytest.raises(TypeError):
        instance(F2, 2, [(1.5, 0), (0, 1)], 1)
    with pytest.raises(TypeError):
        ChainInstance(F2, 2, (1.0, 2), 1)


def test_instance_canonical_order():
    inst = instance(F2, 2, [(1, 1), (0, 1), (1, 0)], 1)
    assert inst.codes == (1, 2, 3)
    assert vectors_of(inst) == [(0, 1), (1, 0), (1, 1)]
    assert inst.size == 3


def test_greedy_prefers_largest_gain():
    inst = instance(
        F2, 4, ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 1, 1, 1)), 2)
    chain = greedy_chain(inst, (0, 0, 0, 0))
    assert chain == [(1, 1, 1, 1)]
    # exact search avoids the full-support trap
    assert exact_chain(inst, (0, 0, 0, 0)) == [(0, 0, 1, 1), (1, 1, 0, 0)]
    assert max_chain_exact(inst, 0) == [0b0011, 0b1100]


def test_greedy_tie_break_smallest_value():
    inst = instance(F2, 4, ((1, 1, 0, 0), (0, 0, 1, 1)), 2)
    chain = greedy_chain(inst, (0, 0, 0, 0))
    assert chain == [(0, 0, 1, 1), (1, 1, 0, 0)]


def test_greedy_shift_length_checked():
    inst = instance(F2, 3, ((1, 0, 0),), 1)
    with pytest.raises(ValueError):
        greedy_chain(inst, (0, 0))


def test_shift_entries_checked_by_the_encoder():
    # at q = 3 the shift (0, 3) would have the code of (1, 0); the encoder
    # that hands shifts to the searches refuses it, and shifts of the wrong
    # length
    inst = instance(F3, 2, ((0, 1), (1, 0), (2, 2)), 1)
    assert encode(F3, 2, (1, 0)) == 3
    for shift in ((0, 3), (0, -1), (0,), (0, 0, 0)):
        for search in (greedy_chain, exact_chain):
            with pytest.raises(ValueError):
                search(inst, shift)
    for search in (greedy_chain, exact_chain):
        with pytest.raises(TypeError):
            search(inst, (0, 1.0))


@pytest.mark.parametrize("field, gamma", [(F2, 4), (F3, 2), (F4, 3)],
                         ids=lambda x: getattr(x, "q", x))
def test_exact_search_checks_its_shift_code(field, gamma):
    # -1 and q^gamma are the codes just outside the shifts
    total = field.q ** gamma
    inst = random_chain_instance(field, gamma, 3, 1, random.Random(gamma))
    for shift_code in (-1, total):
        with pytest.raises(ValueError, match="outside"):
            max_chain_exact(inst, shift_code)
    with pytest.raises(TypeError):
        max_chain_exact(inst, 1.0)
    for shift_code in (0, total - 1):
        assert_chain_in_shifted_set(inst, shift_code,
                                    max_chain_exact(inst, shift_code))


def test_greedy_chain_lives_in_shifted_set():
    rng = random.Random(19)
    for field in (F3, F4):
        inst = random_chain_instance(field, 4, 20, 1, rng)
        shift = (1, 2, 0, 1)
        chain = greedy_chain(inst, shift)
        assert is_increasing_chain(chain, 1)
        shifted = {tuple(field._add[x][s] for x, s in zip(v, shift))
                   for v in vectors_of(inst)}
        for v in chain:
            assert tuple(v) in shifted


def test_best_shift_exhaustive_q3_frozen():
    inst = instance(
        F3, 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 1, 0)), 1)
    result = best_shift_chain(inst)
    assert result.length == 2
    assert result.shift == encode(F3, 3, (0, 2, 0))
    assert vectors_of(inst, result.chain) == [(0, 2, 1), (1, 0, 1)]
    assert_chain_in_shifted_set(inst, result.shift, result.chain)
    # greedy misses the length-3 chain the unshifted set holds
    assert len(max_chain_exact(inst, 0)) == 3


def test_best_shift_random_mode_bounded_by_exhaustive():
    rng = random.Random(23)
    for _ in range(5):
        inst = random_chain_instance(F2, 8, 16, 2, rng)
        full = best_shift_chain(inst, mode="exhaustive")
        sampled = best_shift_chain(inst, mode="random", trials=40,
                                   rng=random.Random(3))
        assert sampled.length <= full.length
        for result in (full, sampled):
            assert result.length == len(result.chain)
            assert_chain_in_shifted_set(inst, result.shift, result.chain)


def test_best_shift_mode_validation():
    inst = instance(F2, 2, ((1, 0),), 1)
    with pytest.raises(ValueError):
        best_shift_chain(inst, mode="random")
    with pytest.raises(ValueError):
        best_shift_chain(inst, mode="annealed")


def test_shift_guard():
    inst = random_chain_instance(F2, 21, 4, 2, random.Random(29))
    with pytest.raises(GuardError):
        best_shift_chain(inst, mode="exhaustive")


@given(st.integers(0, 2 ** 31), st.integers(1, 3))
def test_exact_at_least_greedy(seed, c):
    rng = random.Random(seed)
    inst = random_chain_instance(F2, 6, rng.randrange(4, 24), c, rng)
    shift = tuple(rng.randrange(2) for _ in range(6))
    greedy = greedy_chain(inst, shift)
    exact = exact_chain(inst, shift)
    assert is_increasing_chain(greedy, c)
    assert is_increasing_chain(exact, c)
    assert len(exact) >= len(greedy)
    shifted = {tuple(x ^ s for x, s in zip(v, shift)) for v in vectors_of(inst)}
    assert all(tuple(v) in shifted for v in exact)


@given(st.integers(0, 2 ** 31))
def test_exact_target_consistent(seed):
    rng = random.Random(seed)
    inst = random_chain_instance(F2, 6, 12, 2, rng)
    best = max_chain_exact(inst, 0)
    for target in range(len(best) + 2):
        found = max_chain_exact(inst, 0, target=target)
        if target <= len(best):
            assert len(found) >= target
        else:  # out of reach: the longest chain
            assert found == best


def brute_longest_chain(inst, shift):
    """The code-order-least longest chain among the orderings of subsets of
    A + shift, by listing them all."""
    add = inst.field._add
    shifted = [tuple(add[x][s] for x, s in zip(v, shift))
               for v in vectors_of(inst)]
    chains_found = [list(p) for k in range(len(shifted) + 1)
                    for p in itertools.permutations(shifted, k)
                    if is_increasing_chain(p, inst.c)]
    longest = max(map(len, chains_found))
    return min(ch for ch in chains_found if len(ch) == longest)


def small_instances(rng, count, max_gamma):
    for _ in range(count):
        field = rng.choice((F2, F3))
        gamma = rng.randint(1, max_gamma)
        size = rng.randint(1, min(6, field.q ** gamma))
        c = rng.randint(1, gamma)
        yield random_chain_instance(field, gamma, size, c, rng)


def test_exact_matches_brute_force_longest_chain():
    rng = random.Random(43)
    for inst in small_instances(rng, 150, 4):
        q = inst.field.q
        shift = decode(q, inst.gamma, rng.randrange(q ** inst.gamma))
        best = brute_longest_chain(inst, shift)
        assert exact_chain(inst, shift) == best
        for target in range(len(best) + 2):
            found = exact_chain(inst, shift, target=target)
            if target <= len(best):
                assert len(found) == target
                assert is_increasing_chain(found, inst.c)
            else:  # out of reach: the longest chain
                assert found == best


def test_violation_reports_longest_exact_chain_over_all_shifts(monkeypatch):
    # a target one past gamma // c is out of reach at every shift
    monkeypatch.setattr(chains, "bound_target",
                        lambda size, q, gamma, c: gamma // c + 1)
    rng = random.Random(47)
    for inst in small_instances(rng, 20, 3):
        q, gamma = inst.field.q, inst.gamma
        lengths = [len(brute_longest_chain(inst, decode(q, gamma, s)))
                   for s in range(q ** gamma)]
        longest = max(lengths)
        report = bound_attainment_report(inst)
        assert report.target == gamma // inst.c + 1
        assert not report.achieved
        assert report.exact_used
        assert report.exact_length == longest == len(report.chain)
        # the first shift, in code order, holding a longest chain
        assert report.shift == lengths.index(longest)
        assert vectors_of(inst, report.chain) == brute_longest_chain(
            inst, decode(q, gamma, report.shift))
        assert_chain_in_shifted_set(inst, report.shift, report.chain)


def test_full_space_exact_fallback(monkeypatch):
    calls = []
    search = chains.max_chain_exact

    def counted(inst, shift_code, target=None):
        calls.append((shift_code, target))
        return search(inst, shift_code, target=target)
    monkeypatch.setattr(chains, "max_chain_exact", counted)
    inst = ChainInstance(F2, 6, range(64), 2)
    report = bound_attainment_report(inst)
    assert report.target == 2
    assert report.greedy_length == 1
    assert report.exact_used
    assert report.achieved
    assert report.exact_length == 2
    assert_chain_in_shifted_set(inst, report.shift, report.chain)
    # the exact fallback stops at the first shift reaching the target
    assert calls == [(0, 2)]
    # out of reach: one capped search per shift, the first longest kept
    calls.clear()
    monkeypatch.setattr(chains, "bound_target",
                        lambda size, q, gamma, c: gamma // c + 1)
    report = bound_attainment_report(inst)
    assert not report.achieved
    assert (report.exact_length, report.shift) == (3, 0)
    assert_chain_in_shifted_set(inst, report.shift, report.chain)
    assert calls == [(s, 4) for s in range(64)]


def test_bound_values_frozen():
    assert math.isclose(chain_length_bound(64, 2, 6, 2),
                        2.5 - 0.5 * math.log2(6))
    assert math.isclose(chain_length_bound(16, 2, 8, 2), 0.0, abs_tol=1e-12)
    table = {(6, 16): 1, (6, 64): 2, (8, 16): 0, (8, 64): 1,
             (10, 16): 0, (10, 64): 1}
    for (gamma, size), expected in table.items():
        assert bound_target(size, 2, gamma, c=2) == expected
    with pytest.raises(ValueError):
        chain_length_bound(0, 2, 6, 2)
    with pytest.raises(ValueError):
        chain_length_bound(16, 1, 6, 2)


def test_bound_target_exact_integer_not_rounded_up():
    # bound is exactly 1.0 here; the slack keeps ceil from demanding 2
    assert chain_length_bound(64, 2, 8, 2) == 1.0
    assert bound_target(64, 2, 8, 2) == 1


def test_bound_attainment_random_instances():
    rng = random.Random(31)
    for gamma in (6, 8):
        for size in (16, 64):
            for _ in range(5):
                inst = random_chain_instance(F2, gamma, size, 2, rng)
                report = bound_attainment_report(inst)
                assert report.achieved
                assert report.greedy_length >= 0
                if not report.exact_used:
                    assert report.greedy_length >= report.target
                assert isinstance(report, BoundReport)
                assert_chain_in_shifted_set(inst, report.shift, report.chain)


def randrange_codes(total, set_size, rng):
    """The sorted codes of one randrange(total) per draw until set_size
    distinct codes are drawn."""
    chosen = set()
    while len(chosen) < set_size:
        chosen.add(rng.randrange(total))
    return tuple(sorted(chosen))


@pytest.mark.parametrize("stream", [random.Random, RandomStream],
                         ids=lambda s: s.__name__)
@pytest.mark.parametrize("q, gamma, size", [
    (2, 8, 40), (3, 5, 60), (2, 8, 256), (3, 5, 243), (2, 8, 1), (3, 5, 1)])
def test_random_instance_takes_the_randrange_draws(stream, q, gamma, size):
    # One getrandbits iterator, topped up by islice, reads the words of the
    # randrange loop; at q = 2 the total is a power of two, so about half
    # the words are redrawn
    field = field_from_order(q)
    for seed in range(10):
        rng, draws = stream(seed), stream(seed)
        inst = random_chain_instance(field, gamma, size, 1, rng)
        assert inst.codes == randrange_codes(q ** gamma, size, draws)
        assert rng.getstate() == draws.getstate()


def test_random_instance_properties():
    rng = random.Random(37)
    inst = random_chain_instance(F2, 6, 16, 2, rng)
    assert inst.size == 16
    assert len(set(vectors_of(inst))) == 16
    again = random_chain_instance(F2, 6, 16, 2, random.Random(37))
    assert again == inst
    with pytest.raises(ValueError):
        random_chain_instance(F2, 3, 9, 1, rng)
    for size in (0, -1):
        with pytest.raises(ValueError, match="set_size must be positive"):
            random_chain_instance(F2, 3, size, 1, rng)
    # vectors are decoded with the metric encoding: a vector's code is that
    # of a one-row matrix, and canonical order is code order
    for field in (F2, F3, F4):
        q = field.q
        inst = random_chain_instance(field, 4, 12, 1, random.Random(41))
        vectors = vectors_of(inst)
        codes = [matrix_code(q, (v,)) for v in vectors]
        assert tuple(codes) == inst.codes == tuple(sorted(codes))
        assert codes == [int("".join(map(str, v)), q) for v in vectors]
        assert [vector_from_code(q, 4, c) for c in codes] == vectors


# -- the integer shift sweep against the per-coordinate reference -----------

F5 = field_from_order(5)
F17 = field_from_order(17)  # above 256 ** (1/2): a chunk is one digit


def reference_items(inst, shift):
    """(support mask, code) per vector of A + shift, in set order, built one
    coordinate at a time through the field's addition."""
    q = inst.field.q
    out = []
    for v in vectors_of(inst):
        mask = val = 0
        for x, s in zip(v, shift):
            y = inst.field._add[x][s]
            val = val * q + y
            mask = mask << 1 | (y != 0)
        out.append((mask, val))
    return out


def reference_greedy(items, c):
    """Largest gain first, smallest code on ties; a chosen item is deleted."""
    cover = 0
    chosen = []
    remaining = list(items)
    while True:
        best_gain, best_idx = c - 1, -1
        for idx, (mask, val) in enumerate(remaining):
            gain = (mask & ~cover).bit_count()
            if gain > best_gain or (gain == best_gain and best_idx >= 0
                                    and val < remaining[best_idx][1]):
                best_gain, best_idx = gain, idx
        if best_idx < 0:
            return chosen
        mask, val = remaining.pop(best_idx)
        cover |= mask
        chosen.append(val)


def reference_best_shift(inst, shift_codes):
    """(length, shift, chain), as codes, of the first shift reaching the
    best greedy length, stopping early at gamma // c."""
    q, gamma = inst.field.q, inst.gamma
    best = None
    for code in shift_codes:
        shift = decode(q, gamma, code)
        vals = reference_greedy(reference_items(inst, shift), inst.c)
        if best is None or len(vals) > best[0]:
            best = (len(vals), code, tuple(vals))
            if len(vals) >= gamma // inst.c:
                break
    return best


def assert_best_shift_matches_reference(inst, seed, trials):
    """best_shift_chain agrees with the reference in both modes: over every
    shift, and over `trials` shifts drawn from random.Random(seed)."""
    total = inst.field.q ** inst.gamma
    result = best_shift_chain(inst)
    assert (result.length, result.shift, result.chain) == \
        reference_best_shift(inst, range(total))
    assert_chain_in_shifted_set(inst, result.shift, result.chain)
    draws = random.Random(seed)
    sampled = best_shift_chain(inst, mode="random", trials=trials,
                               rng=random.Random(seed))
    assert (sampled.length, sampled.shift, sampled.chain) == \
        reference_best_shift(inst, (draws.randrange(total)
                                    for _ in range(trials)))
    assert_chain_in_shifted_set(inst, sampled.shift, sampled.chain)


@pytest.mark.parametrize("stream", [random.Random, RandomStream],
                         ids=lambda s: s.__name__)
def test_random_shifts_take_the_randrange_draws(stream):
    # Random-mode shifts come from one getrandbits iterator: the shifts and
    # the state the search leaves are the randrange loop's, whether it stops
    # at gamma // c or runs out of trials
    stopped = ran_out = 0
    for q, gamma, size, c in ((2, 8, 40, 3), (3, 5, 6, 5), (2, 6, 10, 3)):
        total = q ** gamma
        for seed in range(12):
            inst = random_chain_instance(field_from_order(q), gamma, size, c,
                                         random.Random(seed))
            rng, draws, full = stream(seed), stream(seed), stream(seed)
            result = best_shift_chain(inst, mode="random", trials=12, rng=rng)
            assert (result.length, result.shift, result.chain) == \
                reference_best_shift(inst, (draws.randrange(total)
                                            for _ in range(12)))
            assert rng.getstate() == draws.getstate()
            for _ in range(12):
                full.randrange(total)
            if full.getstate() == draws.getstate():
                ran_out += 1
            else:
                stopped += 1
    assert stopped and ran_out


def tie_heavy_instances(rng, field, count):
    """Seeded instances whose vectors mostly share one support weight, so
    that greedy steps tie on the gain and the code decides; gamma <= 6 and
    at most 4096 shifts."""
    q = field.q
    top = max(g for g in range(2, 7) if q ** g <= 4096)
    for _ in range(count):
        gamma = rng.randint(2, top)
        weight = rng.randint(1, gamma)
        pool = [code for code in range(q ** gamma)
                if len(support(decode(q, gamma, code))) == weight]
        picked = set(rng.sample(pool, min(len(pool), rng.randint(1, 24))))
        picked.update(rng.sample(range(q ** gamma), rng.randint(0, 3)))
        yield ChainInstance(field, gamma, picked, rng.randint(1, 2))


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F17],
                         ids=lambda f: f"F{f.q}")
def test_shift_sweep_matches_reference(field):
    rng = random.Random(53 + field.q)
    q = field.q
    for inst in tie_heavy_instances(rng, field, 12):
        gamma = inst.gamma
        codes = range(q ** gamma)
        for code in codes:
            shift = decode(q, gamma, code)
            items = reference_items(inst, shift)
            assert list(zip(*inst.sweep(code))) == items
            want = reference_greedy(items, inst.c)
            assert greedy_chain(inst, shift) == vectors_of(inst, want)
        for code in rng.sample(codes, min(len(codes), 6)):
            shift = decode(q, gamma, code)
            want = chain_by_deepening(reference_items(inst, shift), gamma,
                                      inst.c, gamma // inst.c)
            assert max_chain_exact(inst, code) == want
        assert_best_shift_matches_reference(inst, rng.randrange(2 ** 32), 9)


DENSE_SETS = [(F2, 7, 96), (F2, 7, 112), (F2, 8, 128), (F2, 8, 160),
              (F3, 5, 200)]


@pytest.mark.parametrize("field, gamma, size", DENSE_SETS,
                         ids=lambda x: getattr(x, "q", x))
def test_skipped_shifts_match_reference_on_dense_sets(field, gamma, size):
    # Sets of half the space or more hold heavy vectors on almost every
    # shift, so most shifts are skipped by the bound
    rng = random.Random(67 + gamma * size)
    for c in (1, 2, 3):
        inst = random_chain_instance(field, gamma, size, c, rng)
        assert_best_shift_matches_reference(inst, rng.randrange(2 ** 32), 40)


def test_shift_whose_heaviest_vector_has_weight_c_is_searched():
    # A + 0001 = {0101, 1010}: every vector has weight c, and the chain
    # reaches gamma // c after shift 0 gave only one vector
    inst = instance(F2, 4, ((0, 1, 0, 0), (1, 0, 1, 1)), 2)
    result = best_shift_chain(inst)
    assert result.length == 2
    assert result.shift == 0b0001
    assert vectors_of(inst, result.chain) == [(0, 1, 0, 1), (1, 0, 1, 0)]


def test_greedy_runs_on_few_shifts_of_a_dense_set(monkeypatch):
    inst = random_chain_instance(F2, 8, 160, 2, random.Random(71))
    calls, swept = [], []
    greedy, sweep = chains._greedy, inst.sweep

    def counted(masks, vals, c):
        calls.append(1)
        return greedy(masks, vals, c)
    monkeypatch.setattr(chains, "_greedy", counted)
    # the frozen instance holds sweep in its dict
    inst.__dict__["sweep"] = lambda w: swept.append(w) or sweep(w)
    result = best_shift_chain(inst)
    # the best stays below gamma // c, so every shift is visited; a skipped
    # shift reads the heaviest-weight table and is never swept
    assert result.length < 8 // 2
    assert len(calls) < 2 ** 8 / 10
    assert len(swept) == len(calls)
    assert (result.length, result.shift, result.chain) == \
        reference_best_shift(inst, range(2 ** 8))


def test_kept_table_is_the_greedy_bound():
    # 1 at weight top exactly when greedy on a shift whose heaviest vector
    # has that weight could beat a best of `length` vectors
    for gamma in range(1, 21):
        for c in range(1, gamma + 2):
            for length in range(gamma + 1):
                table = chains._kept(c, gamma, length)
                assert table == bytes(
                    top >= c and 1 + (gamma - top) // c > length
                    for top in range(256))
                edge = gamma - length * c  # the bound's edge is kept
                if edge >= c:
                    assert table[edge] == 1


def per_shift_scan(inst):
    """(greedy's shifts, (length, shift, chain)) of the exhaustive scan
    that read each shift's heaviest weight in turn."""
    q, gamma, c = inst.field.q, inst.gamma, inst.c
    ran, best = [], None
    for code in range(q ** gamma):
        masks, vals = inst.sweep(code)
        if best is not None:
            top = max(map(int.bit_count, masks), default=0)
            if top < c or 1 + (gamma - top) // c <= best[0]:
                continue
        ran.append(code)
        vals = chains._greedy(masks, vals, c)
        if best is None or len(vals) > best[0]:
            best = (len(vals), code, tuple(vals))
            if len(vals) >= gamma // c:
                break
    return ran, best


# The chain shapes of the benchmark's exhaustive-oracles workload, at the
# CLI's c = 2
ORACLE_CHAIN_SHAPES = [(F2, 8, 48), (F2, 8, 64), (F2, 8, 128), (F2, 8, 160),
                       (F2, 7, 96), (F2, 7, 112), (F3, 5, 30), (F3, 5, 40),
                       (F3, 5, 200)]


@pytest.mark.parametrize("field, gamma, size", ORACLE_CHAIN_SHAPES,
                         ids=lambda x: getattr(x, "q", x))
def test_scan_runs_greedy_on_the_shifts_of_the_per_shift_loop(
        monkeypatch, field, gamma, size):
    calls = []
    greedy = chains._greedy

    def counted(masks, vals, c):
        calls.append(1)
        return greedy(masks, vals, c)
    for seed in range(8):  # the first instance of the CLI op at each seed
        inst = random_chain_instance(field, gamma, size, 2,
                                     RandomStream(seed, "chain").child(0))
        ran, want = per_shift_scan(inst)
        assert want == reference_best_shift(inst, range(field.q ** gamma))
        calls.clear()
        swept, sweep = [], inst.sweep
        inst.__dict__["sweep"] = lambda w: swept.append(w) or sweep(w)
        with monkeypatch.context() as patch:
            patch.setattr(chains, "_greedy", counted)
            result = best_shift_chain(inst)
        assert (result.length, result.shift, result.chain) == want
        assert swept == ran and len(calls) == len(ran)


def assert_heaviest_matches_sweep(inst):
    q, gamma = inst.field.q, inst.gamma
    table = chains._heaviest(inst)
    assert len(table) == q ** gamma
    for code in range(q ** gamma):
        assert table[code] == max(map(int.bit_count, inst.sweep(code)[0]),
                                  default=0)


@pytest.mark.parametrize("block", [1, 9, chains.TABLE_BLOCK])
@pytest.mark.parametrize("field", [F2, F3, F4, F5, F17],
                         ids=lambda f: f"F{f.q}")
def test_heaviest_table_matches_sweep(monkeypatch, field, block):
    # small blocks send every digit but the lowest through the pass across
    # blocks; odd characteristic tells -a from a
    monkeypatch.setattr(chains, "TABLE_BLOCK", block)
    shapes, plan = [], chains._heaviest_plan
    monkeypatch.setattr(chains, "_heaviest_plan",
                        lambda *shape: shapes.append(shape) or plan(*shape))
    rng = random.Random(59 + field.q)
    for inst in tie_heavy_instances(rng, field, 12):
        assert_heaviest_matches_sweep(inst)
    empty = ChainInstance(field, 2, (), 1)
    assert chains._heaviest(empty) == bytes(field.q ** 2)
    # every table was built from a plan of the patched block size, not from
    # one cached for another
    assert shapes and {block} == {b for _, _, b in shapes}
    assert all(plan(*shape)[1] <= max(block, field.q) for shape in shapes)


@pytest.mark.parametrize("field", [F3, F5, F17], ids=lambda f: f"F{f.q}")
def test_heaviest_table_is_zero_only_at_minus_a(field):
    # A = {a}: a + w is zero exactly at w = -a, and full where w = a != -a
    q = field.q
    a = (1, 2, 1)
    inst = instance(field, 3, [a], 1)
    table = chains._heaviest(inst)
    minus_a = encode(field, 3, [field._neg[x] for x in a])
    assert [w for w in range(q ** 3) if table[w] == 0] == [minus_a]
    assert table[encode(field, 3, a)] == 3


@pytest.mark.parametrize("field, gamma, size", DENSE_SETS,
                         ids=lambda x: getattr(x, "q", x))
def test_heaviest_table_matches_sweep_on_dense_sets(field, gamma, size):
    rng = random.Random(73 + gamma * size)
    for c in (1, 2, 3):
        assert_heaviest_matches_sweep(
            random_chain_instance(field, gamma, size, c, rng))


def test_heaviest_table_across_blocks_at_full_size():
    # 2^14 shifts: four digits across blocks of 4096 lanes
    inst = random_chain_instance(F2, 14, 24, 2, random.Random(79))
    assert_heaviest_matches_sweep(inst)


def test_random_search_guard_bounds_the_digit_steps():
    # 3 vectors and 3 shifts at gamma = 10^6: 3 * 4 * 10^12 digit steps
    with pytest.raises(GuardError, match="random search digit steps"):
        chains.require_search_within(3, 10 ** 6, 3, "random", 3)
    chains.require_search_within(3, 2000, 3, "random", 3)
    steps = MAX_RANDOM_DIGIT_STEPS
    gamma = math.isqrt(steps // 2)  # one vector, one trial: 2 gamma^2
    chains.require_search_within(2, gamma, 1, "random", 1)
    with pytest.raises(GuardError):
        chains.require_search_within(2, gamma + 1, 1, "random", 1)
    inst = random_chain_instance(F3, 400, 3, 2, random.Random(83))
    with pytest.raises(GuardError):
        best_shift_chain(inst, mode="random", trials=steps // (3 * 400 ** 2),
                         rng=random.Random(1))


@pytest.mark.parametrize("q", [3, 4, 5, 7, 16, 17, 1021])
def test_chunk_tables_fixed_size_and_digitwise(q):
    field = field_from_order(q)
    k, sums, supports, negatives = metric._chunk_tables(field)
    size = q ** k
    assert k >= 1
    assert size <= max(q, metric.CHUNK_CODES) < size * q
    assert len(sums) == len(supports) == len(negatives) == size
    assert all(len(row) == size for row in sums)
    if k == 1:
        assert sums is field._add
    rng = random.Random(61)
    for _ in range(200):
        a, b = rng.randrange(size), rng.randrange(size)
        da, db = decode(q, k, a), decode(q, k, b)
        total = tuple(field._add[x][y] for x, y in zip(da, db))
        assert decode(q, k, sums[a][b]) == total
        assert supports[a] == int("".join("1" if x else "0" for x in da), 2)
        assert decode(q, k, negatives[a]) == tuple(field._neg[x] for x in da)


@pytest.mark.parametrize("field", [F3, F4, F5], ids=lambda f: f"F{f.q}")
def test_sweep_chunks_match_the_power_formula(field):
    # The chunks were once read as x // p % base over the powers p of base,
    # top first; peeling them off the low end must give the same sweep.
    rng = random.Random(89 + field.q)
    q = field.q
    k, sums, supports, _ = metric._chunk_tables(field)
    base = q ** k
    for _ in range(12):
        gamma = rng.randint(1, 200)
        codes = {rng.randrange(q ** gamma) for _ in range(rng.randint(0, 6))}
        inst = ChainInstance(field, gamma, codes, 2)
        powers = [base ** i for i in reversed(range(-(-gamma // k)))]
        for w in [0, q ** gamma - 1] + [rng.randrange(q ** gamma)
                                        for _ in range(3)]:
            masks, vals = [0] * inst.size, [0] * inst.size
            for p in powers:
                row = sums[w // p % base]
                low = [row[x // p % base] for x in inst.codes]
                vals = [v * base + d for v, d in zip(vals, low)]
                masks = [m << k | supports[d] for m, d in zip(masks, low)]
            assert inst.sweep(w) == (masks, vals)


@pytest.mark.parametrize("field", [F2, F3, F4, F5], ids=lambda f: f"F{f.q}")
def test_one_search_matches_iterative_deepening(field):
    # The canonically first chain of the longest length up to the cap, at
    # no target, the bound's target, 0 and 1
    rng = random.Random(101 + field.q)
    q = field.q
    top = max(g for g in range(1, 9) if q ** g <= 256)
    for _ in range(40):
        gamma, c = rng.randint(1, top), rng.randint(1, 3)
        size = rng.randint(1, min(q ** gamma, 30))
        inst = random_chain_instance(field, gamma, size, c, rng)
        targets = (None, bound_target(size, q, gamma, c), 0, 1)
        for shift in rng.sample(range(q ** gamma), min(q ** gamma, 4)):
            items = list(zip(*inst.sweep(shift)))
            for target in targets:
                cap = gamma // c if target is None else target
                assert max_chain_exact(inst, shift, target) == \
                    chain_by_deepening(items, gamma, c, cap)


@pytest.mark.parametrize("field", [F3, F4, F5], ids=lambda f: f"F{f.q}")
def test_an_instance_decodes_each_code_once(monkeypatch, field):
    calls = []
    decode_code = metric.vector_from_code
    monkeypatch.setattr(metric, "vector_from_code", lambda q, n, code: (
        calls.append(code) or decode_code(q, n, code)))
    inst = random_chain_instance(field, 5, 40, 2, random.Random(97))
    # the set is cut into columns when the instance is built, no code alone
    assert calls == []
    calls.clear()
    chains._heaviest(inst)
    assert calls == []
    swept, shift = [], inst.sweep
    inst.__dict__["sweep"] = lambda w: swept.append(w) or shift(w)
    for w in range(0, field.q ** 5, 37):
        inst.sweep(w)
    best_shift_chain(inst)
    bound_attainment_report(inst)
    # every later decode is the shift of one sweep
    assert calls == swept and len(swept) > field.q ** 5 // 37
