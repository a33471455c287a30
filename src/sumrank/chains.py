"""Chains of vectors with steadily growing support inside shifted sets.

Given a set A of vectors over F_q^gamma, a shift w, and a step size c, a
valid chain inside A + w is a sequence in which every vector contributes at
least c coordinates not supported by its predecessors.  The greedy extractor
repeatedly takes the vector adding the most new support (ties broken by
lexicographic, i.e. canonical integer, order).  Greedy can be beaten: a
single full-support vector swallows every coordinate at once, so an exact
search over cover states backs the harness when greedy misses a target.

An instance is the sorted base-q codes of A, and shifts and chains are
codes too: nothing here decodes a code.  metric's code_set cuts A once,
and gives each search the masks and codes of A + w per shift and the
heaviest-weight table the codes of -A.
The exhaustive shift search sweeps only the shifts it runs greedy on; it
bounds the others from one table of the heaviest weight in A + w per shift,
a max-plus distance transform over the q-ary Hamming cube.
"""

import functools
import math
from dataclasses import dataclass
from itertools import accumulate, compress, islice, repeat
from operator import and_, eq, index, itemgetter

from . import guards
from .guards import require_power_within, require_within
from .metric import code_set
from .montecarlo import uniform_draws

# The heaviest-weight table is built in ints of at most this many byte lanes
# (or q), so that its temporaries stay small beside the table.
TABLE_BLOCK = 4096


@dataclass(frozen=True)
class ChainInstance:
    """A chain search problem: the sorted codes of A, length, step size.
    sweep(w) gives the support masks and codes of A + w, in set order, and
    neg() the codes of -A: metric's code_set of A, cut once."""

    field: "object"
    gamma: int
    codes: tuple
    c: int

    def __post_init__(self):
        if self.gamma < 1:
            raise ValueError("gamma must be positive")
        if self.c < 1:
            raise ValueError("c must be positive")
        codes = tuple(sorted(map(index, self.codes)))
        if len(set(codes)) != len(codes):
            raise ValueError("vector set contains duplicates")
        if codes and not (0 <= codes[0]
                          and codes[-1] < self.field.q ** self.gamma):
            raise ValueError("vector code outside [0, q^gamma)")
        object.__setattr__(self, "codes", codes)
        shift, neg = code_set(self.field, self.gamma, codes)
        object.__setattr__(self, "sweep", shift)
        object.__setattr__(self, "neg", neg)

    @property
    def size(self):
        return len(self.codes)


def _greedy(masks, vals, c):
    """The codes greedy picks over one shift, one pass over A per step; a
    picked vector's gain drops to 0, so nothing is deleted."""
    cover, chosen = 0, []
    while True:
        gains = list(map(int.bit_count, map(and_, masks, repeat(~cover))))
        best = max(gains, default=0)
        if best < c:
            return chosen
        val = min(compress(vals, map(eq, gains, repeat(best))))
        chosen.append(val)
        cover |= masks[vals.index(val)]


@functools.lru_cache(maxsize=None)
def _heaviest_plan(q, gamma, block):
    """The per-shape constants of _heaviest at TABLE_BLOCK = block: (inner,
    lanes, ones, high, reach, lows), lows[p][t] the lanes whose digit p is
    below t, per digit inside a block."""
    inner = 1  # digits inside a block
    while inner < gamma and q ** (inner + 1) <= block:
        inner += 1
    lanes = q ** inner
    ones = int.from_bytes(b"\1" * lanes, "little")
    reach = (q - 1).bit_length() - 1  # windows of 2^reach <= q - 1 offsets
    turns = {1, q - (1 << reach), *(1 << i for i in range(reach))}
    lows = [{t: int.from_bytes((b"\xff" * (t * q ** p)
                                + bytes((q - t) * q ** p))
                               * (lanes // q ** (p + 1)), "little")
             for t in turns}
            for p in range(inner)]
    return inner, lanes, ones, ones << 7, reach, lows


def _heaviest(instance):
    """bytearray whose entry w is the largest support weight in A + w (0
    when A is empty), for q^gamma <= MAX_SWEEP.

    a + w is nonzero where a_i != -w_i, so that weight is the Hamming
    distance from -a to w, and the table is a max-plus distance transform
    from the codes of -a: for each digit in turn, g[w] = max(g[w], 1 + the
    largest g over the q - 1 codes that differ from w only there).  The
    table is held as ints of TABLE_BLOCK byte lanes or fewer, lane w at
    g[w] + gamma + 1 (lanes below that hold no vector yet), so every lane
    stays under 128.  Inside a block that largest g is read off cyclic turns
    of the digit, doubled to cover its q - 1 offsets by two windows; across
    blocks, from the maxima before and after each block of a group.  The
    lane masks depend on the shape only, and are built once per shape by
    _heaviest_plan.
    """
    q, gamma = instance.field.q, instance.gamma
    inner, lanes, ones, high, reach, lows = _heaviest_plan(q, gamma,
                                                           TABLE_BLOCK)
    bias = gamma + 1

    def lane_max(a, b):
        ge = ((a | high) - b & high) >> 7  # 1 in each lane where a >= b
        return b ^ (a ^ b) & ge * 255

    table = bytearray(q ** gamma)
    for x in instance.neg():
        table[x] = bias
    blocks = [int.from_bytes(table[i:i + lanes], "little")
              for i in range(0, len(table), lanes)]
    for p in range(inner):
        span = q ** p  # lanes between codes one apart in this digit
        low = lows[p]

        def turn(x, t):
            """Lane w of x moved to the code whose digit is t lower, mod q."""
            part = x & low[t]  # the lanes whose digit is below t
            return (x ^ part) >> 8 * t * span | part << 8 * (q - t) * span
        for i, x in enumerate(blocks):
            window = x
            for j in range(reach):
                window = lane_max(window, turn(window, 1 << j))
            others = turn(window, 1)
            if (1 << reach) + 1 < q:
                others = lane_max(others, turn(window, q - (1 << reach)))
            blocks[i] = lane_max(x, others + ones)
    for p in range(gamma - inner):
        stride = q ** p  # blocks between codes one apart in this digit
        for start in range(len(blocks)):
            if start // stride % q == 0:
                group = blocks[start:start + q * stride:stride]
                before = accumulate(group[:-1], lane_max, initial=0)
                after = list(accumulate(group[:0:-1], lane_max, initial=0))
                blocks[start:start + q * stride:stride] = [
                    lane_max(x, lane_max(a, b) + ones)
                    for x, a, b in zip(group, before, reversed(after))]
    for i, x in enumerate(blocks):
        table[i * lanes:(i + 1) * lanes] = x.to_bytes(lanes, "little")
    return table.translate(bytes(bias) + bytes(range(256 - bias)))


def require_search_within(q, gamma, set_size, mode, trials):
    """Raise GuardError when a shift search is past its cap: q^gamma shifts
    when exhaustive; when random, set_size * (trials + 1) * gamma^2 digit
    steps, a sweep of A per shift over numbers of up to gamma digits."""
    if mode == "exhaustive":
        require_power_within(q, gamma, guards.MAX_SWEEP, "shift count")
    else:
        require_within(set_size * (trials + 1) * gamma ** 2,
                       guards.MAX_RANDOM_DIGIT_STEPS,
                       "random search digit steps")


@dataclass(frozen=True)
class ChainSearchResult:
    """The best greedy chain: the shift's code and the chain's codes."""

    shift: int
    chain: tuple
    length: int


def _kept(c, gamma, length):
    """The translate table of the shifts worth greedy once the best chain
    has `length` vectors: 1 at every weight top with c <= top <= gamma -
    length * c, the tops with 1 + (gamma - top) // c > length, else 0."""
    return (bytes(c) + b"\1" * max(0, gamma - length * c - c + 1)).ljust(
        256, b"\0")


def best_shift_chain(instance, mode="exhaustive", trials=None, rng=None):
    """Best greedy chain over shifts.

    mode "exhaustive" scans every shift in canonical order (guarded at
    MAX_SWEEP) and stops early once the ceiling floor(gamma / c) is hit;
    mode "random" tries `trials` uniform shifts from rng.  Either way the
    reported shift is the first one attaining the best length, so results
    are reproducible.

    Greedy's first pick on A + w is a heaviest vector, of support weight
    `top`, and every later pick covers at least c of the gamma - top
    coordinates left, so greedy gives at most 1 + (gamma - top) // c
    vectors (none when top < c).  Only a strictly longer chain replaces
    the best, so a shift whose bound does not exceed the best length is
    skipped without running greedy; the result is the same.  Exhaustive
    mode reads `top` from the instance's heaviest-weight table, built once
    greedy on the first shift falls short of the ceiling: the table
    translated by _kept marks the shifts to sweep, found in turn by
    bytes.find and marked anew only when the best grows.  Random mode,
    whose shifts are few and whose gamma may be far past any table, takes
    `top` from each shift's sweep.  Both are guarded by
    `require_search_within`.
    """
    q = instance.field.q
    gamma = instance.gamma
    c = instance.c
    cap = gamma // c
    if mode == "random":
        if not trials or rng is None:
            raise ValueError("random mode needs trials and rng")
        shift_codes = islice(uniform_draws(q ** gamma, rng), trials)
    elif mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    require_search_within(q, gamma, instance.size, mode, trials)
    if mode == "exhaustive":
        vals = _greedy(*instance.sweep(0), c)
        best = (len(vals), 0, vals)
        if best[0] < cap:
            heaviest, keep, pos = _heaviest(instance), None, 0
            while best[0] < cap:
                keep = keep or heaviest.translate(_kept(c, gamma, best[0]))
                pos = keep.find(1, pos + 1)
                if pos < 0:
                    break
                vals = _greedy(*instance.sweep(pos), c)
                if len(vals) > best[0]:
                    best, keep = (len(vals), pos, vals), None
    else:
        best = None
        for shift_code in shift_codes:
            masks, vals = instance.sweep(shift_code)
            if best is not None:
                top = max(map(int.bit_count, masks), default=0)
                if top < c or 1 + (gamma - top) // c <= best[0]:
                    continue
            vals = _greedy(masks, vals, c)
            if best is None or len(vals) > best[0]:
                best = (len(vals), shift_code, vals)
                if len(vals) >= cap:
                    break
    length, shift_code, vals = best
    return ChainSearchResult(shift=shift_code, chain=tuple(vals),
                             length=length)


def max_chain_exact(instance, shift_code, target=None):
    """The codes of a longest chain inside A + shift, capped at target
    (gamma // c when no target is given), by depth-first search over
    covers; ValueError when shift_code is outside [0, q^gamma).

    One search takes vectors in canonical order and keeps each chain longer
    than the best so far, the canonically first of its length, until one
    reaches the cap.  A step adds at least c coordinates, so a cover with
    `free` uncovered ones is pruned when free // c more cannot beat the best.
    """
    gamma, c = instance.gamma, instance.c
    if not 0 <= index(shift_code) < instance.field.q ** gamma:
        raise ValueError(f"shift code {shift_code} outside [0, q^gamma)")
    cap = gamma // c if target is None else target
    items = sorted(zip(*instance.sweep(shift_code)), key=itemgetter(1))
    best, chain = [], []

    def extend(cover):
        """Whether a chain of cap vectors is found below this cover."""
        if len(chain) + (gamma - cover.bit_count()) // c <= len(best):
            return False
        for mask, val in items:
            if (mask & ~cover).bit_count() >= c:
                chain.append(val)
                if len(chain) > len(best):
                    best[:] = chain
                if len(best) >= cap or extend(cover | mask):
                    return True
                chain.pop()
        return False
    if cap > 0:
        extend(0)
    return best


def chain_length_bound(set_size, q, gamma, c):
    """Guaranteed chain length over the best shift:
    (1/c) log_q(|A|/2) - (1 - 1/c) log_q((q-1) gamma)."""
    if set_size < 1 or gamma < 1 or c < 1 or q < 2:
        raise ValueError("need set_size, gamma, c >= 1 and q >= 2")
    return (math.log(set_size / 2, q) / c
            - (1 - 1 / c) * math.log((q - 1) * gamma, q))


def bound_target(set_size, q, gamma, c):
    """The integer length the bound demands, never negative; a hair of
    float slack keeps exact-integer bounds from rounding up."""
    return max(0, math.ceil(chain_length_bound(set_size, q, gamma, c) - 1e-9))


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking one instance against the guaranteed length; the
    shift and the chain are codes; achieved is None when undecided."""

    bound: float
    target: int
    greedy_length: int
    achieved: bool | None
    exact_used: bool
    exact_length: int | None
    shift: int
    chain: tuple


def bound_attainment_report(instance, mode="exhaustive", trials=None, rng=None):
    """Check the instance against the guaranteed chain length.

    Greedy over shifts first; when greedy falls short of the target the
    exact search, capped at the target, takes over shift by shift.  It keeps
    the first longest chain and stops at the first shift that reaches the
    target; when none does, the bound is violated and the report holds the
    longest exact chain over all shifts.  Past MAX_SWEEP shifts (random mode
    only) it is skipped, and the instance is undecided.
    """
    q, gamma = instance.field.q, instance.gamma
    bound = chain_length_bound(instance.size, q, gamma, instance.c)
    target = bound_target(instance.size, q, gamma, instance.c)
    greedy = best_shift_chain(instance, mode=mode, trials=trials, rng=rng)
    if greedy.length >= target or q ** gamma > guards.MAX_SWEEP:
        return BoundReport(bound, target, greedy.length,
                           greedy.length >= target or None, False, None,
                           greedy.shift, greedy.chain)
    best_shift, best = None, ()
    for shift_code in range(q ** gamma):
        chain = tuple(max_chain_exact(instance, shift_code, target=target))
        if len(chain) > len(best):
            best_shift, best = shift_code, chain
            if len(chain) >= target:
                break
    return BoundReport(bound, target, greedy.length, len(best) >= target,
                       True, len(best), best_shift, best)


def random_chain_instance(field, gamma, set_size, c, rng):
    """A ChainInstance whose code set is uniform among size-set_size sets."""
    if gamma < 1:
        raise ValueError("gamma must be positive")
    if set_size < 1:
        raise ValueError("set_size must be positive")
    total = field.q ** gamma
    if set_size > total:
        raise ValueError(f"set_size {set_size} exceeds space size {total}")
    draws = uniform_draws(total, rng)
    chosen = set()
    # Only the draws still missing: the set fills at the last of them at
    # the earliest, so one randrange per draw would make each of them too.
    while len(chosen) < set_size:
        chosen.update(islice(draws, set_size - len(chosen)))
    return ChainInstance(field, gamma, chosen, c)
