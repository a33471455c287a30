"""Chains of vectors with steadily growing support inside shifted sets.

Given a set A of vectors over F_q^gamma, a shift w, and a step size c, a
valid chain inside A + w is a sequence in which every vector contributes at
least c coordinates not supported by its predecessors.  The greedy extractor
repeatedly takes the vector adding the most new support (ties broken by
lexicographic, i.e. canonical integer, order).  Greedy can be beaten: a
single full-support vector swallows every coordinate at once, so an exact
search over cover states backs the harness when greedy misses a target.
"""

import math
import operator
from dataclasses import dataclass

from .guards import require_within
from .metric import vector_code, vector_from_code

# Exhaustive shift search sweeps q^gamma shifts; cap here.
MAX_SHIFTS = 2 ** 20


def support(vector):
    """Indices of the nonzero coordinates."""
    return frozenset(i for i, v in enumerate(vector) if v)


def is_increasing_chain(vectors, c):
    """True when every vector adds at least c coordinates of new support."""
    cover = frozenset()
    for v in vectors:
        gain = support(v) - cover
        if len(gain) < c:
            return False
        cover = cover | gain
    return True


@dataclass(frozen=True)
class ChainInstance:
    """A chain search problem: vector set, ambient length, step size."""

    field: "object"
    gamma: int
    vectors: tuple
    c: int

    def __post_init__(self):
        if self.gamma < 1:
            raise ValueError("gamma must be positive")
        if self.c < 1:
            raise ValueError("c must be positive")
        vectors = tuple(sorted(tuple(map(operator.index, v))
                               for v in self.vectors))
        if len(set(vectors)) != len(vectors):
            raise ValueError("vector set contains duplicates")
        q = self.field.q
        for v in vectors:
            if len(v) != self.gamma:
                raise ValueError("vector length does not match gamma")
            if any(not 0 <= x < q for x in v):
                raise ValueError("vector entry outside field range")
        object.__setattr__(self, "vectors", vectors)

    @property
    def size(self):
        return len(self.vectors)


def _shifted_items(instance, shift_code):
    """(support mask, canonical value) per vector of A + w, in set order."""
    q = instance.field.q
    gamma = instance.gamma
    if q == 2:
        # value bits are the support mask directly
        out = []
        for v in instance.vectors:
            val = vector_code(2, v) ^ shift_code
            out.append((val, val))
        return out
    add = instance.field._add
    shift = vector_from_code(q, gamma, shift_code)
    out = []
    for v in instance.vectors:
        # the base-q code of v + w and the base-2 code of its support, in
        # one pass (this loop dominates the chain search)
        mask = 0
        val = 0
        for x, s in zip(v, shift):
            y = add[x][s]
            val = val * q + y
            if y:
                mask |= 1
            mask <<= 1
        out.append((mask >> 1, val))
    return out


def _greedy_masks(items, c):
    """Greedy chain on (mask, val) pairs; returns the chosen vals in order."""
    cover = 0
    chosen = []
    remaining = list(items)
    while True:
        best_gain = c - 1
        best_val = None
        best_idx = -1
        for idx, (mask, val) in enumerate(remaining):
            gain = (mask & ~cover).bit_count()
            if gain > best_gain or (gain == best_gain and best_idx >= 0
                                    and gain >= c and val < best_val):
                best_gain = gain
                best_val = val
                best_idx = idx
        if best_idx < 0 or best_gain < c:
            break
        cover |= remaining[best_idx][0]
        chosen.append(best_val)
        del remaining[best_idx]
    return chosen


def greedy_chain(instance, shift):
    """Greedy chain inside A + shift; returns the shifted vectors picked."""
    shift = tuple(shift)
    if len(shift) != instance.gamma:
        raise ValueError("shift length does not match gamma")
    q = instance.field.q
    items = _shifted_items(instance, vector_code(q, shift))
    vals = _greedy_masks(items, instance.c)
    return [vector_from_code(q, instance.gamma, v) for v in vals]


@dataclass(frozen=True)
class ChainSearchResult:
    shift: tuple
    chain: tuple
    length: int


def best_shift_chain(instance, mode="exhaustive", trials=None, rng=None):
    """Best greedy chain over shifts.

    mode "exhaustive" scans every shift in canonical order (guarded at
    MAX_SHIFTS) and stops early once the ceiling floor(gamma / c) is hit;
    mode "random" tries `trials` uniform shifts from rng.  Either way the
    reported shift is the first one attaining the best length, so results
    are reproducible.
    """
    q = instance.field.q
    gamma = instance.gamma
    cap = gamma // instance.c
    best = None
    if mode == "exhaustive":
        total = q ** gamma
        require_within(total, MAX_SHIFTS, "shift count")
        shift_codes = range(total)
    elif mode == "random":
        if not trials or rng is None:
            raise ValueError("random mode needs trials and rng")
        shift_codes = (rng.randrange(q ** gamma) for _ in range(trials))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    for shift_code in shift_codes:
        items = _shifted_items(instance, shift_code)
        vals = _greedy_masks(items, instance.c)
        if best is None or len(vals) > best[0]:
            best = (len(vals), shift_code, vals)
            if len(vals) >= cap:
                break
    length, shift_code, vals = best
    return ChainSearchResult(
        shift=vector_from_code(q, gamma, shift_code),
        chain=tuple(vector_from_code(q, gamma, v) for v in vals),
        length=length)


def max_chain_exact(instance, shift, target=None):
    """Longest chain inside A + shift by depth-first search over covers.

    The search takes vectors in canonical order and returns the first
    chain of the target length, or [] when none exists; each step adds at
    least c coordinates, so a cover with `free` uncovered coordinates
    extends by at most free // c.  Without a target, the search runs at
    lengths 1, 2, ... and keeps the chain from the last length that
    succeeds: the canonically least longest chain.
    """
    shift = tuple(shift)
    q = instance.field.q
    gamma = instance.gamma
    c = instance.c
    items = sorted(_shifted_items(instance, vector_code(q, shift)),
                   key=lambda mv: mv[1])

    def search(length):
        """The canonically first chain of `length` vectors, or []."""
        chain = []

        def extend(cover, depth):
            if depth >= length:
                return True
            free = gamma - cover.bit_count()
            if depth + free // c < length:
                return False
            for mask, val in items:
                if (mask & ~cover).bit_count() >= c:
                    chain.append(val)
                    if extend(cover | mask, depth + 1):
                        return True
                    chain.pop()
            return False
        extend(0, 0)
        return chain

    if target is not None:
        vals = search(target)
    else:
        vals = []
        while found := search(len(vals) + 1):
            vals = found
    return [vector_from_code(q, gamma, v) for v in vals]


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
    """Outcome of checking one instance against the guaranteed length."""

    bound: float
    target: int
    greedy_length: int
    achieved: bool
    exact_used: bool
    exact_length: int | None
    shift: tuple
    chain: tuple


def bound_attainment_report(instance, mode="exhaustive", trials=None, rng=None):
    """Check the instance against the guaranteed chain length.

    Greedy over shifts first; when greedy falls short of the target the
    exact search takes over, shift by shift, stopping at the first shift
    that reaches the target.  When none does, the bound is violated and
    the report holds the longest exact chain over all shifts.
    """
    q, gamma = instance.field.q, instance.gamma
    bound = chain_length_bound(instance.size, q, gamma, instance.c)
    target = bound_target(instance.size, q, gamma, instance.c)
    greedy = best_shift_chain(instance, mode=mode, trials=trials, rng=rng)
    if greedy.length >= target:
        return BoundReport(bound, target, greedy.length, True, False, None,
                           greedy.shift, greedy.chain)
    total = q ** gamma
    require_within(total, MAX_SHIFTS, "shift count")
    for shift_code in range(total):
        shift = vector_from_code(q, gamma, shift_code)
        chain = max_chain_exact(instance, shift, target=target)
        if len(chain) >= target:
            return BoundReport(bound, target, greedy.length, True, True,
                               len(chain), shift, tuple(chain))
    # no shift attains the target even exactly: a real violation
    best_shift, best_chain = None, ()
    for shift_code in range(total):
        shift = vector_from_code(q, gamma, shift_code)
        chain = tuple(max_chain_exact(instance, shift))
        if len(chain) > len(best_chain):
            best_shift, best_chain = shift, chain
    return BoundReport(bound, target, greedy.length, False, True,
                       len(best_chain), best_shift, best_chain)


def random_chain_instance(field, gamma, set_size, c, rng):
    """A ChainInstance whose vector set is uniform among size-set_size sets."""
    q = field.q
    total = q ** gamma
    if set_size > total:
        raise ValueError(f"set_size {set_size} exceeds space size {total}")
    chosen = set()
    while len(chosen) < set_size:
        chosen.add(rng.randrange(total))
    vectors = tuple(vector_from_code(q, gamma, code) for code in sorted(chosen))
    return ChainInstance(field, gamma, vectors, c)
