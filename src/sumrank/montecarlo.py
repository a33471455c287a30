"""Deterministic random streams and Monte Carlo result containers.

Streams are ordinary ``random.Random`` generators whose state is keyed by a
path of ints and strings: the key text joins the parts' reprs with "/", and
the Mersenne Twister is seeded with the SHA-256 digest of that text read as
a big-endian int.  A stream derived as ``RandomStream(master_seed).child(i)``
depends only on the key path, never on draw order elsewhere, so per-trial
streams partition identically no matter how trials are scheduled.  A child
extends its parent's key text by its own parts' reprs and seeds the C-level
generator once, so deriving it never re-joins the parent's path.  Reruns
with the same master seed are byte reproducible; matching another language
port bit for bit is a non-goal, the derivation scheme is what ports should
copy.
"""

import _random
import hashlib
import math
import random
from dataclasses import dataclass
from itertools import repeat

# Master seed used by the command line harness unless --seed is given.
DEFAULT_MASTER_SEED = 1729

# z for a central 95% normal interval.
_Z95 = 1.959963984540054


class RandomStream(random.Random):
    """random.Random keyed by a path of ints/strings, with child derivation."""

    def __new__(cls, *key):
        # the C-level __new__ only accepts a single seed argument
        return super().__new__(cls)

    def __init__(self, *key):
        self._derive((), "", key)

    def child(self, *indices):
        """Derive an independent stream for a sub-task, e.g. a trial index."""
        stream = _random.Random.__new__(RandomStream)
        stream._derive(self._key, self._text, indices)
        return stream

    def _derive(self, key, text, parts):
        """Key this stream by key + parts, given key's text, and seed it as
        random.Random.__init__ seeds from an int."""
        for part in parts:
            if not isinstance(part, (int, str)):
                raise TypeError(f"stream key parts must be int or str, got {part!r}")
        own = "/".join(map(repr, parts))
        self._key = key + parts
        self._text = text + "/" + own if text and own else text or own
        digest = hashlib.sha256(self._text.encode("utf-8")).digest()
        _random.Random.seed(self, int.from_bytes(digest, "big"))
        self.gauss_next = None

    @property
    def key(self):
        return self._key


def uniform_draws(total, rng):
    """Endless uniform draws from range(total), total >= 1, that take the
    generator words rng.randrange(total) takes: randrange redraws
    getrandbits(total.bit_length()) while the word is at least total.
    Read it with islice, which pulls no word past the last draw it takes."""
    return filter(total.__gt__,
                  map(rng.getrandbits, repeat(total.bit_length())))


def wilson_interval(successes, trials, z=_Z95):
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    # at the boundary the limit is exactly the endpoint; rounding would
    # otherwise leave a sub-epsilon residue above 0 (or below 1)
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return (low, high)


@dataclass(frozen=True)
class EstimateResult:
    """A binomial Monte Carlo estimate with its 95% Wilson interval."""

    successes: int
    trials: int
    estimate: float
    ci_low: float
    ci_high: float
    mean_value: float | None = None

    @classmethod
    def from_counts(cls, successes, trials, value_total=None):
        low, high = wilson_interval(successes, trials)
        mean = None if value_total is None else value_total / trials
        return cls(successes, trials, successes / trials, low, high, mean)

