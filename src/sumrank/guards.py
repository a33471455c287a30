"""Enumeration guards: every size limit of the package and the checks that
enforce it.

Brute-force paths refuse to run above fixed size limits instead of silently
truncating.  Each cap is priced by plain arithmetic on the shape, before the
work starts; violations raise :class:`GuardError`.  require_int opens the
body of each typed public cache, which a key that is not an int always
reaches.
"""

import math
import operator

# Items one Python sweep walks: block matrices ranked, points of space or of
# a ball, span combinations, codewords, shifts (metric, codes, chains), the
# ell x (deg + 1) coefficients of completion_powers, a verify run's records.
MAX_SWEEP = 2 ** 20
# Products x operand bits x 2,048-bit pieces in one exact count (counting:
# binomial_work, power_work), or summed over a verify sweep; the largest
# counts under it take about 2 s in the CLI on a 2-vCPU VM.
MAX_COUNT_WORK = 2 ** 29
# Block ranks + ball points x (1 + k adds), an add priced by
# metric.code_adder_steps (codes.require_coset_histogram_within); every
# space of at most MAX_SWEEP points fits: q^mn (2 + mn steps) <= 24 * 2^20.
MAX_COSET_STEPS = 2 ** 25
# Set size x (trials + 1) x gamma^2 digit steps (chains.require_search_within)
MAX_RANDOM_DIGIT_STEPS = 2 ** 30
# Field entries one sampler draw builds (require_draw_within).
MAX_ENTRIES = 2 ** 21
# Elimination and product steps of one sampler draw (require_draw_within).
MAX_MATRIX_WORK = 2 ** 25
# Subspaces in one Grassmannian (linalg.enumerate_subspaces).
MAX_GRASSMANNIAN = 10 ** 6
# Field order (galois.FieldSpec); its tables take 4.2 MB and 41 ms at 1024.
MAX_Q = 1024


class GuardError(RuntimeError):
    """An enumeration was requested above its hard size limit."""


def require_int(name, value):
    """value as an int, or ValueError naming it.  A public cache of several
    arguments is typed, so 2.0 misses the entry of 2 and its body, opening
    with this check, refuses it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def require_within(value, limit, what):
    if value > limit:
        try:
            shown = f"= {value}"
        except ValueError:  # past the interpreter's int-to-str digit limit
            shown = f"~ 10^{math.log10(value):.1f}"
        raise GuardError(
            f"{what} {shown} exceeds the enumeration limit {limit}")
    return value


def require_power_within(q, e, limit, what):
    """require_within(q ** e, limit, what) for q >= 2, refusing before q ** e
    is built once e >= limit.bit_length(), as then q^e >= 2^e > limit."""
    if e >= limit.bit_length():
        raise GuardError(
            f"{what} = {q}^{e} exceeds the enumeration limit {limit}")
    return require_within(q ** e, limit, what)


def require_draw_within(entries, work):
    """Refuse one sampler draw past MAX_ENTRIES or MAX_MATRIX_WORK."""
    require_within(entries, MAX_ENTRIES, "entries per draw")
    require_within(work, MAX_MATRIX_WORK, "matrix work per draw")
