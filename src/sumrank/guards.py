"""Enumeration guards.

Brute-force paths refuse to run above fixed size limits instead of silently
truncating.  Every guarded function documents its limit; violations raise
:class:`GuardError`.
"""

import math


class GuardError(RuntimeError):
    """An enumeration was requested above its hard size limit."""


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
