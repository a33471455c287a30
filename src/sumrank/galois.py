"""Arithmetic in small finite fields F_{p^e} with table-backed operations.

Elements are canonical indices 0 <= a < q.  The base-p digits of the index
are the coefficients of the representing polynomial, most significant digit
the coefficient of x^(e-1).  With that convention the canonical order
(lexicographic on coefficient lists) is plain integer order: 0 is the zero
element and 1 the multiplicative identity.  Coefficient lists and moduli are
written in descending powers, leading coefficient first.
"""

from itertools import product as _product

# Default irreducible moduli, descending coefficients, for the prime powers
# the built-in table covers.  Verified irreducible at import time.
BUILTIN_MODULI = {
    4: (1, 1, 1),        # x^2 + x + 1
    8: (1, 0, 1, 1),     # x^3 + x + 1
    9: (1, 0, 1),        # x^2 + 1
    16: (1, 0, 0, 1, 1),  # x^4 + x + 1
    25: (1, 0, 2),       # x^2 + 2
    27: (1, 0, 2, 1),    # x^3 + 2x + 1
}

# Table construction is O(q^2); refuse sizes where that stops being cheap.
MAX_Q = 4096


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_rem(num, den, p):
    """Remainder of num mod den over F_p; both ascending coefficient lists."""
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            factor = (c * inv_lead) % p
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - factor * den[j]) % p
    return [c % p for c in num[:dd]] if dd > 0 else []


def _is_irreducible(asc, p):
    """Exhaustive divisor search; asc is the ascending coefficient list."""
    e = len(asc) - 1
    if e < 1:
        return False
    if e == 1:
        return True
    for d in range(1, e // 2 + 1):
        for tail in _product(range(p), repeat=d):
            den = list(tail) + [1]  # monic candidate divisor of degree d
            if all(c == 0 for c in _poly_rem(asc, den, p)):
                return False
    return True


class FieldSpec:
    """A finite field F_{p^e} with precomputed operation tables.

    Construct one directly, or by order with :func:`field_from_order`; the
    modulus is optional when e = 1 or q has a built-in one.  Instances are
    immutable in intent and compare equal when (p, e, modulus) agree.
    """

    __slots__ = ("p", "e", "q", "modulus", "_add", "_mul", "_neg", "_inv")

    def __init__(self, p, e, modulus=None):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if e < 1:
            raise ValueError(f"extension degree e = {e} must be >= 1")
        q = p ** e
        if q > MAX_Q:
            raise ValueError(f"field order {q} exceeds supported maximum {MAX_Q}")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = self._resolve_modulus(p, e, q, modulus)
        self._build_tables()

    @staticmethod
    def _resolve_modulus(p, e, q, modulus):
        if e == 1:
            # F_p needs no extension polynomial; store x for serialization.
            return (1, 0)
        if modulus is None:
            if q in BUILTIN_MODULI:
                return BUILTIN_MODULI[q]
            raise ValueError(
                f"no built-in modulus for q = {q}; pass one explicitly")
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) != e + 1:
            raise ValueError(
                f"modulus needs {e + 1} coefficients, got {len(modulus)}")
        if any(not 0 <= c < p for c in modulus):
            raise ValueError("modulus coefficients must lie in [0, p)")
        if modulus[0] != 1:
            raise ValueError("modulus must be monic (leading coefficient 1)")
        asc = list(reversed(modulus))
        if not _is_irreducible(asc, p):
            raise ValueError(f"modulus {list(modulus)} is reducible over F_{p}")
        return modulus

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        digits = [self._digits(a) for a in range(q)]
        add = []
        for a in range(q):
            da = digits[a]
            add.append(tuple(
                self._from_digits([(x + y) % p for x, y in zip(da, digits[b])])
                for b in range(q)))
        mod_asc = list(reversed(self.modulus))
        mul = []
        for a in range(q):
            da = digits[a]
            row = []
            for b in range(q):
                db = digits[b]
                prod = [0] * (2 * e - 1)
                for i, x in enumerate(da):
                    if x:
                        for j, y in enumerate(db):
                            prod[i + j] = (prod[i + j] + x * y) % p
                rem = _poly_rem(prod, mod_asc, p) if e > 1 else [prod[0] % p]
                rem += [0] * (e - len(rem))
                row.append(self._from_digits(rem))
            mul.append(tuple(row))
        self._add = tuple(add)
        self._mul = tuple(mul)
        neg = [0] * q
        for a in range(q):
            for b in range(q):
                if add[a][b] == 0:
                    neg[a] = b
                    break
        self._neg = tuple(neg)
        inv = [None] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a][b] == 1:
                    inv[a] = b
                    break
        self._inv = tuple(inv)

    def _digits(self, a):
        # ascending: digit i is the coefficient of x^i
        p = self.p
        out = []
        for _ in range(self.e):
            out.append(a % p)
            a //= p
        return out

    def _from_digits(self, digits):
        val = 0
        for c in reversed(digits):
            val = val * self.p + c
        return val

    # -- element arithmetic ------------------------------------------------

    def check(self, a):
        if not (isinstance(a, int) and 0 <= a < self.q):
            raise ValueError(f"{a!r} is not an element index of F_{self.q}")
        return a

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._inv[a]

    def div(self, a, b):
        return self._mul[a][self.inv(b)]

    def elements(self):
        """All q elements in canonical order (0 first, 1 second)."""
        return list(range(self.q))

    def coeffs(self, a):
        """Coefficient list of element a, descending powers."""
        self.check(a)
        return tuple(reversed(self._digits(a)))

    def from_coeffs(self, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != self.e:
            raise ValueError(f"need {self.e} coefficients, got {len(coeffs)}")
        if any(not 0 <= c < self.p for c in coeffs):
            raise ValueError("coefficients must lie in [0, p)")
        return self._from_digits(list(reversed(coeffs)))

    # -- identity and serialization ---------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"FieldSpec(q={self.q}, p={self.p}, e={self.e})"

    def to_json(self):
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, obj):
        e = obj["e"]
        modulus = obj.get("modulus")
        if e == 1:
            modulus = None
        return cls(obj["p"], e, modulus)


def field_from_order(q, modulus=None):
    """Construct the field of order q, factoring q = p^e.

    Raises ValueError when q is not a prime power.
    """
    if q < 2:
        raise ValueError(f"q = {q} is not a prime power")
    p = 2
    while p * p <= q and q % p != 0:
        p += 1
    if q % p != 0:
        p = q  # q itself is prime
    e = 0
    rest = q
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise ValueError(f"q = {q} is not a prime power")
    return FieldSpec(p, e, modulus)
