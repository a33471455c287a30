"""Arithmetic in small finite fields F_{p^e} with table-backed operations.

Elements are canonical indices 0 <= a < q.  The base-p digits of the index
are the coefficients of the representing polynomial, most significant digit
the coefficient of x^(e-1).  With that convention the canonical order
(lexicographic on coefficient lists) is plain integer order: 0 is the zero
element and 1 the multiplicative identity.  Coefficient lists and moduli are
written in descending powers, leading coefficient first.

A field is its order.  All fields of order q are isomorphic, so no count
depends on the representation: the modulus of F_{p^e} is always the
lexicographically first monic irreducible of degree e, x for a prime field.
The tables rest on F_q* being cyclic (Lidl and Niederreiter, *Finite
Fields*, ch. 2): with g primitive, g^i * g^j = g^(i+j), so each row of the
multiplication table is a rotation of the powers of g read in log order.
Addition is digit-wise mod p, so row a of the addition table is row a - p^k
read through the translation by p^k, where p^k is a's lowest nonzero digit
place.
"""

import functools
from itertools import product as _product
from operator import itemgetter

# Two q x q tables of pointers to q shared ints take 16 q^2 bytes: 17 MB at
# q = 1024, built in about 0.1 s, but 270 MB at q = 4096.
MAX_Q = 1024


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


def _first_irreducible(p, e):
    """The lexicographically first monic irreducible of degree e over F_p."""
    for tail in _product(range(p), repeat=e):
        if _is_irreducible([*reversed(tail), 1], p):
            return (1, *tail)


class FieldSpec:
    """The finite field F_q, q = p^e, with precomputed operation tables.

    The order is the only argument: the modulus is the lexicographically
    first monic irreducible of degree e (descending coefficients).  Each
    call builds fresh tables; :func:`field_from_order` builds each order
    once per process.  Instances are immutable in intent and compare equal
    when (p, e, modulus) agree.
    """

    __slots__ = ("p", "e", "q", "modulus", "_add", "_mul", "_neg", "_inv")

    def __init__(self, q):
        if q < 2:
            raise ValueError(f"q = {q} is not a prime power")
        p = 2
        while p * p <= q and p <= MAX_Q and q % p != 0:
            p += 1
        if q % p != 0:
            p = q  # q is prime, or has no factor up to MAX_Q and exceeds it
        e = 0
        rest = q
        while rest % p == 0:
            rest //= p
            e += 1
        if rest != 1:
            raise ValueError(f"q = {q} is not a prime power")
        if q > MAX_Q:
            raise ValueError(f"field order {q} exceeds supported maximum {MAX_Q}")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = _first_irreducible(p, e)
        self._build_tables()

    def _build_tables(self):
        p, q = self.p, self.q
        els = list(range(q))  # every table entry is one of these objects
        add = [tuple(els)]
        shift = {}  # p^k -> gather that reads a row through + p^k
        for a in range(1, q):
            u = 1
            while a // u % p == 0:
                u *= p
            if a == u:  # + p^k steps digit k up mod p, with no carry
                add.append(tuple(els[b + u - u * p if b // u % p == p - 1
                                     else b + u] for b in range(q)))
                shift[u] = itemgetter(*add[a])
            else:
                add.append(shift[u](add[a - u]))
        exp = self._powers_of_primitive(els)
        log = [0] * q
        for i, a in enumerate(exp):
            log[a] = i
        by_log = itemgetter(0, *(1 + log[b] for b in range(1, q)))
        mul = [(0,) * q]
        mul += [by_log((0,) + exp[log[a]:] + exp[:log[a]])
                for a in range(1, q)]
        self._add = tuple(add)
        self._mul = tuple(mul)
        self._neg = tuple(els[row.index(0)] for row in add)
        self._inv = (None,) + tuple(els[row.index(1)] for row in mul[1:])

    def _powers_of_primitive(self, els):
        """(g^0, ..., g^(q-2)) for the smallest primitive element g."""
        p, e, q = self.p, self.e, self.q
        mod_asc = list(reversed(self.modulus))
        one = self._digits(1)
        for g in range(1, q):
            dg = self._digits(g)
            powers, cur = [], one
            while True:
                powers.append(els[self._from_digits(cur)])
                prod = [0] * (2 * e - 1)
                for i, x in enumerate(cur):
                    for j, y in enumerate(dg):
                        prod[i + j] += x * y
                cur = _poly_rem(prod, mod_asc, p)
                if cur == one:
                    break
            if len(powers) == q - 1:
                return tuple(powers)

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

    def elements(self):
        """All q elements in canonical order (0 first, 1 second)."""
        return list(range(self.q))

    def coeffs(self, a):
        """Coefficient list of element a, descending powers."""
        self.check(a)
        return tuple(reversed(self._digits(a)))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"FieldSpec(q={self.q}, p={self.p}, e={self.e})"


@functools.lru_cache(maxsize=None)
def field_from_order(q):
    """The field of order q, built once per process.

    Raises ValueError when q is not a prime power up to MAX_Q.
    """
    return FieldSpec(q)
