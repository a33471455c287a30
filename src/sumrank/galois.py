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
Addition is digit-wise mod p: with c p^k the leading digit term of a, row a
of the addition table is row a - c p^k with every block of p^(k+1) entries
rotated left by c p^k places, as adding c p^k turns digit k alone.

Table layout: ``_add`` and ``_mul`` are tuples of q rows, row a holding
a + b (a * b) at index b.  A row is ``bytes`` when q <= 256 and
``array('H')`` above, so each table takes about q^2 bytes up to q = 256 and
2 q^2 above; both row types read by ``[]`` and ``.index``.  ``_neg`` and
``_inv`` are tuples, ``_inv[0]`` None.
"""

import functools
import sys
from array import array
from itertools import product as _product
from operator import itemgetter

from . import guards


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
    when (p, e, modulus) agree; the hash of that triple is taken once, as
    the cache keys of the callers hash the field on every lookup.
    """

    __slots__ = ("p", "e", "q", "modulus", "_hash",
                 "_add", "_mul", "_neg", "_inv")

    def __init__(self, q):
        if q < 2:
            raise ValueError(f"q = {q} is not a prime power")
        p = 2
        while p * p <= q and p <= guards.MAX_Q and q % p != 0:
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
        if q > guards.MAX_Q:
            raise ValueError(
                f"field order {q} exceeds supported maximum {guards.MAX_Q}")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = _first_irreducible(p, e)
        self._hash = hash((p, e, self.modulus))
        self._build_tables()

    def _build_tables(self):
        p, q = self.p, self.q
        els = tuple(range(q))  # every neg and inv entry is one of these
        if q <= 256:
            row, width = bytes, 1
        else:  # [:] copies without the spare room that frombytes leaves
            row, width = (lambda data: array("H", data)[:]), 2
        # element a as the bytes of one row entry
        cells = tuple(a.to_bytes(width, sys.byteorder) for a in els)
        add = [row(b"".join(cells))]
        u = 1  # p^k, the place of the leading digit of a
        for a in range(1, q):
            if a == u * p:
                u = a
            # a = lead + rest with lead = c p^k: row a is row rest with each
            # block of p^(k+1) entries rotated left by lead
            rest, lead, block = add[a % u], a - a % u, u * p
            add.append(row(b"".join([  # one join: linear in q at any block
                piece for s in range(0, q, block)
                for piece in (rest[s + lead:s + block], rest[s:s + lead])])))
        exp = self._powers_of_primitive(els)
        log = [0] * q
        for i, a in enumerate(exp):
            log[a] = i
        by_log = itemgetter(0, *(1 + log[b] for b in range(1, q)))
        powers = tuple(map(cells.__getitem__, exp))
        # row a is the powers of g from g^log(a) on, entry b at log(b)
        mul = [row(cells[0] * q)]
        mul += [row(b"".join(by_log((cells[0],) + powers[log[a]:]
                                    + powers[:log[a]])))
                for a in range(1, q)]
        self._add = tuple(add)
        self._mul = tuple(mul)
        self._neg = tuple(map(els.__getitem__, mul[p - 1]))  # times -1
        # 1 / g^i = g^(q - 1 - i), which is exp[-i]
        self._inv = (None,) + tuple(exp[-log[a]] for a in range(1, q))

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

    def coeffs(self, a):
        """Coefficient list of element a, descending powers."""
        self.check(a)
        return tuple(reversed(self._digits(a)))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FieldSpec)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FieldSpec(q={self.q}, p={self.p}, e={self.e})"


@functools.lru_cache(maxsize=None)
def field_from_order(q):
    """The field of order q, built once per process.

    Raises ValueError when q is not a prime power up to MAX_Q.
    """
    return FieldSpec(q)
