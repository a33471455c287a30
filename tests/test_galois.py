"""Field arithmetic: axioms exhaustively on small orders, frozen oracles."""

import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, strategies as st

from sumrank.galois import FieldSpec, field_from_order
from sumrank.guards import MAX_Q

# The hand-written moduli the first-irreducible rule replaced, descending
# coefficients; the rule must pick exactly these.
FORMER_BUILTIN_MODULI = {
    4: (1, 1, 1),        # x^2 + x + 1
    8: (1, 0, 1, 1),     # x^3 + x + 1
    9: (1, 0, 1),        # x^2 + 1
    16: (1, 0, 0, 1, 1),  # x^4 + x + 1
    25: (1, 0, 2),       # x^2 + 2
    27: (1, 0, 2, 1),    # x^3 + 2x + 1
}


def reference_tables(f):
    """(add, mul, neg, inv) of f built pair by pair with polynomial
    arithmetic on base-p digits, reducing by f's modulus: O(q^2 e^2)."""
    p, e, q = f.p, f.e, f.q
    digits = [[a // p ** i % p for i in range(e)] for a in range(q)]

    def value(ds):  # ascending digits to element index
        return sum(c * p ** i for i, c in enumerate(ds))

    mod_asc = f.modulus[::-1]
    add = [tuple(value([(x + y) % p for x, y in zip(da, db)])
                 for db in digits) for da in digits]
    mul = []
    for da in digits:
        row = []
        for db in digits:
            prod = [0] * (2 * e - 1)
            for i, x in enumerate(da):
                for j, y in enumerate(db):
                    prod[i + j] += x * y
            for i in range(2 * e - 2, e - 1, -1):  # x^e = -(lower terms)
                c = prod[i] % p
                for j in range(e + 1):
                    prod[i - e + j] -= c * mod_asc[j]
            row.append(value([c % p for c in prod[:e]]))
        mul.append(tuple(row))
    neg = tuple(next(b for b in range(q) if add[a][b] == 0) for a in range(q))
    inv = (None,) + tuple(next(b for b in range(q) if mul[a][b] == 1)
                          for a in range(1, q))
    return tuple(add), tuple(mul), neg, inv


def prime_powers(limit):
    """(p, e) of every prime power p^e <= limit."""
    out = []
    for p in range(2, limit + 1):
        if all(p % d for d in range(2, p)):
            e = 1
            while p ** e <= limit:
                out.append((p, e))
                e += 1
    return out


def test_prime_field_matches_int_arithmetic():
    f = field_from_order(7)
    for a in range(7):
        for b in range(7):
            assert f._add[a][b] == (a + b) % 7
            assert f._mul[a][b] == (a * b) % 7
            assert f._add[a][f._neg[b]] == (a - b) % 7
        assert f._neg[a] == (-a) % 7


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_field_axioms_exhaustive(q):
    f = field_from_order(q)
    els = range(q)
    for a in els:
        assert f._add[a][0] == a
        assert f._mul[a][1] == a
        assert f._mul[a][0] == 0
        assert f._add[a][f._neg[a]] == 0
        for b in els:
            assert f._add[a][b] == f._add[b][a]
            assert f._mul[a][b] == f._mul[b][a]


@pytest.mark.parametrize("q", [4, 9, 8])
def test_distributivity_and_associativity(q):
    f = field_from_order(q)
    add, mul = f._add, f._mul
    els = range(q)
    for a in els:
        for b in els:
            for c in els:
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert add[add[a][b]][c] == add[a][add[b][c]]


def test_inverses_exhaustive():
    for q in (2, 3, 4, 5, 8, 9, 16, 25, 27):
        f = field_from_order(q)
        for a in range(1, q):
            assert f._mul[a][f._inv[a]] == 1
        assert f._inv[0] is None


def test_gf4_multiplication_table():
    # x^2 + x + 1: elements 0, 1, x, x+1 indexed 0..3
    f = field_from_order(4)
    assert f._mul[2][2] == 3     # x * x = x + 1
    assert f._mul[2][3] == 1     # x(x+1) = x^2 + x = 1
    assert f._mul[3][3] == 2     # (x+1)^2 = x


def test_gf8_frozen_products():
    # x^3 + x + 1: x^3 = x + 1, so 2^3 -> 3 and x^3 * x = x^2 + x
    f = field_from_order(8)
    assert f._mul[f._mul[2][2]][2] == 3
    assert f._mul[f._mul[f._mul[2][2]][2]][2] == 6


def test_gf25_frozen_square():
    # x^2 + 2: x * x = -2 = 3
    f = field_from_order(25)
    assert f._mul[5][5] == 3


def test_coeffs_round_trip_and_order():
    f = field_from_order(27)
    for a in range(27):
        cs = f.coeffs(a)
        assert len(cs) == 3
        assert cs[0] * 9 + cs[1] * 3 + cs[2] == a
    # descending powers, most significant digit first
    assert f.coeffs(9) == (1, 0, 0)
    assert f.coeffs(5) == (0, 1, 2)


def test_invalid_orders():
    for q in (0, 1, 6, 10, 12, 4099 * 2):
        with pytest.raises(ValueError):
            field_from_order(q)


def test_order_cap():
    # 2^13 = 8192 exceeds the table-size cap, and so does 1031, the smallest
    # prime power above MAX_Q = 1024
    with pytest.raises(ValueError):
        FieldSpec(2 ** 13)
    with pytest.raises(ValueError):
        field_from_order(1031)


@pytest.mark.parametrize("q, message", [
    (6, "q = 6 is not a prime power"),
    (2 * 1031, "q = 2062 is not a prime power"),
    (2048, "field order 2048 exceeds supported maximum 1024"),
    # no prime factor up to the cap: the factoring stops there
    (2 ** 89 - 1, "field order 618970019642690137449562111 exceeds "
                  "supported maximum 1024"),
    (1031 * 1033, "field order 1065023 exceeds supported maximum 1024"),
])
def test_order_errors_check_the_prime_power_before_the_cap(q, message):
    with pytest.raises(ValueError) as exc:
        FieldSpec(q)
    assert str(exc.value) == message


def test_builtin_moduli_are_used():
    for q, modulus in FORMER_BUILTIN_MODULI.items():
        assert field_from_order(q).modulus == modulus


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27, 32, 49, 64, 81,
                               125, 127, 243, 256])
def test_tables_match_reference_build(q):
    f = field_from_order(q)
    assert (tuple(map(tuple, f._add)), tuple(map(tuple, f._mul)), f._neg,
            f._inv) == reference_tables(f)


@pytest.mark.parametrize("q, kind", [(2, bytes), (256, bytes), (257, array),
                                     (1021, array)])
def test_table_rows_are_bytes_up_to_256_and_uint16_above(q, kind):
    f = FieldSpec(q)  # not field_from_order: keep no field alive
    for table in (f._add, f._mul):
        assert type(table) is tuple and len(table) == q
        assert {type(row) for row in table} == {kind}
        assert {len(row) for row in table} == {q}
        if kind is array:
            assert {row.typecode for row in table} == {"H"}
    assert type(f._neg) is tuple and type(f._inv) is tuple


def test_largest_prime_field_peaks_under_5_mb():
    # two tables of 16-bit rows hold 4.3 MB; the build adds one row's gather
    tracemalloc.start()
    try:
        FieldSpec(1021)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 10 ** 6


def test_every_order_up_to_the_cap_builds():
    orders = prime_powers(MAX_Q)
    assert len(orders) == 198
    for p, e in orders:
        f = FieldSpec(p ** e)  # not field_from_order: keep no field alive
        q, add, mul, neg = f.q, f._add, f._mul, f._neg
        assert len(add) == len(mul) == q
        rng = random.Random(q)
        for _ in range(64):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
            assert add[add[a][b]][c] == add[a][add[b][c]]
            assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
            assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
            assert add[a][0] == a and mul[a][1] == a
            assert add[a][neg[a]] == 0
            if a:
                assert mul[a][f._inv[a]] == 1


def test_field_from_order_builds_once():
    assert field_from_order(32) is field_from_order(32)


def test_eq_hash_and_json_round_trip():
    f = field_from_order(9)
    g = FieldSpec(f.q)
    assert f == g and hash(f) == hash(g)
    assert field_from_order(4) != field_from_order(9)


@pytest.mark.parametrize("q", [2, 16, 27, 127])
def test_a_fresh_field_equals_the_cached_one(q):
    f, g = field_from_order(q), FieldSpec(q)
    assert f is not g and f == g and hash(f) == hash(g) == hash(FieldSpec(q))
    assert f == f and not f != g
    assert all(f != field_from_order(r) and g != FieldSpec(r)
               for r in (2, 16, 27, 127) if r != q)


def test_check_rejects_out_of_range():
    f = field_from_order(4)
    for bad in (-1, 4, 100):
        with pytest.raises(ValueError):
            f.check(bad)


@given(st.integers(min_value=0, max_value=26), st.integers(min_value=0, max_value=26))
def test_gf27_subtraction_inverts_addition(a, b):
    f = field_from_order(27)
    assert f._add[f._add[a][b]][f._neg[b]] == a
    if b != 0:
        assert f._mul[f._mul[a][f._inv[b]]][b] == a
