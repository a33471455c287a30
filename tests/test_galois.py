"""Field arithmetic: axioms exhaustively on small orders, frozen oracles."""

import pytest
from hypothesis import given, strategies as st

from sumrank.galois import (BUILTIN_MODULI, FieldSpec, field_from_order,
                            is_prime)


def test_prime_field_matches_int_arithmetic():
    f = field_from_order(7)
    for a in range(7):
        for b in range(7):
            assert f.add(a, b) == (a + b) % 7
            assert f.mul(a, b) == (a * b) % 7
            assert f.sub(a, b) == (a - b) % 7
        assert f.neg(a) == (-a) % 7


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_field_axioms_exhaustive(q):
    f = field_from_order(q)
    els = list(f.elements())
    assert els == list(range(q))
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)


@pytest.mark.parametrize("q", [4, 9, 8])
def test_distributivity_and_associativity(q):
    f = field_from_order(q)
    els = list(f.elements())
    for a in els:
        for b in els:
            for c in els:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))


def test_inverses_exhaustive():
    for q in (2, 3, 4, 5, 8, 9, 16, 25, 27):
        f = field_from_order(q)
        for a in range(1, q):
            assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        field_from_order(4).inv(0)


def test_gf4_multiplication_table():
    # x^2 + x + 1: elements 0, 1, x, x+1 indexed 0..3
    f = field_from_order(4)
    assert f.mul(2, 2) == 3     # x * x = x + 1
    assert f.mul(2, 3) == 1     # x(x+1) = x^2 + x = 1
    assert f.mul(3, 3) == 2     # (x+1)^2 = x


def test_gf8_frozen_products():
    # x^3 + x + 1: x^3 = x + 1, so 2^3 -> 3 and x^3 * x = x^2 + x
    f = field_from_order(8)
    assert f.mul(f.mul(2, 2), 2) == 3
    assert f.mul(f.mul(f.mul(2, 2), 2), 2) == 6


def test_gf25_frozen_square():
    # x^2 + 2: x * x = -2 = 3
    f = field_from_order(25)
    assert f.mul(5, 5) == 3


def test_coeffs_round_trip_and_order():
    f = field_from_order(27)
    for a in f.elements():
        cs = f.coeffs(a)
        assert len(cs) == 3
        assert f.from_coeffs(cs) == a
    # descending powers, most significant digit first
    assert f.coeffs(9) == (1, 0, 0)
    assert f.coeffs(5) == (0, 1, 2)


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x + 2)(x + 3) over GF(5)
    with pytest.raises(ValueError):
        FieldSpec(5, 2, modulus=(1, 0, 1))
    # non-monic and wrong-degree moduli
    with pytest.raises(ValueError):
        FieldSpec(2, 2, modulus=(2, 1, 1))
    with pytest.raises(ValueError):
        FieldSpec(2, 2, modulus=(1, 1))


def test_alternate_irreducible_modulus_accepted():
    # x^2 + x + 2 is irreducible over GF(3)
    f = FieldSpec(3, 2, modulus=(1, 1, 2))
    assert f != field_from_order(9)
    for a in range(1, 9):
        assert f.mul(a, f.inv(a)) == 1


def test_invalid_orders():
    for q in (0, 1, 6, 10, 12, 4099 * 2):
        with pytest.raises(ValueError):
            field_from_order(q)


def test_order_cap():
    # 2^13 = 8192 exceeds the table-size cap
    with pytest.raises(ValueError):
        FieldSpec(2, 13)


def test_builtin_moduli_are_used():
    for q, modulus in BUILTIN_MODULI.items():
        assert field_from_order(q).modulus == modulus


def test_eq_hash_and_json_round_trip():
    f = field_from_order(9)
    g = FieldSpec.from_json(f.to_json())
    assert f == g and hash(f) == hash(g)
    assert field_from_order(4) != field_from_order(9)


def test_check_rejects_out_of_range():
    f = field_from_order(4)
    for bad in (-1, 4, 100):
        with pytest.raises(ValueError):
            f.check(bad)


@given(st.integers(min_value=2, max_value=200))
def test_is_prime_matches_trial_division(n):
    naive = n >= 2 and all(n % d for d in range(2, n))
    assert is_prime(n) == naive


@given(st.integers(min_value=0, max_value=26), st.integers(min_value=0, max_value=26))
def test_gf27_subtraction_inverts_addition(a, b):
    f = field_from_order(27)
    assert f.sub(f.add(a, b), b) == a
    if b != 0:
        assert f.mul(f.div(a, b), b) == a
