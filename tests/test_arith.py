import pytest

from locring.arith import QQ, PrimeField, PrimeFieldElement, Rational, is_prime
from locring.errors import DivisionByZero, FieldMismatch


def test_is_prime_small():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(91)


def test_rational_field_basics():
    assert QQ.from_int(3) == Rational(3)
    assert QQ.from_fraction(2, 4) == Rational(1, 2)
    with pytest.raises(DivisionByZero):
        QQ.from_fraction(1, 0)


def test_prime_field_arithmetic():
    F = PrimeField(7)
    a = F.from_int(3)
    b = F.from_int(5)
    assert a + b == F.from_int(1)
    assert a - b == F.from_int(5)
    assert a * b == F.from_int(1)
    assert a / b == a * b.inverse()
    assert -a == F.from_int(4)
    assert (a * a.inverse()) == F.one()


def test_prime_field_inverse_of_zero():
    F = PrimeField(5)
    with pytest.raises(DivisionByZero):
        F.from_int(0).inverse()


def test_prime_field_modulus_mismatch():
    a = PrimeFieldElement(1, 5)
    b = PrimeFieldElement(1, 7)
    with pytest.raises(FieldMismatch):
        a + b


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_fermat_inverse_all_elements():
    F = PrimeField(11)
    for v in range(1, 11):
        a = F.from_int(v)
        assert a * a.inverse() == F.one()
