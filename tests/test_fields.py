import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cullis import FieldMismatch, RATIONALS, ZeroInverse, gf
from cullis.fields import is_prime


def test_inverse_examples():
    assert gf(5).element(2).inverse() == gf(5).element(3)
    assert gf(7).element(1).inverse() == gf(7).element(1)
    assert RATIONALS.element("3/4").inverse() == RATIONALS.element("4/3")
    assert RATIONALS.element(1).inverse().value == Fraction(1)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroInverse):
        gf(3).element(0).inverse()
    with pytest.raises(ZeroInverse):
        RATIONALS.element(0).inverse()


def test_field_spec_equality_and_interning():
    assert gf(5) is gf(5)
    assert gf(5) == gf(5) and gf(5) != gf(7)
    assert RATIONALS != gf(5)
    with pytest.raises(ValueError):
        gf(6)
    with pytest.raises(ValueError):
        gf(1)


def test_primality_check():
    primes = {2, 3, 5, 7, 101, 10007}
    for n in range(2, 150):
        expected = all(n % d for d in range(2, n))
        assert is_prime(n) == expected
    for p in primes:
        assert is_prime(p)


def test_canonical_forms_and_hashing():
    a = RATIONALS.element("2/4")
    assert a.value == Fraction(1, 2)
    b = RATIONALS.element(Fraction(-3, -6))
    assert a == b and hash(a) == hash(b)
    c = gf(5).element(-1)
    assert c.value == 4
    assert len({gf(5).element(7), gf(5).element(2)}) == 1


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(FieldMismatch):
        gf(5).element(1) + gf(7).element(1)
    with pytest.raises(FieldMismatch):
        RATIONALS.element(1) * gf(5).element(1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_axioms_exhaustive_small(p):
    F = gf(p)
    elems = [F.element(v) for v in range(p)]
    zero, one = F.zero, F.one
    for a, b, c in product(elems, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
    for a in elems:
        assert a + zero == a and a * one == a
        assert a + (-a) == zero
        if a.value:
            assert a * a.inverse() == one


def test_field_axioms_sampled_large_prime():
    F = gf(101)
    rng = random.Random(42)
    for _ in range(300):
        a, b, c = (F.random_element(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        if a.value:
            assert a * a.inverse() == F.one


@given(st.fractions(), st.fractions())
def test_rational_arithmetic_matches_fraction(x, y):
    a, b = RATIONALS.element(x), RATIONALS.element(y)
    assert (a + b).value == x + y
    assert (a * b).value == x * y
    assert (a - b).value == x - y


def test_scalar_string_forms():
    assert str(gf(11).element(13)) == "2"
    assert str(RATIONALS.element(Fraction(-4, 6))) == "-2/3"
    assert str(RATIONALS.element(3)) == "3"
