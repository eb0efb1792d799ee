import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cullis import FieldMismatch, FieldSpec, RATIONALS, RectMatrix, ZeroInverse, gf, jsonio
from cullis.fields import MAX_EXPONENT, is_prime


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


@given(st.sampled_from((2, 5, 2 ** 127 - 1)).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(1, p - 1))))
def test_inverse_times_itself_is_one(case):
    p, x = case
    F = gf(p)
    inv = F.element(x).inverse()
    assert type(inv.value) is int and 0 < inv.value < p
    assert F.element(x) * inv == F.one
    with pytest.raises(ZeroInverse):
        F.element(p).inverse()  # p reduces to zero


def test_field_spec_equality_and_interning():
    assert gf(5) is gf(5)
    assert gf(5) == gf(5) and gf(5) != gf(7)
    assert RATIONALS != gf(5)
    assert FieldSpec("prime", 5) is gf(5) and FieldSpec(kind="rational") is RATIONALS
    with pytest.raises(ValueError):
        gf(6)
    with pytest.raises(ValueError):
        gf(1)
    # a rational field with a modulus, a float or bool modulus, a composite, an unknown kind
    for args in (("rational", 5), ("prime", 5.0), ("prime", True), ("prime", 4), ("gfp", 5)):
        with pytest.raises(ValueError):
            FieldSpec(*args)


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


def test_scalar_and_matrix_text_past_the_int_to_str_digit_limit():
    # str and repr fall back to the exact writer of the JSON documents
    big = "1" + "0" * 5000
    x = RATIONALS.element(10 ** 5000)
    assert str(x) == big and repr(x) == big + " in QQ"
    half = RATIONALS.element(Fraction(10 ** 5000 + 1, 2))
    assert str(half) == big[:-1] + "1/2"
    X = RectMatrix.from_rows(RATIONALS, [[10 ** 5000], ["1/3"]])
    assert repr(X) == f"RectMatrix(2x1 over QQ: {big}; 1/3)"
    assert jsonio.matrix_to_dict(X)["entries"] == [[big], ["1/3"]]


def test_field_descriptors_are_refused_with_value_error():
    for d in ({"type": "gfp"}, {"type": "gfp", "p": 4}, {"type": "gfp", "p": "x"},
              {"type": "gfp", "p": 5.0}, {"type": "real"}, {"p": 5}, ["gfp", 5]):
        with pytest.raises(ValueError):
            jsonio.field_from_dict(d)
    with pytest.raises(ValueError, match='needs a modulus "p"'):
        jsonio.field_from_dict({"type": "gfp"})


# -- the one-pass decoder against FieldSpec.element ---------------------------------

_DIGITS = st.text("0123456789", min_size=1, max_size=8)
_EXPONENTS = st.one_of(st.integers(0, 2 * MAX_EXPONENT),
                       st.sampled_from([MAX_EXPONENT, MAX_EXPONENT + 1])).map(str)
_BODIES = st.one_of(
    _DIGITS,
    st.builds("{}_{}".format, _DIGITS, _DIGITS),
    st.builds("{}/{}".format, _DIGITS, _DIGITS),
    st.builds("{}/-{}".format, _DIGITS, _DIGITS),
    st.builds("{}.{}".format, _DIGITS, _DIGITS),
    st.builds("{}{}{}{}".format, _DIGITS, st.sampled_from("eE"),
              st.sampled_from(["", "-", "+", "0"]), _EXPONENTS),
    st.sampled_from(["\u0663", "\u0661\u0662/\u0664", "1/0", "0/0", "00/000", "1__0", "_1", "1_",
                     "", "/", "1/", "/2", "1/2/3", "0x10", "1e", "inf", "nan", ".5", "1.",
                     "9" * (MAX_EXPONENT + 1)]),
)
_SPACES = st.sampled_from(["", " ", "\t", "\n", "\u2003", "\xa0", "\x1c", "\x1f"])


@st.composite
def _numerals(draw):
    """Decimal text: a sign, leading zeros and surrounding whitespace around
    integers, fractions (zero and negative denominators too), underscores,
    non-ASCII digits, decimals and exponents below and above MAX_EXPONENT."""
    sign = draw(st.sampled_from(["", "-", "+", "--"]))
    zeros = draw(st.sampled_from(["", "0", "000"]))
    return draw(_SPACES) + sign + zeros + draw(_BODIES) + draw(_SPACES)


_ENTRIES = st.one_of(_numerals(), st.integers(-10 ** 40, 10 ** 40), st.booleans(),
                     st.floats(allow_nan=False), st.fractions(),
                     st.sampled_from([gf(3).element(1), RATIONALS.element("1/2")]))
_DECODE_FIELDS = [gf(2), gf(10007), gf(2 ** 127 - 1), RATIONALS]


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the class is what must agree
        return type(exc)


@given(st.lists(_ENTRIES, min_size=1, max_size=4))
@example(["\x1c5 ", " -007 ", "1_000", "\u0663"])
@example(["3/-4"])
@example(["1/0"])
@example(["0/0"])
@example(["1e4300", "-2.5E-7"])
@example(["1e4301"])
@example([True, 2, -3])
@example([1.5])
def test_fast_decode_matches_element(row):
    """`FieldSpec.raw_values` and the JSON reader give the values that
    `element` gives entry by entry, or raise the same exception class; the
    reader also refuses booleans and floats."""
    for F in _DECODE_FIELDS:
        want = _outcome(lambda: [F.element(v).value for v in row])
        assert _outcome(lambda: F.raw_values(row)) == want, F
        doc = {"n": 1, "k": len(row), "field": jsonio.field_to_dict(F), "entries": [row]}
        got = _outcome(lambda: list(jsonio.matrix_from_dict(doc).values))
        if any(type(v) not in (int, str) for v in row):
            assert got is ValueError, F
        else:
            assert got == want, F
