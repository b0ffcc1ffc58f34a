"""Exact dyadic arithmetic, checked against fractions.Fraction as oracle."""

import math
from decimal import Decimal, Inexact, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divmart.dyadic import Dyadic, _int_to_decimal

dyadics = st.builds(
    Dyadic,
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=0, max_value=48),
)


def frac(d: Dyadic) -> Fraction:
    return Fraction(d.num, 1 << d.exp)


def test_canonical_form():
    assert Dyadic(4, 2) == Dyadic(1)
    assert Dyadic(4, 2).num == 1 and Dyadic(4, 2).exp == 0
    assert Dyadic(6, 3).num == 3 and Dyadic(6, 3).exp == 2
    assert Dyadic(0, 7).exp == 0
    # negative exp means multiplication by 2**-exp
    assert Dyadic(3, -2) == Dyadic(12)


def test_constructors():
    assert Dyadic.zero() == 0
    assert Dyadic.one() == 1
    assert Dyadic.pow2(3) == 8
    assert Dyadic.pow2(-3) == Dyadic(1, 3)


def test_arithmetic_golden():
    half = Dyadic(1, 1)
    q = Dyadic(1, 2)
    assert half + q == Dyadic(3, 2)
    assert half - q == q
    assert half * q == Dyadic(1, 3)
    assert (half + half) == 1
    assert -q == Dyadic(-1, 2)
    assert abs(Dyadic(-3, 2)) == Dyadic(3, 2)
    assert q.mul_pow2(2) == 1
    assert q.mul_pow2(-1) == Dyadic(1, 3)
    assert Dyadic(3, 1).half() == Dyadic(3, 2)


def test_int_mixing():
    assert Dyadic(1, 1) + 1 == Dyadic(3, 1)
    assert 1 - Dyadic(1, 2) == Dyadic(3, 2)
    assert 2 * Dyadic(1, 1) == 1
    with pytest.raises(TypeError):
        Dyadic(1, 1) + 0.5  # floats never mix in


def test_no_float_conversion():
    # The core is float-free: a Dyadic never becomes a float.
    with pytest.raises(TypeError):
        float(Dyadic(1, 1))


@given(st.integers(-(1 << 70), 1 << 70))
def test_an_integer_hashes_as_the_int_it_equals(k):
    d = Dyadic(k)
    assert d == k and hash(d) == hash(k)
    assert len({d, k}) == 1 and {k: "x"}[d] == "x"
    assert hash(Dyadic(k, 3)) == hash(Dyadic(8 * k, 6))


def test_comparisons():
    assert Dyadic(1, 2) < Dyadic(1, 1) <= Dyadic(2, 2)
    assert Dyadic(1, 1) >= 0
    assert Dyadic(5, 3) > Dyadic(1, 1)
    assert Dyadic(1, 1) != Dyadic(1, 2)


def test_decimal_rendering():
    assert Dyadic(1, 1).decimal() == "0.5"
    assert Dyadic(3, 2).decimal() == "0.75"
    assert Dyadic(-3, 2).decimal() == "-0.75"
    assert Dyadic(5).decimal() == "5"
    assert Dyadic(1, 4).decimal() == "0.0625"
    assert str(Dyadic(3, 2)) == "3/2^2"
    assert str(Dyadic(3)) == "3"


def test_json_round_trip():
    for d in [Dyadic(0), Dyadic(1), Dyadic(-7, 5), Dyadic(12345, 17)]:
        assert Dyadic.from_json(d.to_json()) == d
    with pytest.raises(ValueError):
        Dyadic.from_json({"num": "4", "exp": 2})  # not canonical
    with pytest.raises(ValueError):
        Dyadic.from_json({"num": "1", "exp": -1})


@given(dyadics, dyadics)
def test_add_matches_fraction(a, b):
    assert frac(a + b) == frac(a) + frac(b)


@given(dyadics, dyadics)
def test_sub_matches_fraction(a, b):
    assert frac(a - b) == frac(a) - frac(b)


@given(dyadics, dyadics)
def test_mul_matches_fraction(a, b):
    assert frac(a * b) == frac(a) * frac(b)


@given(dyadics, dyadics)
def test_ordering_matches_fraction(a, b):
    assert (a < b) == (frac(a) < frac(b))
    assert (a == b) == (frac(a) == frac(b))


def order(x, y) -> tuple:
    return (x < y, x <= y, x == y, x != y, x >= y, x > y)


@given(dyadics, dyadics, st.integers(min_value=0, max_value=10**14))
def test_ordering_across_an_exponent_gap_matches_fraction(a, b, gap):
    # b·2^-gap, never shifted to a common exponent with a.  Past a gap of
    # 100 it is below 2^-60 in size (its numerator is at most 2^40), while
    # a nonzero a is at least 2^-48: the order is the order at gap 100,
    # which Fraction can hold.
    far = Dyadic(b.num, b.exp + gap)
    near = Fraction(b.num, 1 << (b.exp + min(gap, 100)))
    assert order(a, far) == order(frac(a), near)
    assert order(far, a) == order(near, frac(a))


@given(
    st.integers(min_value=-(2**40), max_value=2**40).filter(bool),
    st.integers(min_value=0, max_value=48),
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=-(2**40), max_value=2**40),
)
def test_ordering_of_values_with_one_top_bit_matches_fraction(x, e, gap, r):
    # x·2^-e against itself moved by r·2^-(e + gap): the top bits agree
    # unless r is large next to x·2^gap, so the exponents are aligned.
    a = Dyadic(x, e)
    b = Dyadic((x << gap) + r, e + gap)
    assert order(a, b) == order(frac(a), frac(b))
    assert order(b, a) == order(frac(b), frac(a))


@given(dyadics, st.integers(min_value=-30, max_value=30))
def test_mul_pow2_matches_fraction(a, k):
    assert frac(a.mul_pow2(k)) == frac(a) * Fraction(2) ** k


@given(dyadics)
def test_canonical_invariant(a):
    assert a.exp >= 0
    assert a.num % 2 == 1 or (a.num == 0 and a.exp == 0) or a.exp == 0


@given(dyadics)
def test_decimal_is_exact(a):
    assert Fraction(a.decimal()) == frac(a)


def decimal_reference(d: Dyadic) -> str:
    """The rendering with num*5^e built as a Python int, then printed:
    quadratic in the digits, so only for moderate sizes."""
    if d.exp == 0:
        return _int_to_decimal(d.num)
    sign = "-" if d.num < 0 else ""
    digits = _int_to_decimal(abs(d.num) * 5**d.exp).rjust(d.exp + 1, "0")
    return f"{sign}{digits[: -d.exp]}.{digits[-d.exp :]}"


@given(
    st.integers(min_value=-(2**3000), max_value=2**3000),
    st.integers(min_value=0, max_value=4000),
)
@settings(max_examples=60, deadline=None)
def test_decimal_matches_the_integer_reference(num, exp):
    d = Dyadic(num, exp)
    assert d.decimal() == decimal_reference(d)


def test_decimal_of_a_deep_dyadic():
    # λ(G*_2000) of even-zeros: 2^-e = 5^e / 10^e, whose 5^e has D digits.
    e = 2_007_000
    text = Dyadic(1, e).decimal()
    log = e * math.log10(5)
    assert 1e-6 < log % 1 < 1 - 1e-6  # so D is exactly floor(log) + 1
    zeros = e - (math.floor(log) + 1)
    assert len(text) == e + 2
    assert text[: zeros + 2] == "0." + "0" * zeros and text[zeros + 2] != "0"
    assert text[-40:] == str(pow(5, e, 10**40)).rjust(40, "0")
    # 1 - 2^-k: the k fractional digits are those of 10^k - 5^k.
    k = 503_500
    text = Dyadic((1 << k) - 1, k).decimal()
    assert len(text) == k + 2 and text.startswith("0.9999999999")
    assert text[-40:] == str(10**40 - pow(5, k, 10**40)).rjust(40, "0")


def canonical_reference(num: int, exp: int) -> tuple:
    if exp < 0:
        num, exp = num << -exp, 0
    if num == 0:
        return 0, 0
    while num % 2 == 0 and exp > 0:
        num //= 2
        exp -= 1
    return num, exp


@given(
    st.integers(min_value=-(2**80), max_value=2**80),
    st.integers(min_value=0, max_value=120),
    st.integers(min_value=-8, max_value=200),
)
def test_canonical_form_matches_halving(odd, zeros, exp):
    num = odd << zeros
    d = Dyadic(num, exp)
    assert (d.num, d.exp) == canonical_reference(num, exp)


def decimal_value(d: Dyadic) -> Decimal:
    """d as an exact Decimal (the C decimal module has no digit limit)."""
    with localcontext() as ctx:
        ctx.prec = d.num.bit_length() + d.exp + 10
        ctx.traps[Inexact] = True
        return Decimal(d.num) / Decimal(2) ** d.exp


@pytest.mark.parametrize(
    "d",
    [
        Dyadic(1, 20700),
        Dyadic(-(3**9000), 7),
        Dyadic(3**20000),
        Dyadic((1 << 15001) + 1, 15010),
    ],
)
def test_decimal_beyond_the_digit_limit(d):
    text = d.decimal()
    assert Decimal(text) == decimal_value(d)
    assert Decimal(str(d).split("/")[0]) == Decimal(d.num)
    assert repr(d).startswith("Dyadic(")
    if d.exp:
        assert len(text.split(".")[1]) == d.exp


@given(
    st.integers(min_value=0, max_value=2**60),
    st.integers(min_value=0, max_value=20000),
    st.integers(min_value=0, max_value=20050),
)
@settings(max_examples=30, deadline=None)
def test_json_round_trip_beyond_the_digit_limit(low, shift, exp):
    d = Dyadic((low << shift) | 1 if low else -(1 << shift) - 1, exp)
    doc = d.to_json()
    assert Decimal(doc["num"]) == Decimal(d.num)
    back = Dyadic.from_json(doc)
    assert (back.num, back.exp) == (d.num, d.exp)


def test_long_malformed_numerators_are_rejected():
    long = "1" * 3000
    for bad in [long * 2 + "x", "-" * 5000, long + " " + long, "+" + long * 2]:
        with pytest.raises(ValueError):
            Dyadic.from_json({"num": bad, "exp": 0})
