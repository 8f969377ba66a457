import decimal
import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehrenfest import exact
from ehrenfest.exact import (
    Jet,
    expm1_rational,
    format_rational,
    format_significant,
    jet_from_derivatives,
    lambda_to_u,
)

import reference

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=40)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if b != 0:
        assert a * b / b == a


@given(rationals)
def test_serialization_roundtrip(q):
    text = format_rational(q)
    assert F(text) == q
    if q.denominator == 1:
        assert "/" not in text


def _decimal_rendering(value):
    """``num/den`` with each integer rendered by ``Decimal``, which no digit limit bounds."""
    q = F(value)
    num = str(decimal.Decimal(q.numerator))
    return num if q.denominator == 1 else f"{num}/{decimal.Decimal(q.denominator)}"


@pytest.mark.parametrize("limit", [4300, 640, 0])  # the default digit limit, its least value, and none
def test_format_rational_renders_what_decimal_renders_on_both_sides_of_the_digit_limit(limit):
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        values = [0, True, False, -1, F(-3, 4)]
        for digits in (639, 640, 641, 4299, 4300, 4301, 25140):
            n = 7 * 10 ** (digits - 1) + 3  # ``digits`` digits, prime to 2 and 5
            values += [n, -n, F(n, 2**1000), F(-(2**1000), n), F(1, n), F(n, n + 2)]
        for value in values:
            assert format_rational(value) == _decimal_rendering(value)
    finally:
        sys.set_int_max_str_digits(previous)


def test_format_significant():
    assert format_significant(F(1, 3), 5) == "0.33333"
    assert format_significant(F(10), 4) == "10"
    with pytest.raises(ValueError):
        format_significant((1, 3), 0)


def _spy_on_the_fallback(monkeypatch):
    calls = []
    real = exact._exact_quotient
    monkeypatch.setattr(exact, "_exact_quotient", lambda num, den: calls.append((num, den)) or real(num, den))
    return calls


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-(2**1500), 2**1500),
    st.integers(1, 2**1500),
    st.integers(1, 80),
    st.integers(0, 2**300),
)
def test_format_significant_of_a_pair_equals_the_exact_division(num, den, digits, common):
    # unreduced pairs, with a common factor or not, render as their reduced value does
    want = reference.format_significant(F(num, den), digits)
    assert format_significant((num, den), digits) == want
    assert format_significant((num * (common + 1), den * (common + 1)), digits) == want
    assert format_significant((-num, -den), digits) == want
    assert format_significant(F(num, den), digits) == want


def test_format_significant_falls_back_where_the_top_bits_cannot_decide(monkeypatch):
    calls = _spy_on_the_fallback(monkeypatch)
    big = 3**5000  # a common factor the top bits cut through
    cases = [
        ((125 * big, 1000 * big), 2, "0.12"),  # on a half-way point at 2 digits: ties to even
        ((135 * big, 1000 * big), 2, "0.14"),
        ((125 * big, 1000 * big), 3, "0.125"),  # exact: Decimal writes no trailing zeros
        ((big, big), 20, "1"),  # a start inside the target set
        ((10**30 * big, big), 5, "1.0000E+30"),  # exact past the digits: all of them written
        ((0, big), 7, "0"),
    ]
    for pair, digits, want in cases:
        assert format_significant(pair, digits) == want == reference.format_significant(F(*pair), digits)
    assert len(calls) == len(cases)
    # a quotient outside the context's exponent range: Decimal's underflow and overflow rules
    with decimal.localcontext() as ctx:
        ctx.Emin, ctx.Emax = -10, 10
        tiny = (big, 3 * 10**20 * big)
        assert format_significant(tiny, 5) == reference.format_significant(F(*tiny), 5) == "0E-14"
        with pytest.raises(decimal.Overflow):
            format_significant((10**20 * big, 3 * big), 5)
    assert len(calls) == len(cases) + 2


def test_format_significant_falls_back_where_the_interval_holds_a_shorter_value(monkeypatch):
    # both ends round to 0.250, but 0.25 lies between them: an exact quotient would print "0.25"
    calls = _spy_on_the_fallback(monkeypatch)
    pair = (2**5000 + 1, 2**5002)
    assert format_significant(pair, 3) == reference.format_significant(F(*pair), 3) == "0.250"
    assert len(calls) == 1


def test_format_significant_decides_inside_the_exponent_range_only(monkeypatch):
    # a rounded value with adjusted exponent in [Emin, Emax) is printed from the top bits; one at or
    # past Emax, or subnormal below Emin, falls back to Decimal's own overflow and underflow rules
    calls = _spy_on_the_fallback(monkeypatch)
    big = 3**5000
    cases = [
        ((10**10 * big, 3 * big), "3.3333E+9", 0),
        ((big, 3 * 10**9 * big), "3.3333E-10", 0),
        ((10**11 * big, 3 * big), "3.3333E+10", 1),
        ((big, 3 * 10**10 * big), "3.333E-11", 1),
    ]
    with decimal.localcontext() as ctx:
        ctx.Emin, ctx.Emax = -10, 10
        for pair, want, fallbacks in cases:
            before = len(calls)
            assert format_significant(pair, 5) == want == reference.format_significant(F(*pair), 5)
            assert len(calls) - before == fallbacks
        # a range far wider below zero than above: the last digit's exponent, -31, lies past -2 * (Emax + digits)
        ctx.Emin, ctx.Emax = -72, 13
        pair = (168999999999999896, 26 * 10**46)
        assert format_significant(pair, 1) == reference.format_significant(F(*pair), 1) == "6E-31"
    assert len(calls) == 2


def test_format_significant_without_guard_bits_still_matches_the_reference(monkeypatch):
    # no guard bits leave an interval about one unit in the last place wide:
    # many quotients fall back, and every string stays the same
    monkeypatch.setattr(exact, "_GUARD_BITS", 0)
    calls = _spy_on_the_fallback(monkeypatch)
    rng = random.Random(5)
    for _ in range(400):
        digits = rng.choice((1, 3, 20, 100))
        num, den = rng.getrandbits(rng.randint(1, 4000)) + 1, rng.getrandbits(rng.randint(1, 4000)) + 1
        assert format_significant((num, den), digits) == reference.format_significant(F(num, den), digits)
    assert 40 < len(calls) < 400


def test_format_significant_rounds_once_at_the_edges_of_a_decade():
    # 10**k * (1 + off / 10**(digits + gap)), over a common factor the top bits
    # cut through: just below 10**k it rounds up into the next decade, where
    # the coefficient loses a digit, and at gap 30 the interval straddles 10**k
    for digits in (1, 3, 20, 200):
        for gap in (5, 30):
            scale = 10 ** (digits + gap)
            for k in (-40, -1, 0, 1, 40):
                for off in (-7, -1, 1, 7):
                    num, den = (scale + off) * 7**900 * 10 ** max(k, 0), scale * 7**900 * 10 ** max(-k, 0)
                    want = reference.format_significant(F(num, den), digits)
                    assert format_significant((num, den), digits) == want


# --- jets -----------------------------------------------------------------


def test_jet_polynomial_identity():
    one_plus = Jet((1, 1, 0))
    one_minus = Jet((1, -1, 0))
    assert one_plus * one_minus == Jet((1, 0, -1))


def test_jet_geometric_series():
    one = Jet.constant(1, 3)
    denom = Jet((1, -1, 0, 0))
    assert one / denom == Jet((1, 1, 1, 1))


def test_jet_division_identity():
    j = Jet((1, 1, 0, 0, 0))
    assert j / j == Jet.constant(1, 4)


jet_coeffs = st.lists(rationals, min_size=2, max_size=7)


@settings(max_examples=200)
@given(jet_coeffs, jet_coeffs)
def test_jet_mul_div_roundtrip(a_coeffs, b_coeffs):
    order = min(len(a_coeffs), len(b_coeffs)) - 1
    a = Jet(a_coeffs[: order + 1])
    b = Jet(b_coeffs[: order + 1])
    if b.coeffs[0] == 0:
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert (a * b) / b == a


def test_compose_scaled_expm1():
    outer = Jet((0, 1, 0, 0))  # the variable t itself
    inner = Jet((0, 2, 1, F(1, 3)))  # 2 * (e**t - 1)
    assert outer.compose(inner) == Jet((0, 2, 1, F(1, 3)))


def test_compose_constant_outer():
    outer = Jet.constant(F(7, 3), 4)
    inner = Jet((0, 1, 2, 0, 1))
    assert outer.compose(inner) == outer


def test_compose_square_outer():
    outer = Jet((0, 0, 1, 0))  # t**2
    inner = Jet((0, 1, 1, 0))
    assert outer.compose(inner) == Jet((0, 0, 1, 2))


def _poly_mul(p, q, order):
    out = [F(0)] * (order + 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            if i + j <= order:
                out[i + j] += a * b
    return out


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=6), st.lists(rationals, min_size=7, max_size=7))
def test_compose_monomial_matches_expansion(power, inner_coeffs):
    order = 6
    inner_coeffs = [F(0)] + inner_coeffs[1:]
    inner = Jet(inner_coeffs)
    mono = [F(0)] * (order + 1)
    mono[power] = F(1)
    composed = Jet(mono).compose(inner)
    # brute-force truncated polynomial power
    expected = [F(1)] + [F(0)] * order
    for _ in range(power):
        expected = _poly_mul(expected, inner_coeffs, order)
    assert list(composed.coeffs) == expected


def test_compose_requires_zero_inner_constant():
    with pytest.raises(ValueError):
        Jet((0, 1, 0)).compose(Jet((1, 1, 0)))


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        Jet((1, 2)) + Jet((1, 2, 3))


def test_derivatives_roundtrip():
    j = jet_from_derivatives([F(1), F(2), F(6), F(24)])
    assert j == Jet((1, 2, 3, 4))


# --- rational expm1 -------------------------------------------------------


@given(st.floats(min_value=1e-6, max_value=30, allow_nan=False))
def test_expm1_rational_tracks_float(x):
    approx = expm1_rational(F(x), F(1, 10**20))
    assert math.isclose(float(approx), math.expm1(x), rel_tol=1e-12)


def test_expm1_rational_precision_budget():
    x = F(1, 3)
    coarse = expm1_rational(x, F(1, 10**12))
    fine = expm1_rational(x, F(1, 10**40))
    assert abs(coarse - fine) <= fine / 10**12
    assert expm1_rational(F(0)) == 0
    with pytest.raises(ValueError):
        expm1_rational(F(-1))


def test_lambda_to_u_size_follows_the_requested_precision():
    # the float 0.3 has a 2**54 denominator; the raw partial sum carried 5743 bits
    u = lambda_to_u(40, 0.3, 200)
    assert max(u.numerator.bit_length(), u.denominator.bit_length()) < 720
    fine = 40 * expm1_rational(F(0.3), F(1, 10**260))
    assert 0 <= fine - u < fine / 10**206


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.fractions(min_value=0, max_value=30, max_denominator=2**60),
        st.floats(min_value=0, max_value=700).map(F),
    ),
    st.one_of(st.integers(min_value=1, max_value=80), st.sampled_from([300, 1006])),
)
@example(F(5e-324), 1006)
@example(F(699.99), 1006)
@example(F(700), 1006)
def test_expm1_rational_is_a_lower_bound_within_rel_err(x, digits):
    rel, eps = F(1, 10**digits), F(1, 10 ** (digits + 30))
    value = expm1_rational(x, rel)
    upper = expm1_rational(x, eps) / (1 - eps)  # at least e**x - 1
    assert value <= upper
    assert upper - value <= (rel + eps) * upper


@pytest.mark.parametrize("digits", [6, 26, 46, 66, 86, 106])
def test_expm1_rational_equals_the_fraction_reference(digits):
    # equal to within rel_err: a lower bound of the exact-fraction sum's upper bracket, at most rel_err below it
    rel, eps = F(1, 10**digits), F(1, 10 ** (digits + 30))
    floats = (5e-324, 1e-6, 0.01, 0.1, 0.3, 0.5, 1.0, 2.5, 7.3, 30.0, 123.4)
    xs = [F(v) for v in floats] + [F(a, b) for a in range(12) for b in range(1, 8)]
    for x in xs:
        got, upper = expm1_rational(x, rel), reference.expm1_rational(x, eps) / (1 - eps)
        assert got <= upper
        assert upper - got <= (rel + eps) * upper
