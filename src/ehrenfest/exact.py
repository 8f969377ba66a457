"""Exact arithmetic building blocks.

Rational scalars are plain :class:`fractions.Fraction` values, which already
give canonical gcd-reduced form and arbitrary precision; ``Fraction(text)``
reads back what :func:`format_rational` writes, and :func:`math.comb` gives
binomial coefficients.  This module adds the string serialization used in
machine-readable output, a rational lower bound of ``e**x - 1`` for the
discrete-time transform argument, and a small truncated-power-series type
(:class:`Jet`) with exact rational coefficients.

A report prints only ``digits`` digits and a float of each discrete
transform sample, so neither is read off a reduced value.
:func:`format_enclosed` gives the digits every rational in an interval
rounds to, rounding each end once with ``decimal``, or says the interval
does not settle them; the engine's samples come from intervals it encloses
them in (:func:`~ehrenfest.hitting.lambda_point`).  Where it cannot, the
sample is two exact kernel sums, and :func:`format_significant` runs the same
test on the interval their top bits leave, so no gcd of their integers, up
to about 7*10**5 bits each, is ever taken; the float is their correctly
rounded int division.

Jets carry the first ``order + 1`` Taylor coefficients of a function and
support ring arithmetic, division and composition, exactly and never
touching floating point; the centered kernel's Taylor jet
(:func:`~ehrenfest.resolvent.centered_kernel_jet`) is built from them.  The
engine's moments do not use them: :func:`~ehrenfest.hitting.raw_moments`
divides the two integer kernel series by an integer recurrence.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]


def format_rational(value: Rational) -> str:
    """Serialize a rational as ``num/den`` (``/1`` omitted for integers).

    Renders through :class:`~decimal.Decimal`, exact for integers, which is
    not bound by ``sys.get_int_max_str_digits()``: that guard protects
    parsers of untrusted text, and a result may well run past it.
    """
    q = Fraction(value)
    num = str(Decimal(q.numerator))
    return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"


def over_one_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over the lcm ``den`` of their denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def format_significant(value: Rational | tuple[int, int], digits: int = 20) -> str:
    """Render a rational, or an unreduced ``(num, den)`` pair, in decimal with
    ``digits`` significant digits: the string of ``Decimal(num) / Decimal(den)``
    at ``prec = digits``, rounded half-even.

    Ziv's rounding test (*ACM TOMS* 17(3), 1991) reads it off the top
    ``ceil(digits * log2(10)) + _GUARD_BITS`` bits of ``num`` and ``den``,
    which bound the quotient between two ratios of small integers, and
    decides it as :func:`format_enclosed` does: each end is rounded once by
    ``decimal``; rounding is monotone, so where both give one string the
    quotient does too, unless that value lies between the ends (the quotient
    may equal it, with fewer digits) or outside the context's exponent range:
    there, and at zero, the exact division runs.  Neither path reduces the
    pair, since ``Decimal``'s quotient depends on the value alone.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    num, den = value if isinstance(value, tuple) else Fraction(value).as_integer_ratio()
    if den < 0:
        num, den = -num, -den
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = digits, ROUND_HALF_EVEN
        d = _quotient_from_top_bits(abs(num), den, ctx) if num and den else None
        if d is None:
            d = _exact_quotient(num, den)
        elif num < 0:
            d = d.copy_negate()
    return str(d)


#: bits kept past the ``digits`` asked of :func:`format_significant`: the two
#: ends of its interval lie about ``2**-_GUARD_BITS`` units in the last place apart
_GUARD_BITS = 64


def _quotient_from_top_bits(num: int, den: int, ctx: Context) -> Decimal | None:
    """``num / den`` (both positive) rounded as ``ctx`` rounds it, from the top
    bits of each, or None where those bits do not settle the rounding."""
    keep = math.ceil(ctx.prec * math.log2(10)) + _GUARD_BITS
    sn, sd = max(num.bit_length() - keep, 0), max(den.bit_length() - keep, 0)
    a, b = num >> sn, den >> sd
    # num / den lies in [a/(b + 1), (a + 1)/b] * 2**(sn - sd); an end is exact where its shift dropped nothing
    return _round_enclosed((a, b + (sd > 0)), (a + (sn > 0), b), sn - sd, ctx)


def format_enclosed(lo: tuple[int, int], hi: tuple[int, int], shift: int, digits: int = 20) -> str | None:
    """The string :func:`format_significant` gives every rational in
    ``[lo[0]/lo[1], hi[0]/hi[1]] * 2**shift``, four positive integers, or None
    where the interval does not settle it: the ends round apart, the rounded
    value lies between them (the quotient may equal it, with fewer digits), or
    it lies outside the context's exponent range."""
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = digits, ROUND_HALF_EVEN
        d = _round_enclosed(lo, hi, shift, ctx)
    return None if d is None else str(d)


def _round_enclosed(lo: tuple[int, int], hi: tuple[int, int], shift: int, ctx: Context) -> Decimal | None:
    """What ``ctx`` rounds every quotient in ``[lo, hi] * 2**shift`` to, as :func:`format_enclosed` decides it."""
    # 2**shift is built in decimal, since Decimal() of a long int is quadratic in its length; exact never
    # rounds, as no product it makes has more digits than the ends' bits, plus |shift| and ctx.prec
    size = max(x.bit_length() for x in (*lo, *hi)) + abs(shift) + ctx.prec
    exact, wide = (Context(prec, ctx.rounding, MIN_EMIN, MAX_EMAX) for prec in (size, ctx.prec))
    up, down = exact.power(2, max(shift, 0)), exact.power(2, max(-shift, 0))
    (t0, u0), (t1, u1) = ((exact.multiply(n, up), exact.multiply(d, down)) for n, d in (lo, hi))
    low, high = wide.divide(t0, u0), wide.divide(t1, u1)
    # rounding is monotone, so the quotient rounds as both ends do, unless it may equal the rounded value,
    # written with fewer digits, or that value lies outside the context's exponent range
    if not (ctx.Emin <= low.adjusted() < ctx.Emax and str(low) == str(high)):
        return None
    return None if t0 <= exact.multiply(low, u0) and exact.multiply(low, u1) <= t1 else low


def _exact_quotient(num: int, den: int) -> Decimal:
    """``num / den`` by the exact ``Decimal`` division, in the current context."""
    return Decimal(num) / Decimal(den)


def expm1_rational(x: Rational, rel_err: Fraction = Fraction(1, 10**26)) -> Fraction:
    """Rational lower bound of ``e**x - 1`` for ``x >= 0``, with relative error
    below ``rel_err`` and a size set by ``rel_err``: one fixed-point Taylor sum
    (Brent & Zimmermann, *Modern Computer Arithmetic*, 2010, section 4.4).

    With ``x = p/q``, ``t_1 = floor(p * 2**b / q)`` and ``t_n = floor(t_{n-1} * p / (q * n))``
    are summed up to the first zero term ``t_K`` with ``K >= 2x - 1``; the sum ``S``
    is floored to its ``keep`` leading bits, ``2**(keep - 2) > 1 / rel_err``, over ``2**b``.
    Each ``t_n <= T_n = 2**b * x**n / n!``, so the result is a lower bound.  The deficits
    ``d_n = T_n - t_n < d_{n-1} * x / n + 1`` sum to less than ``K * e**x``, and the exact
    tail from ``K`` on, where terms at least halve, is at most ``2 * T_K = 2 * d_K``; so ``S``
    misses a relative ``2(K + 1)(1 + 1/x) / 2**b`` at most, as ``e**x / (e**x - 1) <= 1 + 1/x``.
    With ``bits(m) = m.bit_length() > log2(m)``, ``b = keep + bits(q // p + 2) + bits(terms + 1)``
    holds that below ``2**(1 - keep)``, as the floor does: together below ``rel_err``.  The
    loop ends by ``terms = max(6 * (floor(x) + 1), base + 64)``, ``base = b - bits(terms + 1)``:
    there ``n > 6x`` gives ``T_n < (e * x / n)**n < 2**(-1.14 * n)``, and ``n >= base + 64``
    gives ``1.14 * n >= b``, so ``T_n < 1`` and ``t_n = 0``.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("expm1_rational() requires x >= 0")
    if x == 0:
        return Fraction(0)
    p, q = x.numerator, x.denominator
    keep = (rel_err.denominator // rel_err.numerator + 1).bit_length() + 2
    base = keep + (q // p + 2).bit_length()  # 2**bits(q // p + 2) > 1 + 1/x
    b = base + (max(6 * (p // q + 1), base + 64) + 1).bit_length()
    total, term, n = 0, (p << b) // q, 1
    while term or q * (n + 1) < 2 * p:  # stop at the first zero term with n >= 2x - 1
        total += term
        n += 1
        term = term * p // (q * n)
    shift = max(total.bit_length() - keep, 0)
    return Fraction(total >> shift << shift, 1 << b)


#: digits that round-trip a double: :func:`lambda_to_u` never works at fewer
ROUND_TRIP_DIGITS = 17


def lambda_to_u(balls: int, lam: float, digits: int) -> Fraction:
    """The continuous-time argument ``u = balls * (e**lam - 1)`` of a discrete
    transform at ``lam``, as a rational lower bound with relative error below
    ``10**-(max(digits, ROUND_TRIP_DIGITS) + 6)``: six digits past those printed,
    and past the transform's float, which the report prints at any ``digits``."""
    return balls * expm1_rational(lam, Fraction(1, 10 ** (max(digits, ROUND_TRIP_DIGITS) + 6)))


class Jet:
    """Truncated power series with exact rational coefficients.

    ``Jet((c0, c1, ..., ck))`` represents ``c0 + c1*t + ... + ck*t**k`` with
    all higher-order information discarded.  Arithmetic requires matching
    truncation orders; mixing with plain rationals treats them as constant
    series of the same order.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational]):
        cs = tuple(Fraction(c) for c in coeffs)
        if not cs:
            raise ValueError("a jet needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value: Rational, order: int) -> "Jet":
        return cls((Fraction(value),) + (Fraction(0),) * order)

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.order != self.order:
                raise ValueError(
                    f"truncation orders differ: {self.order} vs {other.order}"
                )
            return other
        return Jet.constant(other, self.order)

    def __eq__(self, other) -> bool:
        if isinstance(other, Jet):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "Jet":
        o = self._coerce(other)
        return Jet(a + b for a, b in zip(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return Jet(-a for a in self.coeffs)

    def __sub__(self, other) -> "Jet":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Jet":
        return (-self) + other

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            c = Fraction(other)
            return Jet(a * c for a in self.coeffs)
        o = self._coerce(other)
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = o.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return Jet(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            c = Fraction(other)
            return Jet(a / c for a in self.coeffs)
        o = self._coerce(other)
        if o.coeffs[0] == 0:
            raise ZeroDivisionError("division by a jet with zero constant term")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for k in range(n + 1):
            acc = self.coeffs[k]
            for i in range(k):
                acc -= out[i] * o.coeffs[k - i]
            out[k] = acc / o.coeffs[0]
        return Jet(out)

    def __rtruediv__(self, other) -> "Jet":
        return Jet.constant(other, self.order) / self

    def compose(self, inner: "Jet") -> "Jet":
        """Taylor coefficients of ``self(inner(t))``.

        The inner series must vanish at zero, otherwise the truncated
        composition would need coefficients beyond the stored order.
        """
        inner = self._coerce(inner)
        if inner.coeffs[0] != 0:
            raise ValueError("composition requires inner series with zero constant term")
        result = Jet.constant(self.coeffs[-1], self.order)
        for c in reversed(self.coeffs[:-1]):
            result = result * inner + c
        return result

    def __repr__(self) -> str:
        return f"Jet(({', '.join(str(c) for c in self.coeffs)}))"


def jet_from_derivatives(values: Sequence[Rational]) -> Jet:
    """Build a jet from derivative values ``f(0), f'(0), f''(0), ...``."""
    return Jet(Fraction(v) / math.factorial(m) for m, v in enumerate(values))
