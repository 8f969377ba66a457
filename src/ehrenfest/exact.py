"""Exact arithmetic building blocks.

Rational scalars are plain :class:`fractions.Fraction` values, which already
give canonical gcd-reduced form and arbitrary precision.  This module adds
the string serialization used in machine-readable output, big-integer
binomial coefficients with the out-of-range-is-zero convention, and a small
truncated-power-series type (:class:`Jet`) with exact rational coefficients.

Jets carry the first ``order + 1`` Taylor coefficients of a function and
support ring arithmetic, division and composition.  They are the mechanism
by which Laplace transforms get differentiated at zero: compose the exact
coefficient data with the series of the argument substitution, divide, and
read moments off the result, never touching floating point.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]


def binomial(n: int, m: int) -> int:
    """Binomial coefficient ``n choose m``, zero outside ``0 <= m <= n``."""
    if n < 0:
        raise ValueError(f"binomial() requires n >= 0, got n={n}")
    if m < 0 or m > n:
        return 0
    return math.comb(n, m)


def format_rational(value: Rational) -> str:
    """Serialize a rational as ``num/den`` (``/1`` omitted for integers)."""
    return str(Fraction(value))


def parse_rational(text: str) -> Fraction:
    """Parse the ``num/den`` serialization back into a Fraction.

    Accepts plain integers, an optional leading sign, and decimal literals
    (handy for command-line grids); the round trip through
    :func:`format_rational` is lossless.
    """
    return Fraction(text.strip())


def format_significant(value: Rational, digits: int = 20) -> str:
    """Render a rational in decimal with ``digits`` significant digits."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    q = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = digits
        d = Decimal(q.numerator) / Decimal(q.denominator)
    return str(d)


def expm1_rational(x: Rational, rel_err: Fraction = Fraction(1, 10**26)) -> Fraction:
    """Rational approximation of ``e**x - 1`` for ``x >= 0``.

    Sums the Taylor series of the exponential in exact arithmetic until the
    (geometrically bounded) tail drops below ``rel_err`` relative to the
    partial sum.  The returned value is a lower bound of the true value with
    relative error below ``rel_err``.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("expm1_rational() requires x >= 0")
    if x == 0:
        return Fraction(0)
    total = Fraction(0)
    term = x  # x**n / n!
    n = 1
    while True:
        total += term
        nxt = term * x / (n + 1)
        # once the term ratio x/(n+2) is at most 1/2 the tail is < 2*nxt
        if 2 * x <= n + 2 and 2 * nxt <= rel_err * total:
            return total
        term = nxt
        n += 1


def lambda_to_u(balls: int, lam: float, digits: int) -> Fraction:
    """The continuous-time argument ``u = balls * (e**lam - 1)`` of a discrete
    transform at ``lam``, as a rational lower bound with relative error below
    ``10**-(digits + 6)``: comfortably inside ``digits`` rendered digits.
    """
    return balls * expm1_rational(lam, Fraction(1, 10 ** (digits + 6)))


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

    @classmethod
    def variable(cls, order: int) -> "Jet":
        """The series of the independent variable ``t`` itself."""
        if order < 1:
            raise ValueError("variable jet needs order >= 1")
        return cls((Fraction(0), Fraction(1)) + (Fraction(0),) * (order - 1))

    @classmethod
    def scaled_expm1(cls, scale: Rational, order: int) -> "Jet":
        """Series of ``scale * (e**t - 1)``: zero constant term by design."""
        s = Fraction(scale)
        return cls([Fraction(0)] + [s / math.factorial(j) for j in range(1, order + 1)])

    def derivative_at_zero(self, m: int) -> Fraction:
        """m-th derivative at the expansion point, ``m! * coeffs[m]``."""
        if not 0 <= m <= self.order:
            raise ValueError(f"derivative order {m} outside stored order {self.order}")
        return self.coeffs[m] * math.factorial(m)

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
