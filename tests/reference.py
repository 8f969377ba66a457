"""Straightforward ``Fraction`` versions of the closed forms, kept as test references.

Each function below sums its terms one reduced :class:`fractions.Fraction` at
a time, exactly as the package did before its sums moved to unreduced
integers over one denominator.  The tests require the package's values to
equal these, rational for rational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from ehrenfest.exact import Rational, binomial
from ehrenfest.model import ModelParams
from ehrenfest.resolvent import KernelIncrements, kernel_coefficients


def expm1_rational(x: Rational, rel_err: Fraction = Fraction(1, 10**26)) -> Fraction:
    """Rational approximation of ``e**x - 1`` for ``x >= 0``.

    Sums the Taylor series of the exponential in exact arithmetic until the
    (geometrically bounded) tail drops below ``rel_err / 2`` relative to the
    partial sum, then floors that sum to a multiple of the largest power of
    two at most ``rel_err / 2`` of it, so the result's size follows
    ``rel_err`` and not the binary expansion of ``x``.  Where the floor does
    not shrink the denominator (a dyadic ``x`` such as 1/2), the first partial
    sum within ``rel_err`` is returned instead.  Either way the value is a
    lower bound of the true value with relative error below ``rel_err``.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("expm1_rational() requires x >= 0")
    if x == 0:
        return Fraction(0)
    total, first = Fraction(0), None
    term = x  # x**n / n!
    n = 1
    while True:
        total += term
        nxt = term * x / (n + 1)
        # once the term ratio x/(n+2) is at most 1/2 the tail is < 2*nxt
        if 2 * x <= n + 2:
            if first is None and 2 * nxt <= rel_err * total:
                first = total
            if 4 * nxt <= rel_err * total:
                break
        term = nxt
        n += 1
    slack = rel_err * total / 2
    step = Fraction(2) ** (slack.numerator.bit_length() - slack.denominator.bit_length())
    if step > slack:
        step /= 2
    rounded = math.floor(total / step) * step
    return rounded if rounded.denominator < first.denominator else first


@lru_cache(maxsize=None)
def _centered_at_zero(params: ModelParams, k: int) -> Fraction:
    n = params.urns
    return sum(
        (Fraction(c, n * t) for t, c in enumerate(kernel_coefficients(params, k)) if t and c),
        Fraction(0),
    )


@lru_cache(maxsize=None)
def centered_kernel_derivative(params: ModelParams, k: int, order: int = 1) -> Fraction:
    """Exact ``order``-th derivative of the centered kernel at ``u = 0``.

    Termwise differentiation of ``1/(urns*t + u*(urns-1))`` gives the
    factor ``(-1)**order * order! * (urns-1)**order / (urns*t)**(order+1)``.
    """
    if order < 1:
        raise ValueError("derivative order must be >= 1")
    n = params.urns
    total = sum(
        (Fraction(c, (n * t) ** (order + 1)) for t, c in enumerate(kernel_coefficients(params, k)) if t and c),
        Fraction(0),
    )
    return Fraction((-1) ** order * math.factorial(order) * (n - 1) ** order) * total


def kernel_increments(params: ModelParams) -> KernelIncrements:
    n, m = params.urns, params.balls
    zero = -Fraction(1, n) * sum(Fraction(1, i) for i in range(1, m + 1))
    full = Fraction(1, n) * sum(Fraction(n**i - 1, i) for i in range(1, m + 1))
    gaps = tuple(
        Fraction((n - 1) ** k, m * binomial(m - 1, k))
        * sum(Fraction(binomial(m, i), (n - 1) ** i) for i in range(k + 1))
        for k in range(m)
    )
    return KernelIncrements(zero_overlap=zero, full_overlap=full, increments=gaps)


def series_identity_checks(params: ModelParams, a: Rational) -> bool:
    """Exact binomial-sum identities behind the closed forms.

    Both reductions must hold as rational equalities:

    * ``sum_i C(balls,i) a**i / i  ==  sum_i ((1+a)**i - 1) / i``
    * ``sum_i C(balls,i) a**i / i**2  ==  sum_i (1/i) sum_{j<=i} ((1+a)**j - 1)/j``
    """
    a = Fraction(a)
    m = params.balls
    lhs1 = sum((Fraction(binomial(m, i)) * a**i / i for i in range(1, m + 1)), Fraction(0))
    rhs1 = sum((((1 + a) ** i - 1) / Fraction(i) for i in range(1, m + 1)), Fraction(0))
    lhs2 = sum((Fraction(binomial(m, i)) * a**i / i**2 for i in range(1, m + 1)), Fraction(0))
    rhs2 = sum(
        (
            Fraction(1, i) * sum((((1 + a) ** j - 1) / Fraction(j) for j in range(1, i + 1)), Fraction(0))
            for i in range(1, m + 1)
        ),
        Fraction(0),
    )
    return lhs1 == rhs1 and lhs2 == rhs2


def binomial_increment_mean(params: ModelParams, m: int) -> Fraction:
    """Expected kernel increment at a binomially distributed overlap.

    For an overlap distributed Binomial(m, 1/(urns-1)) the expectation of
    ``increment[overlap]`` collapses to the closed form

        ((urns-1)**(balls-m) / (balls * C(balls-1, m)))
            * sum_{i=balls-m}^{balls} C(balls, i) / (urns-1)**i

    valid for ``0 <= m <= balls - 1``.
    """
    n, M = params.urns, params.balls
    if not 0 <= m <= M - 1:
        raise ValueError(f"parameter {m} outside 0..{M - 1}")
    scale = Fraction((n - 1) ** (M - m), M * binomial(M - 1, m))
    return scale * sum(Fraction(binomial(M, i), (n - 1) ** i) for i in range(M - m, M + 1))


def overlap_increment_distribution(params: ModelParams, m: int) -> Sequence[tuple[int, Fraction]]:
    """Binomial(m, 1/(urns-1)) overlap law, for enumerating the mean directly."""
    n = params.urns
    p = Fraction(1, n - 1)
    return [
        (j, Fraction(binomial(m, j)) * p**j * (1 - p) ** (m - j))
        for j in range(m + 1)
    ]
