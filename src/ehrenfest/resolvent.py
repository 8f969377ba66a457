"""Overlap-indexed resolvent kernels of the continuous-time ball chain.

The Green potential of the continuous-time chain factors through a single
family of scalar functions indexed by the overlap ``k`` between the start
and the target state:

    kernel(k, u) = sum over 0<=t<=balls of  c_t / (urns*t + u*(urns-1))

where ``c_0..c_balls`` are the integer coefficients of the polynomial

    (1 + (urns-1)x)**k * (1 - x)**(balls-k).

:func:`kernel_coefficients` multiplies the two binomial rows once per
``(params, k)`` and caches the result, so every kernel value, at any ``u``,
costs at most ``balls + 1`` rational terms.  The value is exact for rational
``u > 0``.  Its only singularity is the simple pole ``1/(u*(urns-1))`` of
the ``t = 0`` term (``c_0 = 1``); removing that term yields the *centered*
kernel, finite at ``u = 0``, whose values and derivatives at zero drive
every mean/variance/moment formula in the package.

The alternating sums cancel catastrophically in floating point (the
coefficients grow like ``urns**balls`` while the result stays O(1)), which
is why everything here is computed over :class:`fractions.Fraction`.  The
independent integral representation (:func:`resolvent_kernel_quadrature`)
exists purely as a cross-check and never feeds downstream computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exact import Jet, Rational, binomial, jet_from_derivatives
from .model import ModelParams


@lru_cache(maxsize=None)
def kernel_coefficients(params: ModelParams, k: int) -> tuple[int, ...]:
    """Integer coefficients ``c_0..c_balls`` of ``(1 + (urns-1)x)**k * (1 - x)**(balls-k)``."""
    n, m = params.urns, params.balls
    if not 0 <= k <= m:
        raise ValueError(f"overlap {k} outside 0..{m}")
    right = [binomial(m - k, j) * (-1) ** j for j in range(m - k + 1)]
    coeffs = [0] * (m + 1)
    for i in range(k + 1):
        left = binomial(k, i) * (n - 1) ** i
        for j, w in enumerate(right):
            coeffs[i + j] += left * w
    return tuple(coeffs)


def resolvent_kernel(params: ModelParams, k: int, u: Rational) -> Fraction:
    """Exact kernel value for rational ``u > 0`` (pole at ``u = 0``)."""
    u = Fraction(u)
    if u <= 0:
        raise ValueError("resolvent kernel needs u > 0; use the centered kernel at u = 0")
    n = params.urns
    shift = u * (n - 1)
    return sum(
        (c / (n * t + shift) for t, c in enumerate(kernel_coefficients(params, k)) if c),
        Fraction(0),
    )


def centered_kernel(params: ModelParams, k: int, u: Rational = 0) -> Fraction:
    """Kernel with the pole term removed; finite for all rational ``u >= 0``."""
    u = Fraction(u)
    if u < 0:
        raise ValueError("centered kernel needs u >= 0")
    if u == 0:
        return _centered_at_zero(params, k)
    n = params.urns
    shift = u * (n - 1)
    return sum(
        (c / (n * t + shift) for t, c in enumerate(kernel_coefficients(params, k)) if t and c),
        Fraction(0),
    )


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


@lru_cache(maxsize=None)
def centered_kernel_jet(params: ModelParams, k: int, order: int) -> Jet:
    """Taylor jet of the centered kernel at ``u = 0`` to the given order."""
    derivs = [centered_kernel(params, k)]
    derivs += [centered_kernel_derivative(params, k, m) for m in range(1, order + 1)]
    return jet_from_derivatives(derivs)


@dataclass(frozen=True)
class KernelIncrements:
    """Closed forms at ``u = 0``: endpoint values and the overlap increments.

    ``increments[k]`` is the jump from overlap ``k`` to ``k + 1``; the three
    pieces telescope: ``zero_overlap + sum(increments) == full_overlap``.
    """

    zero_overlap: Fraction
    full_overlap: Fraction
    increments: tuple[Fraction, ...]


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


def resolvent_kernel_quadrature(params: ModelParams, k: int, u: float, tol: float = 1e-10) -> float:
    """Kernel value by adaptive quadrature of its integral representation.

        (1/urns) * integral_0^1 s**(a-1) * ((urns-1)s + 1)**k * (1-s)**(balls-k) ds

    with ``a = (urns-1)*u/urns``.  For ``a < 1`` the endpoint singularity at
    ``s = 0`` is removed by substituting ``v = s**a``, after which the
    integrand is bounded.  Raises if the quadrature error estimate exceeds
    ``tol``.
    """
    if u <= 0:
        raise ValueError("quadrature form needs u > 0")
    if not 0 <= k <= params.balls:
        raise ValueError(f"overlap {k} outside 0..{params.balls}")
    # the package's only scipy use, imported here: it would be most of the CLI's import time
    from scipy import integrate

    n, m = params.urns, params.balls
    a = (n - 1) * u / n

    def base(s: float) -> float:
        return ((n - 1) * s + 1.0) ** k * (1.0 - s) ** (m - k)

    if a >= 1:
        value, err = integrate.quad(
            lambda s: s ** (a - 1.0) * base(s), 0.0, 1.0, epsabs=tol / 10, epsrel=1e-13, limit=200
        )
    else:
        inv = 1.0 / a
        value, err = integrate.quad(
            lambda v: base(v**inv) * inv, 0.0, 1.0, epsabs=tol / 10, epsrel=1e-13, limit=200
        )
    if err > tol:
        raise RuntimeError(f"quadrature error estimate {err:.3e} above tolerance {tol:.3e}")
    return value / n


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
