"""Overlap-indexed resolvent kernels of the continuous-time ball chain.

The Green potential of the continuous-time chain factors through a single
family of scalar functions indexed by the overlap ``k`` between the start
and the target state:

    kernel(k, u) = sum over 0<=t<=balls of  c_t / (urns*t + u*(urns-1))

where ``c_0..c_balls`` are the integer coefficients of the polynomial

    (1 + (urns-1)x)**k * (1 - x)**(balls-k).

:func:`kernel_coefficients` multiplies the two binomial rows once per
``(params, k)`` and caches the result.  A histogram-weighted sum of kernels,
``sum_k hist[k] * kernel(k, u)``, folds into one integer row
``a_t = sum_k hist[k] * c_{k,t}`` (:func:`kernel_row`), and at ``u = p/q``
:func:`kernel_sums` adds ``a_t / (urns*t*q + (urns-1)*p)`` by binary
splitting over unreduced integer fractions: at most ``balls + 1`` terms and
no gcd, for several rows over one shared denominator.  It merges the terms
bottom-up, adjacent pairs level by level over flat lists; since nothing is
reduced, every merge tree yields the same two integers, the product of the
denominators and the sum of each numerator times the other denominators, so
these are exactly the integers of top-down splitting.  A single kernel value
is the one-hot row ``c_{k,.}``.  The value is exact for rational ``u > 0``.
Its only singularity is the simple pole ``1/(u*(urns-1))`` of the ``t = 0``
term (``c_0 = 1``); removing that term yields the *centered*
kernel, finite at ``u = 0``, whose values and derivatives at zero give the
closed forms of :mod:`~ehrenfest.closedforms` and the identity suite below.
The engine's moments come from the same integer rows instead:
:func:`kernel_series` expands each side of the transform in powers of
``w = 1 - z`` over one integer denominator.

The alternating sums cancel catastrophically in floating point (the
coefficients grow like ``urns**balls`` while the result stays O(1)), which
is why everything here is exact.  Each sum adds unreduced integers over
one shared denominator, such as a power of ``urns * lcm(1..balls)``, and
each value returned or compared is normalised once, as a single
:class:`fractions.Fraction`.  The independent integral representation
(:func:`resolvent_kernel_quadrature`) exists purely as a cross-check and
never feeds downstream computations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple, Sequence

from .exact import Jet, Rational, jet_from_derivatives, over_one_denominator
from .model import ModelParams


@lru_cache(maxsize=None)
def kernel_coefficients(params: ModelParams, k: int) -> tuple[int, ...]:
    """Integer coefficients ``c_0..c_balls`` of ``(1 + (urns-1)x)**k * (1 - x)**(balls-k)``."""
    n, m = params.urns, params.balls
    if not 0 <= k <= m:
        raise ValueError(f"overlap {k} outside 0..{m}")
    right = [comb(m - k, j) * (-1) ** j for j in range(m - k + 1)]
    coeffs = [0] * (m + 1)
    for i in range(k + 1):
        left = comb(k, i) * (n - 1) ** i
        for j, w in enumerate(right):
            coeffs[i + j] += left * w
    return tuple(coeffs)


def kernel_row(params: ModelParams, hist: Sequence[int]) -> tuple[int, ...]:
    """Integer row ``a_t = sum_k hist[k] * c_{k,t}`` of ``sum_k hist[k] * kernel(k, u)``."""
    row = [0] * (params.balls + 1)
    for k, count in enumerate(hist):
        if count:
            for t, c in enumerate(kernel_coefficients(params, k)):
                row[t] += count * c
    return tuple(row)


def kernel_sums(params: ModelParams, rows: Sequence[Sequence[int]], u: Rational) -> tuple[list[int], int]:
    """Kernel sums of integer ``rows`` at rational ``u > 0``, unreduced.

    Returns numerators ``nums`` and one denominator ``den`` with
    ``nums[i] / den == sum_t rows[i][t] / (urns*t + u*(urns-1))``.  With
    ``u = p/q`` that sum is ``q * sum_t a_t / (urns*t*q + (urns-1)*p)``.  Its
    terms are merged bottom-up: each level adds adjacent pairs as integer
    fractions, ``a/d + b/e = (a*e + b*d) / (d*e)``, over flat lists (one of
    numerators per row, one of denominators), and an odd last term is carried
    up a level.  No gcd is taken, so whatever tree adds the terms, the result
    is ``den = prod_t d_t`` and ``nums[i] = q * sum_t a_t * prod_{s != t} d_s``:
    the integers of top-down binary splitting.  The rows share every
    denominator, so a ratio of two sums is ``nums[0] / nums[1]``.
    """
    u = Fraction(u)
    if u <= 0:
        raise ValueError("resolvent kernel needs u > 0; use the centered kernel at u = 0")
    n, p, q = params.urns, u.numerator, u.denominator
    # the overlaps t where any row is nonzero, one term each
    kept = [t for t, column in enumerate(zip(*rows)) if any(column)]
    if not kept:
        return [0] * len(rows), 1
    nums = [[row[t] for t in kept] for row in rows]
    dens = [n * t * q + (n - 1) * p for t in kept]
    while len(dens) > 1:
        odd = len(dens) % 2  # 1 when a last term has no partner and is carried up unchanged
        left, right = dens[0::2], dens[1::2]
        nums = [[a * dr + b * dl for a, b, dl, dr in zip(row[0::2], row[1::2], left, right)] + row[len(row) - odd:]
                for row in nums]
        dens = [dl * dr for dl, dr in zip(left, right)] + dens[len(dens) - odd:]
    return [q * row[0] for row in nums], dens[0]


def kernel_series(params: ModelParams, rows: Sequence[Sequence[int]], order: int) -> tuple[list[list[int]], int]:
    """Each row's side of the transform as a power series in ``w = 1 - z``, to ``w**order``.

    At ``u = balls*(1-z)/z`` a side ``(urns-1)*u * sum_t a_t / (urns*t + u*(urns-1))``
    is ``a_0 + sum_{t>=1} a_t * D*w / (urns*t + mu_t*w)``, with ``D = balls*(urns-1)``
    and ``mu_t = D - urns*t``, so its ``w**(j+1)`` coefficient is
    ``(-1)**j * sum_{t>=1} a_t * D * mu_t**j / (urns*t)**(j+1)``.  Returns integer
    ``coeffs`` and a ``scale = urns * lcm(1..balls)`` with ``[w**j]`` of row ``i``
    equal to ``coeffs[i][j] / scale**j``: every term is summed in integers.
    """
    n, m = params.urns, params.balls
    scale = n * math.lcm(*range(1, m + 1))
    d = m * (n - 1)
    out = []
    for row in rows:
        coeffs = [row[0]] + [0] * order
        for t in range(1, m + 1):
            if row[t]:
                step = scale // (n * t)  # scale / (urns*t), an integer
                term, factor = row[t] * d * step, (n * t - d) * step
                for j in range(1, order + 1):
                    coeffs[j] += term
                    term *= factor
        out.append(coeffs)
    return out, scale


def resolvent_kernel(params: ModelParams, k: int, u: Rational) -> Fraction:
    """Exact kernel value for rational ``u > 0`` (pole at ``u = 0``)."""
    (num,), den = kernel_sums(params, [kernel_coefficients(params, k)], u)
    return Fraction(num, den)


def _centered_sum(params: ModelParams, k: int, order: int) -> tuple[int, int]:
    """``(total, d)`` with ``sum_{t>=1} c_t / (urns*t)**(order+1) = total / d**(order+1)``: one integer sum
    over ``d = urns * lcm(1..balls)``."""
    scale = math.lcm(*range(1, params.balls + 1))
    coeffs = kernel_coefficients(params, k)
    return sum(c * (scale // t) ** (order + 1) for t, c in enumerate(coeffs) if t), params.urns * scale


@lru_cache(maxsize=None)
def centered_kernel(params: ModelParams, k: int) -> Fraction:
    """Kernel at ``u = 0`` with the pole term ``1 / (u * (urns-1))`` removed: the sum of order 0."""
    return Fraction(*_centered_sum(params, k, 0))


_centered_at_zero = centered_kernel  # the name perfbench/spans.py counts the cached kernel under


@lru_cache(maxsize=None)
def centered_kernel_derivative(params: ModelParams, k: int, order: int = 1) -> Fraction:
    """Exact ``order``-th derivative of the centered kernel at ``u = 0``.

    Termwise differentiation of ``1/(urns*t + u*(urns-1))`` gives the
    factor ``(-1)**order * order! * (urns-1)**order / (urns*t)**(order+1)``;
    the terms are summed in integers over ``(urns*lcm(1..balls))**(order+1)``.
    """
    if order < 1:
        raise ValueError("derivative order must be >= 1")
    total, den = _centered_sum(params, k, order)
    return Fraction((-1) ** order * math.factorial(order) * (params.urns - 1) ** order * total, den ** (order + 1))


@lru_cache(maxsize=None)
def centered_kernel_jet(params: ModelParams, k: int, order: int) -> Jet:
    """Taylor jet of the centered kernel at ``u = 0`` to the given order."""
    derivs = [centered_kernel(params, k)]
    derivs += [centered_kernel_derivative(params, k, m) for m in range(1, order + 1)]
    return jet_from_derivatives(derivs)


class KernelIncrements(NamedTuple):
    """Closed forms at ``u = 0``: endpoint values and the overlap increments.

    ``increments[k]`` is the jump from overlap ``k`` to ``k + 1``; the three
    pieces telescope: ``zero_overlap + sum(increments) == full_overlap``.
    """

    zero_overlap: Fraction
    full_overlap: Fraction
    increments: tuple[Fraction, ...]


def kernel_increments(params: ModelParams) -> KernelIncrements:
    # zero and full over urns*lcm(1..balls); gap k is
    # sum_{i<=k} C(balls,i)*(urns-1)**(k-i) / (balls*C(balls-1,k)), a running integer sum
    n, m = params.urns, params.balls
    scale = math.lcm(*range(1, m + 1))
    zero = Fraction(-sum(scale // i for i in range(1, m + 1)), n * scale)
    full = Fraction(sum((n**i - 1) * (scale // i) for i in range(1, m + 1)), n * scale)
    gaps, acc = [], 0
    for k in range(m):
        acc = acc * (n - 1) + comb(m, k)
        gaps.append(Fraction(acc, m * comb(m - 1, k)))
    return KernelIncrements(zero_overlap=zero, full_overlap=full, increments=tuple(gaps))


def series_identity_checks(params: ModelParams, a: Rational) -> bool:
    """Exact binomial-sum identities behind the closed forms.

    Both reductions must hold as rational equalities:

    * ``sum_i C(balls,i) a**i / i  ==  sum_i ((1+a)**i - 1) / i``
    * ``sum_i C(balls,i) a**i / i**2  ==  sum_i (1/i) sum_{j<=i} ((1+a)**j - 1)/j``

    With ``a = p/q`` and ``L = lcm(1..balls)`` both sides of the first are
    scaled by ``q**balls * L`` and both sides of the second by
    ``q**balls * L**2``, so each side is an integer sum; the inner sum over
    ``j <= i`` is a running prefix sum.
    """
    a = Fraction(a)
    m, p, q = params.balls, a.numerator, a.denominator
    scale = math.lcm(*range(1, m + 1))
    lhs1 = lhs2 = rhs1 = rhs2 = 0
    for i in range(1, m + 1):
        w = scale // i
        left = comb(m, i) * p**i * q ** (m - i)  # q**balls * C(balls,i) * a**i
        lhs1 += left * w
        lhs2 += left * w * w
        # q**balls * L * ((1+a)**i - 1)/i; after i terms rhs1 is the inner sum over j <= i
        rhs1 += ((p + q) ** i * q ** (m - i) - q**m) * w
        rhs2 += rhs1 * w
    return lhs1 == rhs1 and lhs2 == rhs2


def resolvent_kernel_quadrature(params: ModelParams, k: int, u: float, tol: float = 1e-10) -> float:
    """Kernel value by tanh-sinh quadrature of its integral representation.

        (1/urns) * integral_0^1 s**(a-1) * ((urns-1)s + 1)**k * (1-s)**(balls-k) ds

    with ``a = (urns-1)*u/urns``.  For ``a < 1`` the endpoint singularity at
    ``s = 0`` is removed by substituting ``v = s**a``, after which the
    integrand is bounded.  The step is halved until two levels of
    :func:`_tanh_sinh_nodes` agree within ``max(tol/10, 1e-13*|value|)``; their
    gap, or the value's last-place unit if larger, is the error estimate.
    Raises if it exceeds ``tol``.
    """
    if u <= 0:
        raise ValueError("quadrature form needs u > 0")
    if not 0 <= k <= params.balls:
        raise ValueError(f"overlap {k} outside 0..{params.balls}")
    n, m = params.urns, params.balls
    a = (n - 1) * u / n

    if a >= 1:
        def level_sum(nodes: tuple[tuple[float, float, float], ...]) -> float:
            return sum([w * s ** (a - 1.0) * ((n - 1) * s + 1.0) ** k * rest ** (m - k) for s, rest, w in nodes])
    else:
        inv = 1.0 / a

        def level_sum(nodes: tuple[tuple[float, float, float], ...]) -> float:
            # s = v**inv, and ds = inv * v**(inv-1) dv cancels s**(a-1)
            return inv * sum([w * ((n - 1) * (s := v**inv) + 1.0) ** k * (1.0 - s) ** (m - k) for v, _, w in nodes])

    total, value, err = 0.0, math.inf, math.inf
    for level in range(_TANH_SINH_LEVELS):
        total += level_sum(_tanh_sinh_nodes(level))
        value, previous = total * 2.0**-level, value
        # no estimate below the value's last-place unit: the float itself is no closer
        err = max(abs(value - previous), math.ulp(value))
        if err <= max(tol / 10, 1e-13 * abs(value)):
            break
    if err > tol:
        raise RuntimeError(f"quadrature error estimate {err:.3e} above tolerance {tol:.3e}")
    return value / n


# past t = 3.5 the rule leaves out two end intervals of width q < 3e-23; level 9 has step 1/512
_TANH_SINH_SPAN, _TANH_SINH_LEVELS = 3.5, 10


@lru_cache(maxsize=None)
def _tanh_sinh_nodes(level: int) -> tuple[tuple[float, float, float], ...]:
    """Nodes ``(s, 1 - s, weight)`` of the tanh-sinh rule on ``[0, 1]`` new at step ``h = 2**-level``.

    The rule (Takahasi & Mori) maps ``t`` to ``s = 1/(1 + q)`` with
    ``q = exp(-pi*sinh(t))``, so ``ds/dt = pi*cosh(t) * q/(1 + q)**2``, and the
    nodes at ``t`` and ``-t`` are ``s`` and ``1 - s = q/(1 + q)``, each free
    of cancellation.  Level 0 holds ``t = 0, 1, 2, 3``, each later level the
    odd multiples of ``h`` up to the span; the integral is ``h`` times the
    weighted sum over every level so far.
    """
    step = 2.0**-level
    first, stride = (0, 1) if level == 0 else (1, 2)
    nodes = []
    for j in range(first, int(_TANH_SINH_SPAN / step) + 1, stride):
        t = j * step
        q = math.exp(-math.pi * math.sinh(t))
        s, rest, w = 1 / (1 + q), q / (1 + q), math.pi * math.cosh(t) * q / (1 + q) ** 2
        nodes += [(s, rest, w)] if j == 0 else [(s, rest, w), (rest, s, w)]
    return tuple(nodes)


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
    # the closed form with (urns-1)**m put into numerator and denominator: every term an integer
    total = sum(comb(M, i) * (n - 1) ** (M - i) for i in range(M - m, M + 1))
    return Fraction(total, M * comb(M - 1, m) * (n - 1) ** m)


def overlap_increment_distribution(params: ModelParams, m: int) -> tuple[list[int], int]:
    """Binomial(m, 1/(urns-1)) overlap law, for enumerating the mean directly: integer
    numerators ``probs`` and one denominator ``den``, with ``P(overlap = j) = probs[j] / den``.

    With ``p = 1/(urns-1)``, ``C(m,j) * p**j * (1-p)**(m-j)`` is
    ``C(m,j) * (urns-2)**(m-j) / (urns-1)**m``, so ``den = (urns-1)**m``, unreduced.
    """
    n = params.urns
    return [comb(m, j) * (n - 2) ** (m - j) for j in range(m + 1)], (n - 1) ** m


# ---------------------------------------------------------------------------
# the identity suite


def identity_suite_holds(params: ModelParams) -> bool:
    """Every exact identity among the closed forms above, at one ``params``.

    The series reductions at ``a = 0, urns-1, -1``; the increments against
    the centered kernel (endpoints, telescoping, each gap, the first gap
    ``1/balls``); the derivative gap ``g'(0) - g'(balls)`` against its double
    sum; and the binomial increment means against direct enumeration.  Every
    public closed form is still called for its values: :func:`kernel_increments`,
    :func:`centered_kernel`, :func:`centered_kernel_derivative`,
    :func:`series_identity_checks`, :func:`binomial_increment_mean` and
    :func:`overlap_increment_distribution`.  The endpoints are compared as
    reduced fractions; every other comparison, ``a/b == c/d`` as ``a*d == c*b``,
    cross-multiplies integer numerators and denominators: the telescoped
    increments, each gap against its two kernels' difference, the first gap,
    the derivative gap and each mean, whose enumeration is summed in integers
    over the increments' shared denominator and the overlap law's own.
    """
    n, m = params.urns, params.balls
    zero, full, gaps = kernel_increments(params)
    g = [centered_kernel(params, k) for k in range(m + 1)]
    d0, dm = centered_kernel_derivative(params, 0), centered_kernel_derivative(params, m)
    # (urns-1)/urns**2 * sum_i (1/i) sum_{j<=i} urns**j/j, over urns**2 * lcm(1..balls)**2
    scale = math.lcm(*range(1, m + 1))
    closed = prefix = 0
    for i in range(1, m + 1):
        prefix += n**i * (scale // i)
        closed += prefix * (scale // i)
    increments, den = over_one_denominator(gaps)

    def mean_matches(j: int) -> bool:
        # sum_i P(overlap = i) * increment_i over the product of the two shared denominators
        probs, prob_den = overlap_increment_distribution(params, j)
        mean = binomial_increment_mean(params, j)
        return sum(p * inc for p, inc in zip(probs, increments)) * mean.denominator == mean.numerator * prob_den * den

    return (
        all(series_identity_checks(params, a) for a in (0, n - 1, -1))
        # zero + sum(gaps) == full, over zero's denominator times den
        and (zero.numerator * den + sum(increments) * zero.denominator) * full.denominator
        == full.numerator * zero.denominator * den
        and (zero, full) == (g[0], g[m])
        # g[k+1] - g[k] == gaps[k]
        and all(
            (b.numerator * a.denominator - a.numerator * b.denominator) * gap.denominator
            == gap.numerator * a.denominator * b.denominator
            for a, b, gap in zip(g, g[1:], gaps)
        )
        and gaps[0].numerator * m == gaps[0].denominator
        # d0 - dm == (urns-1) * closed / (urns**2 * scale**2)
        and (d0.numerator * dm.denominator - dm.numerator * d0.denominator) * n**2 * scale**2
        == (n - 1) * closed * d0.denominator * dm.denominator
        and all(mean_matches(j) for j in range(m))
    )


def quadrature_error(params: ModelParams) -> float:
    """Largest gap between :func:`resolvent_kernel_quadrature` and the exact
    kernel, over every overlap and ``u = 1/4, 1, 4``."""
    return max(
        abs(resolvent_kernel_quadrature(params, k, float(u)) - float(resolvent_kernel(params, k, u)))
        for k in range(params.balls + 1)
        for u in (Fraction(1, 4), Fraction(1), Fraction(4))
    )
