"""Exact hitting-time analytics for overlap-symmetric target sets.

For a start state ``x`` and a symmetric target set ``A`` the Laplace
transform of the hitting time factors into a ratio of resolvent-kernel sums:

    E_x[exp(-u * T_A_continuous)] = sum_z kernel(s(x,z), u)
                                    / sum_z kernel(s(y,z), u)

with ``z`` running over ``A`` and ``y`` any fixed element of ``A``.  Each
summand depends on ``z`` only through an overlap, so ``A`` enters only
through two overlap histograms of length ``balls + 1``: ``start_hist[k]``
counts the elements of ``A`` at overlap ``k`` from ``x``, and ``ref_hist[k]``
those at overlap ``k`` from ``y`` (overlap symmetry makes ``ref_hist`` the
same for every ``y``; we take the first member the descriptor yields), and
the descriptor counts both itself, without listing a symbolic set.
Every sum over ``A`` below is therefore a sum over ``k`` of
``hist[k] * f(k)``, and ``|A| = sum(ref_hist)``.  The discrete-time
transform is the same ratio evaluated at ``u = balls * (e**lambda - 1)``.

Means, variances and arbitrary raw moments come out of the centered kernel:
the mean and variance by direct closed forms in the kernel values and first
derivatives at zero, higher moments by carrying the full Taylor jets of
numerator and denominator through the argument substitution and reading
coefficients off the quotient.  Everything on this analytic path is exact
rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

from .closedforms import same_urn_stats, two_point_stats_for
from .exact import Jet, Rational, lambda_to_u
from .model import (
    ModelParams,
    SetDescriptor,
    State,
    SetNotSymmetricError,
    overlap,
    symmetry_defect,
)
from .resolvent import (
    centered_kernel,
    centered_kernel_derivative,
    centered_kernel_jet,
    resolvent_kernel,
)


def _weigh(hist: Sequence[int], f: Callable, zero=Fraction(0)):
    """``sum_k hist[k] * f(k)`` over the overlaps that occur."""
    return sum((c * f(k) for k, c in enumerate(hist) if c), zero)


@dataclass(frozen=True)
class HittingQuery:
    """A start state and a symmetric target set, reduced to overlap histograms.

    Only ``explicit`` sets are tested for symmetry: every symbolic kind is
    the orbit of one state under overlap-preserving maps (per-ball swaps of
    the two urns for a pair, global urn relabelings for the diagonal and the
    distinct set, ball permutations plus relabelings fixing the reference
    urn for a count slice), so it is symmetric by construction.
    """

    params: ModelParams
    start: State
    target: SetDescriptor
    start_hist: tuple[int, ...] = field(init=False, repr=False, compare=False)
    ref_hist: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "start", self.params.check_state(self.start))
        if self.target.kind == "explicit":
            defect = symmetry_defect(self.target.materialize(self.params))
            if defect is not None:
                raise SetNotSymmetricError(*defect)
        histogram = partial(self.target.overlap_histogram, self.params)
        object.__setattr__(self, "start_hist", histogram(self.start))
        object.__setattr__(self, "ref_hist", histogram(next(self.target.members(self.params))))

    @property
    def target_size(self) -> int:
        return sum(self.ref_hist)

    def start_in_target(self) -> bool:
        return self.start_hist[-1] > 0


def laplace_u(query: HittingQuery, u: Rational) -> Fraction:
    """Transform of the continuous-time hitting time at rational ``u > 0``."""
    u = Fraction(u)
    if u <= 0:
        raise ValueError("transform argument must be positive")
    if query.start_in_target():
        return Fraction(1)
    kernel = partial(resolvent_kernel, query.params, u=u)
    return _weigh(query.start_hist, kernel) / _weigh(query.ref_hist, kernel)


def laplace_lambda(query: HittingQuery, lam: float, digits: int = 20) -> Fraction:
    """Transform of the discrete hitting time at ``lambda >= 0``.

    Evaluates the exact u-domain ratio at :func:`~ehrenfest.exact.lambda_to_u`,
    a rational approximation of ``balls * (e**lambda - 1)`` accurate well past
    ``digits`` significant digits.  Returns exactly 1 at ``lambda = 0``.
    """
    if lam < 0:
        raise ValueError("transform argument must be non-negative")
    if lam == 0 or query.start_in_target():
        return Fraction(1)
    return laplace_u(query, lambda_to_u(query.params.balls, lam, digits))


def green_potential(params: ModelParams, x: Sequence[int], z: Sequence[int], u: Rational) -> Fraction:
    """Expected discounted occupation of the single state ``z`` started at ``x``.

    Depends on ``(x, z)`` only through their overlap; summed over all ``z``
    it recovers the total resolvent mass ``1/u``.
    """
    u = Fraction(u)
    if u <= 0:
        raise ValueError("discount rate must be positive")
    x = params.check_state(x)
    z = params.check_state(z)
    n, m = params.urns, params.balls
    return Fraction(n - 1, n**m) * resolvent_kernel(params, overlap(x, z), u)


def mean(query: HittingQuery) -> Fraction:
    """Exact expected number of steps to reach the target set."""
    if query.start_in_target():
        return Fraction(0)
    p = query.params
    n, m = p.urns, p.balls
    g = partial(centered_kernel, p)
    total = _weigh(query.ref_hist, g) - _weigh(query.start_hist, g)
    return Fraction(m * (n - 1), query.target_size) * total


def variance(query: HittingQuery) -> Fraction:
    """Exact variance of the number of steps to reach the target set."""
    if query.start_in_target():
        return Fraction(0)
    p = query.params
    n, m = p.urns, p.balls
    expected = mean(query)
    g = partial(centered_kernel, p)
    dg = partial(centered_kernel_derivative, p)
    total = (
        m * (_weigh(query.start_hist, dg) - _weigh(query.ref_hist, dg))
        + expected * _weigh(query.start_hist, g)
    )
    return Fraction(2 * m * (n - 1), query.target_size) * total + expected**2 - expected


def raw_moments(query: HittingQuery, order: int) -> list[Fraction]:
    """Exact raw moments ``E[T**r]`` for ``r = 1..order``.

    Builds the u-domain Taylor jets of the transform's numerator and
    denominator from centered-kernel derivatives, substitutes the series of
    ``balls * (e**lambda - 1)``, divides, and converts coefficients to
    moments via ``E[T**r] = (-1)**r * r! * [lambda**r]``.
    """
    if order < 1:
        raise ValueError("moment order must be >= 1")
    if query.start_in_target():
        return [Fraction(0)] * order
    p = query.params
    n, m = p.urns, p.balls
    jet_order = max(order, 2) + 1  # one guard coefficient past the top moment
    jet = partial(centered_kernel_jet, p, order=jet_order)
    size = Jet.constant(query.target_size, jet_order)
    shift = (n - 1) * Jet.variable(jet_order)
    substitution = Jet.scaled_expm1(m, jet_order)

    def ratio_side(hist: Sequence[int]) -> Jet:
        acc = _weigh(hist, jet, Jet.constant(0, jet_order))
        return (size + shift * acc).compose(substitution)

    transform = ratio_side(query.start_hist) / ratio_side(query.ref_hist)
    return [
        Fraction((-1) ** r * math.factorial(r)) * transform.coeffs[r]
        for r in range(1, order + 1)
    ]


def exit_distribution(query: HittingQuery) -> dict[State, Fraction] | None:
    """Law of the state where the target set is first hit, where a closed form gives it.

    Singletons, pairs and the diagonal have one, and at most ``urns`` members,
    so a start inside one is listed as its own exit state; other kinds give ``None``.
    """
    params, target = query.params, query.target
    if target.kind not in ("singleton", "pair", "diagonal"):
        return None
    if query.start_in_target():
        return {t: Fraction(t == query.start) for t in target.members(params)}
    if target.kind == "singleton":
        return {params.check_state(target.states[0]): Fraction(1)}
    if target.kind == "pair":
        y, z = sorted(params.check_state(s) for s in target.states)
        first = two_point_stats_for(params, query.start, y, z).exit_prob_first
        return {y: first, z: 1 - first}
    probs = same_urn_stats(params, query.start).exit_probs
    return {(i,) * params.balls: p for i, p in enumerate(probs, start=1)}


@dataclass(frozen=True)
class CtmcStats:
    """Mean and variance of the continuous-time hitting time."""

    mean: Fraction
    variance: Fraction


def ctmc_stats(query: HittingQuery) -> CtmcStats:
    """Continuous-time mean/variance from the discrete ones.

    The discrete chain is the embedded jump chain of the continuous one with
    Exponential(balls) holding times, which ties the two summaries together:
    ``mean = balls * mean_Y`` and ``variance = balls**2 * variance_Y - mean``.
    """
    m = query.params.balls
    e = mean(query)
    v = variance(query)
    return CtmcStats(mean=e / m, variance=(v + e) / Fraction(m**2))


@dataclass(frozen=True)
class HittingSummary:
    """Exact summary of one hitting-time query."""

    mean: Fraction
    variance: Fraction
    raw_moments: tuple[Fraction, ...]
    u_samples: tuple[tuple[Fraction, Fraction], ...] = ()
    lambda_samples: tuple[tuple[float, Fraction], ...] = ()
    exit_distribution: dict[State, Fraction] | None = None

    @classmethod
    def from_moments(cls, moments: Sequence[Fraction], order: int, **samples) -> "HittingSummary":
        """Read mean and variance off the first two raw ``moments`` and report
        the first ``order`` of them."""
        return cls(
            mean=moments[0],
            variance=moments[1] - moments[0] ** 2,
            raw_moments=tuple(moments[:order]),
            **samples,
        )


def summarize(
    query: HittingQuery,
    order: int = 2,
    u_grid: Sequence[Rational] = (),
    lambda_grid: Sequence[float] = (),
    digits: int = 20,
) -> HittingSummary:
    """Bundle the exact statistics, transform samples and exit law of one query."""
    if order < 1:
        raise ValueError("moment order must be >= 1")
    return HittingSummary.from_moments(
        raw_moments(query, max(order, 2)),
        order,
        u_samples=tuple((Fraction(u), laplace_u(query, u)) for u in u_grid),
        lambda_samples=tuple((float(l), laplace_lambda(query, l, digits)) for l in lambda_grid),
        exit_distribution=exit_distribution(query),
    )
