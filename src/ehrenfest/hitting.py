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
the descriptor counts both itself, without listing a symbolic set.  An
``explicit`` set is validated and listed once: its symmetry test and both
histograms read the same member list.
Every sum over ``A`` below is therefore a sum over ``k`` of
``hist[k] * f(k)``, and ``|A| = sum(ref_hist)``.  For the transform each
side folds further, into the integer row ``a_t = sum_k hist[k] * c_{k,t}``
of :func:`~ehrenfest.resolvent.kernel_row`; both rows are summed over one
shared, unreduced denominator product, so the ratio is the quotient of the
two integer numerators and is reduced exactly once.  The discrete-time
transform is the same ratio evaluated at ``u = balls * (e**lambda - 1)``.

Moments are read off the same two integer rows.  In ``w = 1 - z`` each side
of the ratio is an integer power series over one denominator
(:func:`~ehrenfest.resolvent.kernel_series`); their quotient is the series of
``E[(1 - w)**T]``, whose coefficients are the factorial moments up to sign
and factorials, and Stirling numbers turn those into raw moments.  The mean,
the variance and the continuous-time summaries are the first two of them.
Everything on this analytic path is exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Sequence

from .closedforms import same_urn_stats, two_point_stats_for
from .exact import Jet, Rational, lambda_to_u
from .model import (
    ModelParams,
    SetDescriptor,
    State,
    SetNotSymmetricError,
    agreement_histograms,
    overlap,
    symmetry_defect,
)
from .resolvent import kernel_row, kernel_series, kernel_sums, resolvent_kernel


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
        if self.target.kind == "explicit":  # validated and listed once, then counted from its table
            members = self.target.materialize(self.params)
            defect = symmetry_defect(members)
            if defect is not None:
                raise SetNotSymmetricError(*defect)
            start_hist, ref_hist = agreement_histograms(members, self.start, members[0])
        else:
            histogram = partial(self.target.overlap_histogram, self.params)
            start_hist, ref_hist = histogram(self.start), histogram(next(self.target.members(self.params)))
        object.__setattr__(self, "start_hist", start_hist)
        object.__setattr__(self, "ref_hist", ref_hist)

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
    rows = [kernel_row(query.params, hist) for hist in (query.start_hist, query.ref_hist)]
    (start, ref), _ = kernel_sums(query.params, rows, u)
    return Fraction(start, ref)


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
    """Exact expected number of steps to reach the target set: minus the
    ``w`` coefficient of the transform, the first of :func:`raw_moments`."""
    return raw_moments(query, 1)[0]


def variance(query: HittingQuery) -> Fraction:
    """Exact variance of the number of steps, from the first two :func:`raw_moments`."""
    first, second = raw_moments(query, 2)
    return second - first**2


def raw_moments(query: HittingQuery, order: int) -> list[Fraction]:
    """Exact raw moments ``E[T**r]`` for ``r = 1..order``.

    Divides the two sides' series in ``w = 1 - z`` into the series of
    ``E[(1 - w)**T] = sum_r (-1)**r * E[(T)_r] / r! * w**r``, reads the
    factorial moments ``E[(T)_r]`` off it and converts them with Stirling
    numbers of the second kind: ``E[T**r] = sum_k S(r, k) * E[(T)_k]``.
    """
    if order < 1:
        raise ValueError("moment order must be >= 1")
    if query.start_in_target():
        return [Fraction(0)] * order
    rows = [kernel_row(query.params, hist) for hist in (query.start_hist, query.ref_hist)]
    (start, ref), scale = kernel_series(query.params, rows, order)
    ratio = (Jet(start) / Jet(ref)).coeffs
    factorial = [(-1) ** r * math.factorial(r) * ratio[r] / scale**r for r in range(order + 1)]
    moments, stirling = [], [1]  # stirling[k] = S(r, k), from S(0, 0) = 1
    for _ in range(order):  # S(r, k) = S(r-1, k-1) + k * S(r-1, k)
        stirling = [a + k * b for k, (a, b) in enumerate(zip([0] + stirling, stirling + [0]))]
        moments.append(sum(s * f for s, f in zip(stirling, factorial)))
    return moments


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
    e, second = raw_moments(query, 2)
    v = second - e**2
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
