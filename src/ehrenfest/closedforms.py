"""Closed-form hitting statistics for the classical target families.

Each function here evaluates an explicit finite sum (exact rationals again)
for one concrete target family: single states, two-point sets, the
all-balls-in-one-urn diagonal, the all-distinct set, and the fixed-count
slices, plus the birth-death "count chain" these slices lump onto and its
electric-network commute identity.  All of them are alternative routes to
numbers the generic engine in :mod:`ehrenfest.hitting` also produces, which
is exactly what makes them useful: every pair of routes is asserted equal in
the test-suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import binomial
from .model import ModelParams, overlap
from .resolvent import centered_kernel


def singleton_variance_disjoint(params: ModelParams) -> Fraction:
    """Variance of the hitting time of a state sharing no ball placement.

        (balls**2 (urns-1)**2 / urns**2) * [S**2 - 2 * sum_i (1/i) sum_{j>i} urns**j/j]
            - (balls (urns-1)/urns) * S,    S = sum_i urns**i / i
    """
    n, m = params.urns, params.balls
    s = sum(Fraction(n**i, i) for i in range(1, m + 1))
    cross = sum(
        Fraction(1, i) * sum(Fraction(n**j, j) for j in range(i + 1, m + 1))
        for i in range(1, m + 1)
    )
    lead = Fraction(m**2 * (n - 1) ** 2, n**2)
    return lead * (s**2 - 2 * cross) - Fraction(m * (n - 1), n) * s


@dataclass(frozen=True)
class TwoPointStats:
    mean: Fraction
    exit_prob_first: Fraction


def two_point_stats(params: ModelParams, sxy: int, sxz: int, syz: int) -> TwoPointStats:
    """Mean hitting time of a two-point set and the exit split.

    Takes the three pairwise overlaps directly (start-first, start-second,
    first-second) to make the pure overlap dependence explicit;
    ``exit_prob_first`` is the probability of arriving at the first point.
    Overlap triples that no actual state triple realizes are not rejected;
    they produce the formal value.
    """
    m = params.balls
    for name, v in (("sxy", sxy), ("sxz", sxz), ("syz", syz)):
        if not 0 <= v <= m:
            raise ValueError(f"overlap {name}={v} outside 0..{m}")
    if syz == m:
        raise ValueError("the two target points must be distinct (overlap < balls)")
    n = params.urns
    g = lambda k: centered_kernel(params, k)
    full = g(m)
    mean = Fraction(m * (n - 1), 2) * (full + g(syz) - g(sxy) - g(sxz))
    exit_first = (full + g(sxy) - g(sxz) - g(syz)) / (2 * (full - g(syz)))
    return TwoPointStats(mean=mean, exit_prob_first=exit_first)


def two_point_stats_for(params: ModelParams, x: Sequence[int], y: Sequence[int], z: Sequence[int]) -> TwoPointStats:
    """State-level wrapper around :func:`two_point_stats`."""
    x = params.check_state(x)
    y = params.check_state(y)
    z = params.check_state(z)
    if len({x, y, z}) != 3:
        raise ValueError("two-point analysis needs three distinct states")
    return two_point_stats(params, overlap(x, y), overlap(x, z), overlap(y, z))


@dataclass(frozen=True)
class SameUrnStats:
    mean: Fraction
    exit_probs: tuple[Fraction, ...]


def same_urn_stats(params: ModelParams, x: Sequence[int]) -> SameUrnStats:
    """First time all balls share an urn: mean and exit split by urn.

    ``exit_probs[i-1]`` is the probability that the first fully-clustered
    configuration puts every ball in urn ``i``; it always sums to one.
    """
    x = params.check_state(x)
    n, m = params.urns, params.balls
    overlaps = [overlap(x, (i,) * m) for i in range(1, n + 1)]
    g = lambda k: centered_kernel(params, k)
    g_sum = sum((g(k) for k in overlaps), Fraction(0))
    mean = Fraction(m * (n - 1), n) * (g(m) + (n - 1) * g(0) - g_sum)
    span = g(m) - g(0)
    probs = tuple(Fraction(1, n) + (g(k) - g_sum / n) / span for k in overlaps)
    return SameUrnStats(mean=mean, exit_probs=probs)


@dataclass(frozen=True)
class SameUrnSpread:
    mean: Fraction
    prob_occupied: Fraction
    prob_empty: Fraction


def same_urn_from_spread(params: ModelParams) -> SameUrnSpread:
    """Clustering stats from the maximally spread start ``(1, 2, ..., balls)``.

    Needs ``balls <= urns``.  ``prob_occupied`` applies to the urns that held
    a ball initially, ``prob_empty`` to the rest; the weighted sum is 1.
    """
    n, m = params.urns, params.balls
    if m > n:
        raise ValueError("spread start needs balls <= urns")
    s = sum(Fraction(n**i, i) for i in range(1, m + 1))
    mean = Fraction(m * (n - 1), n**2) * sum(Fraction(n**i, i) for i in range(2, m + 1))
    prob_occupied = Fraction(1, n) + Fraction(n - m, 1) / (m * s)
    prob_empty = Fraction(1, n) - 1 / s
    return SameUrnSpread(mean=mean, prob_occupied=prob_occupied, prob_empty=prob_empty)


def rencontres_profile(m: int) -> list[Fraction]:
    """Fixed-point-count distribution of a uniform random permutation.

    ``profile[k]`` is the probability of exactly ``k`` fixed points among
    ``m`` letters: ``(1/k!) * sum_{j=2}^{m-k} (-1)**j / j!`` for
    ``k <= m - 2``, zero at ``m - 1``, and ``1/m!`` at ``m``.
    """
    if m < 2:
        raise ValueError("profile needs at least 2 letters")
    out = []
    for k in range(m + 1):
        if k <= m - 2:
            tail = sum(Fraction((-1) ** j, math.factorial(j)) for j in range(2, m - k + 1))
            out.append(Fraction(1, math.factorial(k)) * tail)
        elif k == m - 1:
            out.append(Fraction(0))
        else:
            out.append(Fraction(1, math.factorial(m)))
    return out


def all_distinct_mean(params: ModelParams) -> Fraction:
    """Mean first time all balls sit in different urns, from all-in-urn-1.

    Requires ``balls == urns``; the target is then the set of permutation
    configurations and the overlap distribution of a uniform permutation
    (the rencontres profile) weights the kernel values.
    """
    n, m = params.urns, params.balls
    if m != n:
        raise ValueError("all-distinct closed form needs balls == urns")
    g = lambda k: centered_kernel(params, k)
    profile = rencontres_profile(m)
    body = sum((profile[k] * g(k) for k in range(m - 1)), Fraction(0))
    return m * (m - 1) * (body - g(1)) + g(m) / math.factorial(m - 2)


def count_set_mean(params: ModelParams, k: int, h: int) -> Fraction:
    """Mean steps until exactly ``h`` balls occupy the reference urn.

    Depends only on the start count ``k``; one explicit sum per direction
    (filling up when ``k < h``, emptying out when ``k > h``).  At
    ``h = balls`` the slice is one state and ``k`` the start's overlap with it.
    """
    n, m = params.urns, params.balls
    if not (0 <= k <= m and 0 <= h <= m):
        raise ValueError(f"counts must lie in 0..{m}")
    if k == h:
        return Fraction(0)
    total = Fraction(0)
    if k < h:
        for i in range(k, h):
            inner = sum(Fraction(binomial(m, j), (n - 1) ** j) for j in range(i + 1))
            total += Fraction((n - 1) ** (i + 1), binomial(m - 1, i)) * inner
    else:
        for i in range(h, k):
            inner = sum(Fraction(binomial(m, j), (n - 1) ** j) for j in range(i + 1, m + 1))
            total += Fraction((n - 1) ** (i + 1), binomial(m - 1, i)) * inner
    return total


# ---------------------------------------------------------------------------
# the lumped count chain as an electric network


@dataclass(frozen=True)
class CountChain:
    """Birth-death projection onto the ball count of a reference urn.

    Level ``i`` holds the configurations with ``i`` balls in the reference
    urn.  The walk moves down with probability ``i/balls``, up with
    ``(balls-i)/(balls*(urns-1))``, and stays put otherwise; equivalently it
    is the weighted random walk on ``0..balls`` with the conductances below.
    """

    params: ModelParams
    reference_urn: int = 2

    def __post_init__(self):
        if not 1 <= self.reference_urn <= self.params.urns:
            raise ValueError("reference urn out of range")

    def conductance_up(self, i: int) -> Fraction:
        """Edge weight between levels ``i`` and ``i + 1`` (zero past the top)."""
        n, m = self.params.urns, self.params.balls
        if not 0 <= i <= m:
            raise ValueError(f"level {i} outside 0..{m}")
        return Fraction(binomial(m - 1, i), (n - 1) ** (i + 1))

    def conductance_self(self, i: int) -> Fraction:
        """Self-loop weight at level ``i`` (vanishes when only 2 urns exist)."""
        return (self.params.urns - 2) * self.conductance_up(i)

    def vertex_weight(self, i: int) -> Fraction:
        n, m = self.params.urns, self.params.balls
        if not 0 <= i <= m:
            raise ValueError(f"level {i} outside 0..{m}")
        return Fraction(binomial(m, i), (n - 1) ** i)

    def transition_row(self, i: int) -> tuple[Fraction, Fraction, Fraction]:
        """(down, stay, up) step probabilities out of level ``i``."""
        n, m = self.params.urns, self.params.balls
        if not 0 <= i <= m:
            raise ValueError(f"level {i} outside 0..{m}")
        down = Fraction(i, m)
        up = Fraction(m - i, m * (n - 1))
        stay = Fraction((m - i) * (n - 2), m * (n - 1))
        return down, stay, up


@dataclass(frozen=True)
class CommuteCheck:
    lhs: Fraction
    rhs: Fraction

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def network_commute_check(params: ModelParams, h: int, k: int) -> CommuteCheck:
    """Commute-time identity on the count chain, both sides recomputed.

    The left side adds the two one-way means between levels ``h < k``; the
    right side is total vertex weight times the effective resistance of the
    path segment, ``sum_i C(balls,i)/(urns-1)**i * sum_{j=h}^{k-1} 1/c(j, j+1)``.
    """
    if not 0 <= h < k <= params.balls:
        raise ValueError("need levels 0 <= h < k <= balls")
    chain = CountChain(params)
    lhs = count_set_mean(params, k, h) + count_set_mean(params, h, k)
    total_weight = sum((chain.vertex_weight(i) for i in range(params.balls + 1)), Fraction(0))
    resistance = sum((1 / chain.conductance_up(j) for j in range(h, k)), Fraction(0))
    rhs = total_weight * resistance
    return CommuteCheck(lhs=lhs, rhs=rhs)
