"""Closed-form hitting statistics for the classical target families.

Each function here evaluates an explicit finite sum in exact rationals for
one concrete target family: two-point sets, the all-balls-in-one-urn
diagonal (summed over the start's urn-occupancy classes, not over urns) and
the fixed-count slices (a single state is the top slice), plus the
birth-death "count chain" these slices lump onto and its electric-network
commute identity.  All of them are alternative routes to numbers the generic
engine in :mod:`ehrenfest.hitting` also produces, which is exactly what
makes them useful: every pair of routes is asserted equal in the test-suite.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, lcm
from typing import Mapping, NamedTuple, Sequence

from .exact import over_one_denominator
from .model import ModelParams, _Record, overlap
from .resolvent import centered_kernel


class TwoPointStats(NamedTuple):
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


class SameUrnStats(NamedTuple):
    mean: Fraction
    exit_probs: tuple[Fraction, ...]


def same_urn_stats(params: ModelParams, x: Sequence[int]) -> SameUrnStats:
    """First time all balls share an urn: mean and exit split by urn.

    ``exit_probs[i-1]`` is the probability that the first fully-clustered
    configuration puts every ball in urn ``i``; it always sums to one.  Urns
    with equal ball counts in ``x`` get equal probabilities, from one kernel.
    State-level wrapper around :func:`same_urn_stats_of_occupancy`.
    """
    return same_urn_stats_of_occupancy(params, Counter(params.check_state(x)))


def same_urn_stats_of_occupancy(params: ModelParams, balls: Mapping[int, int]) -> SameUrnStats:
    """:func:`same_urn_stats` from the ball count ``balls[u]`` of every occupied urn ``u`` of a valid start."""
    n, m = params.urns, params.balls
    sizes = Counter(balls.values())  # urns per ball count
    sizes[0] = n - len(balls)
    g = {k: centered_kernel(params, k) for k in {0, m, *sizes}}
    g_sum = sum((size * g[k] for k, size in sizes.items()), Fraction(0))
    mean = Fraction(m * (n - 1), n) * (g[m] + (n - 1) * g[0] - g_sum)
    g_mean, span = g_sum / n, g[m] - g[0]
    prob = {k: Fraction(1, n) + (g[k] - g_mean) / span for k in sizes}
    return SameUrnStats(mean=mean, exit_probs=tuple(prob[balls.get(i, 0)] for i in range(1, n + 1)))


@lru_cache(maxsize=None)
def count_level_means(params: ModelParams) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Mean steps between adjacent counts of the reference urn, ``(up, down)``.

    ``up[i]`` is the mean passage from ``i`` to ``i + 1`` balls and
    ``down[i]`` the one from ``i + 1`` to ``i``:

        up[i]   = (urns-1)**(i+1) / C(balls-1, i) * sum_{j<=i} C(balls,j) / (urns-1)**j
        down[i] = (urns-1)**(i+1) / C(balls-1, i) * sum_{j>i}  C(balls,j) / (urns-1)**j

    The inner sums are prefix and suffix sums of one series, so all
    ``2 * balls`` terms cost O(balls) rational operations.
    """
    n, m = params.urns, params.balls
    series = [Fraction(comb(m, j), (n - 1) ** j) for j in range(m + 1)]
    total = sum(series, Fraction(0))
    up, down = [], []
    prefix = Fraction(0)
    for i in range(m):
        prefix += series[i]
        scale = Fraction((n - 1) ** (i + 1), comb(m - 1, i))
        up.append(scale * prefix)
        down.append(scale * (total - prefix))
    return tuple(up), tuple(down)


def count_set_mean(params: ModelParams, k: int, h: int) -> Fraction:
    """Mean steps until exactly ``h`` balls occupy the reference urn.

    Depends only on the start count ``k``: the sum of the one-way level means
    of :func:`count_level_means` between ``k`` and ``h`` (filling up when
    ``k < h``, emptying out when ``k > h``).  At ``h = balls`` the slice is
    one state and ``k`` the start's overlap with it.
    """
    m = params.balls
    if not (0 <= k <= m and 0 <= h <= m):
        raise ValueError(f"counts must lie in 0..{m}")
    up, down, den = _level_prefix_sums(params)
    return Fraction(up[h] - up[k] if k < h else down[k] - down[h], den)


@lru_cache(maxsize=None)
def _level_prefix_sums(params: ModelParams) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """``(up, down, den)``: the prefix sums of :func:`count_level_means`' two lists, each starting at 0,
    as integer numerators over one denominator ``den``; a slice sum is one difference."""
    m = params.balls
    up, down = count_level_means(params)
    nums, den = over_one_denominator([*up, *down])
    return tuple(accumulate(nums[:m], initial=0)), tuple(accumulate(nums[m:], initial=0)), den


# ---------------------------------------------------------------------------
# the lumped count chain as an electric network


class CountChain(_Record):
    """Birth-death projection onto the ball count of a reference urn.

    Level ``i`` holds the configurations with ``i`` balls in the reference
    urn.  The walk moves down with probability ``i/balls``, up with
    ``(balls-i)/(balls*(urns-1))``, and stays put otherwise; equivalently it
    is the weighted random walk on ``0..balls`` with the conductances below.
    """

    __slots__ = _fields = ("params",)

    def __init__(self, params: ModelParams):
        self._set(params)

    def conductance_up(self, i: int) -> Fraction:
        """Edge weight between levels ``i`` and ``i + 1`` (zero past the top)."""
        n, m = self.params.urns, self.params.balls
        if not 0 <= i <= m:
            raise ValueError(f"level {i} outside 0..{m}")
        return Fraction(comb(m - 1, i), (n - 1) ** (i + 1))

    def vertex_weight(self, i: int) -> Fraction:
        n, m = self.params.urns, self.params.balls
        if not 0 <= i <= m:
            raise ValueError(f"level {i} outside 0..{m}")
        return Fraction(comb(m, i), (n - 1) ** i)

    def total_weight(self) -> Fraction:
        return sum((self.vertex_weight(i) for i in range(self.params.balls + 1)), Fraction(0))


class CommuteCheck(NamedTuple):
    lhs: Fraction
    rhs: Fraction

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


@lru_cache(maxsize=None)
def _commute_sides(params: ModelParams) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Both sides of the commute identity in integers, summed once along the path.

    Returns ``(lhs, rhs, den)``: each side is a tuple of prefix sums of integer
    numerators over the one denominator ``den``, starting at 0, so the side
    between levels ``h < k`` is ``(side[k] - side[h]) / den``.  The left side
    adds the prefix sums of both one-way level means (:func:`_level_prefix_sums`);
    the right side sums the resistances ``1/c(j, j+1)`` of the conductances, its
    numerators times the total vertex weight's.  Each side is summed over its own
    denominator and then scaled to ``den``, the lcm of the two, so neither reads the
    other's route and each pair's two sides agree only if the identity holds.
    Cached per ``params``, like the level means.
    """
    up, down, lhs_den = _level_prefix_sums(params)
    chain = CountChain(params)
    resistance, resistance_den = over_one_denominator([1 / chain.conductance_up(j) for j in range(params.balls)])
    weight = chain.total_weight()
    rhs_den = weight.denominator * resistance_den
    den = lcm(lhs_den, rhs_den)
    left, right = den // lhs_den, den // rhs_den * weight.numerator
    rhs = tuple(right * r for r in accumulate(resistance, initial=0))
    return tuple(left * (a + b) for a, b in zip(up, down)), rhs, den


def network_commute_check(params: ModelParams, h: int, k: int) -> CommuteCheck:
    """Commute-time identity on the count chain, both sides recomputed.

    The left side adds the two one-way means between levels ``h < k``; the
    right side is total vertex weight times the effective resistance of the
    path segment, ``sum_i C(balls,i)/(urns-1)**i * sum_{j=h}^{k-1} 1/c(j, j+1)``.
    Each is one difference of the integer prefix sums of
    :func:`_commute_sides`, reduced once as a :class:`~fractions.Fraction`.
    """
    if not 0 <= h < k <= params.balls:
        raise ValueError("need levels 0 <= h < k <= balls")
    lhs, rhs, den = _commute_sides(params)
    return CommuteCheck(lhs=Fraction(lhs[k] - lhs[h], den), rhs=Fraction(rhs[k] - rhs[h], den))


def network_commute_sweep(params: ModelParams) -> list[tuple[int, int, tuple[int, int], tuple[int, int]]]:
    """Both sides of :func:`network_commute_check` for every level pair ``h < k``, unreduced.

    Returns ``(h, k, lhs, rhs)`` for each pair in order, each side an integer
    ``(numerator, denominator)`` pair with one positive denominator shared by
    both sides and every pair: the prefix sums of :func:`_commute_sides` are
    taken once, O(balls) rational operations per side, and each pair reads one
    integer difference per side.  No gcd is taken; the sides agree when their
    numerators do.
    """
    m = params.balls
    lhs, rhs, den = _commute_sides(params)
    return [
        (h, k, (lhs[k] - lhs[h], den), (rhs[k] - rhs[h], den))
        for h in range(m + 1)
        for k in range(h + 1, m + 1)
    ]
