"""Exact hitting-time analytics for overlap-symmetric target sets.

For a start state ``x`` and a symmetric target set ``A`` the Laplace
transform of the hitting time factors into a ratio of resolvent-kernel sums:

    E_x[exp(-u * T_A_continuous)] = sum_z kernel(s(x,z), u)
                                    / sum_z kernel(s(y,z), u)

with ``z`` running over ``A`` and ``y`` any fixed element of ``A``.  Each
summand depends on ``z`` only through an overlap, so ``A`` enters only
through two overlap histograms of length ``balls + 1``: ``hist[k]`` counts
the elements of ``A`` at overlap ``k`` from ``x``, or from ``y`` (overlap
symmetry makes the second the same for every ``y``).  The query validates
``A`` once and counts both histograms from that payload: ``y`` is a member
built from the kind's definition, an ``explicit`` set is tested for symmetry
first, and no symbolic set is listed.  None of this counting is shared with
the oracle's listing or the Monte Carlo's membership keys, so their agreement
checks it.
:class:`HittingQuery` folds each histogram once, into the integer row
``a_t = sum_k hist[k] * c_{k,t}`` of :func:`~ehrenfest.resolvent.kernel_row`,
and keeps only the two rows: every output below reads them.  For the
transform both rows are summed over one shared, unreduced denominator
product, so the ratio is the quotient of the two integer numerators and is
reduced exactly once.  The discrete-time transform is the same ratio
evaluated at ``u = balls * (e**lambda - 1)``; :func:`summarize` keeps it
unreduced, since its report prints only ``digits`` digits and a float of it.
A start inside ``A`` has the reference histogram, so its two rows are equal:
the ratio gives the transform 1 and every moment 0 with no branch of its own.

Moments are read off the same two integer rows.  In ``w = 1 - z`` each side
of the ratio is an integer power series over one denominator
(:func:`~ehrenfest.resolvent.kernel_series`); their quotient is the series of
``E[(1 - w)**T]``, whose coefficients are the factorial moments up to sign
and factorials, and Stirling numbers turn those into raw moments.
:func:`raw_moments` runs that division and that sum as one integer
recurrence, with one gcd per series coefficient and one ``Fraction`` per
moment.  The mean, the variance and the continuous-time summaries are the
first two moments.  Everything on this analytic path is exact rational
arithmetic.  :func:`summarize` fills :class:`~ehrenfest.model.HittingSummary`,
which the oracle's answers fill too.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Sequence

from .closedforms import same_urn_stats_of_occupancy, two_point_stats
from .exact import Rational, lambda_to_u
from . import model
from .model import HittingSummary, ModelParams, SetDescriptor, SetNotSymmetricError, State, _Record, overlap
from .resolvent import kernel_row, kernel_series, kernel_sums


class HittingQuery(_Record):
    """A start state and a symmetric target set, folded once into two integer rows.

    The two overlap histograms, from the start and from one member, are
    counted from the descriptor validated once; ``rows`` holds their
    :func:`~ehrenfest.resolvent.kernel_row` folds, in that order, and every
    engine output reads those rows.  Only ``explicit`` sets are tested for
    symmetry (:class:`~ehrenfest.model.SetNotSymmetricError`): every symbolic
    kind is the orbit of one state under overlap-preserving maps (per-ball
    swaps of the two urns for a pair, global urn relabelings for the diagonal
    and the distinct set, ball permutations plus relabelings fixing the
    reference urn for a count slice), so it is symmetric by construction.
    ``payload`` is what ``target.validate`` returned, which the exit law reads;
    it and ``rows`` are neither compared nor shown.
    """

    __slots__ = ("params", "start", "target", "payload", "rows")
    _fields = ("params", "start", "target")

    def __init__(self, params: ModelParams, start: State, target: SetDescriptor):
        self._set(params, start, target)
        self.__post_init__()

    def __post_init__(self):
        params, target = self.params, self.target
        start = params.check_state(self.start)
        payload = target.validate(params)
        hists = _overlap_histograms(params, target, start, payload)
        self._set(params, start, target, payload=payload, rows=tuple(kernel_row(params, hist) for hist in hists))


def _reference(params: ModelParams, target: SetDescriptor, payload) -> State:
    """One member of the target set, built from its definition and the payload
    ``target.validate`` returned: the first listed state, or for a ``count:h:r``
    set ``h`` balls in urn ``r`` and the rest in one other urn."""
    m = params.balls
    if target.kind == "diagonal":
        return (1,) * m
    if target.kind == "distinct":
        return tuple(range(1, m + 1))
    if target.kind == "count":
        urn, h = target.reference_urn, target.count_overlap
        return (urn,) * h + (2 if urn == 1 else 1,) * (m - h)
    return payload[0]


def _overlap_histograms(params: ModelParams, target: SetDescriptor, x: State, payload):
    """The two overlap histograms a query reads, from ``x`` and from :func:`_reference`,
    given the payload ``target.validate`` returned.  An explicit set is tested for
    symmetry first (:class:`~ehrenfest.model.SetNotSymmetricError` names two members
    that differ), so every member has the same histogram and the reference serves."""
    if target.kind == "explicit":
        defect = model.symmetry_defect(payload)
        if defect is not None:
            raise SetNotSymmetricError(*defect)
    return tuple(_histogram(params, target, payload, y) for y in (x, _reference(params, target, payload)))


def _histogram(params: ModelParams, target: SetDescriptor, payload, x) -> tuple[int, ...]:
    """``hist[k]``: the members of the target set that agree with ``x`` in exactly
    ``k`` coordinates, given the payload ``target.validate`` returned."""
    n, m, kind = params.urns, params.balls, target.kind
    if kind == "explicit":  # one bincount over the table
        import numpy as np

        return tuple(np.bincount((payload == x).sum(axis=1), minlength=m + 1).tolist())
    hist = [0] * (m + 1)
    if kind in ("singleton", "pair"):
        for y in payload:
            hist[overlap(x, y)] += 1
    elif kind == "count":
        # a member holds h balls in urn r.  Of the a balls x holds there keep j (the rest go to the n - 1
        # other urns), put h - j of x's other balls into r, and of the free rest k - j as in x, the others
        # in the n - 2 urns that are neither r nor x's
        h, a = target.count_overlap, x.count(target.reference_urn)
        for j in range(max(0, h - m + a), min(a, h) + 1):
            free = m - a - h + j
            ways = math.comb(a, j) * (n - 1) ** (a - j) * math.comb(m - a, h - j)
            for k in range(j, j + free + 1):
                hist[k] += ways * math.comb(free, k - j) * (n - 2) ** (free - k + j)
    else:  # diagonal and distinct read only x's urn occupancies
        occupied = Counter(x).values()
        if kind == "diagonal":  # the member in an urn holding c balls of x is at overlap c
            hist[0] = n - len(occupied)
            for c in occupied:
                hist[c] += 1
        else:
            # e[j]: ways to pick j balls of x in j different urns; each pick extends to
            # (n-j)!/(n-m)! members, and inclusion-exclusion turns "at least" into "exactly"
            e = [1] + [0] * m
            for c in occupied:
                for j in range(m, 0, -1):
                    e[j] += c * e[j - 1]
            for k in range(m + 1):
                hist[k] = sum((-1) ** (j - k) * math.comb(j, k) * e[j] * math.perm(n - j, m - j)
                              for j in range(k, m + 1))
    return tuple(hist)


def laplace_u(query: HittingQuery, u: Rational) -> Fraction:
    """Transform of the continuous-time hitting time at rational ``u > 0``."""
    u = Fraction(u)
    if u <= 0:
        raise ValueError("transform argument must be positive")
    (start, ref), _ = kernel_sums(query.params, query.rows, u)
    return Fraction(start, ref)


def laplace_lambda(query: HittingQuery, lam: float, digits: int = 20) -> Fraction:
    """Transform of the discrete hitting time at ``lambda >= 0``.

    Evaluates the exact u-domain ratio at :func:`~ehrenfest.exact.lambda_to_u`,
    a rational approximation of ``balls * (e**lambda - 1)`` accurate well past
    ``digits`` significant digits.  Returns exactly 1 at ``lambda = 0``.  The
    reduced value of :func:`lambda_sums`.
    """
    return Fraction(*lambda_sums(query, lam, digits))


def lambda_sums(query: HittingQuery, lam: float, digits: int = 20) -> tuple[int, int]:
    """The two unreduced kernel sums whose ratio is :func:`laplace_lambda`,
    ``(1, 1)`` at ``lambda = 0``: as :func:`~ehrenfest.resolvent.kernel_sums`
    returns them, with no gcd taken."""
    if lam < 0:
        raise ValueError("transform argument must be non-negative")
    if lam == 0:
        return 1, 1
    (start, ref), _ = kernel_sums(query.params, query.rows, lambda_to_u(query.params.balls, lam, digits))
    return start, ref


def mean(query: HittingQuery) -> Fraction:
    """Exact expected number of steps to reach the target set: minus the
    ``w`` coefficient of the transform, the first of :func:`raw_moments`."""
    return raw_moments(query, 1)[0]


def variance(query: HittingQuery) -> Fraction:
    """Exact variance of the number of steps, from the first two :func:`raw_moments`."""
    first, second = raw_moments(query, 2)
    return second - first**2


def raw_moments(query: HittingQuery, order: int) -> list[Fraction]:
    """Exact raw moments ``E[T**n]`` for ``n = 1..order``, off one integer recurrence.

    :func:`~ehrenfest.resolvent.kernel_series` gives both sides as integer
    series ``s`` and ``r`` in ``v = w / scale``, with ``s_0 = r_0 = |A|``.
    Their quotient ``Q = s / r`` is the series of ``E[(1 - w)**T]``, whose
    ``w**k`` coefficient ``Q_k / scale**k`` is ``(-1)**k * E[(T)_k] / k!``:

        Q_j = (s_j - sum_{i<j} Q_i * r_{j-i}) / |A|

    Each ``Q_j`` is kept as an integer numerator over ``L``, the running lcm
    of the earlier coefficients' denominators: its new numerator is reduced
    against ``L * |A|`` by one gcd, and ``L`` grows by what that leaves.
    Stirling numbers of the second kind then give each moment as one integer
    sum over ``L * scale**n`` and one :class:`~fractions.Fraction`:

        E[T**n] = sum_k S(n, k) * (-1)**k * k! * Q_k / scale**k

    That is about ``2 * order`` reductions.  The plain common denominator
    ``|A|**(j+1)`` would take one gcd per moment and none per coefficient,
    but its numerators carry ``|A|**j``: on a large set (``|A|`` near
    ``10**298`` for ``count:150`` at ``N = 10**5``, ``M = 200``) that costs
    more than the gcds save: from all ones at order 32 it takes about four
    times as long as this recurrence.
    """
    if order < 1:
        raise ValueError("moment order must be >= 1")
    (start, ref), scale = kernel_series(query.params, query.rows, order)
    size = ref[0]
    lcm, scaled = 1, []  # scaled[i] = Q_i * lcm
    moments, weights = [], [1]  # weights[k] = (-1)**k * k! * S(n, k), from S(0, 0) = 1
    for j in range(order + 1):
        num = start[j] * lcm - sum(q * r for q, r in zip(scaled, ref[j:0:-1]))
        g = math.gcd(num, lcm * size)
        den = lcm * size // g
        grow = den // math.gcd(lcm, den)
        if grow != 1:
            lcm *= grow
            scaled = [q * grow for q in scaled]
        scaled.append(num // g * (lcm // den))
        if j:  # (-1)**k * k! * S(n, k) = k * (that of (n-1, k) - that of (n-1, k-1))
            weights = [k * (b - a) for k, (a, b) in enumerate(zip([0] + weights, weights + [0]))]
            total = 0
            for k in range(1, j + 1):
                total = total * scale + weights[k] * scaled[k]
            moments.append(Fraction(total, lcm * scale**j))
    return moments


def exit_distribution(query: HittingQuery) -> dict[State, Fraction] | None:
    """Law of the state where the target set is first hit, where a closed form gives it.

    Singletons, pairs and the diagonal have one, which puts mass 1 on the
    start when it lies in the set; other kinds give ``None``.  A singleton's
    or a pair's states and the diagonal's start are read as the query
    validated them.
    """
    params, kind, x = query.params, query.target.kind, query.start
    if kind == "singleton":
        return {query.payload[0]: Fraction(1)}
    if kind == "pair":
        y, z = sorted(query.payload)
        first = two_point_stats(params, overlap(x, y), overlap(x, z), overlap(y, z)).exit_prob_first
        return {y: first, z: 1 - first}
    if kind == "diagonal":
        probs = same_urn_stats_of_occupancy(params, Counter(x)).exit_probs
        return {(i,) * params.balls: p for i, p in enumerate(probs, start=1)}
    return None


class CtmcStats(NamedTuple):
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
        lambda_samples=tuple((float(l), lambda_sums(query, l, digits)) for l in lambda_grid),
        exit_distribution=exit_distribution(query),
    )
