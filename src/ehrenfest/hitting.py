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
evaluated at ``u = balls * (e**lambda - 1)``, of which a report prints only
``digits`` digits and a float: :func:`lambda_point` floors each row's terms
at a few hundred to a few thousand fractional bits, which encloses the ratio
closely enough to decide both, and runs the exact sums only where that
interval does not settle them or would cost more.
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
arithmetic.  :func:`summarize` hands :func:`raw_moments` and the kernel sums
to :meth:`~ehrenfest.model.HittingSummary.of_route`, as the oracle does its solves.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import partial
from typing import NamedTuple, Sequence

from .closedforms import same_urn_stats_of_occupancy, two_point_stats
from .exact import ROUND_TRIP_DIGITS, Rational, format_enclosed, lambda_to_u
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
    ``payload`` is what ``target.validate`` returned, which the exit law reads,
    and ``reach`` the fewest steps from the start to the set, ``balls`` less its
    largest overlap with a member, which :func:`lambda_point` reads; they and
    ``rows`` are neither compared nor shown.
    """

    __slots__ = ("params", "start", "target", "payload", "rows", "reach")
    _fields = ("params", "start", "target")

    def __init__(self, params: ModelParams, start: State, target: SetDescriptor):
        self._set(params, start, target)
        self.__post_init__()

    def __post_init__(self):
        params, target = self.params, self.target
        start = params.check_state(self.start)
        payload = target.validate(params)
        hists = _overlap_histograms(params, target, start, payload)
        reach = params.balls - max(k for k, count in enumerate(hists[0]) if count)
        self._set(params, start, target, payload=payload, rows=tuple(kernel_row(params, hist) for hist in hists),
                  reach=reach)


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
    return Fraction(*_sums(query, Fraction(u)))


def _sums(query: HittingQuery, u: Fraction) -> tuple[int, int]:
    """The unreduced kernel sums, from the start and from the reference, whose ratio is :func:`laplace_u`."""
    if u <= 0:
        raise ValueError("transform argument must be positive")
    (start, ref), _ = kernel_sums(query.params, query.rows, u)
    return start, ref


def laplace_lambda(query: HittingQuery, lam: float, digits: int = 20) -> Fraction:
    """Transform of the discrete hitting time at ``lambda >= 0``.

    Evaluates the exact u-domain ratio at :func:`~ehrenfest.exact.lambda_to_u`,
    a rational approximation of ``balls * (e**lambda - 1)`` accurate well past
    ``digits`` significant digits.  Returns exactly 1 at ``lambda = 0``.  The
    reduced value of :func:`lambda_sums`.
    """
    return Fraction(*lambda_sums(query, lam, digits))


def lambda_sums(query: HittingQuery, lam: float, digits: int = 20) -> tuple[int, int]:
    """The two unreduced kernel sums whose ratio is :func:`laplace_lambda`, by
    :meth:`~ehrenfest.model.HittingSummary.lambda_sample`'s rule."""
    return HittingSummary.lambda_sample(partial(_sums, query), query.params.balls, lam, digits)


def lambda_point(query: HittingQuery, lam: float, digits: int = 20) -> tuple[str, float]:
    """:func:`laplace_lambda` as a report prints it: its ``digits`` significant
    digits and its correctly rounded float, as
    :meth:`~ehrenfest.model.HittingSummary.rendered` prints :func:`lambda_sums`.

    Both are decided from :func:`_enclosure` where its two ends round alike.
    The exact sums run where they do not, at ``lambda = 0``, and where the
    start's row is the reference's: a start inside the set, where the value is
    exactly 1, which the exact quotient prints as ``1`` and no interval around
    it can settle.
    """
    if lam > 0 and query.rows[0] != query.rows[1]:
        u = lambda_to_u(query.params.balls, lam, digits)
        point = _enclosure(query, u, digits)
        return point if point is not None else HittingSummary.rendered(_sums(query, u), digits)
    return HittingSummary.rendered(lambda_sums(query, lam, digits), digits)


#: bits each row's floored sum keeps past the digits printed: the enclosure is about
#: ``2**-_GUARD_BITS`` of the value wide, so its ends round apart about that rarely
_GUARD_BITS = 96


def _enclosure(query: HittingQuery, u: Fraction, digits: int) -> tuple[str, float] | None:
    """The decimal and the float of the transform at ``u = p/q``, read off floored
    fixed-point sums of the two rows, or None where they do not settle both or
    would cost more than the exact sums.

    The transform is ``S_0 / S_1`` with ``S_i = sum_t a_it / d_t`` over the ``K``
    columns where a row is nonzero, ``d_t = urns*t*q + (urns-1)*p``.  Floored at
    ``P_i`` fractional bits, ``L_i = sum_t floor(a_it * 2**P_i / d_t)`` misses
    ``S_i * 2**P_i`` by less than 1 a term, so that lies in ``[L_i, L_i + K)`` and
    ``S_0 / S_1`` in ``[L_0 / (L_1 + K), (L_0 + K) / L_1] * 2**(P_1 - P_0)``.  Both
    sums are positive.  Each ``P_i`` is found by Ziv's strategy (*ACM TOMS* 17(3),
    1991): a row needs ``L_i`` of ``max(digits, 17) * log2(10) + _GUARD_BITS``
    bits plus ``bits(K)``; the reference's row starts at that plus ``bits(q)``,
    the bits the divisions take off, and a row grows by the bits ``L_i`` lacks,
    or doubles where ``L_i <= 0``.  Each floor keeps its remainder, so raising
    ``P_i`` by ``s`` divides ``s`` new bits a term: a row costs about one pass at
    its last ``P_i``.

    Only the start's row cancels: its sum is ``S_1`` times the transform
    ``E[z**T]``, ``z = balls / (balls + u)``, where ``T`` is at least the query's
    ``reach``, ``r``, and equals it with probability at least
    ``r! / (balls * (urns-1))**r``.  So it lacks at most ``r * log2(1/z)`` plus
    ``log2((balls * (urns-1))**r / r!)`` bits against ``S_1``, which sets where it
    starts.  A pass at ``P`` bits costs about ``P / size`` times 2.3-3.8 exact sums
    of ``size = sum_t bits(d_t)`` bits (measured at ``size`` from 2*10**4 to
    7*10**5), so where the two rows would take more than ``size / 4`` bits, far
    from the set at a large lambda, None: the exact :func:`kernel_sums` are
    cheaper.  That is decided before any pass where even the largest ``S_1`` its
    terms allow leaves the start's row past it.
    """
    params, (row0, row1) = query.params, query.rows
    n, m, p, q, r = params.urns, params.balls, u.numerator, u.denominator, query.reach
    kept = [t for t, pair in enumerate(zip(row0, row1)) if any(pair)]
    dens = [n * t * q + (n - 1) * p for t in kept]
    width = len(kept).bit_length()
    budget = sum(d.bit_length() for d in dens) // 4
    need = math.ceil(max(digits, ROUND_TRIP_DIGITS) * math.log2(10)) + _GUARD_BITS + width
    lack = r * (math.log2(m * q + p) - math.log2(m * q) + math.log2(m * (n - 1))) - math.lgamma(r + 1) / math.log(2)
    start = need + q.bit_length()

    def start_row(scale: int) -> int:
        """``P_0`` that leaves ``L_0`` at least ``need`` bits where ``S_1 >= 2**(scale - 1)``."""
        return max(start, need - scale + math.ceil(lack) + width + 1)

    def floored(row, bits: int, cap: int) -> tuple[int, int] | None:
        """``(L, P)`` for one row from ``P = bits`` on, or None past ``cap`` bits."""
        if bits > cap:
            return None
        parts = [divmod(row[t] << bits, d) for t, d in zip(kept, dens)]
        total, rems = sum(f for f, _ in parts), [rem for _, rem in parts]
        while (short := need - total.bit_length() if total > 0 else bits) > 0:
            if bits + short > cap:
                return None
            bits += short
            parts = [divmod(rem << short, d) for rem, d in zip(rems, dens)]
            total, rems = (total << short) + sum(f for f, _ in parts), [rem for _, rem in parts]
        return total, bits

    # S_1 < 2**(bits(K) + its largest term's bits), so past the budget there is past it for the real S_1
    top = max(abs(row1[t]).bit_length() - d.bit_length() + 1 for t, d in zip(kept, dens)) + width
    ref = floored(row1, start, budget - start_row(top + 1))
    low = ref and floored(row0, start_row(ref[0].bit_length() - ref[1]), budget - ref[1])
    if not low:
        return None
    (l0, p0), (l1, p1) = low, ref
    lo, hi, shift = (l0, l1 + len(kept)), (l0 + len(kept), l1), p1 - p0
    floats = [(a << max(shift, 0)) / (b << max(-shift, 0)) for a, b in (lo, hi)]
    text = format_enclosed(lo, hi, shift, digits) if floats[0] == floats[1] else None
    return None if text is None else (text, floats[0])


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
    """Bundle the exact statistics, transform samples and exit law of one query
    by :meth:`~ehrenfest.model.HittingSummary.of_route`."""
    return HittingSummary.of_route(partial(raw_moments, query), partial(_sums, query), query.params.balls, order,
                                   u_grid, lambda_grid, digits, exit_distribution(query), partial(lambda_point, query))
