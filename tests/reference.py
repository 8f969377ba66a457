"""Test references: code the tests compare the package against.

The first group are straightforward ``Fraction`` versions of the closed
forms.  Each sums its terms one reduced :class:`fractions.Fraction` at a
time, exactly as the package did before its sums moved to unreduced integers
over one denominator, and the tests require the package's values to equal
these, rational for rational.  With them sit three more that the package's
faster versions must match: the decimal rendering that divides the whole
quotient exactly (the top-bits renderer, string for string), the kernel sums
that read their columns one row entry at a time (integer for integer), and
the raw moments read off by :class:`~ehrenfest.exact.Jet` division and a
``Fraction`` Stirling sum (the integer recurrence, rational for rational).

The rest is code that no route, command, demo or benchmark runs: the
one-step neighbours and overlap profiles of a state, written the obvious way,
the diagonal's and the distinct set's overlap histograms read urn by urn,
the member-by-member checks an ``explicit:@file`` payload once went through,
the oracle's neighbour table as a modulo and a gather built it, its chain
relabelled in any order of the states, the oracle's partition refinement as
it grouped signature rows with ``np.unique(axis=0)``, and closed forms for
single target families (the variance at a disjoint singleton, clustering
from the spread start and from any start read urn by urn, the all-distinct
mean), and symmetric sets that no kind lists: orbits under per-ball urn and
ball permutations, linear codes, and a hypothesis strategy over both
(:func:`symmetric_sets`).  The tests check the oracle, the symmetry test,
the explicit-set table, the histograms, the oracle's quotient, the engine and
the diagonal's closed form against them.

The paper's identities close the module.  :func:`transition_prob` is the
walk's one-step law and :func:`transition_row` its step law on the count of
one urn (:class:`~ehrenfest.closedforms.CountChain`); each ball of its
auxiliary chain jumps at rate 1 (:func:`single_ball_generator`,
:func:`single_ball_semigroup`), and the product law
:func:`product_semigroup` transforms in time to :func:`green_potential`,
``(urns-1)/urns**balls`` times the resolvent kernel the engine is built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence

import numpy as np
from hypothesis import assume, strategies as st

from ehrenfest.closedforms import CountChain, SameUrnStats
from ehrenfest.exact import Jet, Rational
from ehrenfest.model import CapExceededError, ModelParams, State, overlap
from ehrenfest.oracle import MAX_BLOCKS, EnumeratedChain
from ehrenfest.resolvent import (
    KernelIncrements,
    centered_kernel,
    kernel_coefficients,
    kernel_series,
    resolvent_kernel,
)


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


def format_significant(value: Rational, digits: int = 20) -> str:
    """Render a rational in decimal with ``digits`` significant digits."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    q = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = digits
        d = Decimal(q.numerator) / Decimal(q.denominator)
    return str(d)


def kernel_sums(params: ModelParams, rows: Sequence[Sequence[int]], u: Rational) -> tuple[list[int], int]:
    """Kernel sums of integer ``rows`` at rational ``u > 0``, unreduced, as
    nonzero columns read one row entry at a time and added by binary splitting."""
    u = Fraction(u)
    if u <= 0:
        raise ValueError("resolvent kernel needs u > 0; use the centered kernel at u = 0")
    n, p, q = params.urns, u.numerator, u.denominator
    terms = [
        ([row[t] for row in rows], n * t * q + (n - 1) * p)
        for t in range(params.balls + 1)
        if any(row[t] for row in rows)
    ]
    if not terms:
        return [0] * len(rows), 1

    def split(lo: int, hi: int) -> tuple[list[int], int]:
        if hi - lo == 1:
            return terms[lo]
        mid = (lo + hi) // 2
        (left, dl), (right, dr) = split(lo, mid), split(mid, hi)
        return [a * dr + b * dl for a, b in zip(left, right)], dl * dr

    nums, den = split(0, len(terms))
    return [q * a for a in nums], den


def raw_moments(query, order: int) -> list[Fraction]:
    """Raw moments ``E[T**r]`` for ``r = 1..order`` by :class:`~ehrenfest.exact.Jet`
    division of the two kernel series and a ``Fraction`` sum of Stirling terms."""
    if order < 1:
        raise ValueError("moment order must be >= 1")
    (start, ref), scale = kernel_series(query.params, query.rows, order)
    ratio = (Jet(start) / Jet(ref)).coeffs
    factorial = [(-1) ** r * math.factorial(r) * ratio[r] / scale**r for r in range(order + 1)]
    moments, stirling = [], [1]  # stirling[k] = S(r, k), from S(0, 0) = 1
    for _ in range(order):  # S(r, k) = S(r-1, k-1) + k * S(r-1, k)
        stirling = [a + k * b for k, (a, b) in enumerate(zip([0] + stirling, stirling + [0]))]
        moments.append(sum(s * f for s, f in zip(stirling, factorial)))
    return moments


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
        Fraction((n - 1) ** k, m * math.comb(m - 1, k))
        * sum(Fraction(math.comb(m, i), (n - 1) ** i) for i in range(k + 1))
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
    lhs1 = sum((Fraction(math.comb(m, i)) * a**i / i for i in range(1, m + 1)), Fraction(0))
    rhs1 = sum((((1 + a) ** i - 1) / Fraction(i) for i in range(1, m + 1)), Fraction(0))
    lhs2 = sum((Fraction(math.comb(m, i)) * a**i / i**2 for i in range(1, m + 1)), Fraction(0))
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
    scale = Fraction((n - 1) ** (M - m), M * math.comb(M - 1, m))
    return scale * sum(Fraction(math.comb(M, i), (n - 1) ** i) for i in range(M - m, M + 1))


def overlap_increment_distribution(params: ModelParams, m: int) -> Sequence[tuple[int, Fraction]]:
    """Binomial(m, 1/(urns-1)) overlap law, for enumerating the mean directly."""
    n = params.urns
    p = Fraction(1, n - 1)
    return [
        (j, Fraction(math.comb(m, j)) * p**j * (1 - p) ** (m - j))
        for j in range(m + 1)
    ]


# ---------------------------------------------------------------------------
# model helpers the oracle and symmetry tests check against


def neighbor_states(params: ModelParams, x: Sequence[int]) -> Iterator[State]:
    """All states reachable in one step (each with equal probability)."""
    x = params.check_state(x)
    for i in range(params.balls):
        for u in range(1, params.urns + 1):
            if u != x[i]:
                yield x[:i] + (u,) + x[i + 1 :]


def overlap_profile(y: State, states: Sequence[State]) -> tuple[int, ...]:
    """Sorted multiset of overlaps of ``y`` against every element (itself included)."""
    return tuple(sorted(overlap(y, z) for z in states))


def occupancy_histogram_by_urn(params: ModelParams, kind: str, x: State) -> tuple[int, ...]:
    """The overlap histogram from ``x`` of the ``diagonal`` or the ``distinct``
    set, read urn by urn: one ``x.count(u)`` pass per urn ``u``.  The diagonal's
    member in urn ``u`` is at overlap ``x.count(u)``; a distinct member's count
    comes from the rook numbers of those occupancies by inclusion-exclusion."""
    n, m = params.urns, params.balls
    occupancies = [x.count(u) for u in range(1, n + 1)]
    if kind == "diagonal":
        return tuple(occupancies.count(k) for k in range(m + 1))
    rooks = [1] + [0] * m  # rooks[j]: ways to keep j balls of x, in j different urns
    for c in occupancies:
        rooks = [r + c * q for r, q in zip(rooks, [0] + rooks)]
    return tuple(
        sum((-1) ** (j - k) * math.comb(j, k) * rooks[j] * math.perm(n - j, m - j) for j in range(k, m + 1))
        for k in range(m + 1)
    )


def explicit_members(params: ModelParams, data, path: str) -> list[State]:
    """The sorted members of the JSON payload ``data`` of ``explicit:@path``,
    checked one coordinate and one member at a time: the type test of
    ``parse_set``, the ``int()`` copy of ``SetDescriptor.explicit``, then the
    ``check_state`` loop and the empty and duplicate tests of ``validate``.
    Raises the ValueError those raised, naming the first faulty member."""
    # type(c) is int: int() would round 1.7 down and accept true and "2"
    if not isinstance(data, list) or not all(
        isinstance(s, list) and all(type(c) is int for c in s) for s in data
    ):
        raise ValueError(f"{path} must hold a JSON array of states of integers, got {data!r:.60}")
    states = tuple(tuple(int(c) for c in s) for s in data)
    states = tuple(params.check_state(s) for s in states)
    if not states:
        raise ValueError("explicit descriptor with empty state list")
    if len(set(states)) != len(states):
        raise ValueError("explicit descriptor contains duplicate states")
    return sorted(states)


def orbit(seed: Sequence[int], generators, cap: int) -> list[State] | None:
    """The sorted orbit of ``seed`` under the group that ``generators`` generate,
    or None once it holds more than ``cap`` states.

    A generator ``(maps, balls)`` moves ball ``i`` from urn ``u`` to urn
    ``maps[i][u - 1]`` and then to place ``balls[i]``: a per-ball urn
    permutation, then a ball permutation.  Both keep every overlap, so an orbit
    is a symmetric set, and in general no kind's set or image.  The orbit is
    closed by a breadth-first search: in a finite group each generator's
    inverse is one of its powers, so no inverse is needed."""
    seen = frontier = {tuple(seed)}
    while frontier:
        moved = set()
        for x, (maps, balls) in product(frontier, generators):
            y = [0] * len(x)
            for i, u in enumerate(x):
                y[balls[i]] = maps[i][u - 1]
            moved.add(tuple(y))
        frontier = moved - seen
        seen = seen | frontier
        if len(seen) > cap:
            return None
    return sorted(seen)


def linear_code(G: Sequence[Sequence[int]], q: int) -> list[State]:
    """The sorted codewords of the span of ``G``'s rows over GF(q), ``q`` prime,
    as states: symbol ``c`` sits in urn ``c + 1``.  Translation by a codeword
    keeps every overlap, so a linear code is a symmetric set (MacWilliams and
    Sloane 1977, ch. 1)."""
    return sorted({tuple(sum(c * g for c, g in zip(coeffs, column)) % q + 1 for column in zip(*G))
                   for coeffs in product(range(q), repeat=len(G))})


#: The binary [7,4] Hamming code and the ternary [4,2] tetracode, by generator matrix and field.
HAMMING_7_4 = (((1, 0, 0, 0, 0, 1, 1), (0, 1, 0, 0, 1, 0, 1), (0, 0, 1, 0, 1, 1, 0), (0, 0, 0, 1, 1, 1, 1)), 2)
TETRACODE = (((1, 0, 1, 1), (0, 1, 1, 2)), 3)

#: The chains ``(N, M)`` that :func:`symmetric_sets` draws orbits on.
ORBIT_SHAPES = ((2, 6), (3, 4), (3, 5), (4, 3), (5, 3), (2, 8))


@st.composite
def symmetric_sets(draw):
    """``(params, states)``: a linear code, or an orbit under one or two random
    generators on one of ``ORBIT_SHAPES`` holding at most half of the chain's
    states, so that a start outside the set exists."""
    if draw(st.integers(0, 4)) == 0:
        G, q = draw(st.sampled_from([HAMMING_7_4, TETRACODE]))
        return ModelParams(q, len(G[0])), linear_code(G, q)
    n, m = draw(st.sampled_from(ORBIT_SHAPES))
    urns = st.permutations(range(1, n + 1)).map(tuple)
    generator = st.tuples(st.tuples(*[urns] * m), st.one_of(st.just(range(m)), st.permutations(range(m))))
    generators = draw(st.lists(generator, min_size=1, max_size=2))
    states = orbit(draw(st.tuples(*[st.integers(1, n)] * m)), generators, n**m // 2)
    assume(states is not None)
    return ModelParams(n, m), states


def neighbor_table_by_modulo(params: ModelParams, order: Sequence[int] | None = None) -> np.ndarray:
    """:class:`ehrenfest.oracle.EnumeratedChain`'s neighbour table as it was
    built when the chain could list its states in any ``order`` of their codes:
    each moved digit wrapped by an integer ``%`` over the whole (S, M, N-1)
    array, and the neighbours' codes mapped back to positions by a gather
    through the inverse of ``order``."""
    n, m, size = params.urns, params.balls, params.state_count
    codes = np.arange(size) if order is None else np.array(list(order), dtype=np.int64)
    radix = n ** np.arange(m, dtype=np.int64)
    digits = codes[:, None] // radix % n
    moved = (digits[:, :, None] + np.arange(1, n)) % n
    shifts = ((moved - digits[:, :, None]) * radix[:, None]).reshape(size, -1)
    position = np.empty(size, dtype=np.intp)
    position[codes] = np.arange(size)
    return position[codes[:, None] + shifts]


def states_of(chain: EnumeratedChain) -> list[State]:
    """Every state of ``chain``, listed by position."""
    return chain.states_at(np.arange(chain.params.state_count))


def reordered_chain(params: ModelParams, order: Sequence[int]) -> EnumeratedChain:
    """The enumerated chain with its states listed in ``order``, a permutation
    of their codes: position ``r`` holds the state of code ``order[r]``.
    ``positions``, ``states_at``, the target mask ``_marked`` and
    ``neighbor_table`` are relabelled together on the instance, and
    ``position`` reads ``positions``, so every lookup the oracle makes sees the
    new order, and every solve on it must equal the solve on the chain in code
    order."""
    chain = EnumeratedChain(params)
    codes = np.array(list(order), dtype=np.int64)
    if codes.shape != (params.state_count,) or not np.array_equal(np.sort(codes), np.arange(params.state_count)):
        raise ValueError("order must be a permutation of all state codes")
    rank = np.empty(len(codes), dtype=np.intp)
    rank[codes] = np.arange(len(codes))
    chain.neighbor_table = rank[chain.neighbor_table[codes]]
    codes_of, states_of_codes, marked_codes = chain.positions, chain.states_at, chain._marked
    chain.positions = lambda states: rank[codes_of(states)]
    chain._marked = lambda target: rank[marked_codes(target)]
    chain.states_at = lambda positions: states_of_codes(codes[positions])
    return chain


def lump_by_unique_rows(chain: EnumeratedChain, targets: Sequence[State], start: State | None = None):
    """:func:`ehrenfest.oracle._lump` as it grouped each round's signature rows
    with ``np.unique(axis=0)``, a sort over a structured view of the rows, and
    built its block counts one ``bincount`` per block."""
    positions = [chain.position(t) for t in targets]
    if not positions:
        raise ValueError("target set must be nonempty")
    labels = np.zeros(chain.params.state_count, dtype=np.intp)
    if start is not None:
        labels[chain.position(start)] = 1
    labels[positions] = 2
    neighbors = chain.neighbor_table
    blocks = 0
    while True:
        signature = np.column_stack((labels, np.sort(labels[neighbors], axis=1)))
        _, first, labels = np.unique(signature, axis=0, return_index=True, return_inverse=True)
        labels = labels.reshape(-1)
        if len(first) == blocks:
            break
        blocks = len(first)
    transient = int(labels[positions].min())
    if transient > MAX_BLOCKS:
        raise CapExceededError("MAX_BLOCKS", transient, MAX_BLOCKS)
    labels = np.minimum(labels, transient)
    counts = [np.bincount(labels[neighbors[r]], minlength=transient + 1).tolist() for r in first[:transient]]
    counts = np.array(counts, dtype=object).reshape(transient, transient + 1)
    return labels, counts, transient


# ---------------------------------------------------------------------------
# closed forms of single-family statistics, checked against the engine


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


def same_urn_stats_by_urn(params: ModelParams, x: Sequence[int]) -> SameUrnStats:
    """:func:`ehrenfest.closedforms.same_urn_stats` read urn by urn: the start's
    overlap with each diagonal state ``(i, ..., i)`` and one kernel per urn."""
    x = params.check_state(x)
    n, m = params.urns, params.balls
    overlaps = [overlap(x, (i,) * m) for i in range(1, n + 1)]
    g = lambda k: centered_kernel(params, k)
    g_sum = sum((g(k) for k in overlaps), Fraction(0))
    mean = Fraction(m * (n - 1), n) * (g(m) + (n - 1) * g(0) - g_sum)
    span = g(m) - g(0)
    probs = tuple(Fraction(1, n) + (g(k) - g_sum / n) / span for k in overlaps)
    return SameUrnStats(mean=mean, exit_probs=probs)


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


# ---------------------------------------------------------------------------
# the paper's auxiliary chain


def transition_prob(params: ModelParams, x: Sequence[int], y: Sequence[int]) -> Fraction:
    """One-step probability: ``1/(balls*(urns-1))`` iff exactly one ball moved."""
    x = params.check_state(x)
    y = params.check_state(y)
    if overlap(x, y) == params.balls - 1:
        return Fraction(1, params.balls * (params.urns - 1))
    return Fraction(0)


def transition_row(chain: CountChain, i: int) -> tuple[Fraction, Fraction, Fraction]:
    """(down, stay, up) step probabilities out of level ``i``."""
    n, m = chain.params.urns, chain.params.balls
    if not 0 <= i <= m:
        raise ValueError(f"level {i} outside 0..{m}")
    down = Fraction(i, m)
    up = Fraction(m - i, m * (n - 1))
    stay = Fraction((m - i) * (n - 2), m * (n - 1))
    return down, stay, up


def single_ball_generator(params: ModelParams) -> list[list[Fraction]]:
    """Rate matrix of one ball's motion: leave at rate 1, land uniformly."""
    n = params.urns
    off = Fraction(1, n - 1)
    return [
        [Fraction(-1) if i == j else off for j in range(n)]
        for i in range(n)
    ]


def single_ball_semigroup(params: ModelParams, t: float, i: int, j: int) -> float:
    """Transition probability of one ball's continuous-time motion.

    Each ball independently jumps at rate 1, landing on each of the other
    ``urns - 1`` urns with equal rate.  The two-value formula below solves
    the resulting backward equation with ``p_0`` the identity.
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    n = params.urns
    decay = math.exp(-n * t / (n - 1))
    if i == j:
        return ((n - 1) * decay + 1) / n
    return (1 - decay) / n


def product_semigroup(params: ModelParams, t: float, x: Sequence[int], z: Sequence[int]) -> float:
    """Joint transition probability for all balls moving independently."""
    if t < 0:
        raise ValueError("time must be non-negative")
    x = params.check_state(x)
    z = params.check_state(z)
    n, m = params.urns, params.balls
    k = overlap(x, z)
    decay = math.exp(-n * t / (n - 1))
    return ((n - 1) * decay + 1) ** k * (1 - decay) ** (m - k) / n**m


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
