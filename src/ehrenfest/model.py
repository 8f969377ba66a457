"""State space and target-set machinery for the N-urn Ehrenfest chain.

A state assigns each of ``balls`` labelled balls to one of ``urns`` labelled
urns (1-indexed tuples throughout).  One step of the chain picks a ball
uniformly and moves it to a uniformly chosen *different* urn.  The central
combinatorial statistic is the overlap ``s(x, y)``: the number of balls
occupying the same urn in both configurations.

Closed-form hitting-time analysis only applies to target sets whose overlap
structure looks the same from every one of their elements; those sets are
recognized by :func:`is_symmetric_family`.  The standard constructions
(singletons, pairs, the all-in-one-urn diagonal, fixed-count slices, and the
all-distinct set) are available as :class:`SetDescriptor` kinds, together
with a small textual grammar used by the command-line tools.  Each of them
is symmetric by construction; only ``explicit`` sets need the test.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations as _permutations, product
from typing import Iterable, Iterator, Sequence

import numpy as np

State = tuple[int, ...]


@dataclass(frozen=True)
class ModelParams:
    """Chain dimensions: ``urns >= 2`` urns and ``balls >= 1`` labelled balls."""

    urns: int
    balls: int

    def __post_init__(self):
        if self.urns < 2:
            raise ValueError(f"need at least 2 urns, got {self.urns}")
        if self.balls < 1:
            raise ValueError(f"need at least 1 ball, got {self.balls}")

    @property
    def state_count(self) -> int:
        return self.urns**self.balls

    def check_state(self, x: Sequence[int]) -> State:
        """Validate and normalize a state to a tuple of urn indices."""
        xs = tuple(int(c) for c in x)
        if len(xs) != self.balls:
            raise ValueError(f"state {xs} has {len(xs)} coordinates, expected {self.balls}")
        for c in xs:
            if not 1 <= c <= self.urns:
                raise ValueError(f"urn index {c} outside 1..{self.urns} in state {xs}")
        return xs


def overlap(x: Sequence[int], y: Sequence[int]) -> int:
    """Number of coordinates where the two states agree."""
    if len(x) != len(y):
        raise ValueError(f"state lengths differ: {len(x)} vs {len(y)}")
    return sum(1 for a, b in zip(x, y) if a == b)


def transition_prob(params: ModelParams, x: Sequence[int], y: Sequence[int]) -> Fraction:
    """One-step probability: ``1/(balls*(urns-1))`` iff exactly one ball moved."""
    x = params.check_state(x)
    y = params.check_state(y)
    if overlap(x, y) == params.balls - 1:
        return Fraction(1, params.balls * (params.urns - 1))
    return Fraction(0)


def neighbor_states(params: ModelParams, x: Sequence[int]) -> Iterator[State]:
    """All states reachable in one step (each with equal probability)."""
    x = params.check_state(x)
    for i in range(params.balls):
        for u in range(1, params.urns + 1):
            if u != x[i]:
                yield x[:i] + (u,) + x[i + 1 :]


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


# ---------------------------------------------------------------------------
# target sets


class SetNotSymmetricError(ValueError):
    """Raised when a target set fails the overlap-symmetry test.

    Carries two witnesses: elements of the set whose sorted overlap profiles
    against the whole set differ.
    """

    def __init__(self, first: tuple[State, tuple[int, ...]], second: tuple[State, tuple[int, ...]]):
        self.first = first
        self.second = second
        super().__init__(
            "target set is not overlap-symmetric: "
            f"state {first[0]} has profile {first[1]} but state {second[0]} has profile {second[1]}"
        )


def overlap_profile(y: State, states: Sequence[State]) -> tuple[int, ...]:
    """Sorted multiset of overlaps of ``y`` against every element (itself included)."""
    return tuple(sorted(overlap(y, z) for z in states))


def symmetry_defect(states: Sequence[State]):
    """Return two differing (state, profile) witnesses, or None if symmetric.

    The witnesses are the first element and the first element, in list
    order, whose overlap counts against the whole set differ from it.
    """
    if not states:
        raise ValueError("empty target set")
    table = np.asarray(states)
    width = table.shape[1] + 1

    def counts(row):
        return np.bincount((table == row).sum(axis=1), minlength=width)

    ref_counts = counts(table[0])
    for idx in range(1, len(table)):
        if not np.array_equal(counts(table[idx]), ref_counts):
            ref, y = states[0], states[idx]
            return (ref, overlap_profile(ref, states)), (y, overlap_profile(y, states))
    return None


def is_symmetric_family(states: Sequence[State]) -> bool:
    """True iff every element sees the same sorted overlap profile."""
    return symmetry_defect(states) is None


_PAIR_RE = re.compile(r"^\(([^()]*)\);\(([^()]*)\)$")


@dataclass(frozen=True)
class SetDescriptor:
    """Symbolic or explicit description of a target set of states.

    ``kind`` is one of ``singleton``, ``pair``, ``diagonal``, ``count``,
    ``distinct``, ``explicit``.  ``states`` carries the payload for the
    explicit kinds; ``count_overlap``/``reference_urn`` parameterize the
    fixed-count slice (how many balls sit in the reference urn).
    """

    kind: str
    states: tuple[State, ...] = ()
    count_overlap: int | None = None
    reference_urn: int = 2

    @classmethod
    def singleton(cls, y: Sequence[int]) -> "SetDescriptor":
        return cls("singleton", states=(tuple(int(c) for c in y),))

    @classmethod
    def pair(cls, y: Sequence[int], z: Sequence[int]) -> "SetDescriptor":
        return cls("pair", states=(tuple(int(c) for c in y), tuple(int(c) for c in z)))

    @classmethod
    def diagonal(cls) -> "SetDescriptor":
        return cls("diagonal")

    @classmethod
    def count(cls, h: int, reference_urn: int = 2) -> "SetDescriptor":
        return cls("count", count_overlap=int(h), reference_urn=int(reference_urn))

    @classmethod
    def distinct(cls) -> "SetDescriptor":
        return cls("distinct")

    @classmethod
    def explicit(cls, states: Iterable[Sequence[int]]) -> "SetDescriptor":
        return cls("explicit", states=tuple(tuple(int(c) for c in s) for s in states))

    def count_level(self, params: ModelParams) -> tuple[int, int]:
        """``(reference_urn, count_overlap)`` of a count set, checked against ``params``."""
        h = self.count_overlap
        if h is None or not 0 <= h <= params.balls:
            raise ValueError(f"count target {h} outside 0..{params.balls}")
        if not 1 <= self.reference_urn <= params.urns:
            raise ValueError(f"reference urn {self.reference_urn} outside 1..{params.urns}")
        return self.reference_urn, h

    def materialize(self, params: ModelParams) -> list[State]:
        """Expand to the sorted list of member states, validating as we go."""
        n, m = params.urns, params.balls
        if self.kind == "singleton":
            out = [params.check_state(self.states[0])]
        elif self.kind == "pair":
            y, z = (params.check_state(s) for s in self.states)
            if y == z:
                raise ValueError("pair descriptor needs two distinct states")
            out = [y, z]
        elif self.kind == "diagonal":
            out = [(i,) * m for i in range(1, n + 1)]
        elif self.kind == "count":
            ref, h = self.count_level(params)
            others = [u for u in range(1, n + 1) if u != ref]
            out = []
            for pos in combinations(range(m), h):
                pos_set = set(pos)
                free = [i for i in range(m) if i not in pos_set]
                for fill in product(others, repeat=m - h):
                    x = [ref] * m
                    for i, u in zip(free, fill):
                        x[i] = u
                    out.append(tuple(x))
        elif self.kind == "distinct":
            if m > n:
                raise ValueError(f"distinct descriptor needs balls <= urns, got {m} > {n}")
            out = [p for p in _permutations(range(1, n + 1), m)]
        elif self.kind == "explicit":
            if not self.states:
                raise ValueError("explicit descriptor with empty state list")
            out = [params.check_state(s) for s in self.states]
            if len(set(out)) != len(out):
                raise ValueError("explicit descriptor contains duplicate states")
        else:
            raise ValueError(f"unknown set descriptor kind {self.kind!r}")
        return sorted(set(out))

    def describe(self) -> str:
        """Grammar form of the descriptor (inverse of :func:`parse_set`)."""
        if self.kind == "singleton":
            return "singleton:" + ",".join(map(str, self.states[0]))
        if self.kind == "pair":
            a, b = self.states
            return f"pair:({','.join(map(str, a))});({','.join(map(str, b))})"
        if self.kind == "diagonal":
            return "diagonal"
        if self.kind == "count":
            return f"count:{self.count_overlap}:{self.reference_urn}"
        if self.kind == "distinct":
            return "distinct"
        return "explicit:" + json.dumps([list(s) for s in self.states])


def parse_set(text: str) -> SetDescriptor:
    """Parse the descriptor grammar.

    Accepted forms::

        singleton:i1,i2,...,iM
        pair:(i1,...,iM);(j1,...,jM)
        diagonal
        count:h[:urn]
        distinct
        explicit:@path.json      (JSON array of arrays of urn indices)
    """
    text = text.strip()
    if text == "diagonal":
        return SetDescriptor.diagonal()
    if text == "distinct":
        return SetDescriptor.distinct()
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"cannot parse set descriptor {text!r}")
    if head == "singleton":
        return SetDescriptor.singleton([int(c) for c in rest.split(",")])
    if head == "pair":
        match = _PAIR_RE.match(rest)
        if not match:
            raise ValueError(f"pair descriptor must look like pair:(...);(...), got {text!r}")
        first = [int(c) for c in match.group(1).split(",")]
        second = [int(c) for c in match.group(2).split(",")]
        return SetDescriptor.pair(first, second)
    if head == "count":
        parts = rest.split(":")
        if len(parts) == 1:
            return SetDescriptor.count(int(parts[0]))
        if len(parts) == 2:
            return SetDescriptor.count(int(parts[0]), int(parts[1]))
        raise ValueError(f"count descriptor takes h[:urn], got {text!r}")
    if head == "explicit":
        if not rest.startswith("@"):
            raise ValueError("explicit descriptor expects @path.json")
        with open(rest[1:], "r", encoding="utf-8") as fh:
            data = json.load(fh)
        try:
            return SetDescriptor.explicit(data)
        except TypeError:
            raise ValueError(f"{rest[1:]} must hold a JSON array of states, got {data!r:.60}") from None
    raise ValueError(f"unknown set descriptor kind {head!r}")


# ---------------------------------------------------------------------------
# coordinatewise permutations


@dataclass(frozen=True)
class ProductPermutation:
    """One urn-relabelling per ball; acts coordinatewise on states.

    ``maps[i][u-1]`` is the image of urn ``u`` for ball ``i+1``.  Overlaps are
    preserved under this action, so symmetric target sets stay symmetric.
    """

    maps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for row in self.maps:
            if sorted(row) != list(range(1, len(row) + 1)):
                raise ValueError(f"not a permutation of 1..{len(row)}: {row}")

    @classmethod
    def identity(cls, params: ModelParams) -> "ProductPermutation":
        row = tuple(range(1, params.urns + 1))
        return cls(tuple(row for _ in range(params.balls)))

    @classmethod
    def random(cls, params: ModelParams, rng) -> "ProductPermutation":
        rows = []
        for _ in range(params.balls):
            row = list(range(1, params.urns + 1))
            rng.shuffle(row)
            rows.append(tuple(row))
        return cls(tuple(rows))

    def apply_state(self, x: Sequence[int]) -> State:
        if len(x) != len(self.maps):
            raise ValueError("state length does not match permutation arity")
        return tuple(self.maps[i][c - 1] for i, c in enumerate(x))

    def apply_set(self, states: Iterable[Sequence[int]]) -> list[State]:
        return sorted(self.apply_state(x) for x in states)
