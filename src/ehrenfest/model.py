"""State space and target-set machinery for the N-urn Ehrenfest chain.

A state assigns each of ``balls`` labelled balls to one of ``urns`` labelled
urns (1-indexed tuples throughout).  One step of the chain picks a ball
uniformly and moves it to a uniformly chosen *different* urn.  The central
combinatorial statistic is the overlap ``s(x, y)``: the number of balls
occupying the same urn in both configurations.  The paper's auxiliary
continuous-time chain is stated in the test references and checked there.

Closed-form hitting-time analysis only applies to target sets whose overlap
structure looks the same from every one of their elements.  The standard
constructions (singletons, pairs, the all-in-one-urn diagonal, fixed-count
slices, and the all-distinct set) are :class:`SetDescriptor` kinds, with a
textual grammar for the command-line tools.  A descriptor has three readers:
:meth:`~SetDescriptor.validate` checks it, :meth:`~SetDescriptor.materialize`
lists its members, and a hitting query validates it once and hands the
payload to :meth:`~SetDescriptor.overlap_histograms`, which counts its overlap
histograms from the start and from one member.
Each kind but ``explicit`` is symmetric by construction and counted without
being listed; an ``explicit`` set is read once into one sorted ``(|A|, M)``
integer table, whose shape and urn range are tested as whole arrays, and
:func:`symmetry_defect` and both histograms read that table.  The symmetry
test counts each member's agreements with the whole set in blocks of
members, one whole-array pass per coordinate, and stops at the first block
holding a member that differs from the first; a symmetric set costs
``|A|**2 * M`` comparisons, bounded by ``MAX_PAIR_COORDS``.  Only these
array functions import numpy, so a symbolic set is answered without loading
it.
"""

from __future__ import annotations

import json
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, permutations as _permutations, product
from typing import Iterable, Iterator, Sequence

State = tuple[int, ...]


def _integer(value, what: str = "coordinate") -> int:
    """``value`` as an int.  An int or a numpy integer is accepted; a bool, a
    float or a string is refused with a ValueError naming ``what``, where
    ``int()`` would truncate or coerce it."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} {value!r} is not an integer")


def _coordinates(values: Iterable) -> State:
    """``values`` as a tuple of ints, each read by :func:`_integer`."""
    return tuple(map(_integer, values))


@dataclass(frozen=True)
class ModelParams:
    """Chain dimensions: ``urns >= 2`` urns and ``balls >= 1`` labelled balls, read by :func:`_integer`."""

    urns: int
    balls: int

    def __post_init__(self):
        for name in ("urns", "balls"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.urns < 2:
            raise ValueError(f"need at least 2 urns, got {self.urns}")
        if self.balls < 1:
            raise ValueError(f"need at least 1 ball, got {self.balls}")

    @property
    def state_count(self) -> int:
        return self.urns**self.balls

    def check_state(self, x: Sequence[int]) -> State:
        """Validate and normalize a state to a tuple of urn indices; a bool,
        float or string coordinate is refused, never truncated."""
        xs = _coordinates(x)
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


# ---------------------------------------------------------------------------
# target sets


class CapExceededError(RuntimeError):
    """A request past one of the oracle's work bounds, ``oracle.MAX_MOVES`` or
    ``MAX_BLOCKS``.  It lives here, beside the other error the command line
    maps to an exit code, so catching it loads no oracle."""

    def __init__(self, bound: str, size: int, limit: int, unit: str = "transient blocks"):
        self.bound, self.size, self.limit = bound, size, limit
        super().__init__(f"the oracle needs {size} {unit}, more than {bound} = {limit}")


class SetNotSymmetricError(ValueError):
    """Raised when a target set fails the overlap-symmetry test.

    Carries two witnesses ``(state, hist)``: elements of the set whose overlap
    histograms against the whole set differ (``hist[k]`` counts the members
    that agree with ``state`` in exactly ``k`` coordinates).
    """

    def __init__(self, first: tuple[State, tuple[int, ...]], second: tuple[State, tuple[int, ...]]):
        self.first = first
        self.second = second
        super().__init__(
            "target set is not overlap-symmetric: "
            f"state {first[0]} has overlap histogram {first[1]} "
            f"but state {second[0]} has overlap histogram {second[1]}"
        )


#: Work bound of the symmetry test, in member pairs times coordinates (|A|**2 * M).  A
#: whole ``exact`` request at the bound takes 5-7 s on 2 vCPUs at M = 1 (65536 members)
#: and 4.5-6 s at M = 2 (46225 members); the 12870-member count:8 set at N = 2, M = 16
#: takes 1.5-2.5 s.
MAX_PAIR_COORDS = 2**32

#: Member pairs in one block of the symmetry test: a block holds an agreement
#: count and an equality flag per pair, 128 kB at this size.
BLOCK_PAIRS = 2**16


def _agreement_counts(columns, lo: int, hi: int):
    """``counts[i - lo, k]`` for members ``lo <= i < hi``: the members agreeing
    with member ``i`` in exactly ``k`` coordinates.  ``columns[j]`` holds
    coordinate ``j`` of every member, one row of an integer array each."""
    import numpy as np

    width, size = columns.shape
    agree = np.zeros((hi - lo, size), dtype=np.min_scalar_type(width))
    same = np.empty(agree.shape, dtype=bool)
    for column in columns:
        np.equal(column[lo:hi, None], column, out=same)
        agree += same.view(np.uint8)  # adding bytes skips the slow cast from bool
    counts = np.empty((hi - lo, width + 1), dtype=np.int32)
    for k in range(width + 1):
        np.equal(agree, k, out=same)
        counts[:, k] = same.sum(axis=1, dtype=np.int32)
    return counts


def symmetry_defect(states: Sequence[State]):
    """Return two differing ``(state, hist)`` witnesses, or None if symmetric.

    ``states`` is a list of states or their ``(|A|, M)`` integer table.  The
    witnesses are the first member and, in list order, the first member
    whose overlap histogram against the whole set differs from the first's;
    ``hist[k]`` counts the members agreeing with ``state`` in exactly ``k``
    coordinates, so each witness has ``M + 1`` counts whatever ``|A|``.  The
    counts come in blocks of about ``BLOCK_PAIRS`` member pairs, one
    whole-array equality pass per coordinate, and the test stops at the first
    block that holds a differing member.  A symmetric set costs
    ``|A|**2 * M`` comparisons, which must not pass ``MAX_PAIR_COORDS``.
    """
    if not len(states):
        raise ValueError("empty target set")
    import numpy as np

    table = np.asarray(states)
    size, width = table.shape
    if size * size * width > MAX_PAIR_COORDS:
        raise ValueError(
            f"the symmetry test needs {size * size * width} member-pair coordinates "
            f"({size}^2 members x {width}), more than MAX_PAIR_COORDS = {MAX_PAIR_COORDS}"
        )
    columns = np.ascontiguousarray(table.T, dtype=np.min_scalar_type(table.max()))
    rows = max(1, BLOCK_PAIRS // size)
    for lo in range(0, size, rows):
        counts = _agreement_counts(columns, lo, min(lo + rows, size))
        if lo == 0:
            ref_counts = counts[0]
        differ = np.flatnonzero((counts != ref_counts).any(axis=1))
        if differ.size:
            y = differ[0]
            return ((tuple(table[0].tolist()), tuple(ref_counts.tolist())),
                    (tuple(table[lo + y].tolist()), tuple(counts[y].tolist())))
    return None


def _member_table(params: ModelParams, states: Sequence[State]):
    """The members of an explicit set as one sorted ``(|A|, M)`` integer table.

    The coordinates' types are tested in one pass, and the table's shape and
    urn range as a whole.  Only a payload that fails is rebuilt member by
    member, in list order, so the error names the first faulty member as
    :meth:`ModelParams.check_state` words it: a float, string or bool is
    refused there, never truncated by the ``int64`` table.  The sort
    and the duplicate test run on the tuples, in ``sorted`` and ``set``: a
    ``lexsort`` and a row comparison run no Python either, but they load numpy
    code that nothing else in an ``exact`` request uses, and the peak resident
    set grows by it.
    """
    if not states:
        raise ValueError("explicit descriptor with empty state list")
    import numpy as np

    table = None
    if set(map(type, chain.from_iterable(states))) <= {int}:
        rows = sorted(states)
        try:
            table = np.array(rows, dtype=np.int64)
        except (ValueError, OverflowError):  # members of different lengths, or an integer past 64 bits
            pass
    if table is None or table.shape != (len(rows), params.balls) or table.min() < 1 or table.max() > params.urns:
        rows = sorted([params.check_state(s) for s in states])
        table = np.array(rows, dtype=np.int64)
    if len(set(rows)) != len(rows):
        raise ValueError("explicit descriptor contains duplicate states")
    return table


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
        return cls("singleton", states=(_coordinates(y),))

    @classmethod
    def pair(cls, y: Sequence[int], z: Sequence[int]) -> "SetDescriptor":
        return cls("pair", states=(_coordinates(y), _coordinates(z)))

    @classmethod
    def diagonal(cls) -> "SetDescriptor":
        return cls("diagonal")

    @classmethod
    def count(cls, h: int, reference_urn: int = 2) -> "SetDescriptor":
        return cls("count", count_overlap=_integer(h, "count target"),
                   reference_urn=_integer(reference_urn, "reference urn"))

    @classmethod
    def distinct(cls) -> "SetDescriptor":
        return cls("distinct")

    @classmethod
    def explicit(cls, states: Iterable[Sequence[int]]) -> "SetDescriptor":
        return cls("explicit", states=tuple(map(_coordinates, states)))

    def _sphere(self, params: ModelParams, states) -> tuple[State, int] | None:
        """``(center, h)`` when the set is the Hamming sphere of the states that
        agree with ``center`` in exactly ``h`` coordinates, given the payload
        ``states`` that :meth:`validate` returned: ``(y, balls)`` for a
        singleton, ``((urn,) * balls, h)`` for a count set.  None for every
        other kind."""
        if self.kind == "singleton":
            return states[0], params.balls
        if self.kind == "count":
            return (self.reference_urn,) * params.balls, self.count_overlap
        return None

    def validate(self, params: ModelParams):
        """Check the descriptor against ``params`` without listing a symbolic set.
        Returns the payload states, normalized, or for an explicit set its sorted
        ``(|A|, M)`` integer table; raises ValueError naming the first fault."""
        if self.kind not in ("singleton", "pair", "diagonal", "count", "distinct", "explicit"):
            raise ValueError(f"unknown set descriptor kind {self.kind!r}")
        if self.kind == "explicit":
            return _member_table(params, self.states)
        states = tuple(params.check_state(s) for s in self.states)
        if self.kind == "count":
            h = self.count_overlap
            if h is None or not 0 <= h <= params.balls:
                raise ValueError(f"count target {h} outside 0..{params.balls}")
            if not 1 <= self.reference_urn <= params.urns:
                raise ValueError(f"reference urn {self.reference_urn} outside 1..{params.urns}")
        elif self.kind == "pair" and states[0] == states[1]:
            raise ValueError("pair descriptor needs two distinct states")
        elif self.kind == "distinct" and params.balls > params.urns:
            raise ValueError(f"distinct descriptor needs balls <= urns, got {params.balls} > {params.urns}")
        return states

    def _members(self, params: ModelParams, states) -> Iterator[State]:
        """The member states one by one, each once, given the payload ``states``
        that :meth:`validate` returned.

        A sphere builds the tuple of urns other than a center urn only when a
        free coordinate first needs it, once per urn: a count set holds one
        such tuple and a singleton none, so one member costs no ``N * M`` work."""
        n, m = params.urns, params.balls
        sphere = self._sphere(params, states)
        if sphere is not None:
            center, h = sphere
            # product() stores every pool it is given: coordinates centered on one urn share one tuple
            others = cache(lambda c: tuple(u for u in range(1, n + 1) if u != c))
            for agree in combinations(range(m), h):
                yield from product(*(center[i : i + 1] if i in agree else others(center[i]) for i in range(m)))
        elif self.kind == "diagonal":
            yield from ((i,) * m for i in range(1, n + 1))
        elif self.kind == "distinct":
            yield from _permutations(range(1, n + 1), m)
        elif self.kind == "explicit":
            yield from map(tuple, states.tolist())
        else:
            yield from states

    def materialize(self, params: ModelParams) -> list[State]:
        """The sorted list of member states, validated first."""
        return sorted(self._members(params, self.validate(params)))

    def overlap_histograms(
        self, params: ModelParams, x: State, states
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The two overlap histograms a hitting query reads, from ``x`` (a state as
        :meth:`ModelParams.check_state` returns it) and from one member:
        ``hist[k]`` counts the members that agree with the point in exactly ``k``
        coordinates.  ``states`` is the payload :meth:`validate` returned, so the
        set is validated once, by the caller.  Symbolic kinds are symmetric by
        construction and counted, never listed; an explicit set is tested first,
        and :class:`SetNotSymmetricError` names two members that differ.  So every
        member has the same histogram, and the first one the set yields serves."""
        if self.kind == "explicit":
            defect = symmetry_defect(states)
            if defect is not None:
                raise SetNotSymmetricError(*defect)
            first = states[0]
        else:
            first = next(self._members(params, states))
        return self._histogram(params, states, x), self._histogram(params, states, first)

    def _histogram(self, params: ModelParams, states, x) -> tuple[int, ...]:
        """The overlap histogram from ``x``, given the payload ``states`` that :meth:`validate` returned."""
        n, m = params.urns, params.balls
        if self.kind == "explicit":  # one bincount over the table
            import numpy as np

            return tuple(np.bincount((states == x).sum(axis=1), minlength=m + 1).tolist())
        hist = [0] * (m + 1)
        sphere = self._sphere(params, states)
        if sphere is not None:
            # keep j of the a balls where x meets the center there (the rest of those in n - 1 urns),
            # put h - j others on the center, and of the free rest k - j as in x, the others in n - 2 urns
            center, h = sphere
            a = overlap(x, center)
            for j in range(max(0, h - m + a), min(a, h) + 1):
                free = m - a - h + j
                ways = math.comb(a, j) * (n - 1) ** (a - j) * math.comb(m - a, h - j)
                for k in range(j, j + free + 1):
                    hist[k] += ways * math.comb(free, k - j) * (n - 2) ** (free - k + j)
        elif self.kind == "pair":
            for y in states:
                hist[overlap(x, y)] += 1
        else:  # diagonal and distinct read only x's urn occupancies
            occupied = Counter(x).values()
            if self.kind == "diagonal":  # the member in an urn holding c balls of x is at overlap c
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


def _ints(parts: Sequence[str], text: str) -> list[int]:
    """The integers written in ``parts``, read from the descriptor ``text``."""
    try:
        return [int(c) for c in parts]
    except ValueError:
        raise ValueError(f"cannot parse set descriptor {text!r}") from None


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
        return SetDescriptor.singleton(_ints(rest.split(","), text))
    if head == "pair":
        match = _PAIR_RE.match(rest)
        if not match:
            raise ValueError(f"pair descriptor must look like pair:(...);(...), got {text!r}")
        return SetDescriptor.pair(_ints(match.group(1).split(","), text), _ints(match.group(2).split(","), text))
    if head == "count":
        parts = rest.split(":")
        if len(parts) > 2:
            raise ValueError(f"count descriptor takes h[:urn], got {text!r}")
        return SetDescriptor.count(*_ints(parts, text))
    if head == "explicit":
        if not rest.startswith("@"):
            raise ValueError("explicit descriptor expects @path.json")
        path = rest[1:]
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # malformed JSON, or an integer past the int-str digit limit
                raise ValueError(f"{path} is not a readable JSON array of states: {exc}") from None
        # type(c) is int: int() would round 1.7 down and accept true and "2"
        if not (isinstance(data, list) and set(map(type, data)) <= {list}
                and set(map(type, chain.from_iterable(data))) <= {int}):
            raise ValueError(f"{path} must hold a JSON array of states of integers, got {data!r:.60}")
        return SetDescriptor("explicit", states=tuple(map(tuple, data)))  # no int() copy: all are ints
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
