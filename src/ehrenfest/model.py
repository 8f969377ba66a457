"""State space and target-set machinery for the N-urn Ehrenfest chain.

A state assigns each of ``balls`` labelled balls to one of ``urns`` labelled
urns (1-indexed tuples throughout).  One step of the chain picks a ball
uniformly and moves it to a uniformly chosen *different* urn;
:attr:`ModelParams.radix` defines the state code that the oracle and the
Monte Carlo read.  The central combinatorial statistic is the overlap
``s(x, y)``: the number of balls occupying the same urn in both
configurations.  The paper's auxiliary continuous-time chain is stated in
the test references and checked there.

Closed-form hitting-time analysis only applies to target sets whose overlap
structure looks the same from every one of their elements.  The standard
constructions (singletons, pairs, the all-in-one-urn diagonal, fixed-count
slices, and the all-distinct set) are :class:`SetDescriptor` kinds, with a
textual grammar for the command-line tools.  This module only defines a set:
:meth:`~SetDescriptor.validate` checks a descriptor and returns its payload,
and :meth:`~SetDescriptor.materialize` lists its members, which no route
does.  Each route reads a set from its kind's definition on its own: the
engine counts overlap histograms (:mod:`~ehrenfest.hitting`), the Monte Carlo
keeps a membership key per replica (:mod:`~ehrenfest.mc`) and the oracle marks
the members on its state codes, so no helper here is shared by two routes and
a wrong definition shows up as a disagreement between them.
An ``explicit`` set is read once into one sorted ``(|A|, M)`` integer table
by :meth:`ModelParams.check_states`; :func:`symmetry_defect` tests such a
table on the cheaper of its two paths, or on the only one within its bound.
The product transform puts the members on the grid that their varying columns
span and reads every member's overlap histogram off it, about ``V**2 / 2``
passes over the grid for ``V`` varying columns; the pairwise count compares the
members in blocks, one whole-array pass per coordinate, and stops at the first
block holding a member that differs from the first, ``|A|**2 * M`` comparisons
on a symmetric set.
``MAX_GRID_CELLS`` bounds the grid and ``MAX_PAIR_COORDS`` only the pairwise
count.  Only these array functions import numpy, so a symbolic set is answered
without loading it.

:class:`HittingSummary`, the exact report, is defined here too, with the one
constructor that both exact routes fill it by, :meth:`~HittingSummary.of_route`:
it holds the moment-order, ``u``-sample and lambda rules, each route hands it
its own moments and transform, and neither route imports the other.
"""

from __future__ import annotations

import json
import math
import operator
import re
from contextlib import suppress
from fractions import Fraction
from itertools import chain, combinations, permutations as _permutations, product
from typing import Iterable, Iterator, NamedTuple, Sequence

from .exact import format_significant, lambda_to_u

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


class _Record:
    """An immutable value: a class with ``__slots__`` whose ``__init__`` checks its
    arguments and sets each slot once, through :meth:`_set`.  ``_fields`` names
    ``__init__``'s arguments in order, and ``_set`` keeps their values as one tuple:
    two records of one class are equal, and hash equal, when those are (the
    ``lru_cache`` keys on :class:`ModelParams` hash it), the ``repr`` shows them,
    and a copy or an unpickled record is built from them by ``__init__``.  Any
    other slot is derived from them and neither compared nor shown."""

    __slots__ = ("_values",)
    _fields: tuple[str, ...] = ()

    def _set(self, *values, **derived) -> None:
        """Set the fields to ``values``, in the order of ``_fields``, and the other slots to ``derived``."""
        object.__setattr__(self, "_values", values)
        for name, value in chain(zip(self._fields, values), derived.items()):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        return self._values == other._values if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in zip(self._fields, self._values))})"

    def __reduce__(self):  # copy and pickle rebuild through __init__, whose checks run again
        return type(self), self._values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ModelParams(_Record):
    """Chain dimensions: ``urns >= 2`` urns and ``balls >= 1`` labelled balls, read by :func:`_integer`."""

    __slots__ = _fields = ("urns", "balls")

    def __init__(self, urns: int, balls: int):
        urns, balls = _integer(urns, "urns"), _integer(balls, "balls")
        if urns < 2:
            raise ValueError(f"need at least 2 urns, got {urns}")
        if balls < 1:
            raise ValueError(f"need at least 1 ball, got {balls}")
        self._set(urns, balls)

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

    def check_states(self, states: Sequence[Sequence[int]], typed: bool = False):
        """A list of states as one ``(len(states), balls)`` int64 table, in list order, duplicates kept.
        The types are tested in one pass, skipped when ``typed`` says every coordinate is an int, the shape
        and urn range on the whole table; only a list that fails is read member by member, so the error
        names its first faulty member as :meth:`check_state` would."""
        import numpy as np

        table = None
        if typed or set(map(type, chain.from_iterable(states))) <= {int}:
            with suppress(ValueError, OverflowError):  # members of different lengths, or an integer past 64 bits
                table = np.array(states, dtype=np.int64)
        if table is None or table.shape != (len(states), self.balls) or table.min() < 1 or table.max() > self.urns:
            table = np.array([self.check_state(s) for s in states], dtype=np.int64).reshape(-1, self.balls)
        return table

    @property
    def radix(self):
        """The int64 place values ``urns**(i-1)`` of the state code ``(x - 1) @ radix``,
        ball 1 varying fastest; refused past ``2**62`` states."""
        import numpy as np

        if self.state_count > 2**62:
            raise ValueError("state space too large to encode states in 64-bit codes")
        return self.urns ** np.arange(self.balls, dtype=np.int64)


def overlap(x: Sequence[int], y: Sequence[int]) -> int:
    """Number of coordinates where the two states agree."""
    if len(x) != len(y):
        raise ValueError(f"state lengths differ: {len(x)} vs {len(y)}")
    return sum(1 for a, b in zip(x, y) if a == b)


class HittingSummary(NamedTuple):
    """Exact summary of one hitting-time query, as both exact routes report it.

    Each lambda sample is kept as the report prints it, ``(lambda, decimal,
    float)``: the transform's ``--digits`` significant digits
    (:func:`~ehrenfest.exact.format_significant`) and its correctly rounded
    float.  Each route supplies its own: the oracle renders its exact value
    (:meth:`rendered`), and the engine decides both from an enclosure of it
    where that settles them (:func:`~ehrenfest.hitting.lambda_point`).
    """

    mean: Fraction
    variance: Fraction
    raw_moments: tuple[Fraction, ...]
    u_samples: tuple[tuple[Fraction, Fraction], ...] = ()
    lambda_samples: tuple[tuple[float, str, float], ...] = ()
    exit_distribution: dict[State, Fraction] | None = None

    @classmethod
    def of_route(cls, moments, transform, balls: int, order: int, u_grid: Sequence, lambda_grid: Sequence[float],
                 digits: int, exit_distribution: dict[State, Fraction] | None,
                 lambda_point=None) -> "HittingSummary":
        """One exact route's summary on a chain of ``balls`` balls, from its ``moments(r)``, ``E[T**1..r]``, and
        its ``transform(u)``, the unreduced ``(num, den)`` of ``E[exp(-u * T)]`` at rational ``u > 0``: mean and
        variance off the first two of ``max(order, 2)`` moments, the first ``order`` reported, each ``u`` sample
        reduced once and each lambda sample taken by ``lambda_point(lam, digits)``, by default ``transform``'s
        :meth:`lambda_sample` as :meth:`rendered` prints it."""
        if order < 1:
            raise ValueError("moment order must be >= 1")
        point = lambda_point or (lambda lam, digits: cls.rendered(cls.lambda_sample(transform, balls, lam, digits),
                                                                  digits))
        first, second, *_ = raw = moments(max(order, 2))
        return cls(first, second - first**2, tuple(raw[:order]),
                   tuple((u, Fraction(*transform(u))) for u in map(Fraction, u_grid)),
                   tuple((float(lam), *point(lam, digits)) for lam in lambda_grid),
                   exit_distribution)

    @staticmethod
    def lambda_sample(transform, balls: int, lam: float, digits: int) -> tuple[int, int]:
        """The discrete transform ``E[exp(-lam * T)]``, ``lam >= 0``: ``transform``
        at :func:`~ehrenfest.exact.lambda_to_u`, unreduced, and exactly ``(1, 1)`` at 0."""
        if lam < 0:
            raise ValueError("transform argument must be non-negative")
        return transform(lambda_to_u(balls, lam, digits)) if lam else (1, 1)

    @staticmethod
    def rendered(sums: tuple[int, int], digits: int) -> tuple[str, float]:
        """An unreduced ``(num, den)`` as a report prints it: its ``digits`` significant digits and the float
        ``num / den``, correctly rounded as ``float(Fraction(num, den))`` is, with no gcd taken for either."""
        num, den = sums
        return format_significant(sums, digits), num / den


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


#: Work bound of the pairwise count, in member pairs times coordinates (|A|**2 * M), the product
#: its time grows with.  It bounds only that path: a set past it is tested on the grid if the grid
#: fits ``MAX_GRID_CELLS``, and refused before either path starts if not.
MAX_PAIR_COORDS = 2**32

#: Member pairs in one block of the pairwise count: a block holds an agreement
#: count and an equality flag per pair, 128 kB at this size.
BLOCK_PAIRS = 2**16

#: The cost of one grid cell of the product transform, in pair coordinates of the pairwise
#: count.  The test takes the grid when its ``M * (M + 1) / 2 * prod(|V_j|)`` cells cost less
#: than the ``|A|**2 * M`` pair coordinates.  Timed with both paths forced on 17 permuted count
#: and distinct lists at N = 2-8, M = 3-14, on 2 vCPUs, the grid won on every list with 4.3
#: or more pair coordinates per cell and lost on every list with 3.2 or fewer.  The one list
#: at 3.2, the 720-member distinct list at N = M = 6, is a tie (1.5-2.1 ms on either path).
GRID_CELL_COST = 4

#: Cells of the product grid with its polynomial axis, ``(M + 1) * prod(|V_j|)``, that the test
#: takes at most.  A cell takes the bytes of the least integer type that holds ``|A|``, at most 4,
#: and a pass holds two grids: 32 MB at most.
MAX_GRID_CELLS = 2**22


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


def _grid_histograms(offsets, dims: list[int]):
    """``counts[i, k]`` for every member ``i``: the members agreeing with member ``i``
    in exactly ``k`` coordinates.  ``offsets[i, j] < dims[j]`` places coordinate ``j``
    of member ``i`` on axis ``j`` of the grid: equal offsets, equal coordinates.

    Each cell ``y`` of the grid of shape ``dims`` holds the polynomial
    ``sum(x**overlap(y, z))`` over the members ``z``, ``grid[k]`` its coefficients:
    it starts as the members' multiplicities, of degree 0, and the kernel that
    weighs a coordinate by ``x`` where ``y`` and ``z`` agree and by 1 where they
    differ is applied one coordinate at a time, ``new[k] = sum - grid[k] +
    grid[k - 1]`` with the sum taken along that coordinate.  A member listed
    twice is counted twice, as the pairwise count counts it.  With no axis at
    all, the grid is one cell, where every member agrees with every member in
    0 coordinates."""
    import numpy as np

    size = math.prod(dims)
    cells = offsets @ np.cumprod([1] + dims[::-1])[-2::-1]  # row-major place values, for any number of axes
    dtype = np.min_scalar_type(len(offsets))  # every coefficient counts members
    grid = np.bincount(cells, minlength=size).astype(dtype)[None]
    for width in dims:  # act on the leading axis and write it last, so the axes come back in order
        degree = len(grid)
        axis = grid.reshape(degree, width, size // width)
        new = np.empty((degree + 1, size // width, width), dtype=dtype)
        out = new.transpose(0, 2, 1)
        np.subtract(axis.sum(axis=1, keepdims=True, dtype=dtype), axis, out=out[:-1])
        out[-1] = axis[-1]
        out[1:-1] += axis[:-1]
        grid = new.reshape(degree + 1, size)
    return grid[:, cells].T


def symmetry_defect(states: Sequence[State]):
    """Return two differing ``(state, hist)`` witnesses, or None if symmetric.

    ``states`` is a list of states or their ``(|A|, M)`` integer table.  The
    witnesses are the first member and, in list order, the first member
    whose overlap histogram against the whole set differs from the first's;
    ``hist[k]`` counts the members agreeing with ``state`` in exactly ``k``
    coordinates, so each witness has ``M + 1`` counts whatever ``|A|``.

    Two paths give the same witnesses.  The product transform
    (:func:`_grid_histograms`) counts every member's histogram at once on the
    grid of ``prod(|V_j|)`` cells, ``|V_j|`` the span of column ``j``'s values.
    It is handed only the ``V`` columns that vary, about ``V * (V + 1) / 2``
    passes over it; each constant column adds 1 to every overlap, so the counts
    are shifted up by their number.  The pairwise count
    (:func:`_agreement_counts`) takes blocks of about ``BLOCK_PAIRS`` member
    pairs, one whole-array equality pass per coordinate, and stops at the
    first block that holds a differing member: ``|A|**2 * M`` comparisons on
    a symmetric set.  The grid is taken when it fits ``MAX_GRID_CELLS`` with its
    polynomial axis, both counted over all ``M`` columns, and either costs
    less, at ``GRID_CELL_COST`` a cell, or the comparisons are past
    ``MAX_PAIR_COORDS``; else they run, or past it a ValueError.
    """
    if not len(states):
        raise ValueError("empty target set")
    import numpy as np

    table = np.asarray(states)
    size, width = table.shape
    offsets = table - table.min(axis=0)
    dims = (offsets.max(axis=0) + 1).tolist()
    cells, pairs = (width + 1) * math.prod(dims), size * size * width
    if cells <= MAX_GRID_CELLS and (GRID_CELL_COST * cells * width < 2 * pairs or pairs > MAX_PAIR_COORDS):
        varying = [j for j, span in enumerate(dims) if span > 1]  # a constant column adds 1 to every overlap
        counts = _grid_histograms(offsets[:, varying], [dims[j] for j in varying])
        blocks = [(0, np.pad(counts, ((0, 0), (width - len(varying), 0))))]
    elif pairs <= MAX_PAIR_COORDS:
        columns = np.ascontiguousarray(offsets.T, dtype=np.min_scalar_type(max(dims) - 1))
        rows = max(1, BLOCK_PAIRS // size)
        blocks = ((lo, _agreement_counts(columns, lo, min(lo + rows, size))) for lo in range(0, size, rows))
    else:
        raise ValueError(f"the symmetry test needs {pairs} member-pair coordinates ({size}^2 members x {width}), "
                         f"more than MAX_PAIR_COORDS = {MAX_PAIR_COORDS}, and a product grid of {cells} cells, "
                         f"more than MAX_GRID_CELLS = {MAX_GRID_CELLS}")
    for lo, counts in blocks:
        if lo == 0:
            ref_counts = counts[0]
        differ = np.flatnonzero((counts != ref_counts).any(axis=1))
        if differ.size:
            y = differ[0]
            return ((tuple(table[0].tolist()), tuple(ref_counts.tolist())),
                    (tuple(table[lo + y].tolist()), tuple(counts[y].tolist())))
    return None


def _member_table(params: ModelParams, states: Sequence[State], typed: bool):
    """An explicit set's members, checked by :meth:`ModelParams.check_states`, as one sorted ``(|A|, M)``
    table.  The sort and the duplicate test run on the tuples, in ``sorted`` and ``set``: a ``lexsort``
    and a row comparison run no Python either, but they load numpy code that nothing else in an
    ``exact`` request uses, and the peak resident set grows by it."""
    if not states:
        raise ValueError("explicit descriptor with empty state list")
    table = params.check_states(states, typed)
    if len(set(states)) != len(states):
        raise ValueError("explicit descriptor contains duplicate states")
    return table[sorted(range(len(states)), key=states.__getitem__)]


_PAIR_RE = re.compile(r"^\(([^()]*)\);\(([^()]*)\)$")

#: Members that :meth:`SetDescriptor.materialize` lists at most, about 1 GB of tuples at M = 20.
MAX_LISTED = 2**22


class SetDescriptor(_Record):
    """Symbolic or explicit description of a target set of states.

    ``kind`` is one of ``singleton``, ``pair``, ``diagonal``, ``count``,
    ``distinct``, ``explicit``.  ``states`` carries the payload for the
    explicit kinds; ``count_overlap``/``reference_urn`` parameterize the
    fixed-count slice (how many balls sit in the reference urn).  The
    constructor checks nothing: :meth:`validate` does.
    """

    _fields = ("kind", "states", "count_overlap", "reference_urn")
    __slots__ = (*_fields, "_typed")

    def __init__(self, kind: str, states: tuple[State, ...] = (), count_overlap: int | None = None,
                 reference_urn: int = 2, *, typed: bool = False):
        # typed: every coordinate in states is known to be an int, so validate does not test their types again
        self._set(kind, states, count_overlap, reference_urn, _typed=typed)

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
        return cls("explicit", states=tuple(map(_coordinates, states)), typed=True)

    def validate(self, params: ModelParams):
        """Check the descriptor against ``params`` without listing a symbolic set.
        Returns the payload states, normalized, or for an explicit set its sorted
        ``(|A|, M)`` integer table; raises ValueError naming the first fault."""
        if self.kind not in ("singleton", "pair", "diagonal", "count", "distinct", "explicit"):
            raise ValueError(f"unknown set descriptor kind {self.kind!r}")
        if self.kind == "explicit":
            return _member_table(params, self.states, self._typed)
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
        that :meth:`validate` returned, each kind listed from its definition."""
        n, m = params.urns, params.balls
        if self.kind == "count":  # h balls in the reference urn r, every other ball in one of the other urns
            r = self.reference_urn
            others = tuple(u for u in range(1, n + 1) if u != r)
            for in_r in combinations(range(m), self.count_overlap):
                yield from product(*((r,) if i in in_r else others for i in range(m)))
        elif self.kind == "diagonal":
            yield from ((i,) * m for i in range(1, n + 1))
        elif self.kind == "distinct":
            yield from _permutations(range(1, n + 1), m)
        elif self.kind == "explicit":
            yield from map(tuple, states.tolist())
        else:
            yield from states

    def materialize(self, params: ModelParams) -> list[State]:
        """The sorted list of member states, validated first; past ``MAX_LISTED``, counted by kind, a ValueError."""
        states = self.validate(params)
        n, m, h = params.urns, params.balls, self.count_overlap
        size = (math.comb(m, h) * (n - 1) ** (m - h) if self.kind == "count" else n if self.kind == "diagonal"
                else math.perm(n, m) if self.kind == "distinct" else len(states))
        if size > MAX_LISTED:
            raise ValueError(f"the {self.kind} set has {size} members, more than MAX_LISTED = {MAX_LISTED} to list")
        return sorted(self._members(params, states))


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
        return SetDescriptor("explicit", states=tuple(map(tuple, data)), typed=True)  # no int() copy: all are ints
    raise ValueError(f"unknown set descriptor kind {head!r}")


# ---------------------------------------------------------------------------
# coordinatewise permutations


class ProductPermutation(_Record):
    """One urn-relabelling per ball; acts coordinatewise on states.

    ``maps[i][u-1]`` is the image of urn ``u`` for ball ``i+1``.  Overlaps are
    preserved under this action, so symmetric target sets stay symmetric.
    """

    __slots__ = _fields = ("maps",)

    def __init__(self, maps: tuple[tuple[int, ...], ...]):
        for row in maps:
            if sorted(row) != list(range(1, len(row) + 1)):
                raise ValueError(f"not a permutation of 1..{len(row)}: {row}")
        self._set(maps)

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
