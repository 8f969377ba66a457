"""Independent ground truth by exact linear algebra on the enumerated chain.

Every closed-form quantity in this package is re-derivable from first-step
analysis on the ``urns**balls`` state space: hitting means, higher moments,
probability-generating-function values, and exit distributions all solve
linear systems with rational coefficients.  No system here is solved on the
full chain.  The states are enumerated with a table of neighbour positions,
and the partition {target set, rest} is refined by signatures (a state's own
block plus the sorted blocks of its neighbours) until no block splits.  That
is the coarsest strongly lumpable partition keeping the target set apart
(Kemeny & Snell, *Finite Markov Chains*, 1960, §6.3): all moves are
equiprobable and every state of a block has the same number of neighbours in
each block, so every first-step solution is constant on blocks.  Each system
is assembled from the block-to-block neighbour counts and solved exactly
(fraction-free Bareiss elimination over big integers, rational
back-substitution), then expanded back to every state.  A chain refines each
partition once and keeps it for every later solve on the same target set
(and start, for the exit law).  The refinement reads only the transition
structure, never overlaps or kernel formulas, so an agreement with the
engine is still a genuine two-sided check.

A chain is refused at construction when it has more states than its cap
(default 2000).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .exact import binomial
from .model import ModelParams, State

DEFAULT_EXACT_CAP = 2000


class CapExceededError(RuntimeError):
    """State space too large for the requested solve mode."""

    def __init__(self, size: int, cap: int):
        self.size = size
        self.cap = cap
        super().__init__(f"state space has {size} states, exceeding the cap of {cap}")


class EnumeratedChain:
    """The fully enumerated chain with its table of neighbour positions.

    States are listed in mixed-radix order with ball 1 varying fastest, so
    ``state_index(x) = sum_i (x_i - 1) * urns**(i-1)``.  Tests may pass a
    permutation of ``range(urns**balls)`` as ``order`` to verify that solves
    do not depend on the enumeration order.  Row ``r`` of ``neighbor_table``
    holds the positions of the ``balls * (urns - 1)`` states one move away
    from ``states[r]``: moving ball ``i`` on by ``d = 1..urns-1`` urns changes
    the code by ``((digit_i + d) mod urns - digit_i) * urns**(i-1)``.
    A chain of more than ``cap`` states is refused before anything is
    enumerated, so every solve on a chain is within the cap.
    """

    def __init__(self, params: ModelParams, order: Sequence[int] | None = None, cap: int = DEFAULT_EXACT_CAP):
        if params.state_count > cap:
            raise CapExceededError(params.state_count, cap)
        self.params = params
        n, m, size = params.urns, params.balls, params.state_count
        codes = np.arange(size) if order is None else np.array(list(order), dtype=np.int64)
        if codes.shape != (size,) or not np.array_equal(np.sort(codes), np.arange(size)):
            raise ValueError("order must be a permutation of all state codes")
        radix = n ** np.arange(m, dtype=np.int64)
        digits = codes[:, None] // radix % n
        moved = (digits[:, :, None] + np.arange(1, n)) % n
        shifts = ((moved - digits[:, :, None]) * radix[:, None]).reshape(size, -1)
        position = np.empty(size, dtype=np.intp)
        position[codes] = np.arange(size)
        self.neighbor_table = position[codes[:, None] + shifts]
        self.states: list[State] = [tuple(row) for row in (digits + 1).tolist()]
        self.index: dict[State, int] = {x: i for i, x in enumerate(self.states)}
        self.quotients: dict = {}  # (target set, start) -> _lump's partition, see _quotient

    def neighbors(self, x: State) -> list[State]:
        return [self.states[j] for j in self.neighbor_table[self.index[x]].tolist()]

    def degree(self) -> int:
        return self.params.balls * (self.params.urns - 1)


# ---------------------------------------------------------------------------
# exact dense solver


def solve_exact_system(
    rows: Sequence[Sequence[Fraction | int]],
    rhs_columns: Sequence[Sequence[Fraction | int]],
) -> list[list[Fraction]]:
    """Solve ``A X = B`` exactly; returns the solution columns.

    Rows are scaled to integers (row scaling leaves solutions unchanged),
    eliminated fraction-free with exact divisions, and back-substituted in
    rational arithmetic.  Raises on singular systems.
    """
    size = len(rows)
    ncols = len(rhs_columns)
    if size == 0:
        return [[] for _ in range(ncols)]
    aug: list[list[int]] = []
    for r in range(size):
        entries = [Fraction(v) for v in rows[r]] + [Fraction(col[r]) for col in rhs_columns]
        scale = lcm(*(e.denominator for e in entries))
        aug.append([int(e * scale) for e in entries])
    width = size + ncols

    prev = 1
    for k in range(size - 1):
        if aug[k][k] == 0:
            for r in range(k + 1, size):
                if aug[r][k] != 0:
                    aug[k], aug[r] = aug[r], aug[k]
                    break
            else:
                raise ZeroDivisionError("singular system")
        pivot = aug[k][k]
        row_k = aug[k]
        for i in range(k + 1, size):
            row_i = aug[i]
            factor = row_i[k]
            if factor == 0:
                if pivot != prev:
                    for j in range(k + 1, width):
                        row_i[j] = row_i[j] * pivot // prev
            else:
                for j in range(k + 1, width):
                    row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
                row_i[k] = 0
        prev = pivot
    if aug[size - 1][size - 1] == 0:
        raise ZeroDivisionError("singular system")

    solutions: list[list[Fraction]] = []
    for c in range(ncols):
        xs = [Fraction(0)] * size
        for i in range(size - 1, -1, -1):
            acc = Fraction(aug[i][size + c])
            row = aug[i]
            for j in range(i + 1, size):
                if row[j]:
                    acc -= row[j] * xs[j]
            xs[i] = acc / row[i]
        solutions.append(xs)
    return solutions


# ---------------------------------------------------------------------------
# quotient by partition refinement


def _lump(chain: EnumeratedChain, targets: Sequence[State], start: State | None = None):
    """Coarsest strongly lumpable partition refining {rest, {start}, targets}.

    Returns ``(labels, counts, transient)``: the block of every state, the
    neighbour count ``counts[b][c]`` from any state of block ``b`` into block
    ``c``, and the number of blocks outside the target set.  A block keeps
    the order of the block it split from, so those come first.
    """
    positions = [chain.index[chain.params.check_state(t)] for t in targets]
    if not positions:
        raise ValueError("target set must be nonempty")
    labels = np.zeros(len(chain.states), dtype=np.intp)
    labels[positions] = 2
    if start is not None:
        labels[chain.index[start]] = 1
    neighbors = chain.neighbor_table
    blocks = 0
    while True:
        signature = np.column_stack((labels, np.sort(labels[neighbors], axis=1)))
        _, first, labels = np.unique(signature, axis=0, return_index=True, return_inverse=True)
        labels = labels.reshape(-1)
        if len(first) == blocks:
            break
        blocks = len(first)
    counts = [np.bincount(labels[neighbors[r]], minlength=blocks).tolist() for r in first]
    return labels, counts, int(labels[positions].min())


def _quotient(chain: EnumeratedChain, targets: Sequence[State], start: State | None = None):
    """:func:`_lump`, refined once per (target set, start) on each chain."""
    key = (frozenset(map(chain.params.check_state, targets)), start)
    if key not in chain.quotients:
        chain.quotients[key] = _lump(chain, targets, start)
    return chain.quotients[key]


def _rows(chain: EnumeratedChain, counts, transient: int, z: Fraction | int = 1):
    """Quotient rows of ``degree * (I - z P)`` on the transient blocks."""
    d = chain.degree()
    return [[(d if b == c else 0) - z * counts[b][c] for c in range(transient)] for b in range(transient)]


def _expand(chain: EnumeratedChain, labels, values) -> dict[State, Fraction]:
    return dict(zip(chain.states, map(values.__getitem__, labels.tolist())))


# ---------------------------------------------------------------------------
# hitting-time solves


def mean_vector(chain: EnumeratedChain, targets: Sequence[State]) -> dict[State, Fraction]:
    """Expected steps to reach the target set, for every start state."""
    return raw_moment_vectors(chain, targets, 1)[0]


def solve_mean(chain: EnumeratedChain, targets: Sequence[State], start: State) -> Fraction:
    return mean_vector(chain, targets)[chain.params.check_state(start)]


def raw_moment_vectors(
    chain: EnumeratedChain, targets: Sequence[State], order: int
) -> list[dict[State, Fraction]]:
    """Raw moments ``E[T**r]`` for ``r = 1..order``, every start state.

    Uses the first-step recursion ``E[T**r] = E[(1 + T')**r]`` expanded by the
    binomial theorem: each order solves the same quotient system with a
    right-hand side assembled from the lower-order solutions.
    """
    if order < 1:
        raise ValueError("moment order must be >= 1")
    labels, counts, transient = _quotient(chain, targets)
    rows = _rows(chain, counts, transient)
    absorbed = [Fraction(0)] * (len(counts) - transient)
    full: list[list] = [[1] * len(counts)]  # moment 0 is identically one
    for r in range(1, order + 1):
        weights = [sum(binomial(r, j) * vec[c] for j, vec in enumerate(full)) for c in range(len(counts))]
        rhs = [sum(k * w for k, w in zip(counts[b], weights)) for b in range(transient)]
        (sol,) = solve_exact_system(rows, [rhs])
        full.append(sol + absorbed)
    return [_expand(chain, labels, vec) for vec in full[1:]]


def solve_second_moment(chain: EnumeratedChain, targets: Sequence[State], start: State) -> Fraction:
    """Exact ``E[T**2]`` from the coupled first/second-moment systems."""
    vecs = raw_moment_vectors(chain, targets, 2)
    return vecs[1][chain.params.check_state(start)]


def transform_vector(
    chain: EnumeratedChain, targets: Sequence[State], z: Fraction
) -> dict[State, Fraction]:
    """Probability generating function ``E[z**T]`` for every start state."""
    z = Fraction(z)
    if not 0 < z < 1:
        raise ValueError("transform argument must lie strictly between 0 and 1")
    labels, counts, transient = _quotient(chain, targets)
    rhs = [z * sum(counts[b][transient:]) for b in range(transient)]
    (sol,) = solve_exact_system(_rows(chain, counts, transient, z), [rhs])
    return _expand(chain, labels, sol + [Fraction(1)] * (len(counts) - transient))


def solve_transform(chain: EnumeratedChain, targets: Sequence[State], start: State, z: Fraction) -> Fraction:
    return transform_vector(chain, targets, z)[chain.params.check_state(start)]


def solve_transform_u(chain: EnumeratedChain, targets: Sequence[State], start: State, u: Fraction) -> Fraction:
    """Continuous-time transform ``E[exp(-u * T)]`` at rational ``u > 0``.

    Jumps come at rate ``balls``, so each step contributes the factor
    ``balls / (u + balls)``: the generating function at that ``z``.
    """
    u = Fraction(u)
    if u <= 0:
        raise ValueError(f"transform argument u must be positive, got {u}")
    m = chain.params.balls
    return solve_transform(chain, targets, start, Fraction(m) / (u + m))


def exit_distribution(
    chain: EnumeratedChain, targets: Sequence[State], start: State
) -> dict[State, Fraction]:
    """Absorption probabilities into each element of the target set.

    Moves are equiprobable, so the Green function ``G`` of the chain killed
    on the target set is symmetric: ``G(start, y) = G(y, start)``, the
    expected visits to ``start`` from ``y``.  One solve on the partition that
    also keeps ``start`` apart gives those visits, and the exit probability
    at ``t`` is ``G(start, y) / degree`` summed over t's transient neighbours.
    """
    ordered_targets = sorted({chain.params.check_state(t) for t in targets})
    start = chain.params.check_state(start)
    if start in ordered_targets:
        return {t: Fraction(1 if t == start else 0) for t in ordered_targets}
    labels, counts, transient = _quotient(chain, ordered_targets, start)
    d = chain.degree()
    home = int(labels[chain.index[start]])
    (visits,) = solve_exact_system(_rows(chain, counts, transient), [[d * (b == home) for b in range(transient)]])
    visits += [Fraction(0)] * (len(counts) - transient)
    return {
        t: sum(map(visits.__getitem__, labels[chain.neighbor_table[chain.index[t]]].tolist()), Fraction(0)) / d
        for t in ordered_targets
    }


# ---------------------------------------------------------------------------
# lumped count chain

def lumped_count_oracle(params: ModelParams, k: int, h: int) -> Fraction:
    """Mean hitting time of count level ``h`` from level ``k``.

    Solves the ``balls + 1`` level birth-death chain that tracks how many
    balls sit in the reference urn; of the ``balls*(urns-1)`` equiprobable
    moves from level ``i``, ``i*(urns-1)`` go down, ``balls-i`` go up and
    the rest stay.
    """
    n, m = params.urns, params.balls
    if not (0 <= k <= m and 0 <= h <= m):
        raise ValueError(f"levels must lie in 0..{m}")
    if k == h:
        return Fraction(0)
    levels = [i for i in range(m + 1) if i != h]
    idx = {lvl: r for r, lvl in enumerate(levels)}
    d = m * (n - 1)  # rows are scaled by the number of moves out of a state
    rows = []
    for lvl in levels:
        row = [0] * len(levels)
        row[idx[lvl]] = d
        for nxt, moves in ((lvl - 1, lvl * (n - 1)), (lvl + 1, m - lvl), (lvl, (m - lvl) * (n - 2))):
            if moves and nxt in idx:
                row[idx[nxt]] -= moves
        rows.append(row)
    (sol,) = solve_exact_system(rows, [[d] * len(levels)])
    return sol[idx[k]]
