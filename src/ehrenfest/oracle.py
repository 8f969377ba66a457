"""Independent ground truth by exact linear algebra on the enumerated chain.

Every closed-form quantity in this package is re-derivable from first-step
analysis on the ``urns**balls`` state space: hitting means, higher moments,
probability-generating-function values, and exit distributions all solve
linear systems with rational coefficients.  No system here is solved on the
full chain.  The states are enumerated in mixed-radix order, so a state's
position is its code (``model.ModelParams.radix``), with a table of neighbour
positions; every lookup checks its states first (``check_states``), so no
state outside the chain aliases a code inside it.  The partition {target
set, rest} is refined by signatures (a state's own block plus the sorted
blocks of its neighbours) until no block splits.
That is the coarsest strongly lumpable partition keeping the target set
apart (Kemeny & Snell, *Finite Markov Chains*, 1960, §6.3): all moves are
equiprobable and every state of a block has the same number of neighbours
in each block, so every first-step solution is constant on blocks.  Each
round packs every signature row big-endian into as few exact int64 words as
hold it, and numbers the distinct rows in lexicographic order by stable
sorts of those words; the own block leads each row, so a
block keeps the order of the block it split from and the target set's blocks
come last.  Each system is assembled in integers from the block-to-block
neighbour counts (at ``z = a/q`` its rows are ``q * degree * I - a *
counts``: row scaling leaves the solution unchanged) and solved by Dixon's
p-adic lifting (*Numer. Math.* 40, 1982).  The matrix is inverted once mod a
word-size prime, the solution is lifted one p-adic digit per step and
recovered as integer numerators over one common denominator (Wang, Guy &
Davenport, *ACM SIGSAM Bull.* 16(2), 1982), and it is returned only once
substituting it back into the integer rows holds exactly, so exactness never
rests on the modular step.  One inverse serves every moment order.  A solve
gives one rational per block, read at a start's block, or spread over every
state by the three vector forms.  A chain validates a target list and refines
its partition once, keyed by the list as given (and the start, for the exit
law), and keeps it for every later solve on that list.  The refinement reads
only the transition structure, never overlaps or kernel formulas, so an
agreement with the engine is still a genuine two-sided check.

A chain of more than ``MAX_MOVES`` state-move pairs (the size of its
neighbour table, which alone bounds the chain at 2**18 states), or a quotient
of more than ``MAX_BLOCKS`` transient blocks, is refused before any system is
built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt, lcm, prod
from typing import Sequence

import numpy as np

from .model import CapExceededError, ModelParams, State

#: Work bounds, timed on 2 vCPUs: at 2**23 state-move pairs a singleton
#: ``oracle`` request takes 0.7-0.9 s and 229 MB at N=161 M=2, and 2.8-2.9 s
#: and 162 MB at 2**18 states (N=2 M=18, the largest chain admitted); one
#: dense inverse of a 1024-block quotient takes about 3 s.
MAX_MOVES = 2**23
MAX_BLOCKS = 1024


class EnumeratedChain:
    """The fully enumerated chain with its table of neighbour positions.

    States are listed in mixed-radix order with ball 1 varying fastest, so a
    state's position is its code ``(x - 1) @ params.radix``, as
    :class:`~ehrenfest.model.ModelParams` defines it, and no state is kept as
    a tuple: :meth:`positions` validates and encodes a list in one array pass,
    :meth:`position` one state through it, and :meth:`states_at` decodes many.  Row ``r`` of
    ``neighbor_table`` holds the positions of the ``balls * (urns - 1)`` states one
    move away from the state of code ``r``: moving ball ``i`` on by ``d = 1..urns-1``
    urns changes the code by ``d * urns**(i-1)``, less ``urns**i`` when the move
    wraps past urn ``urns`` (``digit_i >= urns - d``), so the table is the codes plus
    one whole-array shift, with no modulo and no gather.  A chain of more than
    ``MAX_MOVES`` state-move pairs is refused first.
    """

    def __init__(self, params: ModelParams):
        if (moves := params.state_count * params.balls * (params.urns - 1)) > MAX_MOVES:
            raise CapExceededError("MAX_MOVES", moves, MAX_MOVES, "state-move pairs")
        self.params = params
        n, size, radix = params.urns, params.state_count, params.radix
        codes = np.arange(size)
        digits = codes[:, None] // radix % n
        step = np.arange(1, n)
        shifts = (step - n * (digits[:, :, None] >= n - step)) * radix[:, None]
        self.neighbor_table = codes[:, None] + shifts.reshape(size, -1)
        self.quotients: dict = {}  # (target list as given, start) -> _lump's partition, see _quotient

    def degree(self) -> int:
        return self.params.balls * (self.params.urns - 1)

    def positions(self, states: Sequence[Sequence[int]]) -> np.ndarray:
        """The codes of ``states``, checked first: unchecked, ``(4, 1, 1)`` at 3 urns would read as ``(1, 2, 1)``."""
        return (self.params.check_states(states) - 1) @ self.params.radix

    def position(self, x: Sequence[int]) -> int:
        """The code of one state: ``positions([x])[0]``."""
        return int(self.positions([x])[0])

    def states_at(self, positions: np.ndarray) -> list[State]:
        """The states at ``positions`` (their codes), decoded in one array pass."""
        return list(map(tuple, (positions[:, None] // self.params.radix % self.params.urns + 1).tolist()))


# ---------------------------------------------------------------------------
# exact solver: Dixon p-adic lifting, certified by substitution


@lru_cache(maxsize=None)
def _prime_before(bound: int) -> int:
    """The largest prime below ``bound``, by trial division (a few ms below 2**31, once per bound)."""
    return next(p for p in range(bound - 1, 1, -1) if all(p % q for q in range(2, isqrt(p) + 1)))


def _sparse(matrix: np.ndarray):
    """Row-compressed ``(columns, values, row starts)`` of an integer matrix with no zero row."""
    rows, cols = np.nonzero(matrix)
    return cols, matrix[rows, cols], np.searchsorted(rows, np.arange(len(matrix)))


def _times(sparse, x: np.ndarray) -> np.ndarray:
    """Exact product of a :func:`_sparse` matrix with an integer vector, as Python ints."""
    cols, vals, starts = sparse
    return np.add.reduceat(vals * x[cols].astype(object), starts)


def _inverse_mod(matrix: np.ndarray, p: int) -> np.ndarray | None:
    """``matrix**-1 mod p`` by Gauss-Jordan on ``[matrix | I]``, or None when a pivot vanishes.

    Row swaps also swap the matching identity columns, so at step ``k`` the
    only columns that can be nonzero are ``k..n-1`` on the left and
    ``0..k`` on the right: one contiguous slice of width ``n + 1``.  The
    identity columns' order is undone at the end.  Only the pivot column and
    the pivot row are reduced mod ``p`` at each step; every other entry takes
    at most ``n`` updates of at most ``(p - 1)**2``, which
    ``n * (p - 1)**2 < 2**63`` keeps exact in int64.
    """
    n = len(matrix)
    work = np.zeros((n, 2 * n), dtype=np.int64)
    work[:, :n] = matrix
    work[:, n:] = np.eye(n, dtype=np.int64)
    perm = np.arange(n)
    for k in range(n):
        work[:, k] %= p
        if not work[k, k]:
            nonzero = np.flatnonzero(work[k:, k])
            if not nonzero.size:
                return None
            r = k + int(nonzero[0])
            work[[k, r]] = work[[r, k]]
            work[:, [n + k, n + r]] = work[:, [n + r, n + k]]
            perm[[k, r]] = perm[[r, k]]
        live = work[:, k:n + k + 1]
        pivot = live[k] % p * pow(int(live[k, 0]), -1, p) % p
        live -= live[:, :1] * pivot
        live[k] = pivot
    inverse = np.empty((n, n), dtype=np.int64)
    inverse[:, perm] = work[:, n:] % p
    return inverse


def _ratrec(u: int, m: int, nbound: int, dbound: int) -> tuple[int, int] | None:
    """Wang's rational reconstruction: ``n/d = u (mod m)`` with ``|n| <= nbound``, ``0 < d <= dbound``."""
    r0, r1, t0, t1 = m, u % m, 0, 1
    while r1 > nbound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not 0 < abs(t1) <= dbound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _reconstruct(residues: np.ndarray, m: int) -> tuple[np.ndarray, int] | None:
    """Numerators over one common denominator, both at most ``sqrt(m/2)``, from residues mod ``m``.

    The denominator found so far maps each residue to a small symmetric
    remainder; only an entry that stays large gets its own reconstruction,
    which multiplies the denominator (Wang, Guy & Davenport 1982).
    """
    bound = isqrt(m // 2)
    den, nums = 1, []
    for u in residues.tolist():
        v = den * u % m
        if v > m // 2:
            v -= m
        if abs(v) > bound:
            found = _ratrec(v, m, bound, bound // den)
            if found is None:
                return None
            v, factor = found
            den *= factor
            nums = [w * factor for w in nums]
        nums.append(v)
    return np.array(nums, dtype=object), den


class _Factored:
    """A nonsingular integer matrix inverted once mod a prime, for certified solves.

    The prime is the largest with ``n * (p - 1)**2 < 2**63``.  If a pivot
    vanishes mod ``p`` the next smaller prime is tried; once the rejected
    primes multiply past the Hadamard bound, they all divide the determinant,
    which must then be zero.
    """

    def __init__(self, matrix):
        n = len(matrix)
        matrix = np.array(matrix, dtype=object).reshape(n, n)
        cols, vals, starts = self.sparse = _sparse(matrix)
        lengths = np.diff(starts, append=len(cols))
        if not lengths.all():
            raise ZeroDivisionError("singular system")
        rows = np.repeat(np.arange(n), lengths)
        self.norms = np.add.reduceat(vals * vals, starts)  # squared row norms
        hadamard = prod(self.norms.tolist())  # bounds the squared determinant
        p, rejected = 1 << ((63 - n.bit_length()) // 2), 1
        while True:
            p = _prime_before(p)
            reduced = np.zeros((n, n), dtype=np.int64)
            reduced[rows, cols] = (vals % p).astype(np.int64)
            self.inverse = _inverse_mod(reduced, p)
            if self.inverse is not None:
                break
            rejected *= p
            if rejected**2 > hadamard:
                raise ZeroDivisionError("singular system")
        self.prime = p

    def solve(self, rhs) -> tuple[list[int], int]:
        """``(numerators, denominator)`` of ``matrix**-1 @ rhs`` for an integer ``rhs``.

        Dixon lifting (Numer. Math. 40, 1982): ``x_i = A^-1 r_i mod p`` and
        ``r_{i+1} = (r_i - A x_i) / p`` give ``sum_i x_i p**i``, the solution
        mod ``p**k``.  Reconstruction is tried after 1, 2, 4, ... steps, and an
        answer is returned only once ``A num == den rhs`` holds exactly.  By
        Cramer's rule and Hadamard's bound every numerator and the denominator
        are at most ``sqrt(prod(|row|**2 + rhs**2))``, so past twice that
        product the reconstruction cannot fail on a correct inverse; it raises
        instead of returning anything uncertified.
        """
        b = np.array(rhs, dtype=object)
        p, n = self.prime, len(b)
        limit = 2 * prod((self.norms + b * b).tolist())
        residue, digits, modulus, steps, check = b, np.zeros(n, dtype=object), 1, 0, 1
        while True:
            x = self.inverse @ (residue % p).astype(np.int64) % p
            residue = (residue - _times(self.sparse, x)) // p
            digits += modulus * x.astype(object)
            modulus, steps = modulus * p, steps + 1
            if steps == check or modulus > limit:
                found = _reconstruct(digits, modulus)
                if found is not None and (_times(self.sparse, found[0]) == found[1] * b).all():
                    return found[0].tolist(), found[1]
                if modulus > limit:
                    raise ArithmeticError("p-adic lifting found no certified solution")
                check *= 2


def solve_exact_system(
    rows: Sequence[Sequence[Fraction | int]],
    rhs_columns: Sequence[Sequence[Fraction | int]],
) -> list[list[Fraction]]:
    """Solve ``A X = B`` exactly; returns the solution columns.

    Rows are scaled to integers (row scaling leaves solutions unchanged),
    the matrix is inverted once mod a prime, and every column is lifted and
    certified by :class:`_Factored`.  Raises ``ZeroDivisionError`` on
    singular systems.
    """
    size = len(rows)
    scaled = []
    for r in range(size):
        entries = [*rows[r], *(col[r] for col in rhs_columns)]
        scale = lcm(*(e.denominator for e in entries))
        scaled.append([e.numerator * (scale // e.denominator) for e in entries])
    solver = _Factored([row[:size] for row in scaled])
    solutions = []
    for c in range(len(rhs_columns)):
        nums, den = solver.solve([row[size + c] for row in scaled])
        solutions.append([Fraction(v, den) for v in nums])
    return solutions


# ---------------------------------------------------------------------------
# quotient by partition refinement


def _group(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` of ``np.unique(rows, axis=0, return_index=True, return_inverse=True)``.

    ``rows`` is a nonnegative int64 matrix.  With ``bits`` the bit length
    of its largest entry, each row is packed big-endian, ``63 // bits``
    entries to an int64 word (the last word takes the remainder), into as
    few words as hold it; every word is exact and nonnegative, and every row
    is split at the same columns, so the words compare as the rows do,
    lexicographically.  The words are grouped by a stable ``np.lexsort``,
    one word or many, and the boundaries between runs of equal rows, so
    ``first`` holds the first row of each group and the groups come in the
    rows' lexicographic order: what ``np.unique(axis=0)`` returns, without
    its sort over a structured view.
    """
    size, width = rows.shape
    bits = max(int(rows.max(initial=0)).bit_length(), 1)
    per_word = min(63 // bits, width)
    tail = width % per_word
    weights = np.int64(1) << bits * np.arange(per_word - 1, -1, -1, dtype=np.int64)
    keys = rows[:, :width - tail].reshape(size, -1, per_word) @ weights  # exact: the shifted entries never overlap
    if tail:
        keys = np.column_stack((keys, rows[:, width - tail:] @ weights[-tail:]))
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.ones(size, dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(size, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def _lump(chain: EnumeratedChain, targets: Sequence[State], start: State | None = None):
    """Coarsest strongly lumpable partition refining {rest, {start}, targets}, targets validated.

    Returns ``(labels, counts, transient)``: the block of every state, the
    neighbour count ``counts[b, c]`` from any state of transient block ``b``
    into block ``c``, and the number of blocks outside the target set.  Each
    round writes the signature rows (a state's label, then its neighbours'
    labels sorted in place) into one buffer allocated per call, and
    :func:`_group` packs them into exact int64 words and numbers the groups
    in the rows' lexicographic order.  The own label leads, so a block keeps
    the order of the block it split from and the target set's blocks come
    last; every solve reads the target set as one absorbing block, so its
    blocks share the label and column ``transient``; a start inside it stays
    there.  The counts come from one
    ``bincount`` over every transient block's representative.
    """
    positions = chain.positions(targets)
    if not positions.size:
        raise ValueError("target set must be nonempty")
    labels = np.zeros(chain.params.state_count, dtype=np.intp)
    if start is not None:
        labels[chain.position(start)] = 1
    labels[positions] = 2
    neighbors = chain.neighbor_table
    signature = np.empty((len(labels), 1 + chain.degree()), dtype=np.intp)  # reused by every round
    blocks = 0
    while True:
        signature[:, 0] = labels
        signature[:, 1:] = labels[neighbors]
        signature[:, 1:].sort(axis=1)
        first, labels = _group(signature)
        if len(first) == blocks:
            break
        blocks = len(first)
    transient = int(labels[positions].min())
    if transient > MAX_BLOCKS:
        raise CapExceededError("MAX_BLOCKS", transient, MAX_BLOCKS)
    labels = np.minimum(labels, transient)
    width = transient + 1
    cells = np.arange(transient)[:, None] * width + labels[neighbors[first[:transient]]]
    counts = np.bincount(cells.ravel(), minlength=transient * width).reshape(transient, width)
    return labels, counts.astype(object), transient


def _quotient(chain: EnumeratedChain, targets: Sequence[State], start: State | None = None):
    """:func:`_lump` once per (target list as given, start) on each chain: a cache hit validates nothing."""
    key = (tuple(map(tuple, targets)), start)
    if key not in chain.quotients:
        labels, _, transient = chain.quotients[key] = _lump(chain, targets, start)
        if start is not None and labels[chain.position(start)] == transient:  # nothing kept apart
            chain.quotients[key[0], None] = chain.quotients[key]
    return chain.quotients[key]


def _rows(chain: EnumeratedChain, counts, transient: int, z: Fraction = Fraction(1)) -> np.ndarray:
    """Integer quotient rows of ``q * degree * (I - z P)`` on the transient blocks, for ``z = a/q``."""
    rows = -z.numerator * counts[:, :transient]
    rows[np.diag_indices(transient)] += z.denominator * chain.degree()
    return rows


def _expand(chain: EnumeratedChain, labels, values) -> dict[State, Fraction]:
    """Every state's value from its block's."""
    return dict(zip(chain.states_at(np.arange(len(labels))), map(values.__getitem__, labels.tolist())))


# ---------------------------------------------------------------------------
# hitting-time solves


def mean_vector(chain: EnumeratedChain, targets: Sequence[State]) -> dict[State, Fraction]:
    """Expected steps to reach the target set, for every start state."""
    return raw_moment_vectors(chain, targets, 1)[0]


def solve_mean(chain: EnumeratedChain, targets: Sequence[State], start: State) -> Fraction:
    return solve_raw_moments(chain, targets, start, 1)[0]


def _raw_moments(chain: EnumeratedChain, targets: Sequence[State], order: int):
    """``(labels, blocks)``: the block of every state, and each block's ``E[T**r]`` for ``r = 1..order``.

    Uses the first-step recursion ``E[T**r] = E[(1 + T')**r]`` expanded by the
    binomial theorem: every order solves the same quotient system, factored
    once, with a right-hand side assembled from the lower-order solutions.
    Each moment is kept as integer numerators over one denominator.
    """
    if order < 1:
        raise ValueError("moment order must be >= 1")
    labels, counts, transient = _quotient(chain, targets)
    solver = _Factored(_rows(chain, counts, transient))
    moves = _sparse(counts)
    nums, dens = [np.ones(transient + 1, dtype=object)], [1]  # moment 0 is identically one
    for r in range(1, order + 1):
        common = lcm(*dens)
        weights = sum(comb(r, j) * (common // den) * vec for j, (vec, den) in enumerate(zip(nums, dens)))
        sol, den = solver.solve(_times(moves, weights))
        nums.append(np.array(sol + [0], dtype=object))
        dens.append(den * common)
    return labels, [[Fraction(v, den) for v, den in zip(row, dens[1:])] for row in zip(*nums[1:])]


def raw_moment_vectors(chain: EnumeratedChain, targets: Sequence[State], order: int) -> list[dict[State, Fraction]]:
    """Raw moments ``E[T**r]`` for ``r = 1..order``, every start state."""
    labels, blocks = _raw_moments(chain, targets, order)
    return [_expand(chain, labels, values) for values in zip(*blocks)]


def solve_raw_moments(chain: EnumeratedChain, targets: Sequence[State], start: State, order: int) -> list[Fraction]:
    """Raw moments ``E[T**r]`` for ``r = 1..order`` from ``start``, read at its block."""
    labels, blocks = _raw_moments(chain, targets, order)
    return blocks[labels[chain.position(start)]]


def solve_second_moment(chain: EnumeratedChain, targets: Sequence[State], start: State) -> Fraction:
    """Exact ``E[T**2]`` from the coupled first/second-moment systems."""
    return solve_raw_moments(chain, targets, start, 2)[1]


def _transform(chain: EnumeratedChain, targets: Sequence[State], z: Fraction):
    """``(labels, values)``: the block of every state, and each block's ``E[z**T]``."""
    z = Fraction(z)
    if not 0 < z < 1:
        raise ValueError("transform argument must lie strictly between 0 and 1")
    labels, counts, transient = _quotient(chain, targets)
    rhs = [z.numerator * row[transient] for row in counts]
    sol, den = _Factored(_rows(chain, counts, transient, z)).solve(rhs)
    return labels, [Fraction(v, den) for v in sol + [den]]


def transform_vector(chain: EnumeratedChain, targets: Sequence[State], z: Fraction) -> dict[State, Fraction]:
    """Probability generating function ``E[z**T]`` for every start state."""
    return _expand(chain, *_transform(chain, targets, z))


def solve_transform(chain: EnumeratedChain, targets: Sequence[State], start: State, z: Fraction) -> Fraction:
    labels, values = _transform(chain, targets, z)
    return values[labels[chain.position(start)]]


def solve_transform_u(chain: EnumeratedChain, targets: Sequence[State], start: State, u: Fraction) -> Fraction:
    """Continuous-time transform ``E[exp(-u * T)]`` at rational ``u > 0``.

    Jumps come at rate ``balls``, so each step contributes the factor
    ``balls / (u + balls)``: the generating function at that ``z``.
    """
    u = Fraction(u)
    if u <= 0:
        raise ValueError(f"transform argument u must be positive, got {u}")
    return solve_transform(chain, targets, start, 1 / (1 + u / chain.params.balls))


def exit_distribution(
    chain: EnumeratedChain, targets: Sequence[State], start: State
) -> dict[State, Fraction]:
    """Absorption probabilities into each element of the target set.

    Moves are equiprobable, so the Green function ``G`` of the chain killed
    on the target set is symmetric: ``G(start, y) = G(y, start)``, the
    expected visits to ``start`` from ``y``.  One solve on the partition that
    also keeps ``start`` apart gives ``G(start, y) / degree``, and the exit
    probability at ``t`` is that summed over t's transient neighbours.
    """
    start = chain.params.check_state(start)
    labels, counts, transient = _quotient(chain, targets, start)
    positions = np.flatnonzero(labels == transient)
    members = sorted(zip(chain.states_at(positions), positions.tolist()))
    home = int(labels[chain.position(start)])
    if home == transient:
        return {t: Fraction(int(t == start)) for t, _ in members}
    visits, den = _Factored(_rows(chain, counts, transient)).solve([int(b == home) for b in range(transient)])
    visits.append(0)
    return {
        t: Fraction(sum(map(visits.__getitem__, labels[chain.neighbor_table[r]].tolist())), den)
        for t, r in members
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
