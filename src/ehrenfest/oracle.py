"""Independent ground truth by exact linear algebra on the enumerated chain.

Every closed-form quantity in this package is re-derivable from first-step
analysis on the full ``urns**balls`` state space: hitting means, higher
moments, probability-generating-function values, and exit distributions all
solve small linear systems with rational coefficients.  This module solves
those systems exactly (fraction-free Bareiss elimination over big integers,
rational back-substitution) without using any of the kernel formulas, so an
agreement between the two paths is a genuine two-sided check.

Solves are capped by state-space size (default 2000).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

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
    """The fully enumerated chain with its sparse one-step structure.

    States are listed in mixed-radix order with ball 1 varying fastest, so
    ``state_index(x) = sum_i (x_i - 1) * urns**(i-1)``.  Tests may pass a
    permutation of ``range(urns**balls)`` as ``order`` to verify that solves
    do not depend on the enumeration order.
    """

    def __init__(self, params: ModelParams, order: Sequence[int] | None = None):
        self.params = params
        n, m = params.urns, params.balls
        codes = range(params.state_count)
        if order is None:
            positions = list(codes)
        else:
            positions = list(order)
            if sorted(positions) != list(codes):
                raise ValueError("order must be a permutation of all state codes")
        self.states: list[State] = [self._decode(c) for c in positions]
        self.index: dict[State, int] = {x: i for i, x in enumerate(self.states)}
        self.step_prob = Fraction(1, m * (n - 1))

    def _decode(self, code: int) -> State:
        n, m = self.params.urns, self.params.balls
        out = []
        for _ in range(m):
            out.append(code % n + 1)
            code //= n
        return tuple(out)

    def neighbors(self, x: State) -> list[State]:
        n = self.params.urns
        out = []
        for i, c in enumerate(x):
            for u in range(1, n + 1):
                if u != c:
                    out.append(x[:i] + (u,) + x[i + 1 :])
        return out

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


def _transient_layout(chain: EnumeratedChain, targets: Iterable[State]):
    target_set = {chain.params.check_state(t) for t in targets}
    if not target_set:
        raise ValueError("target set must be nonempty")
    transient = [x for x in chain.states if x not in target_set]
    t_index = {x: i for i, x in enumerate(transient)}
    return target_set, transient, t_index


def _restricted_rows(chain: EnumeratedChain, transient, t_index):
    """Rows of ``I - P`` restricted to transient states, as Fractions."""
    p = chain.step_prob
    rows = []
    for x in transient:
        row = [Fraction(0)] * len(transient)
        row[t_index[x]] = Fraction(1)
        for y in chain.neighbors(x):
            j = t_index.get(y)
            if j is not None:
                row[j] -= p
        rows.append(row)
    return rows


def _ensure_cap(chain: EnumeratedChain, cap: int):
    if chain.params.state_count > cap:
        raise CapExceededError(chain.params.state_count, cap)


# ---------------------------------------------------------------------------
# hitting-time solves


def mean_vector(chain: EnumeratedChain, targets: Sequence[State], cap: int = DEFAULT_EXACT_CAP) -> dict[State, Fraction]:
    """Expected steps to reach the target set, for every start state."""
    _ensure_cap(chain, cap)
    target_set, transient, t_index = _transient_layout(chain, targets)
    rows = _restricted_rows(chain, transient, t_index)
    (sol,) = solve_exact_system(rows, [[Fraction(1)] * len(transient)])
    out = {x: Fraction(0) for x in target_set}
    out.update({x: sol[t_index[x]] for x in transient})
    return out


def solve_mean(chain: EnumeratedChain, targets: Sequence[State], start: State, cap: int = DEFAULT_EXACT_CAP) -> Fraction:
    return mean_vector(chain, targets, cap)[chain.params.check_state(start)]


def raw_moment_vectors(
    chain: EnumeratedChain, targets: Sequence[State], order: int, cap: int = DEFAULT_EXACT_CAP
) -> list[dict[State, Fraction]]:
    """Raw moments ``E[T**r]`` for ``r = 1..order``, every start state.

    Uses the first-step recursion ``E[T**r] = E[(1 + T')**r]`` expanded by the
    binomial theorem: each order solves the same restricted system with a
    right-hand side assembled from the lower-order solutions.
    """
    _ensure_cap(chain, cap)
    if order < 1:
        raise ValueError("moment order must be >= 1")
    target_set, transient, t_index = _transient_layout(chain, targets)
    rows = _restricted_rows(chain, transient, t_index)
    p = chain.step_prob

    # full-state-space vectors; moment 0 is identically one
    full: list[dict[State, Fraction]] = [{x: Fraction(1) for x in chain.states}]
    results = []
    for r in range(1, order + 1):
        rhs = []
        for x in transient:
            acc = Fraction(0)
            for y in chain.neighbors(x):
                for j in range(r):
                    acc += binomial(r, j) * full[j][y]
            rhs.append(p * acc)
        (sol,) = solve_exact_system(rows, [rhs])
        vec = {x: Fraction(0) for x in target_set}
        vec.update({x: sol[t_index[x]] for x in transient})
        full.append(vec)
        results.append(vec)
    return results


def solve_second_moment(chain: EnumeratedChain, targets: Sequence[State], start: State, cap: int = DEFAULT_EXACT_CAP) -> Fraction:
    """Exact ``E[T**2]`` from the coupled first/second-moment systems."""
    vecs = raw_moment_vectors(chain, targets, 2, cap)
    return vecs[1][chain.params.check_state(start)]


def transform_vector(
    chain: EnumeratedChain, targets: Sequence[State], z: Fraction, cap: int = DEFAULT_EXACT_CAP
) -> dict[State, Fraction]:
    """Probability generating function ``E[z**T]`` for every start state."""
    z = Fraction(z)
    if not 0 < z < 1:
        raise ValueError("transform argument must lie strictly between 0 and 1")
    _ensure_cap(chain, cap)
    target_set, transient, t_index = _transient_layout(chain, targets)
    p = chain.step_prob
    rows = []
    rhs = []
    for x in transient:
        row = [Fraction(0)] * len(transient)
        row[t_index[x]] = Fraction(1)
        b = Fraction(0)
        for y in chain.neighbors(x):
            j = t_index.get(y)
            if j is not None:
                row[j] -= z * p
            else:
                b += z * p
        rows.append(row)
        rhs.append(b)
    (sol,) = solve_exact_system(rows, [rhs])
    out = {x: Fraction(1) for x in target_set}
    out.update({x: sol[t_index[x]] for x in transient})
    return out


def solve_transform(chain: EnumeratedChain, targets: Sequence[State], start: State, z: Fraction, cap: int = DEFAULT_EXACT_CAP) -> Fraction:
    return transform_vector(chain, targets, z, cap)[chain.params.check_state(start)]


def solve_transform_u(chain: EnumeratedChain, targets: Sequence[State], start: State, u: Fraction, cap: int = DEFAULT_EXACT_CAP) -> Fraction:
    """Continuous-time transform ``E[exp(-u * T)]`` at rational ``u > 0``.

    Jumps come at rate ``balls``, so each step contributes the factor
    ``balls / (u + balls)``: the generating function at that ``z``.
    """
    u = Fraction(u)
    if u <= 0:
        raise ValueError(f"transform argument u must be positive, got {u}")
    m = chain.params.balls
    return solve_transform(chain, targets, start, Fraction(m) / (u + m), cap)


def exit_distribution(
    chain: EnumeratedChain, targets: Sequence[State], start: State, cap: int = DEFAULT_EXACT_CAP
) -> dict[State, Fraction]:
    """Absorption probabilities into each element of the target set."""
    _ensure_cap(chain, cap)
    target_set, transient, t_index = _transient_layout(chain, targets)
    start = chain.params.check_state(start)
    ordered_targets = sorted(target_set)
    if start in target_set:
        return {t: Fraction(1 if t == start else 0) for t in ordered_targets}
    rows = _restricted_rows(chain, transient, t_index)
    p = chain.step_prob
    rhs_cols = []
    for t in ordered_targets:
        col = []
        for x in transient:
            col.append(p * sum(1 for y in chain.neighbors(x) if y == t))
        rhs_cols.append(col)
    sols = solve_exact_system(rows, rhs_cols)
    row = t_index[start]
    return {t: sols[c][row] for c, t in enumerate(ordered_targets)}


# ---------------------------------------------------------------------------
# lumped count chain

def lumped_count_oracle(params: ModelParams, k: int, h: int, reference_urn: int = 2) -> Fraction:
    """Mean hitting time of count level ``h`` from level ``k``.

    Solves the ``balls + 1`` level birth-death chain that tracks how many
    balls sit in the reference urn; transition rows are down ``i/balls``,
    up ``(balls-i)/(balls*(urns-1))``, stay the rest.
    """
    n, m = params.urns, params.balls
    if not (0 <= k <= m and 0 <= h <= m):
        raise ValueError(f"levels must lie in 0..{m}")
    if not 1 <= reference_urn <= n:
        raise ValueError(f"reference urn {reference_urn} outside 1..{n}")
    if k == h:
        return Fraction(0)
    levels = [i for i in range(m + 1) if i != h]
    idx = {lvl: r for r, lvl in enumerate(levels)}
    rows = []
    for lvl in levels:
        row = [Fraction(0)] * len(levels)
        row[idx[lvl]] += Fraction(1)
        down = Fraction(lvl, m)
        up = Fraction(m - lvl, m * (n - 1))
        stay = Fraction((m - lvl) * (n - 2), m * (n - 1))
        for nxt, pr in ((lvl - 1, down), (lvl + 1, up), (lvl, stay)):
            if pr and nxt in idx:
                row[idx[nxt]] -= pr
        rows.append(row)
    (sol,) = solve_exact_system(rows, [[Fraction(1)] * len(levels)])
    return sol[idx[k]]
