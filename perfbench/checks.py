"""Independent routes that the benchmark checks each CLI answer against.

Every check uses a route other than the one the request timed:

* lumped chains: the count chain (which is also the overlap chain of a
  singleton target) and the urn-occupancy chain (for the all-distinct set)
  are small exact Markov chains solved here by first-step analysis,
  sharing no code with the kernel engine;
* a float oracle: numpy first-step solves on the enumerated chain, for the
  exact oracle's answers on any target set with at most a few hundred states;
* the kernel engine, for the exact oracle's answers on symmetric sets;
* closed forms from :mod:`ehrenfest.closedforms`, for pair and diagonal
  means at sizes no chain can be enumerated.

Product permutations of urn labels preserve the chain, so a permuted target
image is checked through the preimage of its start state.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

TOL = 1e-9


class CheckFailed(Exception):
    """An output disagrees with the independent route."""


def expect_equal(name, got, want):
    if got != want:
        raise CheckFailed(f"{name}: got {got}, expected {want}")


def expect_close(name, got, want, tol=TOL):
    got, want = float(got), float(want)
    if not abs(got - want) <= tol * max(abs(want), 1e-300):
        raise CheckFailed(f"{name}: got {got!r}, expected {want!r}")


def rational(entry) -> Fraction:
    """The exact value of a ``{"rational": ..., "float": ...}`` report entry."""
    return Fraction(entry["rational"])


# ---------------------------------------------------------------------------
# exact lumped chains


def _solve_sparse(rows, rhs):
    """Exact Gaussian elimination on sparse rows ``{column: value}``.

    The systems here are ``I - P`` restricted to transient states of a chain
    that reaches its target, so every pivot in natural order is nonzero.
    Banded rows (the birth-death chains) stay banded.
    """
    rows = [dict(r) for r in rows]
    rhs = list(rhs)
    n = len(rows)
    for k in range(n):
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            factor = rows[i].get(k)
            if not factor:
                continue
            f = factor / pivot
            row_i = rows[i]
            for j, v in pivot_row.items():
                row_i[j] = row_i.get(j, 0) - f * v
            del row_i[k]
            rhs[i] -= f * rhs[k]
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = rhs[i]
        for j, v in rows[i].items():
            if j > i:
                acc -= v * x[j]
        x[i] = acc / rows[i][i]
    return x


class LumpedChain:
    """A finite chain given by ``step[state] = {next_state: probability}``."""

    def __init__(self, step: dict, targets):
        self.step = step
        self.targets = frozenset(targets)
        self.transient = [s for s in step if s not in self.targets]
        self.index = {s: i for i, s in enumerate(self.transient)}

    def _rows(self, z=1):
        rows = []
        for s in self.transient:
            row = {self.index[s]: Fraction(1)}
            for t, p in self.step[s].items():
                j = self.index.get(t)
                if j is not None:
                    row[j] = row.get(j, 0) - z * p
            rows.append(row)
        return rows

    def moments(self, start, order: int) -> list[Fraction]:
        """Raw moments ``E[T**r]``, ``r = 1..order``, of the hitting time."""
        if start in self.targets:
            return [Fraction(0)] * order
        rows = self._rows()
        levels = [{s: Fraction(1) for s in self.step}]  # moment 0
        for r in range(1, order + 1):
            rhs = [
                sum(
                    (p * sum(math.comb(r, a) * levels[a][t] for a in range(r))
                     for t, p in self.step[s].items()),
                    Fraction(0),
                )
                for s in self.transient
            ]
            sol = _solve_sparse(rows, rhs)
            vec = {s: Fraction(0) for s in self.targets}
            vec.update(zip(self.transient, sol))
            levels.append(vec)
        return [levels[r][start] for r in range(1, order + 1)]

    def pgf(self, start, z: Fraction) -> Fraction:
        """``E[z**T]`` of the hitting time."""
        if start in self.targets:
            return Fraction(1)
        rhs = [
            z * sum((p for t, p in self.step[s].items() if t in self.targets), Fraction(0))
            for s in self.transient
        ]
        sol = _solve_sparse(self._rows(z), rhs)
        return sol[self.index[start]]


@lru_cache(maxsize=None)
def count_chain(urns: int, balls: int, target: int) -> LumpedChain:
    """Number of balls in a reference urn, stopped at level ``target``.

    With ``target = balls`` the same chain tracks the overlap with a fixed
    state, so it also serves singleton targets.
    """
    n, m = urns, balls
    step = {}
    for i in range(m + 1):
        row = {}
        if i:
            row[i - 1] = Fraction(i, m)
        if i < m:
            row[i + 1] = Fraction(m - i, m * (n - 1))
        stay = Fraction((m - i) * (n - 2), m * (n - 1))
        if stay:
            row[i] = stay
        step[i] = row
    return LumpedChain(step, [target])


def occupancy(state, urns: int) -> tuple[int, ...]:
    """Sorted urn occupancy counts of a state (the occupancy chain's level)."""
    counts = [0] * urns
    for u in state:
        counts[u - 1] += 1
    return tuple(sorted(counts, reverse=True))


@lru_cache(maxsize=None)
def distinct_chain(urns: int, balls: int) -> LumpedChain:
    """Sorted urn occupancy counts, stopped when every ball has its own urn."""
    n, m = urns, balls
    step = {}
    frontier = [tuple([m] + [0] * (n - 1))]
    while frontier:
        level = frontier.pop()
        if level in step:
            continue
        row = {}
        for i, c in enumerate(level):
            for j in range(n):
                if j == i or not c:
                    continue
                counts = list(level)
                counts[i] -= 1
                counts[j] += 1
                nxt = tuple(sorted(counts, reverse=True))
                row[nxt] = row.get(nxt, 0) + Fraction(c, m * (n - 1))
        step[level] = row
        frontier.extend(row)
    return LumpedChain(step, [tuple([1] * m + [0] * (n - m))])


def passage_means(urns: int, balls: int) -> tuple[list[Fraction], list[Fraction]]:
    """One-level passage means of the count chain: ``(up[i], down[i])``.

    ``up[i]`` is the mean time from level ``i`` to ``i + 1`` and ``down[i]``
    from ``i + 1`` to ``i``, by the birth-death recursions.
    """
    chain = count_chain(urns, balls, balls).step
    m = balls
    up = []
    for i in range(m):
        p_up = chain[i][i + 1]
        p_down = chain[i].get(i - 1, 0)
        up.append((1 + p_down * (up[i - 1] if i else 0)) / p_up)
    down = [Fraction(0)] * m
    for i in range(m - 1, -1, -1):
        p_down = chain[i + 1][i]
        p_up = chain[i + 1].get(i + 2, 0)
        down[i] = (1 + p_up * (down[i + 1] if i + 1 < m else 0)) / p_down
    return up, down


# ---------------------------------------------------------------------------
# float oracle on the enumerated chain


class FloatChain:
    """Enumerated chain in floats: ``P`` restricted to the transient states."""

    def __init__(self, urns: int, balls: int, targets):
        n, m = urns, balls
        size = n**m
        weights = n ** np.arange(m)
        codes = np.arange(size)
        digits = (codes[:, None] // weights[None, :]) % n
        self.weights = weights
        is_target = np.zeros(size, dtype=bool)
        for t in targets:
            is_target[self.code(t)] = True
        p = 1.0 / (m * (n - 1))
        full = np.zeros((size, size))
        for i in range(m):
            for d in range(1, n):
                nbr = codes + ((digits[:, i] + d) % n - digits[:, i]) * weights[i]
                np.add.at(full, (codes, nbr), p)
        self.transient = np.flatnonzero(~is_target)
        self.target_codes = [self.code(t) for t in sorted(targets)]
        self.pos = {int(c): i for i, c in enumerate(self.transient)}
        self.full = full
        self.q = full[np.ix_(self.transient, self.transient)]
        self.eye = np.eye(len(self.transient))

    def code(self, state) -> int:
        return int(np.dot(np.asarray(state) - 1, self.weights))

    def moments(self, start, order: int) -> list[float]:
        n = self.full.shape[0]
        vecs = [np.ones(n)]
        a = self.eye - self.q
        for r in range(1, order + 1):
            acc = sum(math.comb(r, j) * vecs[j] for j in range(r))
            rhs = (self.full @ acc)[self.transient]
            vec = np.zeros(n)
            vec[self.transient] = np.linalg.solve(a, rhs)
            vecs.append(vec)
        c = self.code(start)
        return [float(v[c]) for v in vecs[1:]]

    def pgf(self, start, z: float) -> float:
        c = self.code(start)
        if c not in self.pos:
            return 1.0
        into = self.full[np.ix_(self.transient, self.target_codes)].sum(axis=1)
        sol = np.linalg.solve(self.eye - z * self.q, z * into)
        return float(sol[self.pos[c]])

    def exits(self, start) -> list[float]:
        """Absorption probabilities into each target, in sorted target order."""
        c = self.code(start)
        if c not in self.pos:
            return [1.0 if t == c else 0.0 for t in self.target_codes]
        into = self.full[np.ix_(self.transient, self.target_codes)]
        sol = np.linalg.solve(self.eye - self.q, into)
        return [float(v) for v in sol[self.pos[c]]]
