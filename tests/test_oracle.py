import itertools
import json
import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehrenfest import cli, hitting, oracle
from ehrenfest.model import ModelParams, SetDescriptor, overlap
from ehrenfest.oracle import (
    CapExceededError,
    EnumeratedChain,
    exit_distribution,
    lumped_count_oracle,
    mean_vector,
    raw_moment_vectors,
    solve_exact_system,
    solve_mean,
    solve_raw_moments,
    solve_second_moment,
    solve_transform,
    solve_transform_u,
    transform_vector,
)
from reference import lump_by_unique_rows, neighbor_states, neighbor_table_by_modulo, reordered_chain, states_of


def test_solver_on_small_dense_system():
    # 2x2 with a zero leading pivot exercises the row swap
    rows = [[F(0), F(1)], [F(2), F(1)]]
    (sol,) = solve_exact_system(rows, [[F(3), F(7)]])
    assert sol == [F(2), F(3)]
    with pytest.raises(ZeroDivisionError):
        solve_exact_system([[F(1), F(1)], [F(2), F(2)]], [[F(0), F(0)]])


def _bareiss_solve(rows, rhs_columns):
    """Fraction-free Bareiss elimination and rational back-substitution: the small-system reference.

    This was the oracle's solver before Dixon lifting.
    """
    size = len(rows)
    aug = []
    for r in range(size):
        entries = [F(v) for v in rows[r]] + [F(col[r]) for col in rhs_columns]
        scale = math.lcm(*(e.denominator for e in entries))
        aug.append([int(e * scale) for e in entries])
    width = size + len(rhs_columns)
    prev = 1
    for k in range(size):
        if aug[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if aug[r][k] != 0), None)
            if swap is None:
                raise ZeroDivisionError("singular system")
            aug[k], aug[swap] = aug[swap], aug[k]
        pivot = aug[k][k]
        for i in range(k + 1, size):
            factor = aug[i][k]
            aug[i] = [(aug[i][j] * pivot - factor * aug[k][j]) // prev for j in range(width)]
        prev = pivot
    solutions = []
    for c in range(len(rhs_columns)):
        xs = [F(0)] * size
        for i in range(size - 1, -1, -1):
            acc = aug[i][size + c] - sum(aug[i][j] * xs[j] for j in range(i + 1, size))
            xs[i] = F(acc, aug[i][i])
        solutions.append(xs)
    return solutions


_entries = st.integers(-(2**40), 2**40)
_fractions = st.builds(F, _entries, st.integers(1, 2**20))


@st.composite
def _systems(draw):
    n = draw(st.integers(1, 12))
    entry = draw(st.sampled_from([_entries, _fractions, st.integers(-3, 3)]))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    columns = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=3))
    return rows, columns


@settings(max_examples=150, deadline=None, derandomize=True)
@given(system=_systems())
def test_solver_equals_the_bareiss_reference(system):
    rows, columns = system
    try:
        want = _bareiss_solve(rows, columns)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            solve_exact_system(rows, columns)
        return
    assert solve_exact_system(rows, columns) == want


def _unimodular(n, rng):
    """A random integer matrix of determinant 1, from elementary row operations on I."""
    m = np.eye(n, dtype=object)
    for _ in range(4 * n):
        i, j = rng.sample(range(n), 2)
        m[i] += rng.randint(-3, 3) * m[j]
    return m


def test_determinant_equal_to_the_first_prime_still_solves():
    rng = random.Random(5)
    for n in (2, 5, 9):
        p = oracle._Factored(np.eye(n, dtype=object)).prime
        diagonal = np.eye(n, dtype=object)
        diagonal[0, 0] = p
        matrix = _unimodular(n, rng).dot(diagonal).dot(_unimodular(n, rng))
        rows = matrix.tolist()
        rhs = [[rng.randint(-(10**9), 10**9) for _ in range(n)]]
        assert oracle._Factored(rows).prime != p
        assert solve_exact_system(rows, rhs) == _bareiss_solve(rows, rhs)


def _spy_on_inverses(monkeypatch):
    """The primes of every modular inverse taken from now on."""
    primes = []
    real = oracle._inverse_mod
    monkeypatch.setattr(oracle, "_inverse_mod", lambda matrix, p: primes.append(p) or real(matrix, p))
    return primes


def test_singular_system_raises_only_after_the_hadamard_bound(monkeypatch):
    # every pivot vanishes mod every prime: the rejected primes must outgrow the bound first
    calls = _spy_on_inverses(monkeypatch)
    a, b = [2**40 + 3, -(2**39), 7], [5, 2**41 - 1, -(2**38)]
    with pytest.raises(ZeroDivisionError):
        solve_exact_system([a, b, [x + y for x, y in zip(a, b)]], [[1, 2, 3]])
    assert len(calls) >= 3 and len(set(calls)) == len(calls)


def test_wrong_modular_inverse_never_returns(monkeypatch):
    real = oracle._inverse_mod
    monkeypatch.setattr(oracle, "_inverse_mod", lambda matrix, p: (real(matrix, p) + 1) % p)
    rng = random.Random(8)
    for n in (2, 4, 7):
        rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        rows = (np.array(rows, dtype=object) + 200 * np.eye(n, dtype=object)).tolist()  # nonsingular
        with pytest.raises(ArithmeticError, match="no certified solution"):
            solve_exact_system(rows, [[rng.randint(-9, 9) for _ in range(n)]])
    chain = EnumeratedChain(ModelParams(3, 2))
    with pytest.raises(ArithmeticError):
        raw_moment_vectors(chain, SetDescriptor.singleton((2, 2)), 2)


def test_every_moment_order_shares_one_factorization(monkeypatch):
    chain = EnumeratedChain(ModelParams(4, 3))
    targets = SetDescriptor.explicit(random.Random(2).sample(states_of(chain), 6))
    want = raw_moment_vectors(chain, targets, 4)
    calls = _spy_on_inverses(monkeypatch)
    chain.quotients.clear()
    assert raw_moment_vectors(chain, targets, 4) == want
    assert len(calls) == 1
    transform_vector(chain, targets, F(1, 2))
    exit_distribution(chain, targets, states_of(chain)[0])
    assert len(calls) == 3


def _bareiss_quotient_answers(chain, target, order, zs, start):
    """Moments, transforms and exit law from Fraction quotient rows of ``degree * (I - z P)``, by Bareiss."""

    def solve(partition, z, rhs_of):
        labels, counts, transient = partition
        d = chain.degree()
        rows = [[(d if b == c else 0) - z * counts[b][c] for c in range(transient)] for b in range(transient)]
        (sol,) = _bareiss_solve(rows, [[rhs_of(b) for b in range(transient)]])
        return sol

    labels, counts, transient = partition = oracle._quotient(chain, target)
    blocks = range(transient + 1)  # the target set is the last, absorbing block
    full = [[1] * (transient + 1)]
    for r in range(1, order + 1):
        weights = [sum(math.comb(r, j) * vec[c] for j, vec in enumerate(full)) for c in blocks]
        sol = solve(partition, 1, lambda b: sum(k * w for k, w in zip(counts[b], weights)))
        full.append(sol + [F(0)])
    transforms = [solve(partition, z, lambda b: z * counts[b][transient]) + [F(1)] for z in zs]
    every = states_of(chain)
    by_state = [dict(zip(every, map(vec.__getitem__, labels.tolist()))) for vec in full[1:] + transforms]
    labels, counts, transient = partition = oracle._quotient(chain, target, start)
    home = labels[chain.position(start)]
    visits = solve(partition, 1, lambda b: F(int(b == home))) + [F(0)]
    rows = {t: chain.neighbor_table[chain.position(t)] for t in target.materialize(chain.params)}
    exits = {t: sum(visits[c] for c in labels[row].tolist()) for t, row in rows.items()}
    return by_state[:order], by_state[order:], exits


@pytest.mark.parametrize("n,m,size", [(4, 3, 7), (2, 6, 5)])
def test_non_lumping_explicit_quotient_matches_bareiss(n, m, size):
    # the oracle's answers on a 36-to-64-block quotient are pinned to the solver it replaced
    p = ModelParams(n, m)
    rng = random.Random(10 * n + m)
    order = list(range(p.state_count))
    rng.shuffle(order)
    chain = reordered_chain(p, order)
    every = states_of(chain)
    members = rng.sample(every, size)
    targets = SetDescriptor.explicit(members)
    start = next(x for x in every if x not in members)
    assert 36 <= len(oracle._quotient(chain, targets)[1]) <= 64
    zs = (F(1, 2), F(999, 1000))
    moments, transforms, exits = _bareiss_quotient_answers(chain, targets, 4, zs, start)
    assert raw_moment_vectors(chain, targets, 4) == moments
    assert [transform_vector(chain, targets, z) for z in zs] == transforms
    assert exit_distribution(chain, targets, start) == exits


def test_chain_enumeration_order():
    # a state's position is its code: lookup and decode are inverse over every code, and ball 1 varies fastest
    for n, m in [(3, 2), (2, 5), (161, 2)]:
        chain = EnumeratedChain(ModelParams(n, m))
        states = states_of(chain)
        assert [chain.position(x) for x in states] == list(range(n**m))
        assert states == sorted(itertools.product(range(1, n + 1), repeat=m), key=lambda x: x[::-1])
    chain = EnumeratedChain(ModelParams(3, 2))
    assert states_of(chain)[:4] == [(1, 1), (2, 1), (3, 1), (1, 2)]
    assert chain.degree() == 4
    row = chain.neighbor_table[chain.position((1, 1))]
    assert sorted(chain.states_at(row)) == [(1, 2), (1, 3), (2, 1), (3, 1)]


def test_mean_examples():
    p = ModelParams(3, 2)
    chain = EnumeratedChain(p)
    target = SetDescriptor.singleton((2, 2))
    assert solve_mean(chain, target, (1, 1)) == 10
    assert solve_mean(chain, target, (2, 2)) == 0


def test_second_moment_examples():
    chain31 = EnumeratedChain(ModelParams(3, 1))
    assert solve_second_moment(chain31, SetDescriptor.singleton((2,)), (1,)) == 6
    chain22 = EnumeratedChain(ModelParams(2, 2))
    assert solve_second_moment(chain22, SetDescriptor.singleton((2, 2)), (1, 1)) == 24
    assert solve_second_moment(chain22, SetDescriptor.singleton((2, 2)), (2, 2)) == 0


def test_higher_moments_geometric_case():
    # single ball, 3 urns: the hitting time is geometric(1/2)
    chain = EnumeratedChain(ModelParams(3, 1))
    vecs = raw_moment_vectors(chain, SetDescriptor.singleton((2,)), 4)
    assert [v[(1,)] for v in vecs] == [2, 6, 26, 150]


def test_transform_examples():
    chain, target = EnumeratedChain(ModelParams(3, 1)), SetDescriptor.singleton((2,))
    assert solve_transform(chain, target, (1,), F(1, 2)) == F(1, 3)
    assert solve_transform(chain, target, (2,), F(1, 2)) == 1
    with pytest.raises(ValueError):
        solve_transform(chain, target, (1,), F(3, 2))
    with pytest.raises(ValueError):
        solve_transform(chain, target, (1,), F(0))


def test_transform_closed_form_single_ball():
    # from a non-target urn, E[z**T] = z / (n - 1 - z*(n - 2))
    for n in (2, 3, 5):
        chain = EnumeratedChain(ModelParams(n, 1))
        for z in (F(1, 3), F(1, 2), F(9, 10)):
            got = solve_transform(chain, SetDescriptor.singleton((2,)), (1,), z)
            assert got == z / (n - 1 - z * (n - 2))


def test_transform_u_single_ball():
    # one ball: the continuous walk hits a fixed other urn with transform 1/(1+u*(n-1))
    chain, target = EnumeratedChain(ModelParams(3, 1)), SetDescriptor.singleton((2,))
    for u in (F(1, 2), F(1), F(3)):
        assert solve_transform_u(chain, target, (1,), u) == 1 / (1 + 2 * u)
    for bad in (F(0), F(-1), F(-2)):  # -1 is the pole of z = balls / (u + balls)
        with pytest.raises(ValueError, match="u must be positive"):
            solve_transform_u(chain, target, (1,), bad)


def test_exit_distribution_examples():
    p = ModelParams(3, 2)
    chain = EnumeratedChain(p)
    assert exit_distribution(chain, SetDescriptor.singleton((2, 2)), (1, 1)) == {(2, 2): F(1)}
    diag = SetDescriptor.diagonal()
    got = exit_distribution(chain, diag, (1, 2))
    assert got == {(1, 1): F(2, 5), (2, 2): F(2, 5), (3, 3): F(1, 5)}
    assert sum(got.values()) == 1
    # equal overlaps to both targets -> fair split
    sym = exit_distribution(chain, SetDescriptor.pair((1, 1), (2, 2)), (1, 2))
    assert sym == {(1, 1): F(1, 2), (2, 2): F(1, 2)}
    inside = exit_distribution(chain, diag, (3, 3))
    assert inside[(3, 3)] == 1


def test_exit_distribution_strong_markov_decomposition():
    # E_x[T_z] = E_x[T_A] + P(exit at y) E_y[T_z] for the two-point set A={y,z}
    p = ModelParams(3, 2)
    chain = EnumeratedChain(p)
    x, y, z = (1, 1), (2, 2), (1, 2)
    pair, single = SetDescriptor.pair(y, z), SetDescriptor.singleton(z)
    mean_pair = solve_mean(chain, pair, x)
    exits = exit_distribution(chain, pair, x)
    lhs = solve_mean(chain, single, x)
    rhs = mean_pair + exits[y] * solve_mean(chain, single, y)
    assert lhs == rhs


def test_reordering_does_not_change_answers():
    p = ModelParams(3, 2)
    rng = random.Random(3)
    order = list(range(p.state_count))
    rng.shuffle(order)
    base = EnumeratedChain(p)
    shuffled = reordered_chain(p, order)
    target = SetDescriptor.diagonal()
    assert mean_vector(base, target) == mean_vector(shuffled, target)
    assert transform_vector(base, target, F(1, 2)) == transform_vector(shuffled, target, F(1, 2))
    assert exit_distribution(base, target, (1, 2)) == exit_distribution(shuffled, target, (1, 2))


def test_transform_derivative_matches_mean():
    # -d/dz E[z**T] at z->1 equals E[T]; one-sided difference in float mode
    p = ModelParams(3, 2)
    chain = EnumeratedChain(p)
    target = SetDescriptor.singleton((2, 2))
    z = 1 - F(1, 10**6)
    value = solve_transform(chain, target, (1, 1), z)
    mean = solve_mean(chain, target, (1, 1))
    estimate = (1 - float(value)) / float(1 - z)
    assert abs(estimate - float(mean)) / float(mean) < 1e-4


@pytest.mark.parametrize("n,m", [(2, 4), (2, 6), (3, 3), (3, 4), (4, 2), (5, 2)])
def test_lumped_oracle_matches_full_chain(n, m):
    p = ModelParams(n, m)
    chain = EnumeratedChain(p)
    for h in range(m + 1):
        vec = mean_vector(chain, SetDescriptor.count(h))
        for x, value in vec.items():
            k = overlap(x, (2,) * m)
            assert lumped_count_oracle(p, k, h) == value


def test_lumped_examples():
    assert lumped_count_oracle(ModelParams(3, 2), 2, 0) == F(7, 2)
    assert lumped_count_oracle(ModelParams(2, 3), 0, 3) == 10
    assert lumped_count_oracle(ModelParams(3, 2), 1, 1) == 0
    for k, h in ((-1, 0), (0, 3)):
        with pytest.raises(ValueError, match=r"levels must lie in 0\.\.2"):
            lumped_count_oracle(ModelParams(3, 2), k, h)


def test_cap_enforcement(monkeypatch):
    with pytest.raises(CapExceededError) as err:
        EnumeratedChain(ModelParams(4, 10))  # refused before any of the 4**10 states is enumerated
    assert (err.value.bound, err.value.size, err.value.limit) == ("MAX_MOVES", 4**10 * 10 * 3, oracle.MAX_MOVES)
    with pytest.raises(CapExceededError) as err:
        EnumeratedChain(ModelParams(8192, 1))  # few states, but a neighbour table of 8192 * 8191 entries
    assert (err.value.bound, err.value.size, err.value.limit) == ("MAX_MOVES", 8192 * 8191, oracle.MAX_MOVES)

    chain = EnumeratedChain(ModelParams(3, 4))
    # a singleton's quotient keeps one transient block per overlap 0..3
    monkeypatch.setattr(oracle, "MAX_BLOCKS", 3)
    with pytest.raises(CapExceededError) as err:
        mean_vector(chain, SetDescriptor.singleton((1, 1, 1, 1)))
    assert (err.value.bound, err.value.size, err.value.limit) == ("MAX_BLOCKS", 4, 3)
    monkeypatch.setattr(oracle, "MAX_BLOCKS", 4)
    assert len(mean_vector(chain, SetDescriptor.singleton((1, 1, 1, 1)))) == 81


def test_large_target_set_counts_only_its_transient_blocks(monkeypatch):
    # all but four states are targets: refinement splits them into over a hundred blocks,
    # and every solve reads them as one absorbing column
    chain = EnumeratedChain(ModelParams(3, 5))
    every = states_of(chain)
    rest = random.Random(5).sample(every, 4)
    members = [x for x in every if x not in rest]
    targets = SetDescriptor.explicit(members)
    monkeypatch.setattr(oracle, "MAX_BLOCKS", 4)
    labels, counts, transient = oracle._quotient(chain, targets)
    assert transient <= 4 and counts.shape == (transient, transient + 1) and labels.max() == transient
    moments, pgf, exits = _dense_reference(chain, members, 3, F(1, 2))
    assert raw_moment_vectors(chain, targets, 3) == moments
    assert transform_vector(chain, targets, F(1, 2)) == pgf
    for x in rest:
        assert exit_distribution(chain, targets, x) == exits[x]


def test_empty_target_rejected():
    chain = EnumeratedChain(ModelParams(2, 2))
    with pytest.raises(ValueError, match="empty state list"):
        mean_vector(chain, SetDescriptor.explicit([]))


def test_moment_order_zero_is_refused():
    chain = EnumeratedChain(ModelParams(2, 2))
    with pytest.raises(ValueError, match="moment order must be >= 1"):
        solve_raw_moments(chain, SetDescriptor.singleton((2, 2)), (1, 1), 0)


def _dense_reference(chain, targets, order, z):
    """Every oracle answer from the rows of ``I - Q`` on the full transient set.

    This is the full-chain path the quotient replaced: neighbours come from
    ``model.neighbor_states``, not from the chain's table, and each target's
    exit probabilities get their own right-hand side.  Returns the raw moment
    vectors up to ``order``, the generating function at ``z`` and the exit
    distribution from every state.
    """
    target_set = set(targets)
    every = states_of(chain)
    transient = [x for x in every if x not in target_set]
    col = {x: i for i, x in enumerate(transient)}
    p = F(1, chain.degree())
    steps = {x: list(neighbor_states(chain.params, x)) for x in transient}

    def rows(w):
        out = []
        for x in transient:
            row = [F(0)] * len(transient)
            row[col[x]] = F(1)
            for y in steps[x]:
                if y in col:
                    row[col[y]] -= w * p
            out.append(row)
        return out

    plain = rows(1)
    full = [{x: F(1) for x in every}]
    for r in range(1, order + 1):
        rhs = [p * sum(math.comb(r, j) * full[j][y] for y in steps[x] for j in range(r)) for x in transient]
        (sol,) = solve_exact_system(plain, [rhs])
        full.append({x: sol[col[x]] if x in col else F(0) for x in every})
    (sol,) = solve_exact_system(rows(z), [[z * p * sum(y in target_set for y in steps[x]) for x in transient]])
    pgf = {x: sol[col[x]] if x in col else F(1) for x in every}
    ordered = sorted(target_set)
    cols = solve_exact_system(plain, [[p * steps[x].count(t) for x in transient] for t in ordered])
    exits = {
        x: {t: cols[c][col[x]] if x in col else F(int(t == x)) for c, t in enumerate(ordered)}
        for x in every
    }
    return full[1:], pgf, exits


def _quotient_cases(n, m):
    """Every descriptor kind plus random, mostly asymmetric, explicit sets."""
    p = ModelParams(n, m)
    rng = random.Random(31 * n + m)
    every = states_of(EnumeratedChain(p))
    y, z = rng.sample(every, 2)
    kinds = [SetDescriptor.singleton(y), SetDescriptor.pair(y, z), SetDescriptor.diagonal()]
    kinds += [SetDescriptor.count(h, rng.randint(1, n)) for h in sorted({0, m // 2, m})]
    if m <= n:
        kinds.append(SetDescriptor.distinct())
    for size in (2, max(3, len(every) // 4)):
        kinds.append(SetDescriptor.explicit(rng.sample(every, size)))
    return kinds


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (5, 2), (2, 5)])
def test_quotient_matches_dense_full_chain(n, m):
    p = ModelParams(n, m)
    rng = random.Random(n * m)
    order = list(range(p.state_count))
    rng.shuffle(order)
    for case, targets in enumerate(_quotient_cases(n, m)):
        chain = reordered_chain(p, order) if case % 2 else EnumeratedChain(p)
        z = F(2, 3) if case % 3 else F(999, 1000)
        moments, pgf, exits = _dense_reference(chain, targets.materialize(p), 4, z)
        vectors = raw_moment_vectors(chain, targets, 4)
        assert mean_vector(chain, targets) == moments[0]
        assert vectors == moments
        assert transform_vector(chain, targets, z) == pgf
        for x in states_of(chain):  # starts inside the target set included
            assert exit_distribution(chain, targets, x) == exits[x]
            assert solve_raw_moments(chain, targets, x, 4) == [vec[x] for vec in vectors]


@pytest.mark.parametrize("n,m,shuffle", [(2, 4, False), (3, 3, True), (4, 2, True), (5, 3, False)])
def test_neighbor_table_is_the_symmetric_one_move_relation(n, m, shuffle):
    p = ModelParams(n, m)
    order = list(range(p.state_count))
    if shuffle:
        random.Random(n + m).shuffle(order)
    chain = reordered_chain(p, order)
    table = chain.neighbor_table
    assert table.shape == (p.state_count, chain.degree())
    states = states_of(chain)
    for i, x in enumerate(states):
        assert sorted(states[j] for j in table[i]) == sorted(neighbor_states(p, x))
    adjacency = np.zeros((p.state_count, p.state_count), dtype=int)
    np.add.at(adjacency, (np.repeat(np.arange(p.state_count), chain.degree()), table.ravel()), 1)
    assert (adjacency == adjacency.T).all() and adjacency.max() == 1 and not adjacency.diagonal().any()


@pytest.mark.parametrize("n,m", [(2, 1), (2, 5), (3, 3), (4, 2), (5, 3), (7, 2), (161, 2), (2, 15)])
def test_neighbor_table_equals_the_modulo_reference(n, m):
    # the comparison wrap builds the array the modulo and gather built: values, dtype, layout and
    # ownership; a chain relabelled in a shuffled order equals the reference in that order too
    p = ModelParams(n, m)
    order = list(range(p.state_count))
    random.Random(n * m).shuffle(order)
    for shuffled in (None, order):
        chain = EnumeratedChain(p) if shuffled is None else reordered_chain(p, shuffled)
        table, want = chain.neighbor_table, neighbor_table_by_modulo(p, shuffled)
        assert table.dtype == want.dtype == np.intp and table.shape == want.shape
        assert np.array_equal(table, want)
        layout = [(a.flags.c_contiguous, a.flags.owndata) for a in (table, want)]
        assert layout == [(True, True), (True, True)]


def _assert_lump_equals_reference(chain, target, start):
    """``_lump`` returns the reference's arrays, from the listed members, exactly: same labels, dtype, block
    order and counts."""
    try:
        want = lump_by_unique_rows(chain, target.materialize(chain.params), start)
    except CapExceededError as refused:
        with pytest.raises(CapExceededError) as got:
            oracle._lump(chain, target, start)
        assert str(got.value) == str(refused)
        return None
    labels, counts, transient = oracle._lump(chain, target, start)
    assert transient == want[2]
    assert labels.dtype == want[0].dtype and np.array_equal(labels, want[0])
    assert counts.dtype == object and counts.shape == want[1].shape
    assert counts.tolist() == want[1].tolist()
    assert {type(c) for c in counts.flat} <= {int}
    return labels, counts, transient


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (2, 3), (2, 5), (3, 1), (3, 2), (3, 3), (4, 2), (5, 2)])
def test_lump_equals_the_unique_rows_reference(n, m):
    # every symbolic kind and random asymmetric explicit sets, in both orders, with no start, a start
    # kept apart and a start inside the set
    p = ModelParams(n, m)
    rng = random.Random(17 * n + m)
    order = list(range(p.state_count))
    rng.shuffle(order)
    for chain in (EnumeratedChain(p), reordered_chain(p, order)):
        every = states_of(chain)
        kinds = [SetDescriptor.singleton(rng.choice(every)), SetDescriptor.diagonal()]
        if len(every) > 2:
            kinds.append(SetDescriptor.pair(*rng.sample(every, 2)))
        kinds += [SetDescriptor.count(h, rng.randint(1, n)) for h in range(m + 1)]
        if m <= n:
            kinds.append(SetDescriptor.distinct())
        sizes = sorted({1, 2, len(every) // 4, len(every) // 2} - {0})
        kinds += [SetDescriptor.explicit(rng.sample(every, size)) for size in sizes]
        for target in kinds:
            members = target.materialize(p)
            outside = [x for x in every if x not in members]
            for start in [None, members[-1]] + rng.sample(outside, min(2, len(outside))):
                _assert_lump_equals_reference(chain, target, start)


def test_lump_equals_the_reference_where_rows_need_three_or_more_words(monkeypatch):
    # N=4, M=6, a pair and a start kept apart: 358 transient blocks, so the last rounds pack 19 labels
    # of 9 bits, 7 to a word, into 3 words; then CI's exit-4 set, whose quotient passes MAX_BLOCKS only
    # with the start kept apart
    shapes = []
    real = oracle._group
    monkeypatch.setattr(oracle, "_group", lambda rows: shapes.append((rows.shape[1], int(rows.max()))) or real(rows))
    p = ModelParams(4, 6)
    order = list(range(p.state_count))
    random.Random(46).shuffle(order)
    targets = SetDescriptor.pair((2,) * 6, (1, 2, 3, 4, 1, 2))
    for chain in (EnumeratedChain(p), reordered_chain(p, order)):
        shapes.clear()
        _, _, transient = _assert_lump_equals_reference(chain, targets, (1,) * 6)
        width, top = shapes[-1]
        assert transient == 358 and width == 19 and top.bit_length() == 9 and -(-width // (63 // 9)) == 3
    chain = EnumeratedChain(ModelParams(3, 7))
    late = SetDescriptor.explicit([(1, 2, 2, 1, 2, 1, 3), (2, 2, 3, 3, 3, 3, 3), (2, 3, 1, 3, 3, 1, 1),
                                   (2, 3, 2, 3, 2, 2, 1), (3, 2, 2, 2, 2, 3, 3)])
    assert _assert_lump_equals_reference(chain, late, None) is not None
    assert _assert_lump_equals_reference(chain, late, (1,) * 7) is None  # 1453 blocks: both refuse


@pytest.mark.parametrize("seed", range(6))
def test_group_equals_np_unique_rows(seed):
    # widths needing one, two and many words, a single row, all rows equal and all labels 0
    rng = np.random.default_rng(seed)
    cases = [np.zeros((1, 1), dtype=np.int64), np.zeros((9, 4), dtype=np.int64), np.full((7, 30), 5, dtype=np.int64)]
    for size, width, top in [(1, 5, 3), (40, 1, 3), (200, 1, 2**15 - 1), (300, 8, 6), (300, 30, 6),
                             (300, 13, 2**10), (200, 321, 2), (100, 321, 2**15 - 1), (50, 3, 2**62)]:
        pool = rng.integers(0, top + 1, size=(max(1, size // 4), width), dtype=np.int64)
        pool[:, 0] = rng.integers(0, 3, size=len(pool))  # ties in the first label, so later words decide
        cases.append(pool[rng.integers(0, len(pool), size=size)])
    for rows in cases:
        _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        got_first, got_inverse = oracle._group(rows)
        assert np.array_equal(got_first, first) and np.array_equal(got_inverse, inverse.reshape(-1))
        assert got_inverse.shape == (len(rows),)


def _timed_cli(capsys, *argv):
    started = time.perf_counter()
    code = cli.main(list(argv))
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)["results"], elapsed


def test_lambda_sample_at_81_states_is_fast(capsys):
    # the rational image of e**0.5 made this one full-chain solve take ~4 s
    results, elapsed = _timed_cli(
        capsys, "oracle", "--N", "3", "--M", "4", "--start", "1,1,1,1", "--set", "singleton:2,2,2,2",
        "--lambda", "0.5",
    )
    assert elapsed < 1
    assert results["lambda_samples"][0]["decimal"].startswith("0.")


def test_oracle_refines_once_per_target_and_start(capsys, monkeypatch):
    # moments and every u/lambda point share one partition; the exit law keeps the start
    # apart, and its finer partition is refined first, so an oversized one is refused first
    starts = []
    real = oracle._lump

    def counting(chain, targets, start=None):
        starts.append(start)
        return real(chain, targets, start)

    monkeypatch.setattr(oracle, "_lump", counting)
    _timed_cli(
        capsys, "oracle", "--N", "3", "--M", "4", "--start", "1,1,1,1", "--set", "singleton:2,2,2,2",
        "--order", "4", "--u", "1/2,1,2", "--lambda", "0.5",
    )
    assert starts == [(1, 1, 1, 1), None]


def test_start_inside_the_set_refines_once(capsys, monkeypatch):
    # a start inside the set keeps nothing apart: the exit law's partition also serves the moments
    starts = []
    real = oracle._lump

    def counting(chain, targets, start=None):
        starts.append(start)
        return real(chain, targets, start)

    monkeypatch.setattr(oracle, "_lump", counting)
    results, _ = _timed_cli(
        capsys, "oracle", "--N", "3", "--M", "3", "--start", "2,2,2", "--set", "pair:(2,2,2);(1,2,3)",
        "--order", "3", "--u", "1/2,2",
    )
    assert len(starts) == 1
    assert results["mean"]["rational"] == "0"


def test_oracle_request_checks_each_target_once_per_partition(capsys, monkeypatch, tmp_path):
    # the 495-member count:4 set at N=2 M=12, as an explicit list: one check per member for each of
    # the two partitions, and one check of the start per transform point
    p = ModelParams(2, 12)
    members = SetDescriptor.count(4, 2).materialize(p)
    (tmp_path / "count4.json").write_text(json.dumps([list(x) for x in members]))
    calls = []
    real = ModelParams.check_state
    monkeypatch.setattr(ModelParams, "check_state", lambda self, x: calls.append(1) or real(self, x))
    argv = ["oracle", "--N", "2", "--M", "12", "--start", ",".join(["1"] * 12),
            "--set", f"explicit:@{tmp_path / 'count4.json'}"]
    counts = {}
    for grid in ("1/2", "1/2,1,2,3,4,5,6,7"):
        calls.clear()
        _timed_cli(capsys, *argv, "--u", grid)
        counts[grid] = len(calls)
    assert counts["1/2,1,2,3,4,5,6,7"] <= 2 * len(members) + 16
    assert counts["1/2,1,2,3,4,5,6,7"] - counts["1/2"] <= 7


def test_per_start_answers_never_spread_a_solve_over_every_state(capsys, monkeypatch, tmp_path):
    # each per-start name and each oracle route of the command line reads its solve at the start's block
    (tmp_path / "set.json").write_text("[[2, 2, 1], [3, 1, 2], [1, 3, 3]]")
    grids = ["--order", "4", "--u", "1/2,2", "--lambda", "0.5"]
    requests = [
        ["oracle", "--N", "3", "--M", "3", "--start", "1,1,1", "--set", target, *grids]
        for target in ("singleton:2,2,2", "pair:(2,2,2);(1,2,3)", "diagonal", f"explicit:@{tmp_path / 'set.json'}")
    ]
    requests.append(["compare", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
                     "--replicas", "2000"])

    def run(argv):
        code = cli.main(argv)
        return code, *capsys.readouterr()

    chain = EnumeratedChain(ModelParams(3, 3))
    targets, start = SetDescriptor.pair((2, 2, 2), (1, 2, 3)), (1, 1, 1)
    moments = [vec[start] for vec in raw_moment_vectors(chain, targets, 4)]
    want = (moments[0], moments[1], moments, transform_vector(chain, targets, F(3, 5))[start],
            exit_distribution(chain, targets, start), [run(argv) for argv in requests])

    def spread(*args):
        raise AssertionError("a per-start answer spread its solve over every state")

    monkeypatch.setattr(oracle, "_expand", spread)
    chain = EnumeratedChain(ModelParams(3, 3))
    got = (solve_mean(chain, targets, start), solve_second_moment(chain, targets, start),
           solve_raw_moments(chain, targets, start, 4), solve_transform(chain, targets, start, F(3, 5)),
           exit_distribution(chain, targets, start), [run(argv) for argv in requests])
    assert got == want
    assert solve_transform_u(chain, targets, start, F(2)) == want[3]  # z = 3/(3 + 2)
    assert all(code == 0 for code, *_ in want[-1])


_PUBLIC_SOLVES = {
    "mean_vector": lambda chain, targets, start: mean_vector(chain, targets),
    "solve_mean": lambda chain, targets, start: solve_mean(chain, targets, start),
    "raw_moment_vectors": lambda chain, targets, start: raw_moment_vectors(chain, targets, 3),
    "solve_raw_moments": lambda chain, targets, start: solve_raw_moments(chain, targets, start, 3),
    "solve_second_moment": lambda chain, targets, start: solve_second_moment(chain, targets, start),
    "transform_vector": lambda chain, targets, start: transform_vector(chain, targets, F(1, 2)),
    "solve_transform": lambda chain, targets, start: solve_transform(chain, targets, start, F(1, 2)),
    "solve_transform_u": lambda chain, targets, start: solve_transform_u(chain, targets, start, F(2)),
    "exit_distribution": lambda chain, targets, start: exit_distribution(chain, targets, start),
}
_VECTOR_SOLVES = {"mean_vector", "raw_moment_vectors", "transform_vector"}


def _listed(states):
    """An explicit set built by the constructor, which checks nothing, so each member reaches ``validate`` as given."""
    return SetDescriptor("explicit", states=tuple(states))


@pytest.mark.parametrize("name", sorted(_PUBLIC_SOLVES))
@pytest.mark.parametrize("bad", [(2, 2), (2, 2, 2, 2), (0, 2, 2), (2, 4, 2), (2, True, 2), (2, 2.0, 2),
                                 (2, "2", 2), (2, 2**64, 2)],
                         ids=["short", "long", "urn-zero", "urn-above", "bool", "float", "string", "past-64-bits"])
def test_bad_member_refused_after_valid_lists_are_cached(name, bad):
    # a bad member, or a bad start of a per-start name, raises check_state's own message before and
    # after the valid set's partitions are cached: unchecked, (2, 4, 2) would alias the code of (2, 1, 3).
    # Each of the list check's whole-table gates falls back to check_state: a bool, float or string
    # fails its type pass, a member of another length its shape test, and 2**64 the int64 table
    chain = EnumeratedChain(ModelParams(3, 3))
    members, start = [(2, 2, 2), (3, 3, 3)], (1, 1, 1)
    valid = _listed(members)
    with pytest.raises(ValueError) as want:
        chain.params.check_state(bad)
    requests = [(_listed([*members, bad]), start), (_listed([bad, *members]), start), (_listed([bad]), start)]
    if name not in _VECTOR_SOLVES:
        requests.append((valid, bad))
        with pytest.raises(ValueError) as got:  # before any partition is cached
            _PUBLIC_SOLVES[name](chain, valid, bad)
        assert str(got.value) == str(want.value)
    for solve in _PUBLIC_SOLVES.values():  # every partition of the valid set is cached
        solve(chain, valid, start)
    for target, at in requests:
        with pytest.raises(ValueError) as got:
            _PUBLIC_SOLVES[name](chain, target, at)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", sorted(_PUBLIC_SOLVES))
def test_numpy_integer_members_read_as_their_int_twins(name):
    # numpy integers pass the list check's type pass, with their int twins' codes and answers
    p = ModelParams(3, 3)
    chain, valid, start = EnumeratedChain(p), [(2, 2, 2), (3, 3, 3)], (1, 1, 1)
    twin = [(np.int64(2), 2, 2), (3, np.int32(3), 3)]
    assert chain.positions(twin).tolist() == chain.positions(valid).tolist() == [13, 26]
    got = _PUBLIC_SOLVES[name](EnumeratedChain(p), _listed(twin), start)
    assert got == _PUBLIC_SOLVES[name](EnumeratedChain(p), _listed(valid), start)


def test_a_valid_target_list_is_checked_as_one_table(monkeypatch):
    # the 70-member count:4 set at N=2 M=8, listed, is checked in one array pass per partition, not member by
    # member, and its validated table is encoded as it is, not passed back through the chain's list check
    p = ModelParams(2, 8)
    members = SetDescriptor.count(4).materialize(p)
    calls = []
    real = ModelParams.check_state
    monkeypatch.setattr(ModelParams, "check_state", lambda self, x: calls.append(x) or real(self, x))
    chain, start = EnumeratedChain(p), (1,) * 8
    lists = []
    real_positions = chain.positions
    chain.positions = lambda states: lists.append(len(states)) or real_positions(states)
    solve_raw_moments(chain, SetDescriptor.explicit(members), start, 2)
    exit_distribution(chain, SetDescriptor.explicit(members), start)
    assert len(members) == 70
    assert len(calls) < len(members)
    assert set(lists) == {1}  # only the start is looked up as a list


def test_different_lists_on_one_chain_never_share_a_quotient():
    p = ModelParams(3, 3)
    rng = random.Random(23)
    chain = EnumeratedChain(p)
    start, *others = states_of(chain)
    lists = [rng.sample(others, rng.randint(1, 6)) for _ in range(12)]
    lists += [lists[0][:-1] or [others[-1]], [*lists[1], others[-1]]]  # one member fewer, one more
    targets = [SetDescriptor.explicit(members) for members in lists]
    targets += [SetDescriptor.count(1, 2), SetDescriptor.count(1, 3), SetDescriptor.count(2, 3)]
    targets.append(SetDescriptor.diagonal())
    for target in targets:
        fresh = EnumeratedChain(p)
        assert raw_moment_vectors(chain, target, 2) == raw_moment_vectors(fresh, target, 2)
        assert transform_vector(chain, target, F(1, 3)) == transform_vector(fresh, target, F(1, 3))
        assert exit_distribution(chain, target, start) == exit_distribution(fresh, target, start)
    partitions = {id(oracle._quotient(chain, target)) for target in targets}
    assert len(partitions) == len(set(targets))


def test_one_set_in_any_form_or_order_gives_equal_answers():
    # a listed set in any order, and a symbolic set or its listing (a pair in either order)
    p = ModelParams(3, 3)
    rng = random.Random(7)
    order = list(range(p.state_count))
    rng.shuffle(order)
    chain = reordered_chain(p, order)
    every = states_of(chain)
    members = rng.sample(every, 5)
    y, z = members[:2]
    sets = [
        (members, [SetDescriptor.explicit(form) for form in (members, sorted(members), members[::-1])]),
        ([y, z], [SetDescriptor.pair(y, z), SetDescriptor.pair(z, y), SetDescriptor.explicit([z, y])]),
    ]
    for d in (SetDescriptor.diagonal(), SetDescriptor.count(1, 3), SetDescriptor.distinct()):
        sets.append((d.materialize(p), [d, SetDescriptor.explicit(d.materialize(p)[::-1])]))
    for listed, forms in sets:
        for start in (next(x for x in every if x not in listed), listed[-1]):
            answers = [
                (raw_moment_vectors(chain, form, 3), transform_vector(chain, form, F(2, 3)),
                 solve_transform_u(chain, form, start, F(1, 2)), exit_distribution(chain, form, start))
                for form in forms
            ]
            assert all(answer == answers[0] for answer in answers)
            for *_, exits in answers:  # the exit law lists the target states in sorted order
                assert list(exits) == sorted(listed)


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (2, 5)])
def test_the_oracle_marks_the_members_materialize_lists(n, m):
    # the oracle's mask and the model's listing each read a kind's definition on their own: from a start inside
    # the set and one outside it, the exit law is keyed by the listed members, for every kind and count level
    # and reference urn
    p = ModelParams(n, m)
    chain = EnumeratedChain(p)
    every = states_of(chain)
    rng = random.Random(10 * n + m)
    kinds = [SetDescriptor.singleton(rng.choice(every)), SetDescriptor.pair(*rng.sample(every, 2)),
             SetDescriptor.diagonal(), SetDescriptor.explicit(rng.sample(every, max(1, len(every) // 3)))]
    kinds += [SetDescriptor.count(h, r) for h in range(m + 1) for r in range(1, n + 1)]
    if m <= n:
        kinds.append(SetDescriptor.distinct())
    for target in kinds:
        members = target.materialize(p)
        outside = [x for x in every if x not in members]
        for start in [members[0], members[-1], *outside[:1]]:
            assert sorted(exit_distribution(chain, target, start)) == members, (target, start)


def test_no_oracle_request_lists_a_symbolic_set(capsys, monkeypatch, tmp_path):
    # with materialize refused, oracle and compare requests on every kind, from a start outside the set and one
    # inside it, answer as they do with it
    (tmp_path / "set.json").write_text("[[2, 2, 1], [1, 3, 3]]")
    sets = {"singleton:2,2,1": "2,2,1", "pair:(2,2,1);(3,1,1)": "3,1,1", "diagonal": "3,3,3", "distinct": "1,2,3",
            "count:1:3": "1,1,3", f"explicit:@{tmp_path / 'set.json'}": "1,3,3"}
    requests = [
        [command, "--N", "3", "--M", "3", "--start", start, "--set", text, *extra]
        for text, inside in sets.items()
        for start in ("1,1,2", inside)
        for command, extra in (("oracle", ["--order", "3", "--u", "1/2,2"]), ("compare", ["--replicas", "200"]))
    ]

    def run(argv):
        code = cli.main(argv)
        return code, *capsys.readouterr()

    listed = [run(argv) for argv in requests]

    def refuse(self, params):
        raise AssertionError(f"the oracle listed a {self.kind} set")

    monkeypatch.setattr(SetDescriptor, "materialize", refuse)
    assert [run(argv) for argv in requests] == listed
    assert all(code == 0 for code, *_ in listed)


def test_oracle_at_1024_states_matches_engine(capsys):
    args = ["--N", "2", "--M", "10", "--start", ",".join(["1"] * 10), "--set", "count:3", "--order", "4"]
    exact, _ = _timed_cli(capsys, "exact", *args)
    truth, elapsed = _timed_cli(capsys, "oracle", *args)
    assert truth["raw_moments"] == exact["raw_moments"]
    assert elapsed < 5


def test_chain_past_2_to_the_15_states_matches_engine():
    # 65536 states of 16 moves each: MAX_MOVES alone bounds the chain, which admits up to 2**18 states
    params = ModelParams(2, 16)
    chain = EnumeratedChain(params)
    start = (1,) * 16
    for descriptor in (SetDescriptor.singleton((2,) * 16), SetDescriptor.count(8)):
        query = hitting.HittingQuery(params, start, descriptor)
        assert [vec[start] for vec in raw_moment_vectors(chain, descriptor, 3)] == hitting.raw_moments(query, 3)
        assert solve_transform_u(chain, descriptor, start, F(1)) == hitting.laplace_u(query, 1)
