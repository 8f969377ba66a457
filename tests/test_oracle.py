import random
from fractions import Fraction as F

import pytest

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
    solve_second_moment,
    solve_transform,
    solve_transform_u,
    transform_vector,
)


def test_solver_on_small_dense_system():
    # 2x2 with a zero leading pivot exercises the row swap
    rows = [[F(0), F(1)], [F(2), F(1)]]
    (sol,) = solve_exact_system(rows, [[F(3), F(7)]])
    assert sol == [F(2), F(3)]
    with pytest.raises(ZeroDivisionError):
        solve_exact_system([[F(1), F(1)], [F(2), F(2)]], [[F(0), F(0)]])


def test_chain_enumeration_order():
    chain = EnumeratedChain(ModelParams(3, 2))
    # ball 1 varies fastest
    assert chain.states[:4] == [(1, 1), (2, 1), (3, 1), (1, 2)]
    assert chain.degree() == 4
    assert len(chain.neighbors((1, 1))) == 4


def test_mean_examples():
    p = ModelParams(3, 2)
    chain = EnumeratedChain(p)
    target = [(2, 2)]
    assert solve_mean(chain, target, (1, 1)) == 10
    assert solve_mean(chain, target, (2, 2)) == 0


def test_second_moment_examples():
    chain31 = EnumeratedChain(ModelParams(3, 1))
    assert solve_second_moment(chain31, [(2,)], (1,)) == 6
    chain22 = EnumeratedChain(ModelParams(2, 2))
    assert solve_second_moment(chain22, [(2, 2)], (1, 1)) == 24
    assert solve_second_moment(chain22, [(2, 2)], (2, 2)) == 0


def test_higher_moments_geometric_case():
    # single ball, 3 urns: the hitting time is geometric(1/2)
    chain = EnumeratedChain(ModelParams(3, 1))
    vecs = raw_moment_vectors(chain, [(2,)], 4)
    assert [v[(1,)] for v in vecs] == [2, 6, 26, 150]


def test_transform_examples():
    chain = EnumeratedChain(ModelParams(3, 1))
    assert solve_transform(chain, [(2,)], (1,), F(1, 2)) == F(1, 3)
    assert solve_transform(chain, [(2,)], (2,), F(1, 2)) == 1
    with pytest.raises(ValueError):
        solve_transform(chain, [(2,)], (1,), F(3, 2))
    with pytest.raises(ValueError):
        solve_transform(chain, [(2,)], (1,), F(0))


def test_transform_closed_form_single_ball():
    # from a non-target urn, E[z**T] = z / (n - 1 - z*(n - 2))
    for n in (2, 3, 5):
        chain = EnumeratedChain(ModelParams(n, 1))
        for z in (F(1, 3), F(1, 2), F(9, 10)):
            got = solve_transform(chain, [(2,)], (1,), z)
            assert got == z / (n - 1 - z * (n - 2))


def test_transform_u_single_ball():
    # one ball: the continuous walk hits a fixed other urn with transform 1/(1+u*(n-1))
    chain = EnumeratedChain(ModelParams(3, 1))
    for u in (F(1, 2), F(1), F(3)):
        assert solve_transform_u(chain, [(2,)], (1,), u) == 1 / (1 + 2 * u)
    for bad in (F(0), F(-1), F(-2)):  # -1 is the pole of z = balls / (u + balls)
        with pytest.raises(ValueError, match="u must be positive"):
            solve_transform_u(chain, [(2,)], (1,), bad)


def test_exit_distribution_examples():
    p = ModelParams(3, 2)
    chain = EnumeratedChain(p)
    assert exit_distribution(chain, [(2, 2)], (1, 1)) == {(2, 2): F(1)}
    diag = SetDescriptor.diagonal().materialize(p)
    got = exit_distribution(chain, diag, (1, 2))
    assert got == {(1, 1): F(2, 5), (2, 2): F(2, 5), (3, 3): F(1, 5)}
    assert sum(got.values()) == 1
    # equal overlaps to both targets -> fair split
    sym = exit_distribution(chain, [(1, 1), (2, 2)], (1, 2))
    assert sym == {(1, 1): F(1, 2), (2, 2): F(1, 2)}
    inside = exit_distribution(chain, diag, (3, 3))
    assert inside[(3, 3)] == 1


def test_exit_distribution_strong_markov_decomposition():
    # E_x[T_z] = E_x[T_A] + P(exit at y) E_y[T_z] for the two-point set A={y,z}
    p = ModelParams(3, 2)
    chain = EnumeratedChain(p)
    x, y, z = (1, 1), (2, 2), (1, 2)
    pair = [y, z]
    mean_pair = solve_mean(chain, pair, x)
    exits = exit_distribution(chain, pair, x)
    lhs = solve_mean(chain, [z], x)
    rhs = mean_pair + exits[y] * solve_mean(chain, [z], y)
    assert lhs == rhs


def test_reordering_does_not_change_answers():
    p = ModelParams(3, 2)
    rng = random.Random(3)
    order = list(range(p.state_count))
    rng.shuffle(order)
    base = EnumeratedChain(p)
    shuffled = EnumeratedChain(p, order=order)
    target = SetDescriptor.diagonal().materialize(p)
    assert mean_vector(base, target) == mean_vector(shuffled, target)
    assert transform_vector(base, target, F(1, 2)) == transform_vector(shuffled, target, F(1, 2))
    assert exit_distribution(base, target, (1, 2)) == exit_distribution(shuffled, target, (1, 2))


def test_transform_derivative_matches_mean():
    # -d/dz E[z**T] at z->1 equals E[T]; one-sided difference in float mode
    p = ModelParams(3, 2)
    chain = EnumeratedChain(p)
    target = [(2, 2)]
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
        target = SetDescriptor.count(h).materialize(p)
        vec = mean_vector(chain, target)
        for x, value in vec.items():
            k = overlap(x, (2,) * m)
            assert lumped_count_oracle(p, k, h) == value


def test_lumped_examples():
    assert lumped_count_oracle(ModelParams(3, 2), 2, 0) == F(7, 2)
    assert lumped_count_oracle(ModelParams(2, 3), 0, 3) == 10
    assert lumped_count_oracle(ModelParams(3, 2), 1, 1) == 0


def test_cap_enforcement():
    p = ModelParams(4, 10)
    chain = EnumeratedChain.__new__(EnumeratedChain)  # avoid enumerating 4**10 states
    chain.params = p
    with pytest.raises(CapExceededError) as err:
        mean_vector(chain, [(1,) * 10])
    assert err.value.size == 4**10
    assert err.value.cap == 2000

    small = EnumeratedChain(ModelParams(3, 4))
    with pytest.raises(CapExceededError):
        mean_vector(small, [(1, 1, 1, 1)], cap=50)
    assert len(mean_vector(small, [(1, 1, 1, 1)], cap=100)) == 81


def test_empty_target_rejected():
    chain = EnumeratedChain(ModelParams(2, 2))
    with pytest.raises(ValueError):
        mean_vector(chain, [])
