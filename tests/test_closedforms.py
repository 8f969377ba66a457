import math
import random
import time
from fractions import Fraction as F
from itertools import permutations, product

import pytest

from ehrenfest import closedforms
from ehrenfest.closedforms import (
    CountChain,
    count_set_mean,
    network_commute_check,
    network_commute_sweep,
    same_urn_stats,
    two_point_stats,
    two_point_stats_for,
)
from ehrenfest.hitting import HittingQuery, mean, variance
from ehrenfest.model import ModelParams, SetDescriptor, overlap
from ehrenfest.oracle import EnumeratedChain, exit_distribution, mean_vector, solve_mean
from reference import (
    all_distinct_mean,
    rencontres_profile,
    same_urn_from_spread,
    same_urn_stats_by_urn,
    singleton_variance_disjoint,
    transition_row,
)


def test_singleton_mean_values():
    # a singleton is the full count slice h = balls; k is the start's overlap
    assert count_set_mean(ModelParams(3, 2), 0, 2) == 10
    assert count_set_mean(ModelParams(2, 3), 0, 3) == 10
    assert count_set_mean(ModelParams(4, 3), 3, 3) == 0
    with pytest.raises(ValueError):
        count_set_mean(ModelParams(3, 2), 3, 2)


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("m", range(1, 6))
def test_singleton_mean_matches_engine(n, m):
    p = ModelParams(n, m)
    target = (2,) * m
    for k in range(m + 1):
        # build a start with exactly k matching coordinates
        start = tuple(2 if i < k else 1 for i in range(m))
        q = HittingQuery(p, start, SetDescriptor.singleton(target))
        assert count_set_mean(p, k, m) == mean(q)


def test_singleton_variance_values():
    assert singleton_variance_disjoint(ModelParams(2, 1)) == 0
    assert singleton_variance_disjoint(ModelParams(2, 2)) == 8
    assert singleton_variance_disjoint(ModelParams(3, 2)) == 74


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("m", range(1, 6))
def test_singleton_variance_matches_engine(n, m):
    p = ModelParams(n, m)
    q = HittingQuery(p, (1,) * m, SetDescriptor.singleton((2,) * m))
    assert singleton_variance_disjoint(p) == variance(q)


# --- two-point sets ----------------------------------------------------------


def test_two_point_symmetric_split():
    stats = two_point_stats(ModelParams(3, 3), 1, 1, 0)
    assert stats.exit_prob_first == F(1, 2)


def test_two_point_complementarity():
    p = ModelParams(4, 3)
    for sxy, sxz, syz in [(0, 1, 2), (2, 0, 1), (1, 1, 1), (3, 2, 0)]:
        a = two_point_stats(p, sxy, sxz, syz)
        b = two_point_stats(p, sxz, sxy, syz)
        assert a.exit_prob_first + b.exit_prob_first == 1
        assert a.mean == b.mean


def test_two_point_against_oracle():
    p = ModelParams(3, 2)
    chain = EnumeratedChain(p)
    x, y, z = (1, 1), (2, 2), (1, 2)
    stats = two_point_stats_for(p, x, y, z)
    assert stats.mean == 5 and stats.exit_prob_first == F(3, 8)
    assert stats.mean == solve_mean(chain, SetDescriptor.pair(y, z), x)
    exits = exit_distribution(chain, SetDescriptor.pair(y, z), x)
    assert stats.exit_prob_first == exits[y]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p: two_point_stats(p, 3, 0, 0), "overlap sxy=3 outside 0..2"),
        (lambda p: two_point_stats(p, 0, -1, 0), "overlap sxz=-1 outside 0..2"),
        (lambda p: closedforms.CountChain(p).conductance_up(3), "level 3 outside 0..2"),
        (lambda p: closedforms.CountChain(p).vertex_weight(-1), "level -1 outside 0..2"),
    ],
    ids=["two-point-overlap-above", "two-point-overlap-below", "conductance-level", "vertex-weight-level"],
)
def test_overlaps_and_levels_outside_their_range_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call(ModelParams(3, 2))


def test_two_point_rejects_equal_targets():
    with pytest.raises(ValueError):
        two_point_stats(ModelParams(3, 2), 1, 1, 2)
    with pytest.raises(ValueError):
        two_point_stats_for(ModelParams(3, 2), (1, 1), (2, 2), (2, 2))


# --- all balls in one urn ------------------------------------------------------


def test_same_urn_inside_target():
    p = ModelParams(4, 3)
    stats = same_urn_stats(p, (2, 2, 2))
    assert stats.mean == 0
    assert stats.exit_probs[1] == 1
    assert sum(stats.exit_probs) == 1


@pytest.mark.parametrize("x", [(1, 4), (0, 1), (1, 1, 1), (1,), (1.5, 2), ("1", 2)])
def test_same_urn_stats_refuses_an_invalid_start(x):
    # the engine reads the occupancy of the start its query checked; a direct call still checks
    with pytest.raises(ValueError):
        same_urn_stats(ModelParams(3, 2), x)


def test_same_urn_spread_case():
    p = ModelParams(3, 2)
    stats = same_urn_stats(p, (1, 2))
    assert stats.mean == 2
    assert stats.exit_probs == (F(2, 5), F(2, 5), F(1, 5))


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (3, 3), (4, 2)])
def test_same_urn_exit_probs_sum_to_one(n, m):
    p = ModelParams(n, m)
    rng = random.Random(10 * n + m)
    for _ in range(5):
        x = tuple(rng.randrange(1, n + 1) for _ in range(m))
        stats = same_urn_stats(p, x)
        assert sum(stats.exit_probs) == 1


@pytest.mark.parametrize("n,m", [(3, 2), (2, 3), (3, 3)])
def test_same_urn_matches_oracle(n, m):
    p = ModelParams(n, m)
    chain = EnumeratedChain(p)
    diag = SetDescriptor.diagonal()
    rng = random.Random(n + 7 * m)
    for _ in range(3):
        x = tuple(rng.randrange(1, n + 1) for _ in range(m))
        stats = same_urn_stats(p, x)
        assert stats.mean == solve_mean(chain, diag, x)
        exits = exit_distribution(chain, diag, x)
        for i in range(1, n + 1):
            assert stats.exit_probs[i - 1] == exits[(i,) * m]


def test_same_urn_relabel_invariance():
    p = ModelParams(4, 3)
    x = (1, 2, 2)
    stats = same_urn_stats(p, x)
    sigma = {1: 3, 2: 1, 3: 4, 4: 2}  # common relabelling of urns
    moved = same_urn_stats(p, tuple(sigma[c] for c in x))
    for urn in range(1, 5):
        assert moved.exit_probs[sigma[urn] - 1] == stats.exit_probs[urn - 1]
    assert moved.mean == stats.mean


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("m", range(1, 6))
def test_same_urn_stats_equals_the_urn_by_urn_reference(n, m):
    # every start where there are at most 1024, else 50 random ones
    p = ModelParams(n, m)
    rng = random.Random(n * m)
    starts = (product(range(1, n + 1), repeat=m) if n**m <= 1024
              else (tuple(rng.randrange(1, n + 1) for _ in range(m)) for _ in range(50)))
    for x in starts:
        assert same_urn_stats(p, x) == same_urn_stats_by_urn(p, x)


def test_same_urn_stats_equals_the_urn_by_urn_reference_at_many_urns():
    p = ModelParams(10**4, 200)
    rng = random.Random(5)
    for x in ((1,) * 200, tuple(rng.randrange(1, 30) for _ in range(200))):
        assert same_urn_stats(p, x) == same_urn_stats_by_urn(p, x)


def test_same_urn_stats_reads_one_kernel_per_ball_count(monkeypatch):
    # ball counts 0 (9996 urns), 1, 2, 3 and 194: one kernel each and g(balls), none per urn, and no overlap
    kernels = []
    real = closedforms.centered_kernel
    monkeypatch.setattr(closedforms, "centered_kernel", lambda params, k: kernels.append(k) or real(params, k))
    monkeypatch.setattr(closedforms, "overlap", None)
    p = ModelParams(10**4, 200)
    stats = same_urn_stats(p, (1, 2, 2, 3, 3, 3) + (4,) * 194)
    assert sorted(kernels) == [0, 1, 2, 3, 194, 200]
    assert len(set(stats.exit_probs)) == 5 and sum(stats.exit_probs) == 1


def test_same_urn_stats_answers_at_the_largest_model_in_under_half_a_second():
    # the urn-by-urn form grows linearly in the urns: 0.45 s at 10**4, so about 4.5 s here
    p = ModelParams(10**5, 200)
    x = tuple(random.Random(7).randrange(1, 21) for _ in range(200))
    started = time.perf_counter()
    stats = same_urn_stats(p, x)
    assert time.perf_counter() - started < 0.5
    assert len(stats.exit_probs) == 10**5 and sum(stats.exit_probs) == 1


def test_same_urn_from_spread_values():
    stats = same_urn_from_spread(ModelParams(3, 2))
    assert (stats.mean, stats.prob_occupied, stats.prob_empty) == (2, F(2, 5), F(1, 5))
    square = same_urn_from_spread(ModelParams(3, 3))
    assert square.prob_occupied == F(1, 3)  # no empty urns when balls == urns
    with pytest.raises(ValueError):
        same_urn_from_spread(ModelParams(2, 3))


@pytest.mark.parametrize("n,m", [(3, 2), (4, 2), (4, 3), (5, 4), (6, 3)])
def test_same_urn_from_spread_consistency(n, m):
    p = ModelParams(n, m)
    stats = same_urn_from_spread(p)
    full = same_urn_stats(p, tuple(range(1, m + 1)))
    assert stats.mean == full.mean
    assert m * stats.prob_occupied + (n - m) * stats.prob_empty == 1
    for i in range(1, n + 1):
        expected = stats.prob_occupied if i <= m else stats.prob_empty
        assert full.exit_probs[i - 1] == expected


# --- all balls in different urns ----------------------------------------------


def test_rencontres_small_cases():
    assert rencontres_profile(2) == [F(1, 2), F(0), F(1, 2)]
    assert rencontres_profile(3) == [F(1, 3), F(1, 2), F(0), F(1, 6)]
    with pytest.raises(ValueError):
        rencontres_profile(1)


@pytest.mark.parametrize("m", range(2, 8))
def test_rencontres_matches_enumeration(m):
    profile = rencontres_profile(m)
    assert sum(profile) == 1
    assert profile[m - 1] == 0
    counts = [0] * (m + 1)
    identity = tuple(range(m))
    for perm in permutations(range(m)):
        counts[sum(1 for a, b in zip(perm, identity) if a == b)] += 1
    total = math.factorial(m)
    assert profile == [F(c, total) for c in counts]


def test_all_distinct_values():
    assert all_distinct_mean(ModelParams(2, 2)) == 1
    p = ModelParams(3, 3)
    value = all_distinct_mean(p)
    chain = EnumeratedChain(p)
    assert value == solve_mean(chain, SetDescriptor.distinct(), (1, 1, 1))
    with pytest.raises(ValueError):
        all_distinct_mean(ModelParams(3, 2))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_all_distinct_matches_engine(m):
    p = ModelParams(m, m)
    q = HittingQuery(p, (1,) * m, SetDescriptor.distinct())
    assert all_distinct_mean(p) == mean(q)


# --- count sets ----------------------------------------------------------------


def test_count_set_mean_values():
    p = ModelParams(3, 2)
    assert count_set_mean(p, 0, 2) == 10
    assert count_set_mean(p, 2, 0) == F(7, 2)
    assert count_set_mean(p, 1, 1) == 0
    assert count_set_mean(ModelParams(2, 3), 0, 3) == 10


@pytest.mark.parametrize("n,m", [(2, 1), (2, 9), (3, 12), (7, 10), (10**5, 20)])
def test_count_set_mean_adds_the_level_means_it_spans(n, m):
    # the one-way level means summed one Fraction at a time, against one difference of integer prefix sums
    p = ModelParams(n, m)
    up, down = closedforms.count_level_means(p)
    for k in range(m + 1):
        for h in range(m + 1):
            assert count_set_mean(p, k, h) == sum(up[k:h] if k < h else down[h:k], F(0))


@pytest.mark.parametrize("n,m", [(2, 4), (3, 3), (4, 2), (5, 2)])
def test_count_set_mean_matches_engine(n, m):
    p = ModelParams(n, m)
    for h in range(m + 1):
        descriptor = SetDescriptor.count(h)
        for k in range(m + 1):
            start = tuple(2 if i < k else 1 for i in range(m))
            q = HittingQuery(p, start, descriptor)
            assert count_set_mean(p, k, h) == mean(q)


@pytest.mark.parametrize("n,m", [(2, 5), (3, 4), (4, 3)])
def test_count_set_mean_additive_through_levels(n, m):
    p = ModelParams(n, m)
    for k in range(m + 1):
        for h in range(m + 1):
            lo, hi = sorted((k, h))
            for mid in range(lo, hi + 1):
                assert count_set_mean(p, k, h) == count_set_mean(p, k, mid) + count_set_mean(p, mid, h)


# --- count chain as a network ----------------------------------------------------


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (4, 4), (5, 3)])
def test_count_chain_rows_and_weights(n, m):
    chain = CountChain(ModelParams(n, m))
    for i in range(m + 1):
        down, stay, up = transition_row(chain, i)
        assert down + stay + up == 1
        # walk-on-network consistency: vertex weight splits into incident conductances
        incident = (n - 2) * chain.conductance_up(i) + chain.conductance_up(i)
        if i > 0:
            incident += chain.conductance_up(i - 1)
        assert chain.vertex_weight(i) == incident
        if chain.vertex_weight(i):
            assert up == chain.conductance_up(i) / chain.vertex_weight(i)


def test_count_chain_top_level_forced_down():
    chain = CountChain(ModelParams(4, 3))
    down, stay, up = transition_row(chain, 3)
    assert (down, stay, up) == (1, 0, 0)
    assert chain.conductance_up(3) == 0


def test_commute_check_values():
    check = network_commute_check(ModelParams(3, 2), 0, 2)
    assert check.lhs == F(27, 2) and check.rhs == F(27, 2) and check.equal
    check23 = network_commute_check(ModelParams(2, 3), 0, 3)
    assert check23.lhs == 20 and check23.equal


@pytest.mark.parametrize("n,m", [(2, 4), (3, 3), (5, 2)])
def test_commute_check_sweep(n, m):
    p = ModelParams(n, m)
    for h in range(m + 1):
        for k in range(h + 1, m + 1):
            assert network_commute_check(p, h, k).equal
    with pytest.raises(ValueError):
        network_commute_check(p, 1, 1)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 21) for n in (2, 3, 4)] + [(30, 10**5), (200, 3)])
def test_commute_prefix_sweep_equals_each_pair(m, n):
    p = ModelParams(n, m)
    sweep = network_commute_sweep(p)
    assert [(h, k) for h, k, _, _ in sweep] == [(h, k) for h in range(m + 1) for k in range(h + 1, m + 1)]
    for h, k, (a, b), (c, d) in sweep:
        check = network_commute_check(p, h, k)
        assert (F(a, b), F(c, d)) == (check.lhs, check.rhs) and check.equal
        assert a * d == c * b and b > 0 and d > 0
        assert F(a, b) == count_set_mean(p, k, h) + count_set_mean(p, h, k)


# --- lumping consistency ---------------------------------------------------------


@pytest.mark.parametrize("n,m", [(2, 4), (3, 3), (5, 2), (2, 6)])
def test_full_chain_matches_lumped_levels(n, m):
    p = ModelParams(n, m)
    chain = EnumeratedChain(p)
    for h in range(m + 1):
        vec = mean_vector(chain, SetDescriptor.count(h))
        for x, value in vec.items():
            assert value == count_set_mean(p, overlap(x, (2,) * m), h)
