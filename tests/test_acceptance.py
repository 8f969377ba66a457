"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every equality marked "exact" below is rational equality (zero tolerance);
the stated float tolerances are pinned in the assertions.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction as F

from ehrenfest.closedforms import count_set_mean, network_commute_check, same_urn_stats
from ehrenfest.exact import expm1_rational
from ehrenfest.hitting import HittingQuery, laplace_lambda, laplace_u, mean, raw_moments, variance
from ehrenfest.mc import SimConfig, sample_hitting
from ehrenfest.model import ModelParams, ProductPermutation, SetDescriptor, overlap
from ehrenfest.oracle import (
    EnumeratedChain,
    exit_distribution,
    lumped_count_oracle,
    mean_vector,
    raw_moment_vectors,
    solve_mean,
    solve_raw_moments,
    solve_second_moment,
    solve_transform,
)
from ehrenfest.resolvent import (
    binomial_increment_mean,
    centered_kernel,
    centered_kernel_derivative,
    kernel_increments,
    overlap_increment_distribution,
    resolvent_kernel,
    resolvent_kernel_quadrature,
    series_identity_checks,
)
from reference import all_distinct_mean, same_urn_from_spread, singleton_variance_disjoint, states_of

GRID = [(2, 1), (2, 2), (2, 3), (2, 5), (3, 1), (3, 2), (3, 3), (4, 2), (5, 2)]

U_GRID = (F(1, 2), F(1), F(2))


def _report(number: int, label: str, ok: bool, started: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    elapsed = time.perf_counter() - started
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {status}: {label}{suffix} [{elapsed:.1f}s]")
    assert ok, f"criterion {number} failed: {label}"


def _descriptor_cases(params: ModelParams, rng: random.Random):
    n, m = params.urns, params.balls
    rand_state = lambda: tuple(rng.randrange(1, n + 1) for _ in range(m))
    cases = [SetDescriptor.singleton(rand_state()), SetDescriptor.diagonal()]
    first = rand_state()
    second = rand_state()
    while second == first:
        second = rand_state()
    cases.append(SetDescriptor.pair(first, second))
    for h in {0, m}:
        cases.append(SetDescriptor.count(h))
    if m <= n:
        cases.append(SetDescriptor.distinct())
    return cases


def test_criterion_1_formula_vs_oracle_exactness():
    started = time.perf_counter()
    rng = random.Random(2024)
    checked = 0
    for n, m in GRID:
        params = ModelParams(n, m)
        chain = EnumeratedChain(params)
        for descriptor in _descriptor_cases(params, rng):
            vecs = raw_moment_vectors(chain, descriptor, 4)
            every = states_of(chain)
            starts = rng.sample(every, min(3, len(every)))
            for x in starts:
                query = HittingQuery(params, x, descriptor)
                engine = raw_moments(query, 4)
                assert engine == [vec[x] for vec in vecs]
                assert solve_raw_moments(chain, descriptor, x, 4) == [vec[x] for vec in vecs]
                assert mean(query) == vecs[0][x]
                assert variance(query) == vecs[1][x] - vecs[0][x] ** 2
                for u in U_GRID:
                    z = F(m, 1) / (u + m)
                    assert laplace_u(query, u) == solve_transform(chain, descriptor, x, z)
                checked += 1
    _report(1, "formula-vs-oracle exactness", True, started, f"{checked} start/target cases")


def test_criterion_2_pinned_values():
    started = time.perf_counter()
    p32, p31, p22, p23 = ModelParams(3, 2), ModelParams(3, 1), ModelParams(2, 2), ModelParams(2, 3)
    c32, c31, c22 = EnumeratedChain(p32), EnumeratedChain(p31), EnumeratedChain(p22)

    y22 = SetDescriptor.singleton((2, 2))
    q = HittingQuery(p32, (1, 1), y22)
    assert solve_mean(c32, y22, (1, 1)) == 10 and mean(q) == 10
    assert solve_second_moment(c32, y22, (1, 1)) - 10**2 == 74 and variance(q) == 74

    q1 = HittingQuery(p31, (1,), SetDescriptor.singleton((2,)))
    oracle31 = [v[(1,)] for v in raw_moment_vectors(c31, SetDescriptor.singleton((2,)), 3)]
    assert oracle31 == [2, 6, 26]
    assert (mean(q1), variance(q1), raw_moments(q1, 3)[2]) == (2, 2, 26)

    q2 = HittingQuery(p22, (1, 1), y22)
    assert solve_second_moment(c22, y22, (1, 1)) - solve_mean(c22, y22, (1, 1)) ** 2 == 8
    assert variance(q2) == 8

    diag = SetDescriptor.diagonal()
    qd = HittingQuery(p32, (1, 2), diag)
    stats = same_urn_stats(p32, (1, 2))
    oracle_exits = exit_distribution(c32, diag, (1, 2))
    assert solve_mean(c32, diag, (1, 2)) == 2 and mean(qd) == 2 == stats.mean
    assert stats.exit_probs == (F(2, 5), F(2, 5), F(1, 5))
    assert oracle_exits == {(1, 1): F(2, 5), (2, 2): F(2, 5), (3, 3): F(1, 5)}

    assert count_set_mean(p32, 0, 2) == 10 == lumped_count_oracle(p32, 0, 2)
    assert count_set_mean(p32, 2, 0) == F(7, 2) == lumped_count_oracle(p32, 2, 0)

    distinct = SetDescriptor.distinct()
    qa = HittingQuery(p22, (1, 1), distinct)
    assert all_distinct_mean(p22) == 1 == mean(qa)
    assert solve_mean(c22, distinct, (1, 1)) == 1
    _report(2, "pinned values (oracle-verified)", True, started)


def test_criterion_3_transform_identity():
    started = time.perf_counter()
    tol = F(1, 10**15)
    rng = random.Random(3)
    checked = 0
    for n, m in GRID:
        params = ModelParams(n, m)
        chain = EnumeratedChain(params)
        start = tuple(rng.randrange(1, n + 1) for _ in range(m))
        for descriptor in (SetDescriptor.singleton((2,) * m), SetDescriptor.diagonal()):
            query = HittingQuery(params, start, descriptor)
            for lam in (0.1, 0.5, 1.0, 2.0):
                lhs = laplace_lambda(query, lam, digits=20)
                u_ref = m * expm1_rational(F(lam), F(1, 10**32))
                rhs = laplace_u(query, u_ref)
                assert abs(lhs - rhs) <= tol * rhs
            for u in U_GRID:
                z = F(m, 1) / (u + m)
                assert laplace_u(query, u) == solve_transform(chain, descriptor, start, z)
                checked += 1
    _report(3, "transform identity (lambda vs u vs oracle pgf)", True, started, f"{checked} u-points")


def test_criterion_4_closed_form_consistency():
    started = time.perf_counter()
    for n in range(2, 6):
        for m in range(1, 6):
            params = ModelParams(n, m)
            target = (2,) * m
            for k in range(m + 1):
                start = tuple(2 if i < k else 1 for i in range(m))
                q = HittingQuery(params, start, SetDescriptor.singleton(target))
                assert count_set_mean(params, k, m) == mean(q)
            q0 = HittingQuery(params, (1,) * m, SetDescriptor.singleton(target))
            assert singleton_variance_disjoint(params) == variance(q0)
            assert count_set_mean(params, 0, m) == F(m * (n - 1), n) * sum(
                F(n**i, i) for i in range(1, m + 1)
            )

            rng = random.Random(100 * n + m)
            for _ in range(3):
                x = tuple(rng.randrange(1, n + 1) for _ in range(m))
                stats = same_urn_stats(params, x)
                assert stats.mean == mean(HittingQuery(params, x, SetDescriptor.diagonal()))
                assert sum(stats.exit_probs) == 1
            if m <= n:
                spread = same_urn_from_spread(params)
                canonical = same_urn_stats(params, tuple(range(1, m + 1)))
                assert spread.mean == canonical.mean
                assert m * spread.prob_occupied + (n - m) * spread.prob_empty == 1

            for h in range(m + 1):
                for k in range(m + 1):
                    start = tuple(2 if i < k else 1 for i in range(m))
                    q = HittingQuery(params, start, SetDescriptor.count(h))
                    assert count_set_mean(params, k, h) == mean(q)

    for m in (2, 3, 4):
        params = ModelParams(m, m)
        q = HittingQuery(params, (1,) * m, SetDescriptor.distinct())
        assert all_distinct_mean(params) == mean(q)
    _report(4, "closed forms equal the generic engine", True, started)


def test_criterion_5_identities_suite():
    started = time.perf_counter()
    for n in range(2, 7):
        for m in range(1, 9):
            params = ModelParams(n, m)
            for a in (F(0), F(n - 1), F(-1)):
                assert series_identity_checks(params, a)
            table = kernel_increments(params)
            assert table.zero_overlap == -F(1, n) * sum(F(1, i) for i in range(1, m + 1))
            assert table.full_overlap == F(1, n) * sum(F(n**i - 1, i) for i in range(1, m + 1))
            assert table.zero_overlap == centered_kernel(params, 0)
            assert table.full_overlap == centered_kernel(params, m)
            assert table.zero_overlap + sum(table.increments) == table.full_overlap
            for k in range(m):
                assert centered_kernel(params, k + 1) - centered_kernel(params, k) == table.increments[k]
            assert table.increments[0] == F(1, m)  # one-step lift of the lowest level
            deriv_gap = centered_kernel_derivative(params, 0) - centered_kernel_derivative(params, m)
            assert deriv_gap == F(n - 1, n**2) * sum(
                F(1, i) * sum(F(n**j, j) for j in range(1, i + 1)) for i in range(1, m + 1)
            )
            for mm in range(m):
                probs, den = overlap_increment_distribution(params, mm)
                direct = sum((F(num, den) * table.increments[j] for j, num in enumerate(probs)), F(0))
                assert binomial_increment_mean(params, mm) == direct

    worst = 0.0
    for n, m in ((2, 3), (3, 2), (4, 3)):
        params = ModelParams(n, m)
        for k in range(m + 1):
            for u in (F(1, 4), F(1), F(4)):
                err = abs(
                    resolvent_kernel_quadrature(params, k, float(u))
                    - float(resolvent_kernel(params, k, u))
                )
                worst = max(worst, err)
                assert err < 1e-8
    _report(5, "identity suite + quadrature cross-check", True, started, f"max quad err {worst:.1e}")


def test_criterion_6_electric_network_identity():
    started = time.perf_counter()
    pinned = network_commute_check(ModelParams(3, 2), 0, 2)
    assert pinned.lhs == F(27, 2) and pinned.rhs == F(27, 2)
    pairs = 0
    for n, m in ((2, 4), (3, 3), (5, 2)):
        params = ModelParams(n, m)
        for h in range(m + 1):
            for k in range(h + 1, m + 1):
                check = network_commute_check(params, h, k)
                assert check.equal, (n, m, h, k)
                pairs += 1
    _report(6, "electric-network commute identity", True, started, f"{pairs} level pairs")


MC_CASES = [
    # (params, start, descriptor); exact means computed per case below
    (ModelParams(3, 2), (1, 1), SetDescriptor.singleton((2, 2))),
    (ModelParams(3, 1), (1,), SetDescriptor.singleton((2,))),
    (ModelParams(3, 2), (1, 2), SetDescriptor.diagonal()),
    (ModelParams(3, 2), (2, 2), SetDescriptor.count(0)),
    (ModelParams(2, 2), (1, 1), SetDescriptor.distinct()),
    (ModelParams(2, 3), (1, 1, 1), SetDescriptor.pair((2, 2, 2), (1, 2, 2))),
]


def test_criterion_7_monte_carlo():
    started = time.perf_counter()
    for params, start, descriptor in MC_CASES:
        truth = float(mean(HittingQuery(params, start, descriptor)))
        for mode in ("discrete", "ctmc"):
            cfg = SimConfig(replicas=100_000, seed=2024, mode=mode)
            summary = sample_hitting(params, start, descriptor, cfg)
            target = truth if mode == "discrete" else truth / params.balls
            assert abs(summary.sample_mean - target) <= 4 * summary.stderr, (
                params, descriptor.kind, mode, summary.sample_mean, target, summary.stderr,
            )

    checks = ok = 0
    for seed in range(20):
        for params, start, descriptor in MC_CASES:
            truth = float(mean(HittingQuery(params, start, descriptor)))
            for mode in ("discrete", "ctmc"):
                cfg = SimConfig(replicas=20_000, seed=seed, mode=mode)
                summary = sample_hitting(params, start, descriptor, cfg)
                target = truth if mode == "discrete" else truth / params.balls
                checks += 1
                ok += abs(summary.sample_mean - target) <= 4 * summary.stderr
    rate = ok / checks
    elapsed = time.perf_counter() - started
    _report(
        7,
        "Monte Carlo within 4 stderr",
        rate >= 0.95 and elapsed < 120,
        started,
        f"meta-pass {ok}/{checks}",
    )


def test_criterion_8_lumping_consistency():
    started = time.perf_counter()
    sizes = 0
    for n, m in ((2, 4), (2, 6), (2, 8), (3, 3), (3, 4), (3, 5), (4, 2), (4, 3), (5, 2), (5, 3)):
        params = ModelParams(n, m)
        chain = EnumeratedChain(params)
        for h in range(m + 1):
            vec = mean_vector(chain, SetDescriptor.count(h))
            for x, value in vec.items():
                assert value == lumped_count_oracle(params, overlap(x, (2,) * m), h)
            sizes += 1
    _report(8, "full-chain vs lumped count-chain means", True, started, f"{sizes} level solves")


def test_criterion_9_permutation_symmetry():
    started = time.perf_counter()
    rng = random.Random(99)
    cases = [
        (ModelParams(3, 2), (1, 1), SetDescriptor.singleton((2, 2))),
        (ModelParams(3, 2), (1, 2), SetDescriptor.diagonal()),
        (ModelParams(3, 2), (2, 1), SetDescriptor.count(1)),
        (ModelParams(2, 3), (1, 2, 1), SetDescriptor.pair((2, 2, 2), (1, 2, 2))),
        (ModelParams(3, 3), (1, 2, 2), SetDescriptor.distinct()),
    ]
    for params, start, descriptor in cases:
        query = HittingQuery(params, start, descriptor)
        base = (mean(query), variance(query), laplace_u(query, F(1)))
        for _ in range(50):
            tau = ProductPermutation.random(params, rng)
            moved = HittingQuery(
                params,
                tau.apply_state(start),
                SetDescriptor.explicit(tau.apply_set(descriptor.materialize(params))),
            )
            assert (mean(moved), variance(moved), laplace_u(moved, F(1))) == base
    _report(9, "permutation symmetry of engine outputs", True, started, "50 maps x 5 cases")
