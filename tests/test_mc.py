import itertools
import math
import re
import warnings

import numpy as np
import pytest

from ehrenfest import mc
from ehrenfest.mc import (
    SimConfig,
    empirical_transform,
    sample_clocks,
    sample_hitting,
)
from ehrenfest.hitting import HittingQuery, ctmc_stats, mean
from ehrenfest.model import ModelParams, SetDescriptor


P32 = ModelParams(3, 2)
SINGLETON = SetDescriptor.singleton((2, 2))
PAIR33 = SetDescriptor.pair((2, 2, 2), (3, 1, 2))  # the two states agree on the last ball


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(replicas=0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(replicas=10, seed=1, mode="jump")


@pytest.mark.parametrize("bad", [1.5, 100.0, "7", True, None], ids=repr)
@pytest.mark.parametrize("field", ["replicas", "seed"])
def test_config_refuses_non_integer_replicas_and_seed(field, bad):
    # SimConfig(100, seed=1.5) once sampled silently
    with pytest.raises(ValueError, match=f"{field} {re.escape(repr(bad))} is not an integer"):
        SimConfig(**{"replicas": 100, "seed": 1, field: bad})
    cfg = SimConfig(replicas=np.int64(100), seed=np.uint32(7))
    assert (repr(cfg.replicas), repr(cfg.seed)) == ("100", "7")


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_config_refuses_a_seed_outside_the_key_range(seed):
    # refused at construction, not later by numpy's Philox inside the walk
    with pytest.raises(ValueError, match=f"seed {seed} is outside"):
        SimConfig(100, seed)


def test_config_walks_at_the_largest_seed():
    summary = sample_hitting(P32, (1, 1), SINGLETON, SimConfig(replicas=50, seed=2**128 - 1))
    assert summary.seed == 2**128 - 1 and summary.truncated == 0


def test_start_inside_target():
    summary = sample_hitting(P32, (2, 2), SINGLETON, SimConfig(replicas=500, seed=9))
    assert summary.sample_mean == 0.0
    assert summary.sample_variance == 0.0
    assert summary.truncated == 0


def test_deterministic_across_runs():
    cfg = SimConfig(replicas=30_000, seed=123, grid=(0.3, 1.0))
    first = sample_hitting(P32, (1, 1), SINGLETON, cfg)
    second = sample_hitting(P32, (1, 1), SINGLETON, cfg)
    assert first == second


def test_different_seeds_differ():
    a = sample_hitting(P32, (1, 1), SINGLETON, SimConfig(replicas=2000, seed=1))
    b = sample_hitting(P32, (1, 1), SINGLETON, SimConfig(replicas=2000, seed=2))
    assert a.sample_mean != b.sample_mean


def test_discrete_mean_within_four_stderr():
    summary = sample_hitting(P32, (1, 1), SINGLETON, SimConfig(replicas=100_000, seed=7))
    assert abs(summary.sample_mean - 10.0) <= 4 * summary.stderr


def test_ctmc_mean_within_four_stderr():
    summary = sample_hitting(P32, (1, 1), SINGLETON, SimConfig(replicas=100_000, seed=7, mode="ctmc"))
    assert abs(summary.sample_mean - 5.0) <= 4 * summary.stderr  # discrete mean / balls


def test_ctmc_variance_matches_exact():
    # Gamma(T)/M holding times: Var = (Var T + E T) / M**2 = (74 + 10) / 4
    exact = ctmc_stats(HittingQuery(P32, (1, 1), SINGLETON)).variance
    assert exact == 21
    summary = sample_hitting(P32, (1, 1), SINGLETON, SimConfig(replicas=100_000, seed=7, mode="ctmc"))
    assert abs(summary.sample_variance - 21) <= 0.05 * 21


def test_count_target_uses_running_counter():
    p = ModelParams(3, 2)
    summary = sample_hitting(p, (2, 2), SetDescriptor.count(0), SimConfig(replicas=60_000, seed=3))
    assert abs(summary.sample_mean - 3.5) <= 4 * summary.stderr


def test_explicit_state_list_target():
    # symbolic kinds keep structural keys, explicit sets state codes: same walks
    p = ModelParams(3, 3)
    for mode in ("discrete", "ctmc"):
        cfg = SimConfig(replicas=5000, seed=13, mode=mode)
        via_descriptor = sample_hitting(P32, (1, 1), SINGLETON, cfg)
        via_list = sample_hitting(P32, (1, 1), SetDescriptor.explicit([(2, 2)]), cfg)
        assert via_list == via_descriptor
        for start, symbolic in (
            ((1, 1, 1), SetDescriptor.count(1)),
            ((1, 1, 1), SetDescriptor.singleton((2, 3, 1))),
            ((1, 1, 1), PAIR33),
            ((1, 1, 2), SetDescriptor.diagonal()),
            ((1, 1, 2), SetDescriptor.distinct()),
        ):
            explicit = SetDescriptor.explicit(symbolic.materialize(p))
            assert sample_hitting(p, start, symbolic, cfg) == sample_hitting(p, start, explicit, cfg)
        with pytest.raises(ValueError):
            sample_hitting(P32, (1, 1), SetDescriptor.explicit([]), cfg)


def test_empirical_transform_basics():
    samples = np.array([1.0, 2.0, 3.0])
    (at_zero,) = empirical_transform(samples, [0.0])
    assert at_zero.estimate == 1.0 and at_zero.stderr == 0.0
    (one,) = empirical_transform(np.array([2.0]), [0.5])  # one sample has no variance to estimate
    assert one.estimate == pytest.approx(math.exp(-1.0)) and one.stderr == 0.0
    with pytest.raises(ValueError):
        empirical_transform(np.array([]), [1.0])


def test_ctmc_transform_matches_exact():
    p = ModelParams(3, 1)
    cfg = SimConfig(replicas=100_000, seed=21, mode="ctmc", grid=(1.0,))
    summary = sample_hitting(p, (1,), SetDescriptor.singleton((2,)), cfg)
    (est,) = summary.transforms
    assert abs(est.estimate - 1 / 3) <= 4 * est.stderr


def test_paired_transform_discrete_vs_ctmc():
    # E[e^{-lam T}] (discrete) equals E[e^{-u Y}] (ctmc) at u = balls*(e^lam - 1)
    lam = 0.4
    u = P32.balls * math.expm1(lam)
    d = sample_hitting(P32, (1, 1), SINGLETON, SimConfig(replicas=60_000, seed=31, grid=(lam,)))
    c = sample_hitting(
        P32, (1, 1), SINGLETON, SimConfig(replicas=60_000, seed=97, mode="ctmc", grid=(u,))
    )
    (de,) = d.transforms
    (ce,) = c.transforms
    combined = math.hypot(de.stderr, ce.stderr)
    assert abs(de.estimate - ce.estimate) <= 4 * combined


def test_truncation_is_counted_and_warned(monkeypatch):
    # the budget pays for three steps of all 2000 replicas: the first block spans them
    monkeypatch.setattr(mc, "WALK_BUDGET", 3 * (2000 + mc.STEP_CHARGE))
    cfg = SimConfig(replicas=2000, seed=5)
    with pytest.warns(RuntimeWarning, match="walk budget ran out at step 3"):
        summary = sample_hitting(P32, (1, 1), SINGLETON, cfg)
    assert summary.truncated > 0
    assert summary.replicas == 2000
    # kept samples are all <= 3 steps and hit the target
    assert summary.sample_mean <= 3.0


def test_both_clocks_walk_alike(monkeypatch):
    # the ctmc clock is drawn after the walk, so the same seed truncates the same replicas
    monkeypatch.setattr(mc, "WALK_BUDGET", 3 * (2000 + mc.STEP_CHARGE))
    truncated = []
    for mode in ("discrete", "ctmc"):
        with pytest.warns(RuntimeWarning, match="walk budget"):
            summary = sample_hitting(P32, (1, 1), SINGLETON, SimConfig(replicas=2000, seed=5, mode=mode))
        truncated.append(summary.truncated)
    assert truncated[0] == truncated[1] > 0


def test_all_truncated_raises(monkeypatch):
    # one step of 50 replicas, and the target is two moves away
    monkeypatch.setattr(mc, "WALK_BUDGET", 50 + mc.STEP_CHARGE)
    p = ModelParams(3, 2)
    far = SetDescriptor.singleton((3, 3))
    with pytest.raises(ValueError, match="every replica was truncated at step 1"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sample_hitting(p, (1, 1), far, SimConfig(replicas=50, seed=2))


def test_walk_slots_are_bounded(monkeypatch):
    monkeypatch.setattr(mc, "MAX_SLOTS", 100)
    assert mc._membership(ModelParams(3, 2), (1, 1), SINGLETON, 50)[1] == 2  # 50 x 2 slots
    with pytest.raises(ValueError, match="102 urn slots"):
        mc._membership(ModelParams(3, 2), (1, 1), SINGLETON, 51)
    with pytest.raises(ValueError, match="120 urn slots"):
        mc._membership(ModelParams(3, 2), (1, 2), SetDescriptor.diagonal(), 40)  # occupancies: 40 x 3 urns


def test_meta_seeds_mostly_within_band():
    cases = [
        (P32, (1, 1), SINGLETON, 10.0, "discrete"),
        (P32, (1, 1), SINGLETON, 5.0, "ctmc"),
        (ModelParams(3, 1), (1,), SetDescriptor.singleton((2,)), 2.0, "discrete"),
    ]
    checks = ok = 0
    for seed in range(20):
        for params, start, target, truth, mode in cases:
            cfg = SimConfig(replicas=20_000, seed=seed, mode=mode)
            summary = sample_hitting(params, start, target, cfg)
            checks += 1
            ok += abs(summary.sample_mean - truth) <= 4 * summary.stderr
    assert ok / checks >= 0.95


def _killed_chain_cdf(params, start, targets, horizon):
    """P(T <= t) for t = 0..horizon: the dense full chain, killed on ``targets``."""
    n, m = params.urns, params.balls
    states = list(itertools.product(range(1, n + 1), repeat=m))
    index = {s: i for i, s in enumerate(states)}
    P = np.zeros((len(states), len(states)))
    for s in states:
        for ball in range(m):
            for urn in range(1, n + 1):
                if urn != s[ball]:
                    P[index[s], index[s[:ball] + (urn,) + s[ball + 1 :]]] += 1 / (m * (n - 1))
    alive = np.ones(len(states))
    alive[[index[a] for a in targets]] = 0
    dist = np.zeros(len(states))
    dist[index[start]] = 1
    cdf = []
    for _ in range(horizon + 1):
        dist *= alive
        cdf.append(1 - dist.sum())
        dist = dist @ P
    return np.array(cdf)


def _walk_steps(params, start, target, cfg):
    """Steps to absorption, the truncated mask and the step the walk stopped at."""
    steps, truncated, stop, _ = mc._walk(params, start, cfg, mc._membership(params, start, target, cfg.replicas))
    return steps, truncated, stop


@pytest.mark.parametrize(
    "start,target",
    [
        ((1, 1), SINGLETON),
        ((2, 2), SetDescriptor.count(0)),
        ((2, 3), SetDescriptor.count(1, 1)),
        ((2, 1), SetDescriptor.pair((1, 2), (3, 2))),
        ((1, 2), SetDescriptor.diagonal()),
        ((3, 3), SetDescriptor.distinct()),
    ],
    ids=["singleton", "count-0", "count-1-urn-1", "pair", "diagonal", "distinct"],
)
def test_walk_law_matches_killed_chain(start, target):
    # Dvoretzky-Kiefer-Wolfowitz with Massart's constant: sup |F_n - F| > eps with probability <= alpha
    replicas, alpha = 24581, 1e-6
    eps = math.sqrt(math.log(2 / alpha) / (2 * replicas))
    cfg = SimConfig(replicas=replicas, seed=2024)
    explicit = SetDescriptor.explicit(target.materialize(P32))
    steps, truncated, _ = _walk_steps(P32, start, target, cfg)
    via_codes, _, _ = _walk_steps(P32, start, explicit, cfg)
    assert steps.min() > 0 and not truncated.any()
    assert np.array_equal(steps, via_codes)  # structural keys and state codes walk alike
    assert sample_hitting(P32, start, target, cfg) == sample_hitting(P32, start, explicit, cfg)

    exact = _killed_chain_cdf(P32, start, target.materialize(P32), int(steps.max()))
    empirical = np.searchsorted(np.sort(steps), np.arange(exact.size), side="right") / replicas
    assert np.abs(empirical - exact).max() <= eps
    assert 1 - exact[-1] <= eps  # beyond the largest sample the empirical CDF is 1


@pytest.mark.parametrize(
    "n,m,target",
    [
        (257, 1, SetDescriptor.singleton((2,))),  # M(N-1) = 256: draws fit uint8, a shift of up to 256 does not
        (258, 1, SetDescriptor.singleton((2,))),  # 257: the first uint16 draws with one ball
        (3, 128, SetDescriptor.count(126, 1)),  # 256: draws fit uint8
        (3, 129, SetDescriptor.count(127, 1)),  # 258: uint16 draws
        (65537, 1, SetDescriptor.count(0, 1)),  # 65536: draws fit uint16, a shift of up to 65536 does not
    ],
    ids=["257x1", "258x1", "3x128", "3x129", "65537x1"],
)
def test_walk_draws_across_a_dtype_boundary(n, m, target):
    # a move is one draw below M(N-1), kept in the smallest type that holds M(N-1) - 1
    params, start = ModelParams(n, m), (1,) * m
    summary = sample_hitting(params, start, target, SimConfig(replicas=4000, seed=5))
    exact = float(mean(HittingQuery(params, start, target)))
    assert summary.truncated == 0
    assert abs(summary.sample_mean - exact) <= 4 * summary.stderr


def test_truncation_cuts_the_same_walks(monkeypatch):
    # a block cut short by the budget reads the first rows of the block the unbounded walk draws;
    # the pair's budget runs out inside multi-step blocks whose absorbed columns are not yet compacted
    cfg = SimConfig(replicas=24581, seed=11)
    for params, start, target, budget in ((P32, (1, 1), SINGLETON, 150_000),
                                          (ModelParams(3, 3), (1, 1, 1), PAIR33, 400_000)):
        monkeypatch.undo()
        full, never, _ = _walk_steps(params, start, target, cfg)
        assert not never.any()
        monkeypatch.setattr(mc, "WALK_BUDGET", budget)
        capped, truncated, stop = _walk_steps(params, start, target, cfg)
        assert 0 < stop < full.max()
        assert capped[~truncated].max() <= stop
        assert np.array_equal(truncated, full > stop)
        assert np.array_equal(capped[~truncated], full[~truncated])
        with pytest.warns(RuntimeWarning, match=f"walk budget ran out at step {stop} "):
            summary = sample_hitting(params, start, target, cfg)
        assert summary.truncated == int((full > stop).sum())
        assert summary.replica_steps == int(full[full <= stop].sum()) + stop * summary.truncated
        # every step was charged at least its live replicas and STEP_CHARGE
        assert summary.replica_steps + stop * mc.STEP_CHARGE <= budget


def test_both_clocks_from_one_walk(monkeypatch):
    calls = []
    real = mc._walk
    monkeypatch.setattr(mc, "_walk", lambda *a: calls.append(1) or real(*a))
    cfg = SimConfig(replicas=8292, seed=4, grid=(0.5,))
    both = sample_clocks(P32, (1, 1), SINGLETON, cfg)
    assert len(calls) == 1
    for mode in ("discrete", "ctmc"):
        assert both[mode] == sample_hitting(P32, (1, 1), SINGLETON, SimConfig(cfg.replicas, cfg.seed, mode, cfg.grid))
    steps, _, _ = _walk_steps(P32, (1, 1), SINGLETON, cfg)
    assert both["ctmc"].replica_steps == both["discrete"].replica_steps == int(steps.sum())
