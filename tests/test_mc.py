import math
import warnings

import numpy as np
import pytest
from scipy import stats as scipy_stats

from ehrenfest.mc import (
    SimConfig,
    empirical_transform,
    first_step_frequencies,
    sample_hitting,
)
from ehrenfest.model import ModelParams, SetDescriptor, neighbor_states


P32 = ModelParams(3, 2)
SINGLETON = SetDescriptor.singleton((2, 2))


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(replicas=0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(replicas=10, seed=1, mode="jump")
    with pytest.raises(ValueError):
        SimConfig(replicas=10, seed=1, max_steps=0)


def test_start_inside_target():
    summary = sample_hitting(P32, (2, 2), SINGLETON, SimConfig(replicas=500, seed=9))
    assert summary.sample_mean == 0.0
    assert summary.sample_variance == 0.0
    assert summary.truncated == 0


def test_deterministic_across_runs():
    cfg = SimConfig(replicas=30_000, seed=123, lambda_grid=(0.3, 1.0))
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


def test_count_target_uses_running_counter():
    p = ModelParams(3, 2)
    summary = sample_hitting(p, (2, 2), SetDescriptor.count(0), SimConfig(replicas=60_000, seed=3))
    assert abs(summary.sample_mean - 3.5) <= 4 * summary.stderr


def test_explicit_state_list_target():
    cfg = SimConfig(replicas=5000, seed=13)
    via_descriptor = sample_hitting(P32, (1, 1), SINGLETON, cfg)
    via_list = sample_hitting(P32, (1, 1), [(2, 2)], cfg)
    assert via_list == via_descriptor
    with pytest.raises(ValueError):
        sample_hitting(P32, (1, 1), [], cfg)


def test_empirical_transform_basics():
    samples = np.array([1.0, 2.0, 3.0])
    (at_zero,) = empirical_transform(samples, [0.0])
    assert at_zero.estimate == 1.0 and at_zero.stderr == 0.0
    with pytest.raises(ValueError):
        empirical_transform(np.array([]), [1.0])


def test_ctmc_transform_matches_exact():
    p = ModelParams(3, 1)
    cfg = SimConfig(replicas=100_000, seed=21, mode="ctmc", u_grid=(1.0,))
    summary = sample_hitting(p, (1,), SetDescriptor.singleton((2,)), cfg)
    (est,) = summary.transforms
    assert abs(est.estimate - 1 / 3) <= 4 * est.stderr


def test_paired_transform_discrete_vs_ctmc():
    # E[e^{-lam T}] (discrete) equals E[e^{-u Y}] (ctmc) at u = balls*(e^lam - 1)
    lam = 0.4
    u = P32.balls * math.expm1(lam)
    d = sample_hitting(P32, (1, 1), SINGLETON, SimConfig(replicas=60_000, seed=31, lambda_grid=(lam,)))
    c = sample_hitting(
        P32, (1, 1), SINGLETON, SimConfig(replicas=60_000, seed=97, mode="ctmc", u_grid=(u,))
    )
    (de,) = d.transforms
    (ce,) = c.transforms
    combined = math.hypot(de.stderr, ce.stderr)
    assert abs(de.estimate - ce.estimate) <= 4 * combined


def test_truncation_is_counted_and_warned():
    cfg = SimConfig(replicas=2000, seed=5, max_steps=3)
    with pytest.warns(RuntimeWarning, match="step cap"):
        summary = sample_hitting(P32, (1, 1), SINGLETON, cfg)
    assert summary.truncated > 0
    assert summary.replicas == 2000
    # kept samples are all <= max_steps and hit the target
    assert summary.sample_mean <= 3.0


def test_all_truncated_raises():
    p = ModelParams(3, 2)
    far = SetDescriptor.singleton((3, 3))
    with pytest.raises(ValueError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sample_hitting(p, (1, 1), far, SimConfig(replicas=50, seed=2, max_steps=1))


def test_first_step_frequencies_match_kernel():
    # embedded one-step law is uniform over the m*(n-1) neighbors;
    # a low chi-square p-value is flagged as a warning, not a failure
    p = ModelParams(3, 2)
    start = (1, 2)
    replicas = 40_000
    counts = first_step_frequencies(p, start, replicas, seed=11)
    neighbors = list(neighbor_states(p, start))
    assert set(counts) <= set(neighbors)
    assert sum(counts.values()) == replicas
    observed = [counts.get(y, 0) for y in neighbors]
    result = scipy_stats.chisquare(observed)
    if result.pvalue < 1e-4:
        warnings.warn(
            f"first-step frequencies look skewed (p={result.pvalue:.2e})", RuntimeWarning
        )


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
