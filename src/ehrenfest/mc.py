"""Monte Carlo sampling of hitting times, discrete and continuous-time.

Replicas are split into fixed-size chunks; chunk ``c`` draws from its own
counter-based Philox stream keyed by ``(seed, c)``, and chunk results are
folded in chunk order.  Output therefore depends only on the configuration.

Within a chunk the replicas advance in lockstep with numpy: one uniformly
chosen ball and one uniformly chosen displacement per active replica per
step.  Continuous-time mode runs the identical embedded walk and adds an
independent Exponential(balls) holding time per completed jump.  Replicas
that exceed the step cap are counted as truncated and excluded from the
moment estimates (loudly: a warning is emitted, nothing is dropped
silently).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import ModelParams, SetDescriptor, State

#: Replicas per RNG substream.  Part of the reproducibility contract: results
#: are a pure function of (seed, replicas, mode, case) at fixed chunking.
CHUNK = 8192


@dataclass(frozen=True)
class SimConfig:
    replicas: int
    seed: int
    mode: str = "discrete"  # or "ctmc"
    max_steps: int = 10_000_000
    lambda_grid: tuple[float, ...] = ()
    u_grid: tuple[float, ...] = ()

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("need at least one replica")
        if self.max_steps < 1:
            raise ValueError("need max_steps >= 1")
        if self.mode not in ("discrete", "ctmc"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class TransformEstimate:
    argument: float
    estimate: float
    stderr: float


@dataclass(frozen=True)
class SimSummary:
    replicas: int
    truncated: int
    mode: str
    seed: int
    sample_mean: float
    sample_variance: float
    stderr: float
    transforms: tuple[TransformEstimate, ...] = field(default_factory=tuple)


def empirical_transform(samples: np.ndarray, arguments: Sequence[float]) -> list[TransformEstimate]:
    """Estimates of ``E[exp(-a * T)]`` with standard errors, per argument."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("no samples to transform")
    out = []
    for a in arguments:
        w = np.exp(-float(a) * samples)
        est = float(w.mean())
        if samples.size > 1:
            se = float(w.std(ddof=1) / np.sqrt(samples.size))
        else:
            se = 0.0
        out.append(TransformEstimate(argument=float(a), estimate=est, stderr=se))
    return out


def _target_codes(params: ModelParams, states: Sequence[State], weights: np.ndarray) -> np.ndarray:
    arr = np.array([params.check_state(s) for s in states], dtype=np.int64) - 1
    return np.sort(arr @ weights)


def _simulate_chunk(
    params: ModelParams,
    start: State,
    cfg: SimConfig,
    chunk_index: int,
    count: int,
    weights: np.ndarray,
    target_codes: np.ndarray,
    count_target: tuple[int, int] | None,
):
    """Walk ``count`` replicas to absorption; returns (samples, truncated mask)."""
    n, m = params.urns, params.balls
    rng = np.random.Generator(np.random.Philox(key=cfg.seed, counter=chunk_index << 64))
    ctmc = cfg.mode == "ctmc"

    positions = np.tile(np.array(start, dtype=np.int64), (count, 1))
    codes = np.full(count, int((np.array(start) - 1) @ weights), dtype=np.int64)
    steps = np.zeros(count, dtype=np.int64)
    times = np.zeros(count, dtype=np.float64) if ctmc else None
    samples = np.zeros(count, dtype=np.float64)
    truncated = np.zeros(count, dtype=bool)

    if count_target is not None:
        ref, level = count_target
        in_ref = np.sum(positions == ref, axis=1)
        hit0 = in_ref == level
    else:
        hit0 = np.isin(codes, target_codes)
    active = np.flatnonzero(~hit0)  # replicas starting inside the target keep sample 0

    while active.size:
        k = active.size
        balls = rng.integers(0, m, size=k)
        shifts = rng.integers(1, n, size=k)
        old = positions[active, balls]
        new = (old - 1 + shifts) % n + 1
        positions[active, balls] = new
        codes[active] += (new - old) * weights[balls]
        steps[active] += 1
        if ctmc:
            times[active] += rng.standard_exponential(k) / m

        if count_target is not None:
            ref, level = count_target
            in_ref[active] += (new == ref).astype(np.int64) - (old == ref).astype(np.int64)
            hit = in_ref[active] == level
        else:
            hit = np.isin(codes[active], target_codes)
        out_of_budget = ~hit & (steps[active] >= cfg.max_steps)

        done = hit | out_of_budget
        if done.any():
            finished = active[done]
            samples[finished] = times[finished] if ctmc else steps[finished]
            truncated[active[out_of_budget]] = True
            active = active[~done]
    return samples, truncated


def sample_hitting(
    params: ModelParams,
    start: Sequence[int],
    target: SetDescriptor,
    cfg: SimConfig,
) -> SimSummary:
    """Sample hitting times of ``target`` from ``start`` under ``cfg``.

    Count targets use an O(1) running occupancy counter for membership; every
    other kind is materialized and hashed into integer state codes.  Returns
    moment and transform summaries; see the module docstring for the
    determinism contract.
    """
    start = params.check_state(start)
    n, m = params.urns, params.balls
    if m * np.log2(n) > 62:
        raise ValueError("state space too large to encode states in 64-bit codes")
    weights = n ** np.arange(m, dtype=np.int64)

    count_target = None
    if target.kind == "count":
        count_target = target.count_level(params)
        target_codes = np.empty(0, dtype=np.int64)
    else:
        target_codes = _target_codes(params, target.materialize(params), weights)

    results = [
        _simulate_chunk(
            params, start, cfg, index, min(CHUNK, cfg.replicas - offset), weights, target_codes, count_target
        )
        for index, offset in enumerate(range(0, cfg.replicas, CHUNK))
    ]

    samples = np.concatenate([r[0] for r in results])
    truncated = np.concatenate([r[1] for r in results])
    kept = samples[~truncated]
    n_trunc = int(truncated.sum())
    if n_trunc:
        warnings.warn(
            f"{n_trunc} of {cfg.replicas} replicas hit the step cap and were "
            "excluded from moment estimates",
            RuntimeWarning,
            stacklevel=2,
        )
    if kept.size == 0:
        raise ValueError("every replica was truncated; raise max_steps")

    mean = float(kept.mean())
    var = float(kept.var(ddof=1)) if kept.size > 1 else 0.0
    se = float(np.sqrt(var / kept.size))
    grid = cfg.u_grid if cfg.mode == "ctmc" else cfg.lambda_grid
    transforms = tuple(empirical_transform(kept, grid)) if grid else ()
    return SimSummary(
        replicas=cfg.replicas,
        truncated=n_trunc,
        mode=cfg.mode,
        seed=cfg.seed,
        sample_mean=mean,
        sample_variance=var,
        stderr=se,
        transforms=transforms,
    )
