"""Monte Carlo sampling of hitting times, discrete and continuous-time.

Replicas are split into fixed-size chunks; chunk ``c`` draws from its own
counter-based Philox stream keyed by ``(seed, c)``, and chunk results are
folded in chunk order.  Output therefore depends only on the configuration.

Within a chunk the replicas walk the embedded jump chain in lockstep with
numpy: one uniformly chosen ball and one uniformly chosen displacement per
active replica per step.  Both modes walk alike.  The continuous-time chain
holds an Exponential(balls) time before each jump, so a replica absorbed
after ``T`` steps hits at time Gamma(T)/balls, drawn once per replica from
the chunk's stream after the walk.  Each replica carries one membership key:
singletons and count slices are Hamming spheres (the states agreeing with a
center in exactly ``h`` coordinates), keyed by a running agreement count;
every other kind is materialized and keyed by integer state codes, which
needs ``urns**balls`` below ``2**62``.  Replicas that exceed the step cap
are counted as truncated and excluded from the moment estimates (loudly: a
warning is emitted, nothing is dropped silently).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import ModelParams, SetDescriptor, State, overlap

#: Replicas per RNG substream.  Part of the reproducibility contract: results
#: are a pure function of (seed, replicas, mode, case) at fixed chunking.
CHUNK = 8192


@dataclass(frozen=True)
class SimConfig:
    replicas: int
    seed: int
    mode: str = "discrete"  # or "ctmc"
    max_steps: int = 10_000_000
    grid: tuple[float, ...] = ()  # transform arguments: lambda if discrete, u if ctmc

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


def _membership(params: ModelParams, start: State, target: SetDescriptor):
    """``(key of start, key change of a move, hit test on keys)`` for ``target``."""
    sphere = target.sphere(params)
    if sphere is not None:
        center, level = np.array(sphere[0]), sphere[1]
        return (
            overlap(start, sphere[0]),
            lambda balls, old, new: (new == center[balls]).astype(np.int64) - (old == center[balls]),
            lambda keys: keys == level,
        )
    n, m = params.urns, params.balls
    if m * np.log2(n) > 62:
        raise ValueError("state space too large to encode states in 64-bit codes")
    weights = n ** np.arange(m, dtype=np.int64)
    codes = np.sort((np.array(target.materialize(params), dtype=np.int64) - 1) @ weights)
    return (
        int((np.array(start) - 1) @ weights),
        lambda balls, old, new: (new - old) * weights[balls],
        lambda keys: np.isin(keys, codes),
    )


def _simulate_chunk(params: ModelParams, start: State, cfg: SimConfig, chunk_index: int, count: int, member):
    """Walk ``count`` replicas to absorption; returns (samples, truncated mask)."""
    n, m = params.urns, params.balls
    key0, delta, is_hit = member
    rng = np.random.Generator(np.random.Philox(key=cfg.seed, counter=chunk_index << 64))

    positions = np.tile(np.array(start, dtype=np.int64), (count, 1))
    keys = np.full(count, key0, dtype=np.int64)
    steps = np.zeros(count, dtype=np.int64)
    active = np.flatnonzero(~is_hit(keys))  # replicas starting inside the target keep 0 steps

    # every active replica has taken exactly t steps
    t = 0
    while active.size and t < cfg.max_steps:
        t += 1
        k = active.size
        balls = rng.integers(0, m, size=k)
        shifts = rng.integers(1, n, size=k)
        old = positions[active, balls]
        new = (old - 1 + shifts) % n + 1
        positions[active, balls] = new
        keys[active] += delta(balls, old, new)
        hit = is_hit(keys[active])
        if hit.any():
            steps[active[hit]] = t
            active = active[~hit]

    truncated = np.zeros(count, dtype=bool)
    truncated[active] = True
    samples = steps.astype(np.float64) if cfg.mode == "discrete" else rng.standard_gamma(steps) / m
    return samples, truncated


def sample_hitting(
    params: ModelParams,
    start: Sequence[int],
    target: SetDescriptor,
    cfg: SimConfig,
) -> SimSummary:
    """Sample hitting times of ``target`` from ``start`` under ``cfg``.

    Returns moment and transform summaries; see the module docstring for the
    membership keys and the determinism contract.
    """
    start = params.check_state(start)
    member = _membership(params, start, target)
    results = [
        _simulate_chunk(params, start, cfg, index, min(CHUNK, cfg.replicas - offset), member)
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
    transforms = tuple(empirical_transform(kept, cfg.grid)) if cfg.grid else ()
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
