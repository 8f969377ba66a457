"""Monte Carlo sampling of hitting times, discrete and continuous-time.

Replicas are split into fixed-size chunks; chunk ``c`` draws from its own
counter-based Philox stream keyed by ``(seed, c)``.  Output therefore
depends only on the configuration.

All replicas of all chunks walk the embedded jump chain in lockstep with
numpy, one Python iteration per step for every live replica.  The moves
come in blocks drawn ahead: at a block start each chunk with live replicas
draws one integer per live replica and step from its own stream, for at
most ``BLOCK_MOVES`` moves in all, and a draw ``r`` moves ball
``r // (urns-1)`` forward by ``1 + r % (urns-1)`` urns (mod ``urns``).  A
replica absorbed inside a block wastes the rest of its draws: it keeps
moving, masked out of the hit test, until the block ends and it is
compacted away.  So every move of a live replica is a fresh uniform draw
and the law is exact, each block is drawn for exactly the live replicas,
and a block costs no more moves than it draws; the sparse tail advances
many steps per draw.  Both modes walk alike.  The continuous-time chain holds an
Exponential(balls) time before each jump, so a replica absorbed after
``T`` steps hits at time Gamma(T)/balls, drawn once per replica from its
chunk's stream after the walk.

Every ball's urn is tracked (nothing is lumped), stored as an offset
``(urn - reference) % urns`` in the smallest unsigned type with room for
``2*(urns-1)``.  Each replica carries one scalar membership key, changed
by each move from the ball and its old and new offsets; no symbolic set is
listed.

* Singletons and count slices are Hamming spheres (the states agreeing
  with a center in exactly ``h`` coordinates): the reference is the center
  and the key is the number of zero offsets, a hit when it equals ``h``.
* ``pair:(y);(z)`` takes ``y`` as reference and packs two such counters,
  ``a + (balls+1)*b``: ``a`` balls agree with ``y`` and ``b`` with ``z``.
  A hit is one of the two keys of ``y`` and ``z``.
* ``diagonal`` and ``distinct`` key on the colliding ball pairs,
  ``sum over urns of C(occupancy, 2)``, kept from per-replica urn
  occupancies: moving a ball from urn ``a`` to urn ``b`` adds
  ``occ[b] - occ[a] + 1``.  The diagonal is the level ``C(balls, 2)``,
  ``distinct`` the level 0.
* ``explicit`` sets are encoded as sorted integer state codes around urn
  1, and the hit test is a binary search of the key among them, which needs
  ``urns**balls`` below ``2**62``.

Each lockstep step is charged its live replicas plus ``STEP_CHARGE``.  Replicas
still walking when ``WALK_BUDGET`` is spent are truncated and excluded from the
moment estimates (loudly: a warning is emitted, nothing is dropped silently).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import ModelParams, SetDescriptor, State, overlap

#: Replicas per RNG substream.  Part of the reproducibility contract: results
#: are a pure function of (seed, replicas, mode, case) at fixed chunking and
#: block size.
CHUNK = 8192

#: Moves drawn per block over all live replicas: bounds the block's memory
#: and sets how many steps the sparse tail takes per RNG call.
BLOCK_MOVES = 1 << 15

#: Replica-steps a walk may spend, 6-8 s at the 20-56 ns one costs on 2 vCPUs;
#: each step also costs a Python iteration, about 22 us or 550 replica-steps.
WALK_BUDGET = 15 * 10**7
STEP_CHARGE = 550

#: Most urn slots a walk allocates: replicas times balls, or times max(balls, urns) for occupancies.
MAX_SLOTS = 1 << 26

MODES = ("discrete", "ctmc")


@dataclass(frozen=True)
class SimConfig:
    replicas: int
    seed: int
    mode: str = "discrete"  # or "ctmc"
    grid: tuple[float, ...] = ()  # transform arguments: lambda if discrete, u if ctmc

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("need at least one replica")
        if self.mode not in MODES:
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
    replica_steps: int = 0  # steps walked, truncated replicas included


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


def _membership(params: ModelParams, start: State, target: SetDescriptor, replicas: int):
    """How the walk tests membership in ``target``: ``(reference state, slots
    per replica, key of start, key update, hit test on keys)``.

    Ball ``i`` of the replica whose first slot is ``base`` sits at slot
    ``base + i``; ``update(keys, base, balls, old, new)`` changes the keys in
    place for a move of ball ``balls`` from offset ``old`` to offset ``new``.
    The start key's type is the keys' type.
    """
    n, m = params.urns, params.balls
    states = target.validate(params)
    stride = max(m, n) if target.kind in ("diagonal", "distinct") else m
    if replicas * stride > MAX_SLOTS:
        raise ValueError(f"the walk needs {replicas * stride} urn slots ({replicas} replicas x {stride}) > {MAX_SLOTS}")
    sphere = target.sphere(params)
    if sphere is not None:
        center, level = sphere

        def update(keys, base, balls, old, new):
            keys += new == 0
            keys -= old == 0

        key0 = np.array(overlap(start, center), dtype=np.min_scalar_type(-m - 1))
        return center, m, key0, update, lambda keys: keys == level

    if target.kind == "pair":
        # a + (m+1)*b, where a balls agree with y (offset 0) and b with z (offset (z - y) % n)
        y, z = states
        at_z = ((np.array(z) - y) % n).astype(np.min_scalar_type(2 * n - 2))
        scale = np.array(m + 1, dtype=np.min_scalar_type(-m * (m + 2)))

        def update(keys, base, balls, old, new):
            at = at_z[balls]
            z_new, z_old = new == at, old == at
            keys += new == 0
            keys -= old == 0
            keys += scale * z_new
            keys -= scale * z_old

        def key(x):
            return overlap(x, y) + scale * overlap(x, z)

        key_y, key_z = key(y), key(z)
        return y, m, key(start), update, lambda keys: (keys == key_y) | (keys == key_z)

    if target.kind in ("diagonal", "distinct"):
        # colliding ball pairs, the sum over urns of C(occupancy, 2), from one count per urn and replica
        row = np.bincount(np.array(start) - 1, minlength=stride)
        occupancy = np.tile(row.astype(np.min_scalar_type(-m - 1)), replicas)
        most = m * (m - 1) // 2
        level = most if target.kind == "diagonal" else 0

        def update(keys, base, balls, old, new):
            src, dst = base + old, base + new
            leaving, arriving = occupancy[src], occupancy[dst]
            keys += arriving - leaving + 1
            occupancy[src] = leaving - 1
            occupancy[dst] = arriving + 1

        key0 = np.array(row @ (row - 1) // 2, dtype=np.min_scalar_type(-most))
        return (1,) * m, stride, key0, update, lambda keys: keys == level

    if m * np.log2(n) > 62:
        raise ValueError("state space too large to encode states in 64-bit codes")
    weights = n ** np.arange(m, dtype=np.int64)
    codes = np.sort((np.array(states, dtype=np.int64) - 1) @ weights)

    def update(keys, base, balls, old, new):
        keys += (new.astype(np.int64) - old) * weights[balls]

    def is_hit(keys):
        return codes[np.minimum(np.searchsorted(codes, keys), codes.size - 1)] == keys

    return (1,) * m, m, (np.array(start) - 1) @ weights, update, is_hit


def _walk(params: ModelParams, start: State, cfg: SimConfig, member):
    """Walk every replica to absorption or the end of the budget, all chunks in lockstep.

    Returns the steps to absorption (0 if truncated), the truncated mask, the
    step the walk stopped at and the chunk generators, positioned after it.
    """
    n, m = params.urns, params.balls
    reference, stride, key0, update, is_hit = member
    firsts = np.arange(0, cfg.replicas, CHUNK)
    rngs = [np.random.Generator(np.random.Philox(key=cfg.seed, counter=c << 64)) for c in range(firsts.size)]
    bounds = np.append(firsts, cfg.replicas) * stride

    # offsets leave room for old + shift, up to 2*(urns-1), before the wrap
    row = np.zeros(stride, dtype=np.min_scalar_type(2 * n - 2))
    row[:m] = (np.array(start) - np.array(reference)) % n
    positions = np.tile(row, cfg.replicas)
    steps = np.zeros(cfg.replicas, dtype=np.int64)
    # the live replicas, by their first slot; replicas starting inside the target keep 0 steps
    base = np.arange(0, cfg.replicas * stride, stride) if not is_hit(key0) else np.arange(0)
    keys = np.full(base.size, key0)

    draw_type = np.min_scalar_type(m * (n - 1) - 1)
    t = spent = 0  # every live replica has taken exactly t steps, and the walk has spent this much budget
    while base.size and (affordable := (WALK_BUDGET - spent) // (base.size + STEP_CHARGE)):
        span = min(max(1, BLOCK_MOVES // base.size), affordable)
        spent += span * (base.size + STEP_CHARGE)
        per_chunk = np.diff(np.searchsorted(base, bounds))
        block = np.concatenate(
            [rng.integers(0, m * (n - 1), size=(span, k), dtype=draw_type) for rng, k in zip(rngs, per_chunk) if k],
            axis=1,
        )
        balls_ahead = block // (n - 1)  # np.divmod is slower than the two passes
        shifts_ahead = block - balls_ahead * (n - 1)
        shifts_ahead += 1
        # absorbed replicas keep moving, masked out of hits, until the block ends
        alive = np.ones(base.size, dtype=bool)
        dead = 0
        for balls, shifts in zip(balls_ahead, shifts_ahead):
            t += 1
            slots = base + balls
            old = positions[slots]
            new = old + shifts
            new -= new // n * n  # numpy's % is slow on small integer types
            positions[slots] = new
            update(keys, base, balls, old, new)
            hit = is_hit(keys)
            if dead:
                hit &= alive
            if hit.any():
                steps[base[hit] // stride] = t
                alive ^= hit
                dead += np.count_nonzero(hit)
                if dead == base.size:
                    break
        if dead:
            base, keys = base[alive], keys[alive]

    truncated = np.zeros(cfg.replicas, dtype=bool)
    truncated[base // stride] = True
    return steps, truncated, t, rngs


def _sample(params, start, target, cfg: SimConfig, modes: Sequence[str]) -> dict[str, SimSummary]:
    """One walk under ``cfg``, summarised in each of ``modes`` in turn."""
    start = params.check_state(start)
    steps, truncated, stop, rngs = _walk(params, start, cfg, _membership(params, start, target, cfg.replicas))
    n_trunc = int(truncated.sum())
    if n_trunc:
        warnings.warn(
            f"{n_trunc} of {cfg.replicas} replicas were still walking when the walk budget ran out "
            f"at step {stop} and were excluded from moment estimates",
            RuntimeWarning,
            stacklevel=3,
        )
    if n_trunc == cfg.replicas:
        raise ValueError(f"every replica was truncated at step {stop}, when the walk budget ran out")

    out = {}
    for mode in modes:
        if mode == "discrete":
            samples = steps.astype(np.float64)
        else:
            chunks = np.split(steps, np.arange(CHUNK, cfg.replicas, CHUNK))
            samples = np.concatenate([rng.standard_gamma(s) for rng, s in zip(rngs, chunks)]) / params.balls
        kept = samples[~truncated]
        var = float(kept.var(ddof=1)) if kept.size > 1 else 0.0
        out[mode] = SimSummary(
            replicas=cfg.replicas,
            truncated=n_trunc,
            mode=mode,
            seed=cfg.seed,
            sample_mean=float(kept.mean()),
            sample_variance=var,
            stderr=float(np.sqrt(var / kept.size)),
            transforms=tuple(empirical_transform(kept, cfg.grid)) if cfg.grid else (),
            replica_steps=int(steps.sum()) + n_trunc * stop,
        )
    return out


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
    return _sample(params, start, target, cfg, (cfg.mode,))[cfg.mode]


def sample_clocks(
    params: ModelParams,
    start: Sequence[int],
    target: SetDescriptor,
    cfg: SimConfig,
) -> dict[str, SimSummary]:
    """Both clocks from one walk: entry ``mode`` equals
    ``sample_hitting(params, start, target, replace(cfg, mode=mode))``."""
    return _sample(params, start, target, cfg, MODES)
