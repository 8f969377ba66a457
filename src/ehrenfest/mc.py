"""Monte Carlo sampling of hitting times, discrete and continuous-time.

Each walk draws from one counter-based Philox stream keyed by the seed, so
output depends only on the configuration.

All replicas walk the embedded jump chain in lockstep with numpy.  The moves
come in blocks drawn ahead: at a block start the stream draws one integer
per live replica and step, for at most ``BLOCK_MOVES`` moves in all, and a
draw ``r`` moves ball ``r // (urns-1)`` forward by ``1 + r % (urns-1)`` urns
(mod ``urns``).  A replica absorbed inside a block wastes the rest of its
draws: masked out of the hit test or parked, it waits until the block ends
and it is compacted away.  So every move of a live replica is a fresh
uniform draw and the law is exact, each block is drawn for exactly the live
replicas, and a block costs no more moves than it draws; the sparse tail
advances many steps per draw.  Both modes walk alike.  The continuous-time
chain holds an Exponential(balls) time before each jump, so a replica
absorbed after ``T`` steps hits at time Gamma(T)/balls, drawn once per
replica from the same stream after the walk.

Every ball's urn is tracked (nothing is lumped), as an offset
``(urn - reference) % urns`` or, on a table, through the state's code; no
symbolic set is listed.  A block is walked in one of three ways, chosen by
its live replicas times balls, the cells of one step, and by the state
space:

* **Table lockstep**, past ``TAIL_CELLS`` cells, when the table's states
  times the ``R = balls*(urns-1)`` moves are at most ``TABLE_ENTRIES``: one
  Python iteration per step.  Each replica carries its row's code, the
  row's index times ``R``, an int32, and a step is ``code += draw`` and one
  gather of the int32 table at ``code``, two numpy calls.  Landing in the
  target is a row of the table, not a test: the table's rows are one parked
  row, the states' rows and ``TAIL_CHUNK`` clock rows, a move that lands
  goes to clock row 0, and each step moves a clock row on by one.  Every
  ``TAIL_CHUNK`` steps and at the block's end the hits are read off the
  clock rows, their steps from the rows reached, and the replicas read are
  parked.  The table is built once, one move at a time, from the offsets of
  every state, the draws' decoding into a ball and a shift, and the kind's
  test on offsets below.  Its states are the ``urns**balls`` offset vectors,
  or, for the kinds in ``ROTATION_INVARIANT`` (``diagonal`` and
  ``distinct``, whose sets are unchanged when every ball's urn ``u`` becomes
  ``u+1`` mod ``urns``), the ``urns**(balls-1)`` states up to that
  rotation: ball 0 is pinned at offset 0, the others keep their offsets
  from it, and a move of ball 0 by ``s`` moves every other ball by ``-s``.
  The rotation commutes with every move and fixes the set, so a walk on
  that quotient hits, truncates and stops where the full walk does.
* **Key lockstep**, past ``TAIL_CELLS`` cells on a larger state space: one
  Python iteration per step.  The offsets sit in the smallest unsigned type
  with room for ``2*(urns-1)``, and each replica carries one scalar
  membership key, changed by each move from the ball and its old and new
  offsets.
* **Tail**, at ``TAIL_CELLS`` cells or fewer: ``TAIL_CHUNK`` steps at a
  time.  Each move's shift is scattered into a (step, ball, replica) grid,
  the grid is summed along the steps, one row add per step, and reduced mod
  ``urns``: every ball's offset at every step.  Membership is then tested
  from the whole state in O(balls) work per replica and step, the first
  hit read by ``argmax``, and the chunks stop once every replica has hit.
  The live count never grows, so a walk that enters the tail stays there;
  it reads its offsets off the lockstep replicas' codes or slots, or, when
  its first block is already in the tail, off the start, and then no
  lockstep form is built.

The three ways take the same draws, in the same blocks, charged alike, so
every hit step, truncation and stop step is the same on each.  The tail and
the table hand back each block's hits, the replicas and their steps within
the block, to one bookkeeping; the keys, tested every step, record theirs as
they come.  By kind, the keys, the tail's test and, on every state at once,
the table's:

* Singletons and count slices are Hamming spheres, the states agreeing
  with a center in exactly ``h`` coordinates: ``h = balls`` around ``y``
  for ``singleton:y``, ``h`` around ``(r, ..., r)`` for ``count:h:r``.
  The offsets are taken from the center: the key is the number of zero
  offsets, a hit at ``h``, and the tail counts the zero offsets.
* ``pair:(y);(z)`` takes ``y`` as reference and packs two such counters,
  ``a + (balls+1)*b``: ``a`` balls agree with ``y`` and ``b`` with ``z``.
  A hit is one of the two keys of ``y`` and ``z``; the tail asks whether
  every offset is 0 or every offset is ``z``'s.
* ``diagonal`` and ``distinct`` key on the colliding ball pairs,
  ``sum over urns of C(occupancy, 2)``, kept from per-replica urn
  occupancies: moving a ball from urn ``a`` to urn ``b`` adds
  ``occ[b] - occ[a] + 1``.  The diagonal is the level ``C(balls, 2)``,
  ``distinct`` the level 0.  The tail finds the diagonal where every
  offset equals the first ball's.  For ``distinct`` it gives each urn one
  bit, and the balls' bits add up to their bitwise or exactly when no two
  share an urn (up to 59 urns, where the sum fits 64 bits); with more
  urns it sorts each state's offsets and looks for equal neighbours.
* ``explicit`` sets are encoded as sorted state codes around urn 1, as
  :attr:`~ehrenfest.model.ModelParams.radix` defines them, and the hit test
  is a binary search of the key among them (``urns**balls <= 2**62``); the
  tail computes each state's code from its offsets.

Each step, on any way, is charged its live replicas plus ``STEP_CHARGE``.
Replicas still walking when ``WALK_BUDGET`` is spent are truncated and
excluded from the moment estimates (loudly: a warning is emitted, nothing is
dropped silently).
"""

from __future__ import annotations

import warnings
from typing import NamedTuple, Sequence

import numpy as np

from .model import ModelParams, SetDescriptor, State, _Record, _integer, overlap

#: Moves drawn per block over all live replicas: bounds the block's memory
#: and sets how many steps the sparse tail takes per RNG call.  Part of the
#: reproducibility contract: results are a pure function of (seed, replicas,
#: mode, case) at a fixed block size.
BLOCK_MOVES = 1 << 15

#: Replica-steps a walk may spend, and the fixed charge of each step on top of
#: its live replicas.  Both are part of the reproducibility contract: they set
#: where a walk stops, whichever way its blocks are walked, and are not costs.
#: A walk that spends the budget takes about 2-6 s in lockstep and 1-3 s in
#: the tail on 2 vCPUs.
WALK_BUDGET = 15 * 10**7
STEP_CHARGE = 550

#: A block of at most ``TAIL_CELLS`` cells, live replicas times balls, is walked
#: in the tail, ``TAIL_CHUNK`` steps at a time; a larger one in lockstep.  On 2
#: vCPUs a key lockstep step costs about 10 us plus 4-5 ns per replica, a tail step
#: about 1 us plus 1-5 ns per cell.  At 2048 cells the tail is the faster way on
#: every kind; at M=200 its slowest test, the sorted ``distinct``, stops paying
#: at about 2500 cells.
TAIL_CELLS = 2048
TAIL_CHUNK = 64

#: A walk whose transition table has at most ``TABLE_ENTRIES`` state-move pairs, its states times ``balls*(urns-1)``,
#: steps in lockstep on that table; a larger one on membership keys.  The table's states are ``urns**balls``, or
#: ``urns**(balls-1)`` for a kind in ``ROTATION_INVARIANT``.  On 2 vCPUs, 20000 replicas of a singleton walk, the
#: cheapest keys, table build and draws included, the int32 table takes 0.74-0.75 of the keys' time at about 10**5
#: entries (N=2 M=13, N=3 M=8), 0.86-0.90 at 1.9*10**5 to 2.3*10**5 (N=6 M=5, N=9 M=4, N=2 M=14), 0.90-0.98 at
#: 3.4*10**5 to 4.9*10**5 (N=4 M=7, N=5 M=6, N=2 M=15) and 1.20-1.36 at 10**6 to 1.6*10**6 (N=2 M=16, N=4 M=8),
#: where its 4-6 MB fall out of cache.  The bound stays below that crossover, at about half the even point.
TABLE_ENTRIES = 1 << 18

#: Kinds whose sets are unchanged when every ball's urn ``u`` becomes ``u+1`` mod ``urns``: their table walks
#: step on the states taken up to that rotation.
ROTATION_INVARIANT = frozenset({"diagonal", "distinct"})

#: Most urn slots a walk allocates: replicas times balls, or times max(balls, urns) for occupancies, on keys;
#: one per replica, its code, on a transition table.
MAX_SLOTS = 1 << 26

MODES = ("discrete", "ctmc")


class SimConfig(_Record):
    __slots__ = _fields = ("replicas", "seed", "mode", "grid")

    def __init__(self, replicas: int, seed: int, mode: str = "discrete", grid: tuple[float, ...] = ()):
        # mode is "discrete" or "ctmc"; grid holds the transform arguments, lambda if discrete, u if ctmc
        replicas, seed = _integer(replicas, "replicas"), _integer(seed, "seed")
        if replicas < 1:
            raise ValueError("need at least one replica")
        if not 0 <= seed < 2**128:  # the range of a Philox key
            raise ValueError(f"seed {seed} is outside 0..2**128 - 1")
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self._set(replicas, seed, mode, grid)


class TransformEstimate(NamedTuple):
    argument: float
    estimate: float
    stderr: float


class SimSummary(NamedTuple):
    replicas: int
    truncated: int
    mode: str
    seed: int
    sample_mean: float
    sample_variance: float
    stderr: float
    transforms: tuple[TransformEstimate, ...] = ()
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
    per replica, key of start, key update maker, hit test on keys, hit test on
    offsets)``.

    Ball ``i`` of the replica whose first slot is ``base`` sits at slot
    ``base + i``; ``updates(replicas)`` returns the key update of a walk of
    that many replicas, allocating any per-slot state it keeps, and
    ``update(keys, base, balls, old, new)`` changes the keys in place for a
    move of ball ``balls`` from offset ``old`` to offset ``new``.  The start
    key's type is the keys' type.  The test on offsets takes an array of
    whole states, balls on its first axis, and tests each state.
    """
    n, m = params.urns, params.balls
    states = target.validate(params)
    stride = max(m, n) if target.kind in ("diagonal", "distinct") else m
    slots = 1 if _on_table(params, target) else stride  # a table walk holds one code per replica
    if replicas * slots > MAX_SLOTS:
        raise ValueError(f"the walk needs {replicas * slots} urn slots ({replicas} replicas x {slots}) > {MAX_SLOTS}")
    if target.kind in ("singleton", "count"):  # the states agreeing with a center in exactly level coordinates
        r = target.reference_urn
        center, level = (states[0], m) if target.kind == "singleton" else ((r,) * m, target.count_overlap)

        def update(keys, base, balls, old, new):
            keys += new == 0
            keys -= old == 0

        def contains(grid):
            return np.count_nonzero(grid == 0, axis=0) == level

        key0 = np.array(overlap(start, center), dtype=np.min_scalar_type(-m - 1))
        return center, m, key0, lambda replicas: update, lambda keys: keys == level, contains

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

        def contains(grid):
            return (grid == 0).all(axis=0) | (grid == at_z[:, None, None]).all(axis=0)

        key_y, key_z = key(y), key(z)
        return y, m, key(start), lambda replicas: update, lambda keys: (keys == key_y) | (keys == key_z), contains

    if target.kind in ("diagonal", "distinct"):
        # colliding ball pairs, the sum over urns of C(occupancy, 2), from one count per urn and replica
        row = np.bincount(np.array(start) - 1, minlength=stride)
        most = m * (m - 1) // 2
        level = most if target.kind == "diagonal" else 0

        def updates(replicas):
            occupancy = np.tile(row.astype(np.min_scalar_type(-m - 1)), replicas)

            def update(keys, base, balls, old, new):
                src, dst = base + old, base + new
                leaving, arriving = occupancy[src], occupancy[dst]
                keys += arriving - leaving + 1
                occupancy[src] = leaving - 1
                occupancy[dst] = arriving + 1
            return update

        if target.kind == "diagonal":
            def contains(grid):
                return (grid == grid[0]).all(axis=0)
        elif n * 2 ** (n - 1) < 2**64:
            # one bit per urn: the balls' bits add up to their or exactly when no urn holds two, and
            # m <= n bits below 2**(n-1) add up without wrapping in bit_type
            bit_type = np.min_scalar_type(n * 2 ** (n - 1))

            def contains(grid):
                bits = np.left_shift(1, grid, dtype=bit_type)
                return bits.sum(axis=0, dtype=bit_type) == np.bitwise_or.reduce(bits, axis=0)
        else:
            def contains(grid):
                ranked = np.sort(grid, axis=0)
                return (ranked[1:] != ranked[:-1]).all(axis=0)

        key0 = np.array(row @ (row - 1) // 2, dtype=np.min_scalar_type(-most))
        return (1,) * m, stride, key0, updates, lambda keys: keys == level, contains

    weights = params.radix
    codes = np.sort((states - 1) @ weights)

    def update(keys, base, balls, old, new):
        keys += (new.astype(np.int64) - old) * weights[balls]

    def is_hit(keys):
        return codes[np.minimum(np.searchsorted(codes, keys), codes.size - 1)] == keys

    def contains(grid):
        return is_hit(np.einsum("b,b...->...", weights, grid))

    return (1,) * m, m, (np.array(start) - 1) @ weights, lambda replicas: update, is_hit, contains


def _pinned(target: SetDescriptor) -> int:
    """Balls the walk's transition table pins: 1 up to the rotation of every urn, for a kind in
    ``ROTATION_INVARIANT``, else 0."""
    return int(target.kind in ROTATION_INVARIANT)


def _on_table(params: ModelParams, target: SetDescriptor) -> bool:
    """Whether a walk on ``params`` into ``target`` steps on a transition table: at most ``TABLE_ENTRIES``
    state-move pairs in the table it builds, ``urns**(balls - pinned) * balls*(urns-1)``."""
    n, m = params.urns, params.balls
    return n ** (m - _pinned(target)) * m * (n - 1) <= TABLE_ENTRIES


def _walk(params: ModelParams, start: State, target: SetDescriptor, cfg: SimConfig):
    """Walk every replica to absorption or the end of the budget, in lockstep.

    One block loop serves both lockstep forms, on a transition table or on
    membership keys, and the tail; a lockstep form is only its block walk,
    its compaction and its hand-off to the tail (see the module docstring).
    A walk whose first block is in the tail, a start inside the target
    among them, builds neither form.
    The table and the tail return each block's hits, the live replicas that
    hit as indices and their steps within the block counted from 1, and one
    bookkeeping records them, sets the stop step and compacts the live
    replicas.  The key form tests every step and records its hits as they
    come, which spares its blocks a pass over the live replicas.

    Returns the steps to absorption (0 if truncated), the truncated mask, the
    step the walk stopped at and the walk's one generator, positioned after it.
    """
    n, m = params.urns, params.balls
    reference, stride, key0, updates, is_hit, contains = _membership(params, start, target, cfg.replicas)
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    moves = m * (n - 1)
    offsets = ((np.array(start) - np.array(reference)) % n).astype(np.min_scalar_type(2 * n - 2))
    steps = np.zeros(cfg.replicas, dtype=np.int64)
    # the live replicas; replicas starting inside the target keep 0 steps
    live = np.arange(cfg.replicas) if not is_hit(key0) else np.arange(0)
    # the live replicas' offsets, one row per ball, once the walk is in its tail, here from its first block on
    lanes = np.repeat(offsets[:, None], live.size, axis=1) if live.size * m <= TAIL_CELLS else None
    on_table = lanes is None and _on_table(params, target)
    if on_table:
        lockstep, keep, lanes_of = _table_form(n, m, offsets, live.size, contains, _pinned(target))
    elif lanes is None:
        lockstep, keep, lanes_of = _key_form(n, m, offsets, live.size, stride, key0, updates, is_hit)

    draw_type = np.min_scalar_type(moves - 1)
    t = spent = 0  # every live replica has taken exactly t steps, and the walk has spent this much budget
    while live.size and (affordable := (WALK_BUDGET - spent) // (live.size + STEP_CHARGE)):
        span = min(max(1, BLOCK_MOVES // live.size), affordable)
        spent += span * (live.size + STEP_CHARGE)
        block = rng.integers(0, moves, size=(span, live.size), dtype=draw_type)
        if live.size * m <= TAIL_CELLS:  # the live count never grows: once in the tail, the walk stays there
            if lanes is None:
                lanes = lanes_of()
                del lockstep, keep, lanes_of  # the walk stays in the tail: its table or slots are freed
            lanes, hit, at = _tail_block(lanes, *_decode(block, n), n, contains)
        elif on_table:
            hit, at = lockstep(block)
        else:  # the key form records its hits step by step: gathering them per block costs its walks 5-7%
            t, alive = lockstep(block, steps, live, t)
            if alive is not None:
                live = live[alive]
                keep(alive)
            continue
        if hit.size:
            at += t
            steps[live[hit]] = at
            alive = np.ones(live.size, dtype=bool)
            alive[hit] = False
            live = live[alive]
            if lanes is None:
                keep(alive)
            else:
                lanes = lanes[:, alive]
        t = t + span if live.size else int(at.max())  # a walk stops at its last hit

    truncated = np.zeros(cfg.replicas, dtype=bool)
    truncated[live] = True
    return steps, truncated, t, rng


def _decode(draws, n):
    """The balls that ``draws`` move and their shifts: draw ``r`` moves ball
    ``r // (n-1)`` forward by ``1 + r % (n-1)`` urns."""
    spread = np.array(n - 1, dtype=np.min_scalar_type(n - 1))  # with one ball, n - 1 may not fit the draws' type
    balls = draws // spread  # np.divmod is slower than the two passes
    shifts = draws - balls * spread
    shifts += 1
    return balls, shifts


def _transition_table(n, m, contains, pinned):
    """The transition table of a walk on ``n`` urns and ``m`` balls, taken up
    to the rotation of every urn if ``pinned`` is 1: ``(table, every state's
    offsets, place values)``.

    The table has ``R = m*(n-1)`` int32 entries per row, and each entry is
    the code of a row, the row's index times ``R``: a replica at code ``c``
    moved by draw ``r`` goes to ``table[c + r]``.  Row 0 is the parked row,
    which every move maps back to itself.  Rows 1 to ``n**(m-pinned)`` are
    the states, the state with offsets ``d`` at row ``1 + d @ place``.  Up to
    the rotation, ball 0 is pinned at offset 0 with place value 0, and a move
    of ball 0 by ``s`` moves every other ball by ``-s`` instead.  Then come
    ``TAIL_CHUNK`` clock rows: a move that lands in the target goes to clock
    row 0, every move from clock row ``j`` to clock row ``j + 1``, and the
    last clock row maps to itself.  So a replica read in clock row ``j``
    after step ``c``, at most ``TAIL_CHUNK`` steps after it landed, landed at
    step ``c - j``.  The rows are written one move at a time, each move's
    column from one pass over the states.
    """
    moves, free = m * (n - 1), m - pinned
    digit_type = np.min_scalar_type(2 * n - 2)
    digits = np.zeros((m, n**free), dtype=digit_type)  # every state's offsets
    digits[pinned:] = np.indices((n,) * free, dtype=digit_type).reshape(free, -1)
    place = np.zeros(m, dtype=np.intp)
    place[pinned:] = n ** np.arange(free - 1, -1, -1)
    landed = np.concatenate(([False], contains(digits[:, None, :])[0]))  # by row
    clock = landed.size  # the first clock row
    first = np.arange(1, clock)  # the states' rows
    rows = np.empty((clock + TAIL_CHUNK, moves), dtype=np.int32)
    rows[0] = 0
    for move, (ball, shift) in enumerate(zip(*(part.tolist() for part in _decode(np.arange(moves), n)))):
        # the row each state moves to, in one intp array of one entry per state; old + shift and
        # old + n - shift fit digit_type
        if ball < pinned:  # every other ball moves by -shift
            to = np.ones(first.size, dtype=np.intp)
            for other in range(pinned, m):
                to += (digits[other] + (n - shift)) % n * place[other]
        else:
            to = ((digits[ball] + shift) % n).astype(np.intp)
            to -= digits[ball]
            to *= place[ball]
            to += first
        to[landed[to]] = clock
        to *= moves
        rows[1:clock, move] = to
    rows[clock:] = np.minimum(np.arange(clock + 1, clock + TAIL_CHUNK + 1), clock + TAIL_CHUNK - 1)[:, None] * moves
    return rows.ravel(), digits, place


def _table_form(n, m, offsets, replicas, contains, pinned):
    """The lockstep form on a transition table, for a small state space:
    ``(block walk, compaction, lanes)``.

    Each replica carries its row's code in the table of
    :func:`_transition_table`, an int32, and a step is ``code += draw`` and
    one gather of the table at ``code``, into a second buffer.  The hits are
    read every ``TAIL_CHUNK`` steps and at the block's end off the clock
    rows, and the replicas read are parked; the block walk stops once every
    replica is.
    """
    moves = m * (n - 1)
    table, digits, place = _transition_table(n, m, contains, pinned)
    clock = (1 + digits.shape[1]) * moves  # the first clock row's code
    if pinned:  # up to the rotation: every ball's offset from ball 0
        offsets = (offsets.astype(np.intp) - offsets[0]) % n
    code = np.full(replicas, (1 + offsets @ place) * moves, dtype=np.int32)
    spare = np.empty_like(code)

    def lockstep(block):
        nonlocal code, spare
        found = []
        parked = 0
        for first in range(0, block.shape[0], TAIL_CHUNK):
            chunk = block[first:first + TAIL_CHUNK].astype(np.int32)
            for move in chunk:
                code += move
                np.take(table, code, out=spare, mode="clip")
                code, spare = spare, code
            hit = np.flatnonzero(code >= clock)
            if hit.size:
                # after the chunk's c steps, clock row j landed at the chunk's step c - j
                at = code[hit]
                at //= moves
                found.append((hit, np.subtract(first + chunk.shape[0] + clock // moves, at, out=at)))
                parked += hit.size
                if parked == code.size:
                    break
                code[hit] = 0
        if not found:
            return np.arange(0), np.arange(0)
        hit, at = zip(*found)
        return (hit[0], at[0]) if len(found) == 1 else (np.concatenate(hit), np.concatenate(at))

    def keep(alive):
        nonlocal code, spare
        code = code[alive]
        spare = spare[:code.size]

    return lockstep, keep, lambda: digits[:, code // moves - 1]


def _key_form(n, m, offsets, replicas, stride, key0, updates, is_hit):
    """The lockstep form on membership keys, for any state space: ``(block
    walk, compaction, lanes)``.

    Each replica carries its balls' offsets, ``stride`` slots from its first,
    and one membership key, changed by each move from the ball and its old
    and new offsets.  The block walk tests the keys after every step and
    records each hit in ``steps`` as it comes; a replica that hits keeps
    moving, masked out of the test, until the block ends, and the block walk
    stops once every replica has hit.  It returns the step it stopped at and
    the mask of the replicas still walking, or None if none hit.
    """
    # offsets leave room for old + shift, up to 2*(urns-1), before the wrap
    row = np.zeros(stride, dtype=np.min_scalar_type(2 * n - 2))
    row[:m] = offsets
    positions = np.tile(row, replicas)
    base = np.arange(0, replicas * stride, stride)  # each live replica's first slot
    keys = np.full(replicas, key0)
    update = updates(replicas)

    def lockstep(block, steps, live, t):
        alive = np.ones(live.size, dtype=bool)
        dead = 0
        for balls, shifts in zip(*_decode(block, n)):
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
                steps[live[hit]] = t
                alive ^= hit
                dead += np.count_nonzero(hit)
                if dead == live.size:
                    break
        return t, alive if dead else None

    def keep(alive):
        nonlocal base, keys
        base, keys = base[alive], keys[alive]

    return lockstep, keep, lambda: positions[base + np.arange(m)[:, None]]


def _tail_block(lanes, balls_ahead, shifts_ahead, n, contains):
    """Walk one block of the sparse tail ``TAIL_CHUNK`` steps at a time.

    ``lanes`` holds the live replicas' offsets, one row per ball.  Returns
    the offsets at the block's end, the replicas that hit, and each one's
    first hit as a step of the block counted from 1.  Chunks stop once every
    replica has hit.
    """
    span, live = balls_ahead.shape
    m = lanes.shape[0]
    # A chunk is a grid of cells (step, ball, replica), one step after another in memory so that its
    # running sums along the steps take one row add per step.  Within a step the longer of the ball and
    # replica axes is contiguous, since membership reduces over the balls of each step and replica.
    if live >= m:
        ball_stride, replica_stride, step_shape, to_balls_first = live, 1, (m, live), (1, 0, 2)
    else:
        ball_stride, replica_stride, step_shape, to_balls_first = 1, m, (live, m), (2, 0, 1)
    corner = np.arange(0, TAIL_CHUNK * m * live, m * live)[:, None] + np.arange(live) * replica_stride
    # a chunk's running sums reach its start offset plus TAIL_CHUNK shifts, each at most n - 1
    grid_type = np.min_scalar_type((TAIL_CHUNK + 1) * (n - 1))
    hit_at = np.zeros(live, dtype=np.int64)
    alive = np.ones(live, dtype=bool)
    replica = np.arange(live)
    for first in range(0, span, TAIL_CHUNK):
        size = min(TAIL_CHUNK, span - first)
        rows = np.zeros((size, m * live), dtype=grid_type)
        cell = balls_ahead[first:first + size].astype(np.intp)
        cell *= ball_stride
        cell += corner[:size]
        rows.reshape(-1)[cell] = shifts_ahead[first:first + size]
        grid = rows.reshape(size, *step_shape).transpose(to_balls_first)  # the same cells as (ball, step, replica)
        grid[:, 0] += lanes
        for step in range(1, size):
            rows[step] += rows[step - 1]
        rows -= rows // n * n
        hit = contains(grid)
        hit &= alive
        when = hit.argmax(axis=0)
        now = hit[when, replica]
        hit_at[now] = first + 1 + when[now]
        alive &= ~now
        lanes = grid[:, -1]
        if not alive.any():
            break
    hit = np.flatnonzero(hit_at)
    return lanes, hit, hit_at[hit]


def _sample(params, start, target, cfg: SimConfig, modes: Sequence[str]) -> dict[str, SimSummary]:
    """One walk under ``cfg``, summarised in each of ``modes`` in turn."""
    start = params.check_state(start)
    steps, truncated, stop, rng = _walk(params, start, target, cfg)
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
            samples = rng.standard_gamma(steps) / params.balls
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
    ``sample_hitting(params, start, target, SimConfig(cfg.replicas, cfg.seed, mode, cfg.grid))``."""
    return _sample(params, start, target, cfg, MODES)
