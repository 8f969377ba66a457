"""The four workloads: fixed size menus, seeded instances, output checks.

A menu entry fixes everything that sets the cost of a request: the command,
the chain size, the target family and its size, the overlap structure of
the start state, the moment order and the transform grids.  The workload
seed only picks the concrete states, urn labels, permutations and request
order, so every seed does comparable work.  Each request carries a check
that reads the CLI's JSON report and compares it with a route other than
the one the request timed (see :mod:`checks`).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable

from ehrenfest import closedforms, hitting
from ehrenfest.exact import expm1_rational, format_significant
from ehrenfest.model import ModelParams, ProductPermutation, SetDescriptor, symmetry_defect

import checks
from checks import CheckFailed, expect_close, expect_equal, rational

DEEP_GRIDS = {"u": "1/2,1,2", "lambda": "0.01,0.5"}
MC_REPLICAS = 20_000

# Order times M*log10(N) stays below ~300: the CLI renders every raw moment
# as a float, so larger moments would not fit.
MENUS: dict[str, list[dict]] = {
    # |A| from 240 to 1024; building the query is almost all of each request.
    "exact-wide": [
        {"cmd": "exact", "set": "count", "N": 3, "M": 8, "h": 1},
        {"cmd": "exact", "set": "count", "N": 4, "M": 5, "h": 1},
        {"cmd": "exact", "set": "count", "N": 4, "M": 5, "h": 2},
        {"cmd": "exact", "set": "count", "N": 3, "M": 7, "h": 4},
        {"cmd": "exact", "set": "count", "N": 3, "M": 6, "h": 2},
        {"cmd": "exact", "set": "count", "N": 3, "M": 8, "h": 0},
        {"cmd": "exact", "set": "distinct", "N": 6, "M": 6},
        {"cmd": "exact", "set": "count", "N": 3, "M": 7, "h": 3, "permuted": True},
    ],
    # Tiny targets at large M: kernel sums and jets on huge rationals.
    "exact-deep": [
        {"cmd": "exact", "set": "singleton", "N": 3, "M": 40, "k": 13, "order": 8, **DEEP_GRIDS},
        {"cmd": "exact", "set": "singleton", "N": 3, "M": 100, "k": 30, "order": 4, **DEEP_GRIDS},
        {"cmd": "exact", "set": "singleton", "N": 4, "M": 40, "k": 10, "order": 5, **DEEP_GRIDS},
        {"cmd": "exact", "set": "pair", "N": 3, "M": 60, "d": 20, "a": 20, "b": (6, 6), "order": 4, **DEEP_GRIDS},
        {"cmd": "exact", "set": "pair", "N": 5, "M": 30, "d": 12, "a": 6, "b": (2, 4), "order": 6, **DEEP_GRIDS},
        {"cmd": "exact", "set": "diagonal", "N": 3, "M": 50, "occ": (25, 15, 10), "order": 4, **DEEP_GRIDS},
        {"cmd": "exact", "set": "diagonal", "N": 4, "M": 30, "occ": (10, 10, 6, 4), "order": 5, **DEEP_GRIDS},
        {"cmd": "identities"},
        {"cmd": "network-check", "N": 4, "M": 20},
    ],
    # Exact oracle solves at S = N**M of 64 and 128, plus small compares.  One
    # lambda point, dyadic: the oracle eliminates with the rational image of
    # e**lambda, and at lambda = 0.1 a single S=81 request takes over 30 s.
    "verify": [
        {"cmd": "oracle", "set": "singleton", "N": 4, "M": 3, "k": 1, "order": 4, "u": "1"},
        {"cmd": "oracle", "set": "count", "N": 2, "M": 7, "h": 3, "k": 6, "order": 2, "u": "1"},
        {"cmd": "oracle", "set": "count", "N": 2, "M": 6, "h": 3, "k": 0, "order": 3, "u": "1", "lambda": "0.5"},
        {"cmd": "oracle", "set": "diagonal", "N": 3, "M": 4, "occ": (2, 1, 1), "order": 2, "u": "1/2,2"},
        {"cmd": "oracle", "set": "pair", "N": 3, "M": 4, "d": 2, "a": 1, "b": (1, 0), "order": 2},
        {"cmd": "oracle", "set": "distinct", "N": 4, "M": 3, "occ": (2, 1), "order": 2},
        {"cmd": "oracle", "set": "random", "N": 4, "M": 3, "size": 5, "order": 2, "u": "1"},
        {"cmd": "oracle", "set": "random", "N": 2, "M": 6, "size": 4, "order": 2, "u": "2"},
        {"cmd": "compare", "set": "count", "N": 3, "M": 4, "h": 2, "k": 0},
        {"cmd": "compare", "set": "diagonal", "N": 2, "M": 6, "occ": (3, 3)},
    ],
    # Monte Carlo only: both membership paths, both modes, 20k replicas each.
    # Singleton, pair and diagonal sit at N=3 M=5 (means of 140-290 steps):
    # at M=6 one request runs 1-3 s, too long to time steadily on a shared box.
    "simulate": [
        {"cmd": "simulate", "set": "singleton", "N": 3, "M": 5, "k": 2, "mode": "discrete"},
        {"cmd": "simulate", "set": "pair", "N": 3, "M": 5, "d": 2, "a": 1, "b": (1, 0), "mode": "discrete"},
        {"cmd": "simulate", "set": "count", "N": 2, "M": 10, "h": 8, "k": 2, "mode": "discrete"},
        {"cmd": "simulate", "set": "count", "N": 3, "M": 6, "h": 3, "k": 0, "mode": "discrete"},
        {"cmd": "simulate", "set": "diagonal", "N": 3, "M": 5, "occ": (2, 2, 1), "mode": "ctmc"},
        {"cmd": "simulate", "set": "distinct", "N": 6, "M": 6, "occ": (3, 2, 1), "mode": "ctmc"},
        {"cmd": "simulate", "set": "count", "N": 4, "M": 5, "h": 4, "k": 0, "mode": "ctmc"},
        {"cmd": "simulate", "set": "count", "N": 4, "M": 5, "h": 2, "k": 0, "mode": "ctmc"},
        {"cmd": "simulate", "set": "count", "N": 2, "M": 10, "h": 6, "k": 1, "mode": "ctmc"},
    ],
}

#: Rough seconds per pass over the list on a shared 2-core box; sets the pass count.
NOMINAL_PASS_S = {"exact-wide": 3.0, "exact-deep": 3.0, "verify": 3.0, "simulate": 1.6}


@dataclass
class Request:
    argv: list[str]
    label: str
    check: Callable[[int, dict], None]
    mc_work: dict[str, float] = field(default_factory=dict)  # mode -> E[replica-steps]
    verified_output: str | None = None


def passes_for(workload: str, seconds: float) -> int:
    return max(3, round(seconds / NOMINAL_PASS_S[workload]))


# ---------------------------------------------------------------------------
# seeded states with a fixed overlap structure


def _other(rng, n, *avoid):
    return rng.choice([u for u in range(1, n + 1) if u not in avoid])


def _random_state(rng, n, m):
    return tuple(rng.randint(1, n) for _ in range(m))


def _with_overlap(rng, n, y, k):
    """A state agreeing with ``y`` in exactly ``k`` random positions."""
    pos = list(range(len(y)))
    rng.shuffle(pos)
    keep = set(pos[:k])
    return tuple(c if i in keep else _other(rng, n, c) for i, c in enumerate(y))


def _with_occupancy(rng, n, occ):
    urns = list(range(1, n + 1))
    rng.shuffle(urns)
    balls = [u for u, c in zip(urns, occ) for _ in range(c)]
    rng.shuffle(balls)
    return tuple(balls)


def _with_level(rng, n, m, ref, k):
    balls = [ref] * k + [_other(rng, n, ref) for _ in range(m - k)]
    rng.shuffle(balls)
    return tuple(balls)


def _pair(rng, n, m, d, a, b):
    """Pair ``(y, z)`` differing in ``d`` places and a start ``x`` with
    ``a`` agreements where they agree and ``b = (with y, with z)`` agreements
    where they differ."""
    y = _random_state(rng, n, m)
    pos = list(range(m))
    rng.shuffle(pos)
    diff, same = pos[:d], pos[d:]
    z = list(y)
    for i in diff:
        z[i] = _other(rng, n, y[i])
    x = list(y)
    for j, i in enumerate(same):
        x[i] = y[i] if j < a else _other(rng, n, y[i])
    for j, i in enumerate(diff):
        x[i] = y[i] if j < b[0] else z[i] if j < b[0] + b[1] else _other(rng, n, y[i], z[i])
    return tuple(x), y, tuple(z)


def _key(state):
    return ",".join(map(str, state))


def _grid_args(e):
    return [arg for flag in ("u", "lambda") if flag in e for arg in (f"--{flag}", e[flag])]


# ---------------------------------------------------------------------------
# checks shared by the engine and oracle reports


def _check_summary(results, order, expected_moments=None):
    """Internal consistency, plus exact moments when an independent route gave them."""
    moments = [rational(v) for v in results["raw_moments"]]
    expect_equal("moment count", len(moments), order)
    mean, var = rational(results["mean"]), rational(results["variance"])
    expect_equal("mean vs first moment", mean, moments[0])
    if order >= 2:
        expect_equal("variance vs moments", var, moments[1] - moments[0] ** 2)
    if var < 0 or any(v < 0 for v in moments):
        raise CheckFailed("negative moment or variance")
    if expected_moments is not None:
        expect_equal("raw moments", moments, list(expected_moments[:order]))
    us = [rational(s["value"]) for s in results["u_samples"]]
    lams = [s["float"] for s in results["lambda_samples"]]
    for seq in (us, lams):
        if any(not 0 <= v <= 1 for v in seq) or any(b > a for a, b in zip(seq, seq[1:])):
            raise CheckFailed(f"transform samples not in [0, 1] and decreasing: {seq}")


def _z_of_u(m, u_text):
    u = Fraction(u_text)
    return Fraction(m) / (u + m)


def _z_of_lambda(m, lam, digits=20):
    # the same rational approximation of m*(e**lam - 1) the CLI evaluates at
    u = m * expm1_rational(Fraction(lam), Fraction(1, 10 ** (digits + 6)))
    return Fraction(m) / (u + m)


def _check_transforms_exact(results, m, value_at_z):
    for s in results["u_samples"]:
        expect_equal(f"transform at u={s['u']}", rational(s["value"]), value_at_z(_z_of_u(m, s["u"])))
    for s in results["lambda_samples"]:
        want = format_significant(value_at_z(_z_of_lambda(m, s["lambda"])), 20)
        expect_equal(f"transform at lambda={s['lambda']}", s["decimal"], want)


def _check_lumped(results, order, m, chain, level):
    _check_summary(results, order, chain.moments(level, max(order, 2)))
    _check_transforms_exact(results, m, lambda z: chain.pgf(level, z))


# ---------------------------------------------------------------------------
# request builders, one per command


class Builder:
    """Turns menu entries into requests for one workload run."""

    def __init__(self, rng: random.Random, inputs: Path):
        self.rng = rng
        self.inputs = inputs
        self.files = 0

    def _write_set(self, states) -> str:
        self.files += 1
        path = self.inputs / f"set{self.files}.json"
        path.write_text(json.dumps([list(s) for s in states]))
        return f"explicit:@{path}"

    def target(self, e):
        """(start state, CLI set text, descriptor) for one menu entry."""
        rng, n, m = self.rng, e["N"], e["M"]
        kind = e["set"]
        if kind == "singleton":
            y = _random_state(rng, n, m)
            x = _with_overlap(rng, n, y, e["k"])
            return x, "singleton:" + _key(y), SetDescriptor.singleton(y)
        if kind == "pair":
            x, y, z = _pair(rng, n, m, e["d"], e["a"], e["b"])
            return x, f"pair:({_key(y)});({_key(z)})", SetDescriptor.pair(y, z)
        if kind == "diagonal":
            return _with_occupancy(rng, n, e["occ"]), "diagonal", SetDescriptor.diagonal()
        if kind == "count":
            ref = rng.randint(1, n)
            x = _with_level(rng, n, m, ref, e["k"]) if "k" in e else _random_state(rng, n, m)
            return x, f"count:{e['h']}:{ref}", SetDescriptor.count(e["h"], ref)
        if kind == "distinct":
            x = _with_occupancy(rng, n, e["occ"]) if "occ" in e else _random_state(rng, n, m)
            return x, "distinct", SetDescriptor.distinct()
        if kind == "random":  # an explicit set that is not overlap-symmetric
            states = list(product(range(1, n + 1), repeat=m))
            chosen = sorted(rng.sample(states, e["size"]))
            while symmetry_defect(chosen) is None:
                chosen = sorted(rng.sample(states, e["size"]))
            x = _random_state(rng, n, m)
            while x in chosen:
                x = _random_state(rng, n, m)
            return x, self._write_set(chosen), SetDescriptor.explicit(chosen)
        raise ValueError(f"unknown set kind {kind!r}")

    # -- exact -------------------------------------------------------------

    def exact(self, e) -> Request:
        n, m, order = e["N"], e["M"], e.get("order", 2)
        params = ModelParams(n, m)
        x, set_text, desc = self.target(e)
        lumped_start = x
        if e.get("permuted"):
            perm = ProductPermutation.random(params, self.rng)
            set_text = self._write_set(perm.apply_set(desc.materialize(params)))
            x = perm.apply_state(lumped_start)
        argv = ["exact", "--N", str(n), "--M", str(m), "--start", _key(x), "--set", set_text,
                "--order", str(order), *_grid_args(e)]
        kind = e["set"]

        def check(rc, report):
            expect_equal("exit code", rc, 0)
            res = report["results"]
            if kind in ("singleton", "count"):
                ref = desc.reference_urn if kind == "count" else None
                chain = checks.count_chain(n, m, m if kind == "singleton" else desc.count_overlap)
                level = (sum(1 for c in lumped_start if c == ref) if kind == "count"
                         else sum(1 for a, b in zip(lumped_start, desc.states[0]) if a == b))
                _check_lumped(res, order, m, chain, level)
            elif kind == "distinct":
                chain = checks.distinct_chain(n, m)
                _check_lumped(res, order, m, chain, checks.occupancy(lumped_start, n))
            elif kind == "pair":
                _check_summary(res, order)
                y, z = desc.states
                want = closedforms.two_point_stats_for(params, x, y, z).mean
                expect_equal("pair mean vs closed form", rational(res["mean"]), want)
            elif kind == "diagonal":
                _check_summary(res, order)
                want = closedforms.same_urn_stats(params, x).mean
                expect_equal("diagonal mean vs closed form", rational(res["mean"]), want)

        return Request(argv, f"exact {kind} N={n} M={m}", check)

    # -- oracle ------------------------------------------------------------

    def oracle(self, e) -> Request:
        n, m, order = e["N"], e["M"], e["order"]
        params = ModelParams(n, m)
        x, set_text, desc = self.target(e)
        argv = ["oracle", "--N", str(n), "--M", str(m), "--start", _key(x), "--set", set_text,
                "--order", str(order), *_grid_args(e)]
        targets = desc.materialize(params)
        kind = e["set"]

        def check(rc, report):
            expect_equal("exit code", rc, 0)
            res = report["results"]
            floats = checks.FloatChain(n, m, targets)
            _check_summary(res, order)
            for r, (got, want) in enumerate(zip(res["raw_moments"], floats.moments(x, order)), 1):
                expect_close(f"moment {r} vs float oracle", got["float"], want)
            for s in res["u_samples"]:
                z = float(_z_of_u(m, s["u"]))
                expect_close(f"transform u={s['u']} vs float oracle", s["value"]["float"], floats.pgf(x, z))
            for s in res["lambda_samples"]:
                expect_close(f"transform lambda={s['lambda']} vs float oracle", s["float"],
                             floats.pgf(x, math.exp(-s["lambda"])))
            exits = res["exit_distribution"]
            expect_equal("exit keys", list(exits), [_key(t) for t in targets])
            for t, want in zip(targets, floats.exits(x)):
                expect_close(f"exit to {_key(t)} vs float oracle", exits[_key(t)]["float"], want)
            if kind == "random":
                return
            query = hitting.HittingQuery(params, x, desc)
            expect_equal("moments vs engine", [rational(v) for v in res["raw_moments"]],
                         hitting.raw_moments(query, order))
            _check_transforms_exact(res, m, lambda z: hitting.laplace_u(query, m / z - m))
            if kind == "pair":
                y, z = desc.states
                first = closedforms.two_point_stats_for(params, x, y, z).exit_prob_first
                expect_equal("pair exit vs closed form", rational(exits[_key(y)]), first)
            elif kind == "diagonal":
                probs = closedforms.same_urn_stats(params, x).exit_probs
                got = [rational(exits[_key((i,) * m)]) for i in range(1, n + 1)]
                expect_equal("diagonal exits vs closed form", got, list(probs))

        return Request(argv, f"oracle {kind} N={n} M={m}", check)

    # -- compare -----------------------------------------------------------

    def compare(self, e) -> Request:
        n, m = e["N"], e["M"]
        params = ModelParams(n, m)
        x, set_text, desc = self.target(e)
        argv = ["compare", "--N", str(n), "--M", str(m), "--start", _key(x), "--set", set_text,
                "--seed", str(self.rng.randrange(2**31))]
        steps = hitting.mean(hitting.HittingQuery(params, x, desc))
        targets = desc.materialize(params)

        def check(rc, report):
            expect_equal("exit code", rc, 0)
            res = report["results"]
            if not all(v["pass"] for v in report["verdicts"]):
                raise CheckFailed("a compare verdict failed")
            expect_equal("exact vs oracle mean", rational(res["exact"]["mean"]), rational(res["oracle"]["mean"]))
            want = checks.FloatChain(n, m, targets).moments(x, 1)[0]
            expect_close("mean vs float oracle", res["oracle"]["mean"]["float"], want)

        work = {mode: float(steps) * MC_REPLICAS for mode in ("discrete", "ctmc")}
        return Request(argv, f"compare {e['set']} N={n} M={m}", check, work)

    # -- simulate ----------------------------------------------------------

    def simulate(self, e) -> Request:
        n, m, mode = e["N"], e["M"], e["mode"]
        params = ModelParams(n, m)
        x, set_text, desc = self.target(e)
        steps = hitting.mean(hitting.HittingQuery(params, x, desc))
        want = float(steps) if mode == "discrete" else float(steps) / m

        def check(rc, report):
            expect_equal("exit code", rc, 0)
            res = report["results"]
            if abs(res["sample_mean"] - want) > 4 * res["stderr"]:
                raise CheckFailed(
                    f"MC mean {res['sample_mean']} is more than 4 stderr ({res['stderr']}) from {want}"
                )

        argv = ["simulate", "--N", str(n), "--M", str(m), "--start", _key(x), "--set", set_text,
                "--replicas", str(MC_REPLICAS), "--mode", mode, "--seed", str(self.rng.randrange(2**31))]
        return Request(argv, f"simulate {e['set']} {mode} N={n} M={m}", check,
                       {mode: float(steps) * MC_REPLICAS})

    # -- identity sweeps ---------------------------------------------------

    def identities(self, e) -> Request:
        def check(rc, report):
            expect_equal("exit code", rc, 0)
            # one per (urns, balls) at the defaults 2..6 x 1..8, plus three quadrature cases
            expect_equal("identity checks", report["results"]["checks"], 5 * 8 + 3)
            expect_equal("identity failures", report["results"]["failures"], 0)

        return Request(["identities"], "identities", check)

    def network_check(self, e) -> Request:
        n, m = e["N"], e["M"]

        def check(rc, report):
            expect_equal("exit code", rc, 0)
            up, down = checks.passage_means(n, m)
            verdicts = report["verdicts"]
            expect_equal("pairs", len(verdicts), m * (m + 1) // 2)
            for v in verdicts:
                h, k = (int(t) for t in v["name"][len("commute_h"):].split("_k"))
                want = sum(up[h:k], Fraction(0)) + sum(down[h:k], Fraction(0))
                expect_equal(f"commute time h={h} k={k}", Fraction(v["detail"]["lhs"]), want)
                expect_equal(f"commute identity h={h} k={k}", v["pass"], True)

        return Request(["network-check", "--N", str(n), "--M", str(m)], f"network-check N={n} M={m}", check)


def build(workload: str, seed: int, inputs: Path, menu=None) -> list[Request]:
    """The run's request list, one request per menu entry, generated before timing."""
    rng = random.Random(f"{workload}:{seed}")
    builder = Builder(rng, inputs)
    methods = {"exact": builder.exact, "oracle": builder.oracle, "compare": builder.compare,
               "simulate": builder.simulate, "identities": builder.identities,
               "network-check": builder.network_check}
    return [methods[e["cmd"]](e) for e in (MENUS[workload] if menu is None else menu)]
