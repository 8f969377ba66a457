"""Command-line interface.

Subcommands::

    exact          engine statistics for a symmetric target set
    oracle         linear-algebra ground truth (any target set, bounded work)
    simulate       Monte Carlo sampling, discrete or continuous-time
    compare        run exact vs oracle vs Monte Carlo and render verdicts
    identities     exact identity suite + quadrature cross-check
    network-check  commute-time identity sweep on the count chain

All reports share the shape ``{request, results, verdicts?, timing?}``, with
rational values as canonical strings plus float renderings (None past the
float range); :func:`main` writes each ``request``, a ``cmd_*`` the rest.
``--format csv`` flattens the same report: one line per verdict, its detail
values in their columns, and one line per other value, named by its dotted
path.  Exit codes: 0 success, 2 usage error, 3 target set not
overlap-symmetric, 4 oracle work bound (``MAX_MOVES`` or ``MAX_BLOCKS``)
exceeded, 5 verdict failure.

One import rule serves the three routes: each one's modules are imported
inside the functions that run it.  So ``oracle`` and ``simulate`` load no
engine module, and ``exact`` on a symbolic set, ``network-check`` and
``identities`` neither the oracle nor the Monte Carlo, nor numpy with them.
``csv`` is imported by the CSV writer alone.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import re
import sys
import time
from fractions import Fraction
from functools import cache, partial

from .exact import ROUND_TRIP_DIGITS, format_rational, format_significant, lambda_to_u
from .model import CapExceededError, HittingSummary, ModelParams, SetNotSymmetricError, parse_set

USAGE_ERROR = 2
NOT_SYMMETRIC = 3
CAP_EXCEEDED = 4
VERDICT_FAILURE = 5


def _rat(value: Fraction) -> dict:
    """A rational as its ``p/q`` string and its float, or None past the float range."""
    try:
        approx = float(value)
    except OverflowError:
        approx = None
    return {"rational": format_rational(value), "float": approx}


def _parse_start(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise ValueError(f"--start must be comma-separated urn indices such as 1,2,1, got {text!r}") from None


# e**700 is still a float
LAMBDA_MAX = 700


def _parse_lambda_grid(text: str) -> tuple[float, ...]:
    try:
        grid = tuple(float(v) for v in text.split(",")) if text else ()
    except ValueError:
        raise ValueError(f"--lambda values must be numbers such as 0.5, got {text!r}") from None
    if not all(0 <= lam <= LAMBDA_MAX for lam in grid):
        raise ValueError(f"--lambda values must lie in [0, {LAMBDA_MAX}], got {text!r}")
    return grid


def _parse_u_grid(text: str) -> tuple[Fraction, ...]:
    try:
        grid = tuple(Fraction(v) for v in text.split(",")) if text else ()
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--u values must be rationals such as 1/2 or 3, got {text!r}") from None
    if not all(u > 0 for u in grid):
        raise ValueError(f"--u must be positive, got {text!r}")
    return grid


#: (argument, flag, least, greatest value) of the integer flags checked before any command runs
_INT_BOUNDS = (
    # at N=10**5, M=200: exact in under 1 s, network-check 7 s; writing the diagonal's exit law, each distinct
    # probability rendered once, takes 5.5-7.2 s from all ones and 7.7-10.0 s from a random start as a whole
    # process, too close to 10 s until its report is bounded (ROADMAP item 6)
    ("urns", "--N", 2, 10**5),
    ("balls", "--M", 1, 200),
    ("order", "--order", 1, 32),
    ("digits", "--digits", 1, 1000),
    ("replicas", "--replicas", 2, 10**7),  # one sample has no variance, so no standard error
    ("max_urns", "--max-urns", 2, 16),
    ("max_balls", "--max-balls", 1, 24),
    ("seed", "--seed", 0, 2**64),
)


#: compare's least --replicas: with fewer, its mc_mean verdicts (within 4 standard errors) fail correct code
_COMPARE_MIN_REPLICAS = 100

#: (argument, flag) of the text flags that hold integers
_TEXT_FLAGS = (("start", "--start"), ("set_text", "--set"), ("u_grid", "--u"))

#: a --u value in decimal or exponent notation: its integer digits, fraction digits and exponent
_DECIMAL_RE = re.compile(r"\s*[-+]?(?=\.?\d)(\d*)(?:\.(\d*))?(?:e([-+]?\d+))?\s*", re.IGNORECASE)


def _decimal_digits(text: str) -> int:
    """Digits of the longer of the numerator and the denominator that ``Fraction``
    builds for a ``--u`` value written as a decimal ``d * 10**p``: the significant
    digits of ``d`` and ``p`` zeros, or a denominator ``10**-p``.  Counted from
    the text alone; 0 for a value in any other form."""
    match = _DECIMAL_RE.fullmatch(text)
    if not match:
        return 0
    whole, fraction, exponent = match.groups("")
    power = int(exponent or 0) - len(fraction)
    return max(len((whole + fraction).lstrip("0")) + max(power, 0), 1 - power)


def _check_args(args) -> None:
    """Check the integer flags, then build the grids, the model, the start and
    the target set, each once, before any command runs.

    A number longer than Python's integer-digit limit is refused here, by
    flag: ``int()`` would refuse it too, but with a message that names no flag.
    A ``--u`` value in exponent notation counts the digits its exponent adds.
    """
    for dest, flag, least, greatest in _INT_BOUNDS:
        value = getattr(args, dest, least)
        if not least <= value <= greatest:
            raise ValueError(f"{flag} must lie in {least}..{greatest}, got {value}")
    limit = sys.get_int_max_str_digits()
    for dest, flag in _TEXT_FLAGS:
        text = getattr(args, dest, "").replace("_", "")  # int() and Fraction() read 1_000 as 1000
        if limit and (re.search(rf"\d{{{limit + 1}}}", text)
                      or dest == "u_grid" and max(map(_decimal_digits, text.split(","))) > limit):
            raise ValueError(f"{flag} holds a number of more than {limit} digits")
    if hasattr(args, "u_grid"):
        args.u_grid = _parse_u_grid(args.u_grid)
        args.lambda_grid = _parse_lambda_grid(args.lambda_grid)
    if hasattr(args, "urns"):
        args.params = ModelParams(args.urns, args.balls)
    if hasattr(args, "set_text"):
        args.target = parse_set(args.set_text)
        args.start_state = _parse_start(args.start)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="ehrenfest",
        description="Exact hitting-time analytics and simulation for the N-urn Ehrenfest chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_size(p):
        p.add_argument("--N", type=int, required=True, dest="urns", help="number of urns (>= 2)")
        p.add_argument("--M", type=int, required=True, dest="balls", help="number of balls (>= 1)")

    def add_model(p):
        add_size(p)
        p.add_argument("--start", type=str, required=True, help="start state i1,...,iM")
        p.add_argument("--set", type=str, required=True, dest="set_text", help="target set descriptor")

    def add_output(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", type=str, default=None, help="write the report to this path")
        p.add_argument("--timing", action="store_true", help="include wall-clock timing in the report")

    def add_grids(p, digits=True):
        p.add_argument("--lambda", dest="lambda_grid", type=str, default="", help="comma list of lambda arguments")
        p.add_argument("--u", dest="u_grid", type=str, default="", help="comma list of rational u arguments, e.g. 1/2,1,2")
        if digits:
            p.add_argument("--digits", type=int, default=20, help="significant digits for lambda-domain rendering")

    p_exact = sub.add_parser("exact", help="exact engine statistics")
    add_model(p_exact)
    add_grids(p_exact)
    p_exact.add_argument("--order", type=int, default=2, help="highest raw moment to report")
    add_output(p_exact)

    p_oracle = sub.add_parser("oracle", help="enumerated-chain ground truth")
    add_model(p_oracle)
    add_grids(p_oracle)
    p_oracle.add_argument("--order", type=int, default=2)
    add_output(p_oracle)

    p_sim = sub.add_parser("simulate", help="Monte Carlo hitting-time sampling")
    add_model(p_sim)
    add_grids(p_sim, digits=False)
    p_sim.add_argument("--replicas", type=int, default=10_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--mode", choices=("discrete", "ctmc"), default="discrete")
    add_output(p_sim)

    p_cmp = sub.add_parser("compare", help="exact vs oracle vs Monte Carlo with verdicts")
    add_model(p_cmp)
    add_grids(p_cmp)
    p_cmp.add_argument("--order", type=int, default=2)
    p_cmp.add_argument("--replicas", type=int, default=20_000)
    p_cmp.add_argument("--seed", type=int, default=0)
    add_output(p_cmp)

    p_id = sub.add_parser("identities", help="exact identity suite and quadrature cross-check")
    p_id.add_argument("--max-urns", type=int, default=6)
    p_id.add_argument("--max-balls", type=int, default=8)
    add_output(p_id)

    p_net = sub.add_parser("network-check", help="commute-time identity sweep")
    add_size(p_net)
    add_output(p_net)

    return parser


# ---------------------------------------------------------------------------
# report assembly


def _emit(args, report: dict, started: float) -> None:
    if args.timing:
        report["timing"] = {"seconds": round(time.perf_counter() - started, 6), **report.get("timing", {})}
    if args.format == "csv":
        text = _to_csv(report)
    else:
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


#: verdict detail keys that have a CSV column, and that column
_CSV_COLUMNS = {"exact": "exact", "lhs": "exact", "oracle": "oracle", "rhs": "oracle",
                "mc_mean": "mc_mean", "mc_stderr": "mc_stderr"}


def _leaves(value, path: str):
    """(dotted path, value) of each leaf under ``value``; list items count from 1,
    and a rational is one leaf, its ``p/q`` string."""
    if isinstance(value, dict) and "rational" in value:
        yield path, value["rational"]
    elif isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value, 1)
        for key, item in items:
            yield from _leaves(item, f"{path}.{key}" if path else str(key))
    else:
        yield path, value


def _to_csv(report: dict) -> str:
    """One line per leaf under ``results``, named by its dotted path, then one per
    verdict with its detail values in their columns (a detail with no column gets
    a line of its own), then one per leaf under ``timing``."""
    import csv

    rows = [{"quantity": path, "exact": value} for path, value in _leaves(report["results"], "")]
    for verdict in report.get("verdicts", ()):
        row = {"quantity": verdict["name"], "verdict": "pass" if verdict["pass"] else "fail"}
        rows.append(row)
        for key, value in verdict.get("detail", {}).items():
            if key in _CSV_COLUMNS:
                row[_CSV_COLUMNS[key]] = value
            else:
                rows.append({"quantity": f"{verdict['name']}.{key}", "exact": value})
    rows += [{"quantity": path, "exact": value} for path, value in _leaves(report.get("timing", {}), "timing")]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, ["case", "quantity", "exact", "oracle", "mc_mean", "mc_stderr", "verdict"])
    writer.writeheader()
    case = report["request"].get("case", report["request"]["command"])
    writer.writerows({"case": case, **row} for row in rows)
    return buf.getvalue()


#: the arguments a report echoes, those of its subcommand
_ECHOED = ("urns", "balls", "start", "set_text", "order", "digits", "replicas", "seed", "mode",
           "max_urns", "max_balls", "format", "out")


def _request_echo(args) -> dict:
    """The request part of a report: the subcommand, a one-line label of its case, if any, and the arguments."""
    req = {"command": args.command}
    if hasattr(args, "urns"):
        case = [f"N={args.urns}", f"M={args.balls}"]
        if hasattr(args, "set_text"):  # parsed before any report is made, so neither is empty
            case += [f"start={args.start}", f"set={args.set_text}"]
        req["case"] = " ".join(case)
    req.update((key, getattr(args, key)) for key in _ECHOED if hasattr(args, key))
    if hasattr(args, "lambda_grid"):
        req["lambda_grid"] = list(args.lambda_grid)
        req["u_grid"] = [format_rational(u) for u in args.u_grid]
    return req


def _summary_results(summary, digits: int) -> dict:
    results = {
        "mean": _rat(summary.mean),
        "variance": _rat(summary.variance),
        "raw_moments": [_rat(v) for v in summary.raw_moments],
        "u_samples": [
            {"u": format_rational(u), "value": _rat(v)} for u, v in summary.u_samples
        ],
        "lambda_samples": [
            {
                "lambda": lam,
                "decimal": format_significant((num, den), digits),
                "float": num / den,  # correctly rounded, as float(Fraction(num, den)) is
            }
            for lam, (num, den) in summary.lambda_samples
        ],
    }
    if summary.exit_distribution is not None:
        rendered = {}  # by id, not value, which hashes big rationals: the diagonal and the oracle share equal ones
        results["exit_distribution"] = {
            ",".join(map(str, s)): rendered[id(p)] if id(p) in rendered else rendered.setdefault(id(p), _rat(p))
            for s, p in sorted(summary.exit_distribution.items())
        }
    return results


def _verdict(name: str, ok: bool, **detail) -> dict:
    v = {"name": name, "pass": bool(ok)}
    if detail:
        v["detail"] = detail
    return v


def _commute_verdict(name: str, check) -> dict:  # check: a closedforms.CommuteCheck
    return _verdict(name, check.equal, lhs=format_rational(check.lhs), rhs=format_rational(check.rhs))


# ---------------------------------------------------------------------------
# the three routes, each shared by its own subcommand and by compare


def _engine(args, u_grid, lambda_grid):
    """The kernel engine: the query and its exact summary."""
    from . import hitting

    query = hitting.HittingQuery(args.params, args.start_state, args.target)
    return query, hitting.summarize(query, args.order, u_grid, lambda_grid, args.digits)


def _oracle(args, chain, u_grid, lambda_grid, exit_law=False):
    """First-step solves on the enumerated chain, each read at the start's
    block: the summary, with the exit law if asked.  The exit law's quotient
    keeps the start apart, so it refines the moments' quotient; it is refined
    first, and an oversized one is refused before anything is solved."""
    from . import oracle

    params, target, start = chain.params, args.target, args.start_state  # each solve checks the set, then the start
    exits = oracle.exit_distribution(chain, target, start) if exit_law else None
    moments = oracle.solve_raw_moments(chain, target, start, max(args.order, 2))
    transform = partial(oracle.solve_transform_u, chain, target, start)
    return HittingSummary.from_moments(
        moments,
        args.order,
        u_samples=tuple((u, transform(u)) for u in u_grid),
        lambda_samples=tuple(
            (lam, transform(lambda_to_u(params.balls, lam, args.digits)).as_integer_ratio() if lam else (1, 1))
            for lam in lambda_grid
        ),
        exit_distribution=exits,
    )


def _simulate(args, mode=None, grid=()):
    """Monte Carlo sampling in ``mode``, with transform estimates on ``grid``
    (lambda values in discrete mode, u values in ctmc mode), or in both modes
    from one walk when ``mode`` is None.  Returns ``{mode: summary}`` and,
    under ``--timing``, the walk's replica-steps and their rate."""
    from .mc import SimConfig, sample_clocks, sample_hitting

    # a lambda is a float already; an exact --u becomes one here, and may round to 0 or past the largest float
    floats = tuple(float(a) if a <= sys.float_info.max else math.inf for a in grid)
    if any(a and not 0 < f < math.inf for a, f in zip(grid, floats)):
        raise ValueError("--u values must lie in the float range, between about 5e-324 and 1.8e308")
    cfg = SimConfig(replicas=args.replicas, seed=args.seed, mode=mode or "discrete", grid=floats)
    started = time.perf_counter()
    if mode:
        summaries = {mode: sample_hitting(args.params, args.start_state, args.target, cfg)}
    else:
        summaries = sample_clocks(args.params, args.start_state, args.target, cfg)
    seconds = time.perf_counter() - started
    if not args.timing:
        return summaries, {}
    steps = next(iter(summaries.values())).replica_steps
    return summaries, {"timing": {"replica_steps": steps, "replica_steps_per_s": round(steps / seconds)}}


# ---------------------------------------------------------------------------
# subcommands: each returns its report but the request, which main echoes


def cmd_exact(args) -> dict:
    _, summary = _engine(args, args.u_grid, args.lambda_grid)
    return {"results": _summary_results(summary, args.digits)}


def cmd_oracle(args) -> dict:
    from . import oracle

    chain = oracle.EnumeratedChain(args.params)
    summary = _oracle(args, chain, args.u_grid, args.lambda_grid, exit_law=True)
    return {"results": _summary_results(summary, args.digits)}


def cmd_simulate(args) -> dict:
    grids = {"--lambda": args.lambda_grid, "--u": args.u_grid}
    own, other = ("--u", "--lambda") if args.mode == "ctmc" else ("--lambda", "--u")
    if grids[other]:
        raise ValueError(f"simulate --mode {args.mode} reads its transform grid from {own}, not {other}")
    summaries, timing = _simulate(args, args.mode, grids[own])
    summary = summaries[args.mode]
    return {
        "results": {
            "sample_mean": summary.sample_mean,
            "sample_variance": summary.sample_variance,
            "stderr": summary.stderr,
            "replicas": summary.replicas,
            "truncated": summary.truncated,
            "mode": summary.mode,
            "seed": summary.seed,
            "transforms": [
                {"argument": t.argument, "estimate": t.estimate, "stderr": t.stderr}
                for t in summary.transforms
            ],
        },
        **timing,
    }


def cmd_compare(args) -> dict:
    if args.replicas < _COMPARE_MIN_REPLICAS:
        raise ValueError(f"compare needs --replicas of at least {_COMPARE_MIN_REPLICAS}, got {args.replicas}")
    from . import closedforms, hitting, oracle

    chain = oracle.EnumeratedChain(args.params)
    u_grid = args.u_grid or (Fraction(1, 2), Fraction(1), Fraction(2))
    lambda_grid = args.lambda_grid or (0.1, 0.5, 1.0, 2.0)
    query, engine = _engine(args, u_grid, lambda_grid)
    truth = _oracle(args, chain, u_grid, ())

    # (verdict name, engine value, oracle value): equal to the last digit or the check fails
    triples = [
        ("mean_exact_vs_oracle", engine.mean, truth.mean),
        ("variance_exact_vs_oracle", engine.variance, truth.variance),
    ]
    triples += [
        (f"moment{r}_exact_vs_oracle", engine.raw_moments[r - 1], truth.raw_moments[r - 1])
        for r in range(3, args.order + 1)
    ]
    triples += [
        (f"transform_u_{format_rational(u)}", lhs, rhs)
        for (u, lhs), (_, rhs) in zip(engine.u_samples, truth.u_samples)
    ]
    verdicts = [
        _verdict(name, lhs == rhs, exact=format_rational(lhs), oracle=format_rational(rhs))
        for name, lhs, rhs in triples
    ]

    for lam, sums in engine.lambda_samples:
        lhs, rhs = Fraction(*sums), hitting.laplace_lambda(query, lam, max(args.digits, ROUND_TRIP_DIGITS) + 6)
        rel = abs(lhs - rhs) / rhs if rhs else Fraction(0)
        # the reference's u is six digits finer; the samples print --digits: hold them to those, and to 1e-15
        verdicts.append(
            _verdict(
                f"transform_lambda_{lam}",
                rel <= Fraction(1, 10 ** min(args.digits, 15)),
                relative_error=float(rel),
            )
        )

    mc, timing = _simulate(args)
    for mode, summary in mc.items():
        if summary.truncated:  # the kept walks are the short ones: their mean is biased low
            raise ValueError(
                f"{summary.truncated} of {summary.replicas} replicas were truncated when the walk budget "
                "ran out, so the Monte Carlo means cannot be checked"
            )
        reference = engine.mean if mode == "discrete" else engine.mean / args.balls
        verdicts.append(
            _verdict(
                f"mc_mean_{mode}",
                abs(summary.sample_mean - float(reference)) <= 4 * summary.stderr,
                exact=float(reference),
                mc_mean=summary.sample_mean,
                mc_stderr=summary.stderr,
            )
        )

    if args.target.kind == "count":
        h, k = args.target.count_overlap, query.start.count(args.target.reference_urn)
        if h != k:
            low, high = sorted((h, k))
            check = closedforms.network_commute_check(args.params, low, high)
            verdicts.append(_commute_verdict(f"network_identity_h{low}_k{high}", check))

    return {
        "results": {
            "exact": {"mean": _rat(engine.mean), "variance": _rat(engine.variance)},
            "oracle": {"mean": _rat(truth.mean), "variance": _rat(truth.variance)},
            "mc": {
                mode: {
                    "sample_mean": s.sample_mean,
                    "stderr": s.stderr,
                    "replicas": s.replicas,
                    "truncated": s.truncated,
                }
                for mode, s in mc.items()
            },
        },
        "verdicts": verdicts,
        **timing,
    }


def cmd_identities(args) -> dict:
    from .resolvent import identity_suite_holds, quadrature_error

    verdicts = [
        _verdict(f"identities_N{n}_M{m}", identity_suite_holds(ModelParams(n, m)))
        for n in range(2, args.max_urns + 1)
        for m in range(1, args.max_balls + 1)
    ]
    for n, m in ((2, 3), (3, 2), (4, 3)):
        worst = quadrature_error(ModelParams(n, m))
        verdicts.append(_verdict(f"quadrature_N{n}_M{m}", worst <= 1e-8, max_abs_error=worst))
    return {
        "results": {"checks": len(verdicts), "failures": sum(not v["pass"] for v in verdicts)},
        "verdicts": verdicts,
    }


def cmd_network_check(args) -> dict:
    from . import closedforms

    checks = closedforms.network_commute_sweep(args.params)
    verdicts = [_commute_verdict(f"commute_h{h}_k{k}", check) for (h, k), check in checks.items()]
    return {"results": {"pairs": len(verdicts)}, "verdicts": verdicts}


_COMMANDS = {
    "exact": cmd_exact,
    "oracle": cmd_oracle,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "identities": cmd_identities,
    "network-check": cmd_network_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        _check_args(args)
        report = {"request": _request_echo(args), **_COMMANDS[args.command](args)}
        _emit(args, report, started)
    except SetNotSymmetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NOT_SYMMETRIC
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAP_EXCEEDED
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return 0 if all(v["pass"] for v in report.get("verdicts", ())) else VERDICT_FAILURE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
