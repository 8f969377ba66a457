"""Command-line interface.

Subcommands::

    exact          engine statistics for a symmetric target set
    oracle         linear-algebra ground truth (any target set, capped size)
    simulate       Monte Carlo sampling, discrete or continuous-time
    compare        run exact vs oracle vs Monte Carlo and render verdicts
    identities     exact identity suite + quadrature cross-check
    network-check  commute-time identity sweep on the count chain

All reports share the shape ``{request, results, verdicts?, timing?}`` with
rational values as canonical strings plus float renderings.  Exit codes:
0 success, 2 usage error, 3 target set not overlap-symmetric, 4 state-space
cap exceeded, 5 verdict failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import replace
from fractions import Fraction
from functools import partial

from .exact import format_rational, format_significant, lambda_to_u, parse_rational
from .model import ModelParams, SetNotSymmetricError, overlap, parse_set
from . import closedforms, hitting, oracle
from .mc import SimConfig, sample_hitting

USAGE_ERROR = 2
NOT_SYMMETRIC = 3
CAP_EXCEEDED = 4
VERDICT_FAILURE = 5


def _rat(value: Fraction) -> dict:
    return {"rational": format_rational(value), "float": float(value)}


def _state_key(state) -> str:
    return ",".join(str(c) for c in state)


def _parse_start(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text.split(","))


# e**700 is still a float, and the exact Taylor sum for it takes a fraction of a second
LAMBDA_MAX = 700


def _parse_lambda_grid(text: str) -> tuple[float, ...]:
    grid = tuple(float(v) for v in text.split(",")) if text else ()
    if not all(0 <= lam <= LAMBDA_MAX for lam in grid):
        raise ValueError(f"--lambda values must lie in [0, {LAMBDA_MAX}], got {text!r}")
    return grid


def _parse_u_grid(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(parse_rational(v) for v in text.split(",")) if text else ()
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--u values must be rationals such as 1/2 or 3, got {text!r}") from None


#: (argument, flag, least value) of the integer flags checked before any command runs
_INT_BOUNDS = (
    ("order", "--order", 1),
    ("digits", "--digits", 1),
    ("max_urns", "--max-urns", 2),
    ("max_balls", "--max-balls", 1),
)


def _check_bounds(args) -> None:
    for dest, flag, least in _INT_BOUNDS:
        value = getattr(args, dest, least)
        if value < least:
            raise ValueError(f"{flag} must be >= {least}, got {value}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehrenfest",
        description="Exact hitting-time analytics and simulation for the N-urn Ehrenfest chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model(p, start_required=True):
        p.add_argument("--N", type=int, required=True, dest="urns", help="number of urns (>= 2)")
        p.add_argument("--M", type=int, required=True, dest="balls", help="number of balls (>= 1)")
        if start_required:
            p.add_argument("--start", type=str, required=True, help="start state i1,...,iM")
            p.add_argument("--set", type=str, required=True, dest="set_text", help="target set descriptor")

    def add_output(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", type=str, default=None, help="write the report to this path")
        p.add_argument("--timing", action="store_true", help="include wall-clock timing in the report")

    def add_grids(p):
        p.add_argument("--lambda", dest="lambda_grid", type=str, default="", help="comma list of lambda arguments")
        p.add_argument("--u", dest="u_grid", type=str, default="", help="comma list of rational u arguments, e.g. 1/2,1,2")
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
    p_oracle.add_argument("--cap", type=int, default=oracle.DEFAULT_EXACT_CAP, help="state-space cap for exact solves")
    add_output(p_oracle)

    p_sim = sub.add_parser("simulate", help="Monte Carlo hitting-time sampling")
    add_model(p_sim)
    add_grids(p_sim)
    p_sim.add_argument("--replicas", type=int, default=10_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--mode", choices=("discrete", "ctmc"), default="discrete")
    p_sim.add_argument("--max-steps", type=int, default=10_000_000)
    add_output(p_sim)

    p_cmp = sub.add_parser("compare", help="exact vs oracle vs Monte Carlo with verdicts")
    add_model(p_cmp)
    add_grids(p_cmp)
    p_cmp.add_argument("--order", type=int, default=2)
    p_cmp.add_argument("--cap", type=int, default=oracle.DEFAULT_EXACT_CAP)
    p_cmp.add_argument("--replicas", type=int, default=20_000)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--max-steps", type=int, default=10_000_000)
    p_cmp.add_argument("--corrupt-engine", action="store_true", help=argparse.SUPPRESS)
    add_output(p_cmp)

    p_id = sub.add_parser("identities", help="exact identity suite and quadrature cross-check")
    p_id.add_argument("--max-urns", type=int, default=6)
    p_id.add_argument("--max-balls", type=int, default=8)
    add_output(p_id)

    p_net = sub.add_parser("network-check", help="commute-time identity sweep")
    p_net.add_argument("--N", type=int, required=True, dest="urns")
    p_net.add_argument("--M", type=int, required=True, dest="balls")
    add_output(p_net)

    return parser


# ---------------------------------------------------------------------------
# report assembly


def _emit(args, report: dict, started: float) -> None:
    if args.timing:
        report["timing"] = {"seconds": round(time.perf_counter() - started, 6)}
    if args.format == "csv":
        text = _to_csv(report)
    else:
        text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_value(entry) -> str:
    if isinstance(entry, dict) and "rational" in entry:
        return entry["rational"]
    if entry is None:
        return ""
    return str(entry)


def _to_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["case", "quantity", "exact", "oracle", "mc_mean", "mc_stderr", "verdict"])
    case = report.get("request", {}).get("case", "")
    rows = report.get("csv_rows")
    if rows is None:
        rows = []
        for name, value in report.get("results", {}).items():
            if isinstance(value, dict) and "rational" in value:
                rows.append([case, name, value["rational"], "", "", "", ""])
            elif isinstance(value, (int, float, str)):
                rows.append([case, name, value, "", "", "", ""])
    for row in rows:
        writer.writerow([_csv_value(v) for v in row])
    return buf.getvalue()


def _case_label(args) -> str:
    start = getattr(args, "start", None)
    set_text = getattr(args, "set_text", None)
    bits = [f"N={args.urns}", f"M={args.balls}"]
    if start:
        bits.append(f"start={start}")
    if set_text:
        bits.append(f"set={set_text}")
    return " ".join(bits)


def _request_echo(args) -> dict:
    req = {"command": args.command, "case": _case_label(args)}
    for key in (
        "urns",
        "balls",
        "start",
        "set_text",
        "order",
        "digits",
        "replicas",
        "seed",
        "mode",
        "max_steps",
        "cap",
        "format",
        "out",
    ):
        if hasattr(args, key):
            req[key] = getattr(args, key)
    if hasattr(args, "lambda_grid"):
        req["lambda_grid"] = list(_parse_lambda_grid(args.lambda_grid))
        req["u_grid"] = [format_rational(u) for u in _parse_u_grid(args.u_grid)]
    return req


def _engine_exit_distribution(params, query):
    """Closed-form exit splits where the case studies provide them."""
    descriptor = query.target
    if query.start_in_target():
        return {t: Fraction(1 if t == query.start else 0) for t in descriptor.materialize(params)}
    kind = descriptor.kind
    if kind == "singleton":
        return {params.check_state(descriptor.states[0]): Fraction(1)}
    if kind == "pair":
        y, z = sorted(params.check_state(s) for s in descriptor.states)
        stats = closedforms.two_point_stats_for(params, query.start, y, z)
        return {y: stats.exit_prob_first, z: 1 - stats.exit_prob_first}
    if kind == "diagonal":
        stats = closedforms.same_urn_stats(params, query.start)
        return {(i,) * params.balls: p for i, p in enumerate(stats.exit_probs, start=1)}
    return None


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
                "decimal": format_significant(v, digits),
                "float": float(v),
            }
            for lam, v in summary.lambda_samples
        ],
    }
    if summary.exit_distribution is not None:
        results["exit_distribution"] = {
            _state_key(s): _rat(p) for s, p in sorted(summary.exit_distribution.items())
        }
    return results


def cmd_exact(args) -> int:
    started = time.perf_counter()
    params = ModelParams(args.urns, args.balls)
    descriptor = parse_set(args.set_text)
    query = hitting.HittingQuery(params, _parse_start(args.start), descriptor)
    summary = hitting.summarize(
        query,
        order=args.order,
        u_grid=_parse_u_grid(args.u_grid),
        lambda_grid=_parse_lambda_grid(args.lambda_grid),
        digits=args.digits,
        exit_distribution=_engine_exit_distribution(params, query),
    )
    report = {
        "request": _request_echo(args),
        "results": _summary_results(summary, args.digits),
    }
    _emit(args, report, started)
    return 0


def cmd_oracle(args) -> int:
    started = time.perf_counter()
    params = ModelParams(args.urns, args.balls)
    descriptor = parse_set(args.set_text)
    oracle.check_cap(params, args.cap)
    targets = descriptor.materialize(params)
    start = params.check_state(_parse_start(args.start))
    chain = oracle.EnumeratedChain(params)

    moments = oracle.raw_moment_vectors(chain, targets, max(args.order, 2), cap=args.cap)
    transform = partial(oracle.solve_transform_u, chain, targets, start, cap=args.cap)
    u_samples = tuple((u, transform(u)) for u in _parse_u_grid(args.u_grid))
    lambda_samples = tuple(
        (lam, transform(lambda_to_u(params.balls, lam, args.digits)) if lam else Fraction(1))
        for lam in _parse_lambda_grid(args.lambda_grid)
    )
    summary = hitting.HittingSummary.from_moments(
        [vec[start] for vec in moments],
        args.order,
        u_samples=u_samples,
        lambda_samples=lambda_samples,
        exit_distribution=oracle.exit_distribution(chain, targets, start, cap=args.cap),
    )
    report = {
        "request": _request_echo(args),
        "results": _summary_results(summary, args.digits),
    }
    _emit(args, report, started)
    return 0


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    params = ModelParams(args.urns, args.balls)
    descriptor = parse_set(args.set_text)
    cfg = SimConfig(
        replicas=args.replicas,
        seed=args.seed,
        mode=args.mode,
        max_steps=args.max_steps,
        lambda_grid=_parse_lambda_grid(args.lambda_grid),
        u_grid=tuple(float(u) for u in _parse_u_grid(args.u_grid)),
    )
    summary = sample_hitting(params, _parse_start(args.start), descriptor, cfg)
    report = {
        "request": _request_echo(args),
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
    }
    _emit(args, report, started)
    return 0


def _verdict(name: str, ok: bool, **detail) -> dict:
    v = {"name": name, "pass": bool(ok)}
    if detail:
        v["detail"] = detail
    return v


def _csv_row(case: str, name: str, verdict: dict, *values) -> list:
    """A CSV line: ``values`` fill exact, oracle, mc_mean, mc_stderr in turn."""
    return [case, name, *values, *[""] * (4 - len(values)), "pass" if verdict["pass"] else "fail"]


def cmd_compare(args) -> int:
    started = time.perf_counter()
    params = ModelParams(args.urns, args.balls)
    descriptor = parse_set(args.set_text)
    oracle.check_cap(params, args.cap)
    start = params.check_state(_parse_start(args.start))
    query = hitting.HittingQuery(params, start, descriptor)
    targets = descriptor.materialize(params)
    order = max(args.order, 2)
    m = params.balls

    engine = hitting.HittingSummary.from_moments(hitting.raw_moments(query, order), order)
    if args.corrupt_engine:
        engine = replace(engine, mean=engine.mean + 1)  # test hook: prove the harness catches a broken engine
    chain = oracle.EnumeratedChain(params)
    truth = hitting.HittingSummary.from_moments(
        [vec[start] for vec in oracle.raw_moment_vectors(chain, targets, order, cap=args.cap)], order
    )
    transform = partial(oracle.solve_transform_u, chain, targets, start, cap=args.cap)

    u_grid = _parse_u_grid(args.u_grid) or (Fraction(1, 2), Fraction(1), Fraction(2))
    # (verdict name, engine value, oracle value): equal to the last digit or the check fails
    triples = [
        ("mean_exact_vs_oracle", engine.mean, truth.mean),
        ("variance_exact_vs_oracle", engine.variance, truth.variance),
    ]
    triples += [
        (f"moment{r}_exact_vs_oracle", engine.raw_moments[r - 1], truth.raw_moments[r - 1])
        for r in range(3, order + 1)
    ]
    triples += [(f"transform_u_{format_rational(u)}", hitting.laplace_u(query, u), transform(u)) for u in u_grid]
    verdicts = [
        _verdict(name, lhs == rhs, exact=format_rational(lhs), oracle=format_rational(rhs))
        for name, lhs, rhs in triples
    ]

    lambda_grid = _parse_lambda_grid(args.lambda_grid) or (0.1, 0.5, 1.0, 2.0)
    for lam in lambda_grid:
        lhs = hitting.laplace_lambda(query, lam, digits=args.digits)
        rhs = hitting.laplace_u(query, lambda_to_u(m, lam, args.digits + 6))
        rel = abs(lhs - rhs) / rhs if rhs else Fraction(0)
        # laplace_lambda is only asked for --digits digits: hold it to those, and to 1e-15 at most
        verdicts.append(
            _verdict(
                f"transform_lambda_{lam}",
                rel <= Fraction(1, 10 ** min(args.digits, 15)),
                relative_error=float(rel),
            )
        )

    mc = {}
    for mode in ("discrete", "ctmc"):
        cfg = SimConfig(
            replicas=args.replicas,
            seed=args.seed,
            mode=mode,
            max_steps=args.max_steps,
        )
        summary = sample_hitting(params, start, descriptor, cfg)
        mc[mode] = summary
        reference = engine.mean if mode == "discrete" else engine.mean / m
        gap = abs(summary.sample_mean - float(reference))
        verdicts.append(
            _verdict(
                f"mc_mean_{mode}",
                gap <= 4 * summary.stderr,
                exact=float(reference),
                mc_mean=summary.sample_mean,
                mc_stderr=summary.stderr,
            )
        )

    if descriptor.kind == "count":
        ref, h = descriptor.count_level(params)
        k = overlap(start, (ref,) * m)
        if h != k:
            low, high = sorted((h, k))
            check = closedforms.network_commute_check(params, low, high)
            verdicts.append(
                _verdict(
                    f"network_identity_h{low}_k{high}",
                    check.equal,
                    lhs=format_rational(check.lhs),
                    rhs=format_rational(check.rhs),
                )
            )

    all_pass = all(v["pass"] for v in verdicts)
    case = _case_label(args)
    mean_verdict, variance_verdict = verdicts[:2]
    csv_rows = [
        _csv_row(case, "mean", mean_verdict, *mean_verdict["detail"].values(),
                 mc["discrete"].sample_mean, mc["discrete"].stderr),
        _csv_row(case, "variance", variance_verdict, *variance_verdict["detail"].values()),
    ]
    report = {
        "request": _request_echo(args),
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
        "csv_rows": csv_rows,
    }
    _emit(args, report, started)
    return 0 if all_pass else VERDICT_FAILURE


def cmd_identities(args) -> int:
    started = time.perf_counter()
    from .resolvent import (
        binomial_increment_mean,
        centered_kernel,
        centered_kernel_derivative,
        kernel_increments,
        overlap_increment_distribution,
        resolvent_kernel,
        resolvent_kernel_quadrature,
        series_identity_checks,
    )

    verdicts = []
    for n in range(2, args.max_urns + 1):
        for m in range(1, args.max_balls + 1):
            params = ModelParams(n, m)
            ok_series = all(
                series_identity_checks(params, a)
                for a in (Fraction(0), Fraction(n - 1), Fraction(-1))
            )
            table = kernel_increments(params)
            ok_tel = table.zero_overlap + sum(table.increments) == table.full_overlap
            ok_ends = (
                table.zero_overlap == centered_kernel(params, 0)
                and table.full_overlap == centered_kernel(params, m)
            )
            ok_gaps = all(
                centered_kernel(params, k + 1) - centered_kernel(params, k) == table.increments[k]
                for k in range(m)
            )
            ok_first = table.increments[0] == Fraction(1, m)
            deriv_gap = centered_kernel_derivative(params, 0) - centered_kernel_derivative(params, m)
            closed = Fraction(n - 1, n**2) * sum(
                Fraction(1, i) * sum(Fraction(n**j, j) for j in range(1, i + 1))
                for i in range(1, m + 1)
            )
            ok_deriv = deriv_gap == closed
            ok_binom = all(
                binomial_increment_mean(params, mm)
                == sum(
                    (p * table.increments[j] for j, p in overlap_increment_distribution(params, mm)),
                    Fraction(0),
                )
                for mm in range(0, m)
            )
            ok = ok_series and ok_tel and ok_ends and ok_gaps and ok_first and ok_deriv and ok_binom
            verdicts.append(_verdict(f"identities_N{n}_M{m}", ok))

    for n, m in ((2, 3), (3, 2), (4, 3)):
        params = ModelParams(n, m)
        ok = True
        worst = 0.0
        for k in range(m + 1):
            for u in (Fraction(1, 4), Fraction(1), Fraction(4)):
                approx = resolvent_kernel_quadrature(params, k, float(u))
                exact_val = float(resolvent_kernel(params, k, u))
                worst = max(worst, abs(approx - exact_val))
                ok = ok and abs(approx - exact_val) <= 1e-8
        verdicts.append(_verdict(f"quadrature_N{n}_M{m}", ok, max_abs_error=worst))

    all_pass = all(v["pass"] for v in verdicts)
    report = {
        "request": {"command": "identities", "max_urns": args.max_urns, "max_balls": args.max_balls},
        "results": {"checks": len(verdicts), "failures": sum(1 for v in verdicts if not v["pass"])},
        "verdicts": verdicts,
        "csv_rows": [_csv_row("identities", v["name"], v) for v in verdicts],
    }
    _emit(args, report, started)
    return 0 if all_pass else VERDICT_FAILURE


def cmd_network_check(args) -> int:
    started = time.perf_counter()
    params = ModelParams(args.urns, args.balls)
    verdicts = []
    for h in range(params.balls + 1):
        for k in range(h + 1, params.balls + 1):
            check = closedforms.network_commute_check(params, h, k)
            verdicts.append(
                _verdict(
                    f"commute_h{h}_k{k}",
                    check.equal,
                    lhs=format_rational(check.lhs),
                    rhs=format_rational(check.rhs),
                )
            )
    all_pass = all(v["pass"] for v in verdicts)
    case = _case_label(args)
    report = {
        "request": _request_echo(args),
        "results": {"pairs": len(verdicts)},
        "verdicts": verdicts,
        "csv_rows": [_csv_row(case, v["name"], v, v["detail"]["lhs"], v["detail"]["rhs"]) for v in verdicts],
    }
    _emit(args, report, started)
    return 0 if all_pass else VERDICT_FAILURE


_COMMANDS = {
    "exact": cmd_exact,
    "oracle": cmd_oracle,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "identities": cmd_identities,
    "network-check": cmd_network_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_bounds(args)
        return _COMMANDS[args.command](args)
    except SetNotSymmetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NOT_SYMMETRIC
    except oracle.CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAP_EXCEEDED
    except OverflowError as exc:
        print(f"error: a result is outside the float range of the report ({exc})", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
