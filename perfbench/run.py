"""Benchmark of the ehrenfest CLI on four seeded workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload exact-wide --seed 1 --seconds 15 --trace 0

Each request is a CLI argv passed to ``ehrenfest.cli.main`` inside this one
Python process, stdout captured: a closed loop with a single client, one
request at a time, so no request ever waits in a queue.  A run generates all
inputs from the seed, then issues the workload's request list once per pass,
in a fresh seeded order each pass; the ``resolvent`` lru caches stay warm
across requests, as in a library session.  Every answer is checked after its
pass, outside the timed region, against a route other than the one timed
(see ``checks.py``).

Times are in reference seconds (see ``calibrate.py``); a request's latency
is the median over the passes.  ``--trace 0`` reports the end-to-end
metrics:

* ``setup_s``: median over fresh interpreters of importing ``ehrenfest.cli``
  and building its parser;
* ``wall_s``: the whole request list, the sum of its request latencies;
* ``req_p50_s``: the median request latency;
* ``req_tail_s``: the latency at the highest percentile that leaves at least
  10 of the run's attempted requests beyond it (the percentile and sample
  count are printed with it);
* ``peak_rss_mb``: the peak resident set of the benchmark process.

A request fails on a non-zero exit, an exception, a timeout or a failed
check; the result line's ``failed`` over ``attempted`` is the failed
fraction.  ``--trace 1`` alternates untraced and traced passes and reports
per-layer metrics from spans that ``spans.py`` records around the package's
public functions, plus the tracing overhead.  The last stdout line is the
JSON result; the full record (run facts, every latency, failures and, when
traced, every span) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

import calibrate
from checks import CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BENCHMARK = ROOT / "BENCHMARK.json"

REQUEST_TIMEOUT_S = 30.0
RUN_DEADLINE_S = 120.0
SETUP_SAMPLES = 5

# The calibration kernel brackets the timed import; importing it first takes
# ``fractions`` (about 2 ms of a 0.6 s import) out of the timed part.
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[2]); import calibrate; before = calibrate.kernel_s(); "
    "t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import ehrenfest.cli as cli; cli.build_parser(); t = time.perf_counter() - t; "
    "print(t, (before + calibrate.kernel_s()) / 2)"
)

NO_WAIT_NOTE = "no layer has a wait time: one process, one client, no queues"


def import_package():
    """Import ``ehrenfest`` from this checkout's ``src``, never from elsewhere."""
    pkg = SRC / "ehrenfest"
    if not (pkg / "cli.py").is_file():
        raise SystemExit(f"error: package source not found at {pkg.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import ehrenfest.cli

    if Path(ehrenfest.cli.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported ehrenfest from {ehrenfest.cli.__file__}, not {pkg}")
    return ehrenfest.cli


def measure_setup(samples: int) -> tuple[float, float]:
    """Median time, in fresh interpreters, to import the CLI and build its
    parser: (reference seconds, raw seconds)."""
    scaled, raw = [], []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(HERE)],
                              capture_output=True, text=True, timeout=120, check=True)
        t, kernel = (float(v) for v in proc.stdout.split())
        raw.append(t)
        scaled.append(t * calibrate.REFERENCE_S / kernel)
    return statistics.median(scaled), statistics.median(raw)


# ---------------------------------------------------------------------------
# issuing requests


class RequestTimeout(BaseException):
    """Raised by the interval timer inside a request that ran too long."""


class Client:
    """Issues requests one at a time, each under an interval-timer timeout."""

    def __init__(self, cli, timeout: float):
        self.cli = cli
        self.timeout = timeout
        self.armed = False

    def _alarm(self, signum, frame):
        if self.armed:
            raise RequestTimeout

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._alarm)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return False

    def issue(self, argv, tracer=None, request_id=0):
        """Run one request; returns (seconds, exit code or None, stdout, error)."""
        out, err = io.StringIO(), io.StringIO()
        rc, error, span = None, None, None
        if tracer is not None:
            tracer.request = request_id
            span = tracer.open("cli", "main")
        started = perf_counter()
        try:
            self.armed = True
            signal.setitimer(signal.ITIMER_REAL, self.timeout)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
            self.armed = False
        except RequestTimeout:
            error = f"timed out after {self.timeout} s"
        except SystemExit as exc:  # argparse rejects an argv by exiting
            rc = exc.code
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        finally:
            self.armed = False
            elapsed = perf_counter() - started
            signal.setitimer(signal.ITIMER_REAL, 0)
            if span is not None:
                tracer.close(span, error=error is not None)
        return elapsed, rc, out.getvalue(), error


def _check(request, rc, stdout, error) -> str | None:
    """None when the answer passes its check, else why it failed."""
    if error is not None:
        return error
    try:
        request.check(rc, json.loads(stdout))
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}"
    return None


def run_pass(client, requests, order, started, first_id, tracer=None):
    """Issue the requests in ``order``.

    Returns ({index: (raw seconds, reference seconds)}, report bytes,
    failures).  The calibration kernel runs between requests, after a
    collection, so each request is bracketed by two kernel timings.
    """
    latency, outputs = {}, {}
    gc.collect()  # each request starts from the same collector state
    kernel = calibrate.kernel_s()
    for i in order:
        if perf_counter() - started > RUN_DEADLINE_S:
            outputs[i] = (None, "", "skipped: run deadline exceeded")
            continue
        elapsed, rc, stdout, error = client.issue(requests[i].argv, tracer, first_id + i)
        gc.collect()
        before, kernel = kernel, calibrate.kernel_s()
        latency[i] = (elapsed, elapsed * calibrate.REFERENCE_S / ((before + kernel) / 2))
        outputs[i] = (rc, stdout, error)
    failures, report_bytes = [], 0
    for i, (rc, stdout, error) in outputs.items():
        report_bytes += len(stdout)
        request = requests[i]
        if error is None and stdout == request.verified_output:
            continue  # byte-identical to an answer that already passed its check
        why = _check(request, rc, stdout, error)
        if why is None:
            request.verified_output = stdout
        else:
            failures.append({"request": request.label, "argv": request.argv, "why": why})
    return latency, report_bytes, failures


# ---------------------------------------------------------------------------
# run facts


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_facts(seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    loc = {}
    for path in sorted((SRC / "ehrenfest").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        loc[path.stem] = data.count(b"\n")
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "source_lines": {**loc, "total": sum(loc.values())},
        "loadavg_before": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# a whole run


def _tail(latencies, attempted):
    """Request latency at the highest percentile that leaves at least 10 of
    the attempted requests beyond it; returns (value, percentile)."""
    q = max(0.0, 1.0 - 10.0 / attempted)
    xs = sorted(latencies)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), 100.0 * q


def run_workload(workload: str, seed: int, seconds: float, trace: bool, *, menu=None,
                 passes=None, setup_samples=SETUP_SAMPLES, timeout=REQUEST_TIMEOUT_S) -> dict:
    """Run one workload; returns the result line plus the full record.

    Every request of the list is issued once per pass, in a fresh seeded
    order each pass.  A request's latency is the median over its passes of
    its time in reference seconds (see ``calibrate.py``).
    """
    started = perf_counter()
    cli = import_package()
    import spans  # both import the package, so only after import_package
    import workloads

    facts = run_facts(seed)
    if passes is None:
        passes = workloads.passes_for(workload, seconds)
    if trace:
        passes += passes % 2  # untraced and traced passes alternate, as many of each
    OUT.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"inputs-{workload}-", dir=OUT))
    try:
        requests = workloads.build(workload, seed, inputs, menu)
        setup = None if trace else measure_setup(setup_samples)
        order_rng = random.Random(f"order:{workload}:{seed}")
        samples = {False: [[] for _ in requests], True: [[] for _ in requests]}
        failures = []
        report_bytes = 0
        tracer, cache = spans.Tracer(), Counter()
        with Client(cli, timeout) as client:
            for p in range(passes):
                traced = trace and p % 2 == 1
                order = list(range(len(requests)))
                order_rng.shuffle(order)
                if traced:
                    before = spans.cache_totals()
                    with spans.instrument(tracer):
                        latency, nbytes, failed = run_pass(client, requests, order, started,
                                                           p * len(requests), tracer)
                    cache.update(spans.cache_totals() - before)
                    report_bytes += nbytes
                else:
                    latency, _, failed = run_pass(client, requests, order, started, p * len(requests))
                for i, t in latency.items():
                    samples[traced][i].append(t)
                failures += failed
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    def per_request(traced, which):
        """Median over passes of each issued request's (raw, reference) time."""
        return [statistics.median(t[which] for t in ts) for ts in samples[traced] if ts]

    attempted = passes * len(requests)
    latencies = per_request(False, 1)
    if trace:
        mc_work = Counter()  # over the traced passes
        for r in requests:
            mc_work.update({mode: steps * (passes // 2) for mode, steps in r.mc_work.items()})
        metrics = spans.summarize(tracer, passes // 2, mc_work, report_bytes, cache)
        metrics["trace.untraced_wall_s"] = sum(latencies)
        metrics["trace.traced_wall_s"] = sum(per_request(True, 1))
        metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    else:
        tail, tail_pct = _tail(latencies, attempted)
        metrics = {
            "setup_s": setup[0],
            "wall_s": sum(latencies),
            "req_p50_s": statistics.median(latencies),
            "req_tail_s": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    facts["loadavg_after"] = os.getloadavg()
    facts["passes"] = passes
    units = _units()
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in units},
    }
    record = {"workload": workload, "trace": trace, "facts": facts, "result": result,
              "all_metrics": metrics, "req_failed_frac": len(failures) / attempted,
              "notes": [NO_WAIT_NOTE], "requests": [r.argv for r in requests],
              "samples_raw_and_reference_s": samples[trace], "failures": failures}
    if not trace:
        record.update(req_tail_percentile=tail_pct, req_samples=len(latencies),
                      raw_setup_s=setup[1], raw_wall_s=sum(per_request(False, 0)))
        sims = [(r, t) for r, t in zip(requests, latencies) if r.argv[0] == "simulate"]
        if sims:
            record["replica_steps_per_s"] = (sum(sum(r.mc_work.values()) for r, _ in sims)
                                             / sum(t for _, t in sims))
    else:
        record["spans"] = spans.dump(tracer)
    return record


def _units() -> dict[str, str]:
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("exact-wide", "exact-deep", "verify", "simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print("facts: " + json.dumps(record["facts"]))
    for name, m in record["result"]["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for key in ("req_failed_frac", "req_tail_percentile", "req_samples", "replica_steps_per_s",
                "raw_setup_s", "raw_wall_s"):
        if key in record:
            print(f"{key} = {record[key]:.6g}")
    for note in record["notes"]:
        print(f"note: {note}")
    for failure in record["failures"]:
        print(f"FAILED {failure['request']}: {failure['why'][:300]}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
