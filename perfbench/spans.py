"""Span tracing of the package's layers, done entirely from outside it.

:func:`instrument` replaces the public functions of each layer, wherever a
module of the package holds a reference to them, with wrappers that record a
span (name, layer, start, end, parent span, request id) while tracing is on,
and restores the originals on exit.  Spans and counters stay in memory and
are summarized, or written out, when the run ends.

A span's self time is its duration minus the time its child spans cover and
minus the time the tracer spent in its own bookkeeping hooks, so counting
does not inflate the layer that happens to be open.  There is one process
and no queue anywhere, so no layer has a wait time to record.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

LAYERS = ("model", "hitting", "resolvent", "exact", "closedforms", "oracle", "mc", "cli")

KERNELS = ("resolvent_kernel", "centered_kernel", "_centered_at_zero",
           "centered_kernel_derivative", "centered_kernel_jet")
CACHED = ("_centered_at_zero", "centered_kernel_derivative", "centered_kernel_jet")
JET_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "compose")

# layer -> (module functions, {class: methods}); closedforms wraps every public function
TARGETS = {
    "model": (("parse_set", "symmetry_defect"), {"SetDescriptor": ("materialize",)}),
    "hitting": (("laplace_u", "laplace_lambda", "raw_moments", "mean", "variance", "summarize"),
                {"HittingQuery": ("__post_init__",)}),
    "resolvent": (KERNELS + ("kernel_increments", "series_identity_checks", "resolvent_kernel_quadrature",
                             "binomial_increment_mean", "overlap_increment_distribution"), {}),
    "exact": (("expm1_rational", "jet_from_derivatives"), {"Jet": JET_METHODS}),
    "closedforms": ((), {}),
    "oracle": (("solve_exact_system", "mean_vector", "solve_mean", "raw_moment_vectors",
                "solve_second_moment", "transform_vector", "solve_transform", "exit_distribution",
                "lumped_count_oracle"), {"EnumeratedChain": ("__init__",)}),
    "mc": (("sample_hitting",), {}),
}

# layers whose results count towards exact.max_bits
_EXACT_RESULTS = {"hitting", "resolvent", "exact", "closedforms", "oracle"}


@dataclasses.dataclass
class Span:
    name: str
    layer: str
    start: float
    request: int
    parent: int | None
    end: float = 0.0
    error: bool = False
    hook_s: float = 0.0  # tracer bookkeeping inside this span, all depths
    mode: str = ""


def _bits(value) -> int:
    """Largest numerator or denominator bit length inside a result."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, int) and not isinstance(value, bool):
        return value.bit_length()
    if isinstance(value, (list, tuple)):
        return max((_bits(v) for v in value), default=0)
    if isinstance(value, dict):
        return max((_bits(v) for v in value.values()), default=0)
    if hasattr(value, "coeffs"):
        return _bits(value.coeffs)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return max((_bits(getattr(value, f.name)) for f in dataclasses.fields(value)), default=0)
    return 0


class Tracer:
    """Collects spans and counters from the wrappers :func:`instrument` installs."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.request = -1
        self.counts: Counter = Counter()
        self.max_bits = 0

    # -- span bookkeeping ----------------------------------------------------

    def open(self, layer: str, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, layer, 0.0, self.request, parent))
        self.stack.append(idx)
        self.spans[idx].start = perf_counter()
        return idx

    def close(self, idx: int, error: bool = False) -> None:
        span = self.spans[idx]
        span.end = perf_counter()
        span.error = error
        self.stack.pop()

    def _charge(self, started: float) -> None:
        """Book hook time against every open span, so self times exclude it."""
        dt = perf_counter() - started
        for idx in self.stack:
            self.spans[idx].hook_s += dt

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, layer: str, name: str):
        tracer = self
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            idx = tracer.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, error=True)
                raise
            tracer.close(idx)
            started = perf_counter()
            tracer._count(layer, name, idx, args, result,
                          cache_info is not None and cache_info().misses == misses)
            tracer._charge(started)
            return result

        return wrapper

    def _count(self, layer, name, idx, args, result, cache_hit) -> None:
        c = self.counts
        if layer == "model":
            if name == "SetDescriptor.materialize":
                c["model.target_states"] += len(result)
            elif name == "symmetry_defect":
                states = args[0]
                c["model.overlap_evals"] += len(states) ** 2 * len(states[0])
        elif layer == "resolvent" and name in KERNELS:
            c["resolvent.kernel_calls"] += 1
            if name in CACHED:
                computes = not cache_hit and name != "centered_kernel_jet"
            else:  # centered_kernel at u = 0 delegates to the cached _centered_at_zero
                computes = name == "resolvent_kernel" or (args[2] if len(args) > 2 else 0) != 0
            if computes:
                params, k = args[0], args[1]
                c["resolvent.kernel_terms"] += (k + 1) * (params.balls - k + 1)
        elif layer == "oracle" and name == "solve_exact_system":
            c["oracle.solves"] += 1
            c["oracle.system_rows"] += len(args[0])
            c["oracle.rhs_cols"] += len(args[1])
        elif layer == "mc":
            self.spans[idx].mode = args[3].mode
            c["mc.replicas"] += result.replicas
            c["mc.kept"] += result.replicas - result.truncated
        if layer in _EXACT_RESULTS:
            self.max_bits = max(self.max_bits, _bits(result))


def _package_modules():
    names = ("", ".model", ".exact", ".resolvent", ".hitting", ".closedforms", ".oracle", ".mc", ".cli")
    return [importlib.import_module("ehrenfest" + n) for n in names]


class instrument:
    """Context manager: wrap every layer boundary for ``tracer``, then restore."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = _package_modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        wrappers = {}
        for layer, (functions, classes) in TARGETS.items():
            mod = by_name[layer]
            if layer == "closedforms":
                functions = tuple(n for n, v in vars(mod).items()
                                  if callable(v) and not isinstance(v, type) and not n.startswith("_")
                                  and getattr(v, "__module__", None) == mod.__name__)
            for name in functions:
                fn = getattr(mod, name)
                wrappers[id(fn)] = self.tracer.wrap(fn, layer, name)
            for cls_name, methods in classes.items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    self._set(cls, meth, self.tracer.wrap(vars(cls)[meth], layer, f"{cls_name}.{meth}"))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)
        return self.tracer

    def _set(self, owner, attr, value):
        self.saved.append((owner, attr, getattr(owner, attr) if isinstance(owner, type) else vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()
        return False


def cache_totals() -> Counter:
    """Hits and misses so far of the resolvent's lru caches."""
    resolvent = importlib.import_module("ehrenfest.resolvent")
    out = Counter()
    for name in CACHED:
        fn = getattr(resolvent, name)
        info = (getattr(fn, "cache_info", None) or fn.__wrapped__.cache_info)()
        out["hits"] += info.hits
        out["misses"] += info.misses
    return out


# ---------------------------------------------------------------------------
# summaries


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus children and minus tracer hook time."""
    net = [s.end - s.start - s.hook_s for s in spans]
    own = list(net)
    for s, t in zip(spans, net):
        if s.parent is not None:
            own[s.parent] -= t
    return own


def _outermost(spans, names) -> float:
    """Inclusive time of spans named in ``names`` with no such ancestor."""
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        if p is None:
            total += s.end - s.start - s.hook_s
    return total


def summarize(tracer: Tracer, passes: int, mc_work: dict[str, float], report_bytes: int,
              cache: Counter) -> dict[str, float]:
    """Per-layer metrics, per traced pass (ratios over all traced passes)."""
    spans = tracer.spans
    own = self_times(spans)
    layer_self = defaultdict(float)
    by_name = defaultdict(float)
    calls = Counter()
    errors = Counter()
    mode_s = defaultdict(float)
    for s, t in zip(spans, own):
        layer_self[s.layer] += t
        by_name[s.name] += t
        outside = s.parent is None or spans[s.parent].layer != s.layer
        if outside:
            calls[s.layer] += 1
            errors[s.layer] += s.error
        if s.mode:
            mode_s[s.mode] += s.end - s.start - s.hook_s
    c = tracer.counts
    per = 1.0 / passes
    lam_children = sum(s.end - s.start - s.hook_s for s in spans
                       if s.name == "laplace_u" and s.parent is not None and spans[s.parent].name == "laplace_lambda")
    out = {f"{layer}.self_s": layer_self[layer] * per for layer in LAYERS}
    out.update({f"{layer}.errors": errors[layer] * per for layer in LAYERS})
    out.update({
        "model.materialize_s": by_name["SetDescriptor.materialize"] * per,
        "model.symmetry_s": by_name["symmetry_defect"] * per,
        "model.target_states": c["model.target_states"] * per,
        "model.overlap_evals": c["model.overlap_evals"] * per,
        "hitting.query_self_s": by_name["HittingQuery.__post_init__"] * per,
        "hitting.moments_s": _outermost(spans, {"raw_moments", "mean", "variance"}) * per,
        "hitting.laplace_u_s": (_outermost(spans, {"laplace_u"}) - lam_children) * per,
        "hitting.laplace_lambda_s": _outermost(spans, {"laplace_lambda"}) * per,
        "hitting.calls": calls["hitting"] * per,
        "resolvent.kernel_s": sum(by_name[k] for k in KERNELS) * per,
        "resolvent.kernel_calls": c["resolvent.kernel_calls"] * per,
        "resolvent.kernel_terms": c["resolvent.kernel_terms"] * per,
        "resolvent.cache_hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "exact.jet_s": (sum(by_name[f"Jet.{m}"] for m in JET_METHODS) + by_name["jet_from_derivatives"]) * per,
        "exact.expm1_s": by_name["expm1_rational"] * per,
        "exact.max_bits": tracer.max_bits,
        "closedforms.s": layer_self["closedforms"] * per,
        "closedforms.calls": calls["closedforms"] * per,
        "oracle.enumerate_s": by_name["EnumeratedChain.__init__"] * per,
        "oracle.solve_s": by_name["solve_exact_system"] * per,
        "oracle.assembly_self_s": (layer_self["oracle"] - by_name["EnumeratedChain.__init__"]
                                   - by_name["solve_exact_system"]) * per,
        "oracle.solves": c["oracle.solves"] * per,
        "oracle.system_rows": c["oracle.system_rows"] * per,
        "oracle.rhs_cols": c["oracle.rhs_cols"] * per,
        "mc.sample_s": by_name["sample_hitting"] * per,
        "mc.replica_steps": sum(mc_work.values()) * per,
        "mc.discrete.replica_steps_per_s": mc_work.get("discrete", 0.0) / mode_s["discrete"] if mode_s["discrete"] else 0.0,
        "mc.ctmc.replica_steps_per_s": mc_work.get("ctmc", 0.0) / mode_s["ctmc"] if mode_s["ctmc"] else 0.0,
        "mc.kept_ratio": c["mc.kept"] / c["mc.replicas"] if c["mc.replicas"] else 0.0,
        "cli.report_bytes": report_bytes * per,
        "trace.spans": len(spans) * per,
    })
    return out


def dump(tracer: Tracer) -> list[list]:
    """Spans as compact rows for the run's trace file."""
    return [[s.name, s.layer, s.start, s.end, s.parent, s.request, s.error] for s in tracer.spans]
