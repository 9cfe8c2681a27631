"""Outside-in tracer for the traced benchmark run.

The tracer wraps every public function (the functions named in a module's
``__all__`` and defined there) of every loaded module of a package, and
it replaces each one in every module namespace of that package that holds
it: ``quantest.qcov.qdens_kernel``, ``quantest.inference.qcov`` and
``quantest.verify.q_test_one`` all become the same wrapper.  So calls
between the package's own modules are timed without editing the package.

A span is (name id, start ns, end ns, parent span index, op id).  Spans
stay in memory until the run ends; ``write_spans`` saves them.  A span's
self time is its duration minus the part of it covered by its children.

Some spans also feed computed counts (``COUNT_HOOKS``): figures derived
from a call's arguments and return value, such as the kernel window
sizes, not counters read from inside the package.
"""

from __future__ import annotations

import functools
import math
import sys
import time
import types
from collections import Counter, defaultdict

__all__ = ["Tracer", "self_times", "layer_metrics", "LAYER_METRICS"]


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _size(x) -> int:
    n = getattr(x, "n", None)
    if n is not None:
        return int(n)
    return len(x)


def _kernel(kernel):
    if kernel is None:
        from quantest.qdensity import EPANECHNIKOV  # the functions' default

        return EPANECHNIKOV
    return kernel


def _count_as_sample(counts, args, kwargs, result):
    # as_sample passes a Sample straight through; anything else is copied,
    # validated and sorted into a new Sample of 8-byte floats
    x = _arg(args, kwargs, 0, "x")
    if x is not result:
        counts["quantiles.samples_built"] += 1
        counts["quantiles.sorted_bytes"] += 8 * result.n


def _count_kernel_terms(counts, args, kwargs, result):
    # the order statistics the direct estimator touches at (n, p, b): the
    # window [floor(n(p - r)), ceil(n(p + r)) + 1] clipped to 1..n, with
    # r = b times the kernel's support radius
    n = _size(_arg(args, kwargs, 0, "s"))
    p = float(_arg(args, kwargs, 1, "p"))
    b = float(_arg(args, kwargs, 2, "b"))
    r = _kernel(_arg(args, kwargs, 3, "kernel")).support * b
    lo = max(1, math.floor(n * (p - r)))
    hi = min(n, math.ceil(n * (p + r)) + 1)
    counts["qdensity.kernel_terms"] += max(0, hi - lo + 1)


def _count_bandwidth_clamp(counts, args, kwargs, result):
    qor = float(_arg(args, kwargs, 0, "qor_value"))
    n = int(_arg(args, kwargs, 2, "n"))
    kernel = _kernel(_arg(args, kwargs, 4, "kernel"))
    raw = kernel.bandwidth_constant * abs(qor) ** 0.4 * n ** -0.2
    if result != raw:
        counts["qdensity.bandwidth_clamped"] += 1


def _count_qcov(counts, args, kwargs, result):
    d = result.matrix.shape[0]
    counts["qcov.grid_points"] += d
    counts["qcov.matrix_bytes"] += 8 * d * d


def _count_resamples(counts, args, kwargs, result):
    # an int64 index matrix, the gathered float64 copy and its sorted copy,
    # each B x n
    n = _size(_arg(args, kwargs, 0, "s"))
    B = int(_arg(args, kwargs, 2, "B", 2000))
    counts["verify.resample_bytes"] += 3 * 8 * B * n


def _count_failed_study(counts, args, kwargs, exc):
    # coverage_sim stops at the first replicate that raises
    counts["verify.failed_replicates"] += 1


COUNT_HOOKS = {
    "quantiles.as_sample": _count_as_sample,
    "qdensity.qdens_kernel": _count_kernel_terms,
    "qdensity.optimal_bandwidth": _count_bandwidth_clamp,
    "qcov.qcov": _count_qcov,
    "verify.bootstrap_se": _count_resamples,
}
ERROR_HOOKS = {
    "verify.coverage_sim": _count_failed_study,
}

# metric name -> (kind, span names or count key, unit); every figure is
# per op of the traced phase
LAYER_METRICS = {
    "cli.main.self_ms": ("self", ("cli.main",), "ms"),
    "cli.build_parser.self_ms": ("self", ("cli.build_parser",), "ms"),
    "cli.load_column.self_ms": ("self", ("cli.load_column",), "ms"),
    "cli.render.self_ms": ("self", ("cli.render",), "ms"),
    "quantiles.as_sample.self_ms": ("self", ("quantiles.as_sample",), "ms"),
    "quantiles.as_sample.calls": ("calls", ("quantiles.as_sample",), "count"),
    "quantiles.samples_built": ("count", "quantiles.samples_built", "count"),
    "quantiles.sorted_bytes": ("count", "quantiles.sorted_bytes", "B"),
    "quantiles.sample_quantiles.self_ms": (
        "self", ("quantiles.sample_quantiles", "quantiles.sample_quantile"), "ms"),
    "quantiles.sample_quantiles.calls": (
        "calls", ("quantiles.sample_quantiles", "quantiles.sample_quantile"), "count"),
    "qdensity.qdens_kernel.self_ms": ("self", ("qdensity.qdens_kernel",), "ms"),
    "qdensity.qdens_kernel.calls": ("calls", ("qdensity.qdens_kernel",), "count"),
    "qdensity.kernel_terms": ("count", "qdensity.kernel_terms", "count"),
    "qdensity.optimal_bandwidth.self_ms": ("self", ("qdensity.optimal_bandwidth",), "ms"),
    "qdensity.qor_lognormal.self_ms": ("self", ("qdensity.qor_lognormal",), "ms"),
    "qdensity.bandwidth_clamped": ("count", "qdensity.bandwidth_clamped", "count"),
    "qdensity.fit_lognormal_sigma.self_ms": ("self", ("qdensity.fit_lognormal_sigma",), "ms"),
    "qdensity.qdens_inversion.self_ms": ("self", ("qdensity.qdens_inversion",), "ms"),
    "qcov.qcov.self_ms": ("self", ("qcov.qcov",), "ms"),
    "qcov.qcov.calls": ("calls", ("qcov.qcov",), "count"),
    "qcov.grid_points": ("count", "qcov.grid_points", "count"),
    "qcov.matrix_bytes": ("count", "qcov.matrix_bytes", "B"),
    "measures.resolve_measure.self_ms": ("self", ("measures.resolve_measure",), "ms"),
    "inference.q_test_one.self_ms": ("self", ("inference.q_test_one",), "ms"),
    "inference.q_test_two.self_ms": ("self", ("inference.q_test_two",), "ms"),
    "inference.lincomb_stats.self_ms": ("self", ("inference.lincomb_stats",), "ms"),
    "inference.ratio_variance.self_ms": ("self", ("inference.ratio_variance",), "ms"),
    "inference.wald.self_ms": ("self", ("inference.wald_interval", "inference.p_value"), "ms"),
    "inequality.qineq_test.self_ms": ("self", ("inequality.qineq_test",), "ms"),
    "inequality.ineq_variance.self_ms": ("self", ("inequality.ineq_variance",), "ms"),
    "inequality.index_estimate.self_ms": (
        "self", ("inequality.qri_estimate", "inequality.g2_estimate"), "ms"),
    "verify.coverage_sim.self_ms": ("self", ("verify.coverage_sim",), "ms"),
    "verify.population_measure_value.self_ms": (
        "self", ("verify.population_measure_value",), "ms"),
    "verify.bootstrap_se.self_ms": ("self", ("verify.bootstrap_se",), "ms"),
    "verify.resample_bytes": ("count", "verify.resample_bytes", "B"),
    "verify.failed_replicates": ("count", "verify.failed_replicates", "count"),
}


class Tracer:
    """Records spans and computed counts for calls into one package."""

    def __init__(self, package: str = "quantest"):
        self.package = package
        self.names: list[str] = []
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self.active = False
        self._stack: list[int] = []
        self._wrappers: dict = {}
        self._patched: list = []

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in list(sys.modules.items())
                if isinstance(m, types.ModuleType)
                and (name == self.package or name.startswith(prefix))]

    def install(self) -> None:
        """Replace every public function in every namespace that holds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        wrappers = self._wrappers  # built once, reused by later installs
        for module in modules:
            short = module.__name__.split(".", 1)[-1]
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if (isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__
                        and id(fn) not in wrappers):
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{short}.{fn.__name__}"))
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        count_hook = COUNT_HOOKS.get(name)
        error_hook = ERROR_HOOKS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if error_hook is not None:
                    error_hook(self.counts, args, kwargs, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op_id)
            if count_hook is not None:
                count_hook(self.counts, args, kwargs, result)
            return result

        return traced

    def write_spans(self, path) -> None:
        """Save the spans as tab-separated text, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\top\tname\tstart_ns\tend_ns\tparent\n")
            for i, (name_id, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{op}\t{self.names[name_id]}\t{start}\t{end}\t{parent}\n")


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the union of its children.

    ``spans`` holds (name id, start, end, parent index, op id) tuples.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start = max(c_start, reach, start)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-op layer metrics from a finished traced phase of ``ops`` ops."""
    self_ns = Counter()
    calls = Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name = tracer.names[span[0]]
        self_ns[name] += own
        calls[name] += 1
    out = {}
    for metric, (kind, key, unit) in LAYER_METRICS.items():
        if kind == "self":
            value = sum(self_ns[k] for k in key) / 1e6 / ops
        elif kind == "calls":
            value = sum(calls[k] for k in key) / ops
        else:
            value = tracer.counts[key] / ops
        out[metric] = {"value": value, "unit": unit}
    return out
