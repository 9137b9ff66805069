"""Outside-in span recorder for the traced run.

The public functions of each afcmem layer are wrapped in every afcmem
namespace that holds them: cli imports them by name, and
transmitted_constrained_bound and monte_carlo_errors reach
threshold_bound and mle_state through their own module globals. Each
call records (name, start, end, parent index, counts, excluded) in
memory; the spans are written out once, when the traced process ends.
"excluded" is time spent inside the span by the speed sampler of
calib.py, which belongs to no layer.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager


def _bins(args, kwargs, result):
    return {"bins": len(result.counts)}


def _mle(args, kwargs, result):
    return {"iterations": int(result.iterations), "converged": int(bool(result.converged))}


def _resamples(args, kwargs, result):
    return {"resamples": int(kwargs.get("resamples", 200))}


def _projection(args, kwargs, result):
    return {"projection_iterations": int(result.iterations)}


def _bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _bound(args, kwargs, result):
    return {"bound": float(result.bound)}


# (module, function, work counter); the metric prefix drops "afcmem."
TARGETS = (
    ("afcmem.bounds", "transmitted_constrained_bound", _bound),
    ("afcmem.bounds", "threshold_bound", None),
    ("afcmem.bounds", "poisson_conditional_bound", None),
    ("afcmem.tomography", "mle_state", _mle),
    ("afcmem.tomography", "monte_carlo_errors", _resamples),
    ("afcmem.tomography", "process_tomography", _projection),
    ("afcmem.montecarlo", "simulate_run", _bins),
    ("afcmem.montecarlo", "estimate_params", None),
    ("afcmem.montecarlo", "estimate_transmission", None),
    ("afcmem.montecarlo", "export_histogram", None),
    ("afcmem.tableio", "write_csv", _bytes),
)

ROOT = "cli.main"

# per-layer metric name -> (unit, better); every traced result reports all of them
LAYER_METRICS = {}
for _mod, _fn, _counter in TARGETS:
    _name = f"{_mod.split('.', 1)[1]}.{_fn}"
    LAYER_METRICS[f"{_name}.calls"] = ("count", "lower")
    LAYER_METRICS[f"{_name}.self_s"] = ("s", "lower")
LAYER_METRICS.update({
    "bounds.transmitted_constrained_bound.bound_mean": ("1", "higher"),
    "tomography.mle_state.iterations": ("count", "lower"),
    "tomography.mle_state.converged": ("count", "higher"),
    "tomography.monte_carlo_errors.resamples": ("count", "lower"),
    "tomography.process_tomography.projection_iterations": ("count", "lower"),
    "montecarlo.simulate_run.bins": ("count", "lower"),
    "tableio.write_csv.bytes": ("B", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


class Recorder:
    """Spans of one process, kept in memory until write()."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, counts, excluded]
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None, 0.0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def exclude(self, seconds):
        """Take seconds out of the innermost open span's self time. Called
        from a signal handler, so it only adds to one number."""
        if self._stack:
            self.spans[self._stack[-1]][5] += seconds

    def wrap(self, name, fn, counter):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.spans[idx][4] = counter(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Replace each target in every loaded afcmem module; restore on exit."""
        modules = [m for n, m in list(sys.modules.items()) if n == "afcmem" or n.startswith("afcmem.")]
        patched = []
        for mod_name, fn_name, counter in TARGETS:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self.wrap(f"{mod_name.split('.', 1)[1]}.{fn_name}", original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
        try:
            yield
        finally:
            for mod, attr, original in patched:
                setattr(mod, attr, original)

    def rescale(self, first, factor):
        """Scale the clock of spans first.. by factor (machine-speed
        normalization); durations and excluded sampler time scale alike
        and nesting is kept."""
        for span in self.spans[first:]:
            span[1] *= factor
            span[2] *= factor
            span[5] *= factor

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def summarize(spans):
    """Totals per span name: calls, self seconds and summed work counts.

    A span's self time is its duration minus its direct children's and
    its excluded time; the process is single threaded, so children nest
    inside their parent.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent, counts, excluded) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child_time[i] - excluded
        for key, value in (counts or {}).items():
            agg[key] = agg.get(key, 0) + value
    return out


def layer_metrics(span_sets, commands, overhead_s):
    """Per-layer metrics per traced CLI command (0 for layers not reached),
    from the span lists of several processes."""
    totals = {}
    for spans in span_sets:
        for name, agg in summarize(spans).items():
            into = totals.setdefault(name, {})
            for key, value in agg.items():
                into[key] = into.get(key, 0) + value
    values = {}
    for metric in LAYER_METRICS:
        layer, _, stat = metric.rpartition(".")
        agg = totals.get(layer, {})
        if stat == "bound_mean":
            values[metric] = agg["bound"] / agg["calls"] if agg.get("calls") else 0.0
        elif metric == "cli.self_s":
            values[metric] = totals.get(ROOT, {}).get("self_s", 0.0) / commands
        elif metric == "trace.overhead_s":
            values[metric] = overhead_s
        else:
            values[metric] = agg.get(stat, 0) / commands
    return values
