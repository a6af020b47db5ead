"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of onebit's layers at every place a
caller looks them up: ``from .sphere import sparse_net`` binds the name in
the importing module at import time, so patching only the defining module
would record nothing.  Each call becomes one span (name, start, end, parent);
per-function call counts and self times are derived from the spans after
the pass.  Patches exist only inside :meth:`Tracer.installed` and are always
restored, so traced and untraced passes run the same code.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from typing import Callable

HARNESS_SPAN = "harness.run_experiment"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the top level


def self_times(spans) -> dict[str, tuple[int, float]]:
    """(calls, self seconds) per span name.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread never overlap, so nothing is subtracted
    twice and the self times of all spans sum to the time the top-level
    spans cover.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    out: dict[str, tuple[int, float]] = {}
    for span, children in zip(spans, covered):
        calls, total = out.get(span.name, (0, 0.0))
        out[span.name] = (calls + 1, total + (span.end - span.start) - children)
    return out


# --- counters computed from call arguments -----------------------------------


def _linear_l1_bytes(args, result) -> dict[str, float]:
    # (k, m) projection plus two (k, m) float64 temporaries per row i: proj[i] - proj, abs
    k, m = len(args["points"]), args["ens"].m
    return {"computed_gb": 8.0 * (k * m + 2 * k * k * m) / 1e9}


def _hemisphere_bytes(args, result) -> dict[str, float]:
    # float64 direction draws (rows, n+1), projection (rows, k) and its bool mask
    points = args["points"]
    rows = args["trials"] * args["m_inner"]
    return {"computed_gb": rows * (8.0 * points.ambient + 9.0 * len(points)) / 1e9}


def _shatter_counts(args, result) -> dict[str, float]:
    return {"dichotomies": result.dichotomies_realized, "budget": args["budget"]}


@dataclass(frozen=True)
class Target:
    """A traced name: a function, ``Class.method``, or ``Class`` (its ``__init__``)."""

    module: str  # onebit submodule that defines the name
    qualname: str
    counters: Callable | None = None  # (bound arguments, result) -> {counter: value}

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


TARGETS = (
    Target("sphere", "pairwise_geodesic"),
    Target("sphere", "uniform_sphere_rows"),
    Target("sphere", "sparse_net"),
    Target("sphere", "PointSet.sparse"),
    Target("sphere", "transversal_mask"),
    Target("sphere", "wedge_mask"),
    Target("measurements", "sign_matrix"),
    Target("measurements", "MeasurementEnsemble"),
    Target("verify", "one_bit_rip"),
    Target("verify", "sign_product_rip"),
    Target("verify", "linear_l1_rip", _linear_l1_bytes),
    Target("verify", "small_cells_check"),
    Target("verify", "metric_ratio_check"),
    Target("verify", "finite_embedding"),
    Target("processes", "estimate_gaussian_width"),
    Target("processes", "estimate_hemisphere_width_cholesky"),
    Target("processes", "estimate_hemisphere_width_empirical"),
    Target("processes", "hemisphere_empirical_samples", _hemisphere_bytes),
    Target("processes", "covariance_matrix"),
    Target("processes", "sudakov_check"),
    Target("nets", "greedy_packing"),
    Target("nets", "sandwich_check"),
    Target("nets", "shatter_check", _shatter_counts),
    Target("nets", "first_uncovered_cover"),
    Target("rng", "substream"),
)


def bindings(target: Target) -> list[tuple[object, str, object]]:
    """(owner, attribute, original) for every place callers look the target up."""
    module = importlib.import_module(f"onebit.{target.module}")
    head, _, method = target.qualname.partition(".")
    obj = getattr(module, head)
    if isinstance(obj, type):
        attr = method or "__init__"
        return [(obj, attr, obj.__dict__[attr])]
    return [
        (mod, head, obj)
        for name, mod in sorted(sys.modules.items())
        if (name == "onebit" or name.startswith("onebit.")) and vars(mod).get(head) is obj
    ]


class Tracer:
    """Records spans in memory; counters accumulate per ``<target>.<counter>``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent)

    def _wrap(self, target: Target, fn):
        signature = inspect.signature(fn) if target.counters else None

        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(target.name):
                result = fn(*args, **kwargs)
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in target.counters(bound.arguments, result).items():
                    name = f"{target.name}.{key}"
                    self.counters[name] = self.counters.get(name, 0) + value
            return result

        return traced

    def _replacement(self, target: Target, raw):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(target, raw.__func__))
        return self._wrap(target, raw)

    @contextmanager
    def installed(self):
        """Patch every binding of every target for the duration of the block."""
        patched = []
        try:
            for target in TARGETS:
                for owner, attr, raw in bindings(target):
                    setattr(owner, attr, self._replacement(target, raw))
                    patched.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(patched):
                setattr(owner, attr, raw)


def layer_unit(key: str) -> str:
    if key.endswith("gb_per_s"):
        return "GB/s"
    if key.endswith("_gb"):
        return "GB"
    if key.endswith(("_s", ".s")):
        return "s"
    return "count"


def layer_metrics(tracer: Tracer, run_s: float, experiments) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``run_s`` seconds.

    ``trace.unattributed_s`` is the part of ``run_s`` that no span covers
    (the benchmark's own glue between calls); together with every
    ``.self_s`` and ``harness.self_s`` it sums to ``trace.run_s``.
    """
    spans = [s for s in tracer.spans if s is not None]
    per_name = self_times(spans)
    out: dict[str, float] = {}
    for target in TARGETS:
        calls, self_s = per_name.get(target.name, (0, 0.0))
        out[f"{target.name}.calls"] = calls
        out[f"{target.name}.self_s"] = self_s
    harness_self = 0.0
    for experiment in experiments:
        name = f"{HARNESS_SPAN}.{experiment}"
        out[f"{name}.s"] = sum(s.end - s.start for s in spans if s.name == name)
        harness_self += per_name.get(name, (0, 0.0))[1]
    out["harness.self_s"] = harness_self
    for name in (
        "nets.shatter_check.dichotomies",
        "nets.shatter_check.budget",
        "processes.hemisphere_empirical_samples.computed_gb",
        "verify.linear_l1_rip.computed_gb",
    ):
        out[name] = tracer.counters.get(name, 0)
    hemi_s = out["processes.hemisphere_empirical_samples.self_s"]
    hemi_gb = out["processes.hemisphere_empirical_samples.computed_gb"]
    out["processes.hemisphere_empirical_samples.gb_per_s"] = hemi_gb / hemi_s if hemi_s > 0 else 0.0
    covered = sum(s.end - s.start for s in spans if s.parent is None)
    out["trace.run_s"] = run_s
    out["trace.unattributed_s"] = run_s - covered
    return out
