"""Spans around spanlab's public functions, recorded from outside the package.

Nothing in ``src/`` is timed from the inside.  Instead the benchmark replaces
each traced function with a wrapper at every name that refers to it: the
defining module, the package root and every module that bound it with
``from ... import``.  ``lab`` calls ``build_model`` through its own module
global and ``dirichlet`` calls ``pivoted_cholesky`` the same way, so patching
only the defining module would miss those calls.  Methods are patched on
their class.  Everything is restored when the context manager exits.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict

# Traced functions: "<module>.<attribute>" or "<module>.<Class>.<method>".
# Each maps to the workloads whose timed phase must call it; the benchmark's
# tests fail when one of those calls is missing (a wiring error).
TARGETS = {
    "lab.run_experiment": ("concentric-limits",),
    "dirichlet.build_model": ("concentric-limits", "dense-eccentric"),
    "dirichlet.gram_diagonal": ("concentric-limits",),
    "dirichlet.spot_check_offdiagonal": ("concentric-limits",),
    "dirichlet.gram_dense": ("dense-eccentric",),
    "dirichlet.zero_period_residual": ("dense-eccentric",),
    "linalg.pivoted_cholesky": ("dense-eccentric",),
    "dirichlet.KernelModel.metric": ("concentric-limits", "dense-eccentric", "model-scan"),
    "dirichlet.KernelModel.metric_matrix": ("concentric-limits", "dense-eccentric", "model-scan"),
    "dirichlet.KernelModel.kernel_matrix": ("concentric-limits", "dense-eccentric"),
    "curvature.curvature_profile": ("concentric-limits", "dense-eccentric", "model-scan"),
    "domains.Domain.contains": ("concentric-limits",),
    "domains.signed_distance": ("concentric-limits",),
    "domains.scaled_domain": ("concentric-limits",),
    "domains.curve_samples_in_ball": ("concentric-limits",),
    "domains.hausdorff_distance_local": ("concentric-limits",),
    "domains.Domain.__init__": ("concentric-limits",),
}

# Functions traced while the workload sets up (domains, and the scanned model).
SETUP_TARGETS = {
    "shapes.annulus": ("concentric-limits", "model-scan"),
    "shapes.domain_from_dict": ("dense-eccentric",),
    "domains.Domain.__init__": ("concentric-limits", "dense-eccentric", "model-scan"),
    "dirichlet.build_model": ("model-scan",),
}

# Spans whose traced children make a self time meaningful.
WITH_CHILDREN = (
    "lab.run_experiment",
    "dirichlet.build_model",
    "curvature.curvature_profile",
    "domains.signed_distance",
    "domains.scaled_domain",
)

# Raw spans kept per traced pass; the aggregates below count every call.
RAW_SPAN_LIMIT = 20000


def metric_name(target: str) -> str:
    """Metric prefix for a target; ``Domain.__init__`` reads ``Domain.init``."""
    return target.replace(".__init__", ".init")


def _resolve(target: str):
    """(owner object, attribute, current value) for a dotted target."""
    module_name, _, rest = target.partition(".")
    module = importlib.import_module(f"spanlab.{module_name}")
    owner = module
    parts = rest.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1], None)


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, target: str, make_wrapper) -> bool:
        """Wrap ``target`` at every binding; False if the target does not exist."""
        owner, attr, current = _resolve(target)
        if current is None:
            return False
        wrapper = make_wrapper(current)
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return True
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != "spanlab" and not name.startswith("spanlab."):
                continue
            for key, value in list(vars(module).items()):
                if value is current:
                    self._set(module, key, wrapper)
        return True

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class StepClock:
    """Entry times of every ``build_model`` call; one call is one step.

    Installed in untraced and traced passes alike, so the deepest step of an
    experiment can be timed without opening the experiment loop.
    """

    def __init__(self):
        self.starts: list[float] = []
        self._patches = Patches()

    def __enter__(self) -> "StepClock":
        def make(fn):
            @functools.wraps(fn)
            def clocked(*args, **kwargs):
                self.starts.append(time.perf_counter())
                return fn(*args, **kwargs)

            return clocked

        if not self._patches.replace("dirichlet.build_model", make):
            raise RuntimeError("spanlab.dirichlet.build_model is missing")
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()


class _Stat:
    __slots__ = ("calls", "busy", "child", "extra")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.child = 0.0
        self.extra: dict[str, float] = defaultdict(float)


def _probe_build_model(extra, args, kwargs, model, degrees) -> None:
    extra["builds"] += len(model.meta.get("history", ()))
    extra["basis_functions"] += model.size
    degrees.append(int(model.meta.get("degree", model.size)))


def _probe_gram_dense(extra, args, kwargs, result, degrees) -> None:
    # Computed, not counted: one (n x M) @ (M x n) complex product per curve,
    # 8 real flops per complex multiply-add, and the product's operands and
    # result moved once each.  Node count M follows gram_dense's default.
    domain, blocks = args[0], args[1]
    n = int(sum(b.count for b in blocks))
    nodes = kwargs.get("nodes", args[2] if len(args) > 2 else None)
    if nodes is None:
        nodes = max(2 * n + 64, max(c.nodes for c in domain.curves))
    curves = len(domain.curves)
    extra["gflop"] += curves * 8.0 * n * n * nodes / 1e9
    extra["mbytes"] += curves * 16.0 * (2 * n * nodes + n * n) / 1e6


def _probe_pivoted_cholesky(extra, args, kwargs, result, degrees) -> None:
    _, factor, _ = result
    extra["rank"] += factor.shape[1]
    extra["size"] += factor.shape[0]


PROBES = {
    "dirichlet.build_model": _probe_build_model,
    "dirichlet.gram_dense": _probe_gram_dense,
    "linalg.pivoted_cholesky": _probe_pivoted_cholesky,
}


class Tracer:
    """Spans with parent links, aggregated per name while they close."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.missing: list[str] = []
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.degrees: list[int] = []
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._patches = Patches()

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            if not self._patches.replace(target, functools.partial(self._wrap, target)):
                self.missing.append(target)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def _wrap(self, target: str, fn):
        name = metric_name(target)
        probe = PROBES.get(target)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                stat = self.stats[name]
                stat.calls += 1
                stat.busy += end - start
                stat.child += frame[1]
                if stack:
                    stack[-1][1] += end - start
                if len(self.spans) < RAW_SPAN_LIMIT:
                    self.spans.append((frame[0], parent, name, start, end))
            if probe is not None:
                probe(stat.extra, args, kwargs, result, self.degrees)
            return result

        return traced


# -- per-layer metrics -----------------------------------------------------------


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for target in TARGETS:
        name = metric_name(target)
        specs += [(f"{name}.s", "s", "lower"), (f"{name}.calls", "count", "lower")]
        if name in WITH_CHILDREN:
            specs.append((f"{name}.self_s", "s", "lower"))
    specs += [
        ("dirichlet.build_model.builds", "count", "lower"),
        ("dirichlet.build_model.basis_functions", "count", "lower"),
        ("dirichlet.build_model.useful_ratio", "ratio", "higher"),
        ("dirichlet.gram_dense.gflop", "GFLOP", "lower"),
        ("dirichlet.gram_dense.mbytes", "MB", "lower"),
        ("linalg.pivoted_cholesky.rank_ratio", "ratio", "higher"),
    ]
    for target in SETUP_TARGETS:
        name = metric_name(target)
        specs += [(f"setup.{name}.s", "s", "lower"), (f"setup.{name}.calls", "count", "lower")]
    specs.append(("trace.overhead_s", "s", "lower"))
    return specs


def layer_metrics(tracers, setup_tracer, overhead_s: float) -> dict:
    """Per-layer metrics from traced passes: medians over passes, per pass.

    Returns ``{name: (value, unit, better)}`` in the order of
    ``layer_metric_specs``.  A span that never ran reads 0.
    """

    def per_pass(name: str, get) -> float:
        return statistics.median(get(t.stats[name]) if name in t.stats else 0 for t in tracers)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {}
    for target in TARGETS:
        name = metric_name(target)
        values[f"{name}.s"] = per_pass(name, lambda s: s.busy)
        values[f"{name}.calls"] = per_pass(name, lambda s: s.calls)
        if name in WITH_CHILDREN:
            values[f"{name}.self_s"] = per_pass(name, lambda s: s.busy - s.child)
    build = "dirichlet.build_model"
    builds = per_pass(build, lambda s: s.extra["builds"])
    values[f"{build}.builds"] = builds
    values[f"{build}.basis_functions"] = per_pass(build, lambda s: s.extra["basis_functions"])
    values[f"{build}.useful_ratio"] = ratio(values[f"{build}.calls"], builds)
    values["dirichlet.gram_dense.gflop"] = per_pass("dirichlet.gram_dense", lambda s: s.extra["gflop"])
    values["dirichlet.gram_dense.mbytes"] = per_pass("dirichlet.gram_dense", lambda s: s.extra["mbytes"])
    chol = "linalg.pivoted_cholesky"
    values[f"{chol}.rank_ratio"] = ratio(
        per_pass(chol, lambda s: s.extra["rank"]), per_pass(chol, lambda s: s.extra["size"])
    )
    for target in SETUP_TARGETS:
        name = metric_name(target)
        stat = setup_tracer.stats.get(name)
        values[f"setup.{name}.s"] = stat.busy if stat else 0.0
        values[f"setup.{name}.calls"] = stat.calls if stat else 0
    values["trace.overhead_s"] = overhead_s
    return {name: (values[name], unit, better) for name, unit, better in layer_metric_specs()}
