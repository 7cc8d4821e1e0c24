"""The four benchmark workloads: seeded inputs, a timed pass and its checks.

Each workload draws its inputs from ``--seed`` in ``__init__`` (numpy only),
builds its domains in ``setup`` and runs one closed-loop pass of spanlab calls
in ``run_pass``: one client, each call waiting for the previous one.  The
checks run outside the timed region and compare the pass's outputs with an
oracle at a fixed tolerance; every experiment step, evaluated point or
experiment gate is one operation, and one that raised or failed its check
counts as failed.
"""

from __future__ import annotations

import math
import time
import traceback

import numpy as np

from spans import StepClock

import spanlab as sl

# The acceptance schedule of the boundary-limit experiments.
ACCEPTANCE_STEPS = tuple(0.128 * 0.5**j for j in range(8))
SCALING_STEPS = tuple(0.1 * 0.5**j for j in range(5))


class Outcome:
    """Operation counts plus named checks, each kept at its worst value."""

    _WORSE = {"<=": max, "<": max, ">=": min, ">": min}
    _HOLDS = {
        "<=": lambda v, t: v <= t,
        "<": lambda v, t: v < t,
        ">=": lambda v, t: v >= t,
        ">": lambda v, t: v > t,
    }

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, dict] = {}
        self.errors: list[str] = []

    def check(self, name: str, value: float, op: str, tol: float) -> bool:
        value = float(value)
        ok = bool(self._HOLDS[op](value, tol))  # NaN fails every comparison
        item = self.checks.get(name)
        if item is None:
            item = self.checks[name] = {"value": value, "op": op, "tol": tol, "failures": 0}
        elif math.isnan(value) or not math.isnan(item["value"]):
            # NaN is the worst value and sticks once seen
            item["value"] = value if math.isnan(value) else self._WORSE[op](item["value"], value)
        item["failures"] += not ok
        return ok

    def operations(self, count: int, ok: bool = True) -> None:
        self.attempted += count
        self.failed += 0 if ok else count

    def error(self, where: str, exc: BaseException) -> None:
        if len(self.errors) < 10:
            line = traceback.format_exception_only(type(exc), exc)[-1].strip()
            self.errors.append(f"{where}: {line}")


class Pass:
    """One timed pass: its duration, deepest step and outputs for the checks."""

    def __init__(self, run_s: float, deep_s: float, points: int, outputs, point_s=None):
        self.run_s = run_s
        self.deep_s = deep_s
        self.points = points
        self.outputs = outputs
        self.point_s = point_s or []


def _base_point(rng: np.random.Generator) -> complex:
    """A point on the outer unit circle at a seeded angle."""
    return complex(np.exp(2j * np.pi * rng.random()))


def _evaluate(model, points, orders) -> tuple[list, list[float]]:
    """The metric and the curvature profile at each point, one after another."""
    values, latencies = [], []
    for z in points:
        began = time.perf_counter()
        try:
            z = complex(z)
            values.append((model.metric(z), sl.curvature_profile(model, z, orders=orders)))
        except Exception as exc:  # counted as a failed operation
            values.append(exc)
        latencies.append(time.perf_counter() - began)
    return values, latencies


def _band_points(rng, count: int, lo: float, hi: float) -> np.ndarray:
    """Points uniform in area over the annulus lo < |z| < hi."""
    r = np.sqrt(rng.uniform(lo**2, hi**2, count))
    return r * np.exp(2j * np.pi * rng.random(count))


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def check(self, result: Pass, outcome: Outcome) -> None:
        raise NotImplementedError

    def diagnostics(self) -> dict:
        return {}


# -- boundary-limit experiments ---------------------------------------------------


class ConcentricLimits(Workload):
    """The acceptance experiments on annulus(0.5) at one seeded base point.

    ``metric-distance`` and ``curvature-limit`` run to t = 1e-3 and
    ``scaling-kernel`` (rescaled domains, containment, Hausdorff distances) to
    t = 6.25e-3.  The deepest step runs from the start of an experiment's last
    ``build_model`` call until the experiment returns; it is summed over the
    experiments.
    """

    name = "concentric-limits"
    why = (
        "the acceptance experiments on annulus(0.5): metric and curvature limits to "
        "t=1e-3 and the scaling blow-up; diagonal Gram first, geometry layer next"
    )
    # experiment -> (depth schedule, columns that must be finite, build tolerance)
    experiments = {
        "metric-distance": (ACCEPTANCE_STEPS, ("metric", "product"), 1e-8),
        "curvature-limit": (ACCEPTANCE_STEPS, ("kappa1", "kappa2"), 1e-10),
        "scaling-kernel": (SCALING_STEPS, ("sup_kernel_gap", "hausdorff"), 1e-8),
    }

    def __init__(self, seed: int):
        super().__init__(seed)
        self.base_point = _base_point(self.rng)
        self.last_results: dict = {}

    def setup(self) -> None:
        self.domain = sl.annulus(0.5)
        self.configs = {
            name: sl.ExperimentConfig(base_point=self.base_point, steps=steps)
            for name, (steps, _, _) in self.experiments.items()
        }

    def run_pass(self) -> Pass:
        results = {}
        deep = 0.0
        with StepClock() as clock:
            start = time.perf_counter()
            for name, config in self.configs.items():
                try:
                    results[name] = sl.run_experiment(name, self.domain, config)
                except Exception as exc:  # counted as failed operations
                    results[name] = exc
                end = time.perf_counter()
                deep += end - clock.starts[-1] if clock.starts else math.nan
        self.last_results = results
        count = sum(len(steps) for steps, _, _ in self.experiments.values())
        return Pass(end - start, deep, count, results)

    def check(self, result: Pass, outcome: Outcome) -> None:
        for name, res in result.outputs.items():
            steps, columns, tol = self.experiments[name]
            if isinstance(res, Exception):
                outcome.operations(len(steps) + 1, ok=False)
                outcome.error(name, res)
                continue
            eps = np.asarray(res.columns["eps_model"], dtype=float)
            finite = np.all([np.isfinite(res.columns[c]) for c in columns], axis=0)
            for i in range(len(steps)):
                outcome.operations(1, ok=bool(finite[i] and eps[i] < tol))
            outcome.check(f"{name}: worst eps_model over the steps", np.max(eps), "<", tol)
            for gate, ok in res.gates.items():
                outcome.operations(1, ok=bool(ok))
                if not ok:
                    outcome.errors.append(f"{name}: gate failed: {gate}")
            outcome.check(
                f"{name}: gates failed", sum(not ok for ok in res.gates.values()), "<=", 0
            )
        self._headline_checks(result.outputs, outcome)

    @staticmethod
    def _headline_checks(results: dict, outcome: Outcome) -> None:
        res = results["metric-distance"]
        if not isinstance(res, Exception):
            outcome.check(
                "metric-distance: |s*dist^2 - 1/4| at the deepest step",
                abs(res.columns["product"][-1] - 0.25), "<=", 1e-2,
            )
            outcome.check("metric-distance: decay order", res.meta["order"], ">=", 0.9)
        res = results["curvature-limit"]
        if not isinstance(res, Exception):
            outcome.check(
                "curvature-limit: |kappa1 + 4|/4 at the deepest step",
                res.columns["gap1"][-1], "<=", 1e-2,
            )
            outcome.check(
                "curvature-limit: |kappa2 + 144|/144 at the deepest step",
                res.columns["gap2"][-1], "<=", 5e-2,
            )
        res = results["scaling-kernel"]
        if not isinstance(res, Exception):
            sup, t = res.columns["sup_kernel_gap"], res.columns["t"]
            outcome.check(
                "scaling-kernel: last/first sup kernel gap", sup[-1] / sup[0], "<=", 0.25
            )
            outcome.check(
                "scaling-kernel: worst Hausdorff distance / (2 C t)",
                np.max(res.columns["hausdorff"] / (2.0 * res.meta["c_fit"] * t)), "<=", 1.0,
            )

    def diagnostics(self) -> dict:
        return {
            "base_point": [self.base_point.real, self.base_point.imag],
            "degrees": {
                name: res.meta.get("degrees")
                for name, res in self.last_results.items()
                if not isinstance(res, Exception)
            },
        }


# -- dense route ---------------------------------------------------------------


class DenseEccentric(Workload):
    """The eccentric annulus |z| < 1, |z - 0.2| > 0.4 on the dense route.

    A disk automorphism maps it onto a concentric annulus whose model comes
    from the diagonal route, which is the oracle for the metric, the kernel
    and the curvatures (curvatures are conformal invariants).
    """

    name = "dense-eccentric"
    why = (
        "the only workload on the dense route: dense Gram and pivoted Cholesky, "
        "checked against a Mobius map onto a concentric annulus"
    )
    hole_center = 0.2
    hole_radius = 0.4
    margin = 0.12
    build_tol = 1e-9
    metric_tol = 1e-9
    kernel_tol = 1e-9
    curvature_tol = 1e-8
    orders = (1, 2)

    def __init__(self, seed: int):
        super().__init__(seed)
        # The first probe sits exactly at the margin, so the starting degree
        # (set by the probe nearest the boundary) is the same for every seed.
        first = (1.0 - self.margin) * np.exp(2j * np.pi * self.rng.random())
        self.probes = np.concatenate([[first], self._sample(7)])
        self.points = self._sample(64)
        self._oracle = None
        self.last_build: dict = {}

    def _admissible(self, z: np.ndarray) -> np.ndarray:
        return (np.abs(z) <= 1.0 - self.margin) & (
            np.abs(z - self.hole_center) >= self.hole_radius + self.margin
        )

    def _sample(self, count: int) -> np.ndarray:
        out = np.empty(0, dtype=complex)
        while out.size < count:
            z = self.rng.uniform(-1.0, 1.0, 64) + 1j * self.rng.uniform(-1.0, 1.0, 64)
            out = np.concatenate([out, z[self._admissible(z)]])
        return out[:count]

    def setup(self) -> None:
        c, r = self.hole_center, self.hole_radius
        self.domain = sl.domain_from_dict(
            {
                "outer": {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0},
                "holes": [{"kind": "circle", "center": [c, 0.0], "radius": r}],
                "anchors": [[c, 0.0]],
            }
        )

    def run_pass(self) -> Pass:
        start = time.perf_counter()
        try:
            model = sl.build_model(
                self.domain, probes=self.probes, watch_order=2, tol=self.build_tol
            )
        except Exception as exc:
            return Pass(time.perf_counter() - start, math.nan, 0, exc)
        built = time.perf_counter()
        values, latencies = _evaluate(model, self.points, self.orders)
        try:
            kernel = model.kernel_matrix(self.points, self.points)
        except Exception as exc:
            kernel = exc
        end = time.perf_counter()
        self.last_build = {
            "route": model.meta.get("route"),
            "history": model.meta.get("history"),
            "converged": model.meta.get("converged"),
            "rank": model.factorization.rank,
            "size": model.size,
        }
        return Pass(end - start, built - start, len(self.points), (model, values, kernel), latencies)

    def oracle(self):
        """Metric, kernel and curvatures pulled back from the concentric annulus."""
        if self._oracle is None:
            x1 = self.hole_center - self.hole_radius
            x2 = self.hole_center + self.hole_radius
            p, q = 1.0 + x1 * x2, x1 + x2
            a = (p - math.sqrt(p * p - q * q)) / q
            phi = sl.DiskAutomorphism(a)
            rho = float(phi.apply(x2).real)
            w = phi.apply(self.points)
            dphi = phi.derivative(self.points)
            annulus = sl.annulus(rho)
            model = sl.build_model(
                annulus,
                probes=np.concatenate([w, phi.apply(self.probes)]),
                watch_order=2,
                tol=1e-12,
            )
            metric = model.metric(w) * np.abs(dphi) ** 2
            kernel = dphi[:, None] * model.kernel_matrix(w, w) * np.conj(dphi)[None, :]
            kappas = [sl.curvature_profile(model, complex(v), orders=self.orders) for v in w]
            self._oracle = {"a": a, "rho": rho, "metric": metric, "kernel": kernel, "kappas": kappas}
        return self._oracle

    def check(self, result: Pass, outcome: Outcome) -> None:
        if isinstance(result.outputs, Exception):
            outcome.operations(len(self.points), ok=False)
            outcome.error("build_model", result.outputs)
            return
        model, values, kernel = result.outputs
        converged = bool(model.meta.get("converged"))
        outcome.check("build_model converged (1 = yes)", float(converged), ">=", 1.0)
        ref = self.oracle()
        if isinstance(kernel, Exception):
            outcome.error("kernel_matrix", kernel)
            kernel_err = np.full(len(self.points), math.nan)
        else:
            diag = np.sqrt(np.abs(np.diag(ref["kernel"])))
            kernel_err = np.max(np.abs(kernel - ref["kernel"]) / np.outer(diag, diag), axis=1)
        for i, value in enumerate(values):
            if isinstance(value, Exception):
                outcome.operations(1, ok=False)
                outcome.error(f"point {i}", value)
                continue
            metric, profile = value
            ok = converged
            ok &= outcome.check(
                "metric vs Mobius pull-back, relative error",
                abs(metric - ref["metric"][i]) / ref["metric"][i], "<=", self.metric_tol,
            )
            ok &= outcome.check(
                "kernel row vs Mobius pull-back, relative error",
                kernel_err[i], "<=", self.kernel_tol,
            )
            for n in self.orders:
                exact = ref["kappas"][i][n]
                ok &= outcome.check(
                    f"kappa{n} vs concentric annulus, relative error",
                    abs(profile[n] - exact) / abs(exact), "<=", self.curvature_tol,
                )
            outcome.operations(1, ok=ok)

    def diagnostics(self) -> dict:
        out = dict(self.last_build)
        if self._oracle is not None:
            out.update(mobius_a=self._oracle["a"], annulus_rho=self._oracle["rho"])
        return out


# -- model evaluation ------------------------------------------------------------


class ModelScan(Workload):
    """Reads from one converged model: the metric and three curvature orders."""

    name = "model-scan"
    why = (
        "model evaluation and curvature determinants at 1000 points of one model "
        "built in set-up; builds are not timed here"
    )
    lo, hi = 0.55, 0.95
    count = 1000
    orders = (1, 2, 3)
    fd_margin = 0.1
    fd_tol = 1e-4

    def __init__(self, seed: int):
        super().__init__(seed)
        # Two probes pinned next to the band's edges fix the probe nearest the
        # boundary, and with it the model's degree, for every seed.
        edges = np.array([self.lo + 5e-4, self.hi - 5e-4]) * np.exp(
            2j * np.pi * self.rng.random(2)
        )
        self.probes = np.concatenate([edges, _band_points(self.rng, 48, self.lo, self.hi)])
        self.points = _band_points(self.rng, self.count, self.lo, self.hi)
        radius = np.abs(self.points)
        self.depth = np.minimum(radius - 0.5, 1.0 - radius)
        self.deepest = np.argsort(self.depth, kind="stable")[: self.count // 10]
        self._fd = {}

    def setup(self) -> None:
        self.domain = sl.annulus(0.5)
        self.model = sl.build_model(self.domain, probes=self.probes, watch_order=3, tol=1e-9)

    def run_pass(self) -> Pass:
        start = time.perf_counter()
        values, latencies = _evaluate(self.model, self.points, self.orders)
        end = time.perf_counter()
        deep = float(np.sum(np.asarray(latencies)[self.deepest]))
        return Pass(end - start, deep, self.count, values, latencies)

    def check(self, result: Pass, outcome: Outcome) -> None:
        eps = self.model.eps_model
        converged = bool(self.model.meta.get("converged")) and math.isfinite(eps)
        outcome.check("build_model converged (1 = yes)", float(converged), ">=", 1.0)
        for i, value in enumerate(result.outputs):
            if isinstance(value, Exception):
                outcome.operations(1, ok=False)
                outcome.error(f"point {i}", value)
                continue
            metric, profile = value
            ok = converged and metric > 0.0
            # Criterion 3: kappa_1 < -4 by more than 10 eps |bound|, and
            # (kappa_n - bound_n)/|bound_n| <= eps for every order.
            ok &= outcome.check(
                "-4 - kappa1 minus 10*eps*4 (strict Suita margin)",
                -4.0 - profile[1] - 40.0 * eps, ">", 0.0,
            )
            for n in self.orders:
                bound = sl.burbea_bound(n)
                ok &= outcome.check(
                    f"(kappa{n} - bound)/|bound| minus eps (Burbea)",
                    (profile[n] - bound) / abs(bound) - eps, "<=", 0.0,
                )
            if self.depth[i] >= self.fd_margin:
                ok &= outcome.check(
                    "|kappa1 - finite-difference kappa1| (criterion 2)",
                    abs(profile[1] - self._fd_kappa(i)), "<=", self.fd_tol,
                )
            outcome.operations(1, ok=ok)

    def _fd_kappa(self, i: int) -> float:
        if i not in self._fd:
            self._fd[i] = sl.gaussian_curvature_fd_oracle(self.model, complex(self.points[i]), h=5e-4)
        return self._fd[i]

    def diagnostics(self) -> dict:
        meta = self.model.meta
        return {
            "history": meta.get("history"),
            "eps_model": self.model.eps_model,
            "size": self.model.size,
            "fd_points": int(np.count_nonzero(self.depth >= self.fd_margin)),
        }


WORKLOADS = {
    w.name: w for w in (ConcentricLimits, DenseEccentric, ModelScan)
}
