"""Boundary-limit experiments on the span metric.

Each experiment walks a geometric sequence of inner-normal depths ``t`` at a
base boundary point, rebuilds the kernel model at every depth (the adaptive
degree escalation in ``dirichlet.build_model`` keeps the truncation floor
below the quantity being measured), and records a table of columns plus a set
of named pass/fail gates.  Results serialize to CSV and a small hand-rolled
SVG log-log plot; nothing here depends on a plotting stack.

One routine, ``_walk``, takes the points from ``domains.inner_normal_sequence``
(so a schedule that leaves the domain fails before any model is built), calls
the experiment's ``measure(z)`` once per depth and stacks the returned rows,
with the per-step ``degree``, ``eps_model`` and ``condition`` diagnostics.  An
experiment is a ``measure`` closure plus the gates it reads off the columns.

The four experiments:

* ``metric_distance``    - s(z_t) * dist(z_t)^2 -> 1/4 at rate O(t)
* ``curvature_limit``    - kappa_n(z_t) -> Burbea's disk value at rate O(t^4)
* ``localization``       - s_{U cap D} / s_D -> 1, from above, with an exact
                           two-sided sandwich from closed-form neighbors
* ``scaling_kernel``     - kernels of blown-up domains -> half-plane kernel,
                           with boundary Hausdorff convergence at rate O(t)

The scaling experiment blows the domain up at each ``z_t`` with
``domains.scaled_domain(domain, z_t, -signed_distance(domain, z_t))`` and
compares it with one ``reference.HalfPlaneMetric(omega)``, ``omega`` the
outward normal at the base point, which supplies both the limit kernel and
the limit boundary line.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .curvature import burbea_bound, curvature_profile
from .dirichlet import build_model
from .domains import (
    Domain,
    curve_samples_in_ball,
    hausdorff_distance_local,
    inner_normal_sequence,
    outward_normal,
    scaled_domain,
    signed_distance,
)
from .errors import ConfigError
from .reference import DiskMetric, HalfPlaneMetric, LensMetric


# Kernel comparison grid of the scaling experiment, in the frame of the outward
# normal: real parts along the normal, imaginary parts along the tangent.
_SCALING_GRID = (
    np.linspace(-1.0, 0.5, 5)[:, None] + 1j * np.linspace(-0.75, 0.75, 5)
).ravel()


def default_schedule(start: float = 0.1, count: int = 10) -> tuple[float, ...]:
    return tuple(start * 0.5**j for j in range(count))


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for all boundary-limit experiments."""

    base_point: complex
    steps: tuple[float, ...] = default_schedule()
    metric_tol: float = 1e-8
    curvature_tol: float = 1e-10
    orders: tuple[int, ...] = (1, 2)
    clip_radius: float = 5.0

    def __post_init__(self):
        if len(self.steps) < 2:
            raise ConfigError("need at least two depth steps")
        if not all(0.0 < t < np.inf for t in self.steps):
            raise ConfigError("depth steps must be positive and finite")
        if any(b >= a for a, b in zip(self.steps, self.steps[1:])):
            raise ConfigError("depth steps must strictly decrease")
        if not self.orders or any(n < 1 for n in self.orders):
            raise ConfigError("curvature orders must be a nonempty list of integers >= 1")
        limits = (self.metric_tol, self.curvature_tol, self.clip_radius)
        if not all(0.0 < v < np.inf for v in limits):
            raise ConfigError("metric_tol, curvature_tol and clip_radius must be positive and finite")


@dataclass
class ExperimentResult:
    name: str
    columns: dict[str, np.ndarray]
    gates: dict[str, bool]
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.gates.values())

    def table(self) -> str:
        names = list(self.columns)
        widths = [max(len(n), 13) for n in names]
        lines = ["  ".join(n.rjust(w) for n, w in zip(names, widths))]
        rows = len(next(iter(self.columns.values())))
        for i in range(rows):
            lines.append(
                "  ".join(
                    f"{self.columns[n][i]:{w}.6e}" for n, w in zip(names, widths)
                )
            )
        return "\n".join(lines)

    def gate_lines(self) -> list[str]:
        return [
            f"[{'PASS' if ok else 'FAIL'}] {self.name}: {gate}"
            for gate, ok in self.gates.items()
        ]

    def save(self, directory: str) -> list[str]:
        os.makedirs(directory, exist_ok=True)
        csv_path = os.path.join(directory, f"{self.name}.csv")
        write_csv(csv_path, self.columns)
        written = [csv_path]
        plot_cols = self.meta.get("plot_columns", [])
        if plot_cols and "t" in self.columns:
            svg_path = os.path.join(directory, f"{self.name}.svg")
            series = {c: np.abs(self.columns[c]) for c in plot_cols}
            write_loglog_svg(svg_path, self.columns["t"], series, title=self.name)
            written.append(svg_path)
        return written


def write_csv(path: str, columns: dict[str, np.ndarray]) -> None:
    names = list(columns)
    rows = len(next(iter(columns.values())))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(rows):
            fh.write(",".join("%.17g" % float(columns[n][i]) for n in names) + "\n")


def decay_order(steps, gaps) -> float:
    """Least-squares slope of log|gap| against log t (positive gaps only)."""
    t = np.asarray(steps, dtype=float)
    g = np.abs(np.asarray(gaps, dtype=float))
    mask = g > 0
    if np.count_nonzero(mask) < 2:
        return float("nan")
    x, y = np.log(t[mask]), np.log(g[mask])
    return float(np.polyfit(x, y, 1)[0])


def cauchy_decay(values, factor: float = 3.0) -> bool:
    """Last increment no more than ``factor`` times the one before it."""
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        return False
    return abs(v[-1] - v[-2]) <= factor * abs(v[-2] - v[-3]) + 1e-300


def _walk(domain: Domain, config: ExperimentConfig, measure):
    """Call ``measure(z) -> (model, row)`` at each depth and stack the results.

    Returns the columns (``t``, then the row keys in order), the ``degree`` and
    ``eps_model`` columns that close every table, and the diagnostics meta.
    """
    points = inner_normal_sequence(domain, complex(config.base_point), config.steps)
    stacked: dict[str, list] = {"t": list(config.steps)}
    diagnostics = []
    for z in points:
        model, row = measure(complex(z))
        for key, value in row.items():
            stacked.setdefault(key, []).append(value)
        diagnostics.append((model.meta["degree"], model.eps_model, model.meta["condition"]))
    columns = {key: np.array(values, dtype=float) for key, values in stacked.items()}
    degree, eps_model, condition = np.array(diagnostics, dtype=float).T
    meta = {
        "degrees": degree.astype(int).tolist(),
        "eps_model": eps_model.tolist(),
        "condition": condition.tolist(),
    }
    return columns, {"degree": degree, "eps_model": eps_model}, meta


# -- experiment 1: metric times squared distance ------------------------------


def metric_distance_experiment(domain: Domain, config: ExperimentConfig) -> ExperimentResult:
    """s(z_t) * dist(z_t)^2 -> 1/4 along the inner normal."""

    def measure(z):
        model = build_model(domain, probes=[z], watch_order=0, tol=config.metric_tol)
        s, dist = model.metric(z), -signed_distance(domain, z)
        product = s * (dist * dist)
        return model, {"metric": s, "dist": dist, "product": product, "gap": product - 0.25}

    columns, diagnostics, meta = _walk(domain, config, measure)
    t, product, gap = columns["t"], columns["product"], columns["gap"]
    order = decay_order(t, gap)
    gates = {
        f"|s*dist^2 - 1/4| <= 1e-2 at t={t[-1]:g}": bool(abs(gap[-1]) <= 1e-2),
        "decay order >= 0.9": bool(order >= 0.9),
        "product increments Cauchy (factor 3)": cauchy_decay(product),
    }
    return ExperimentResult(
        name="metric_distance",
        columns={**columns, **diagnostics},
        gates=gates,
        meta={"order": order, "plot_columns": ["gap"], **meta},
    )


# -- experiment 2: curvature boundary limits ----------------------------------


def curvature_limit_experiment(domain: Domain, config: ExperimentConfig) -> ExperimentResult:
    """kappa_n(z_t) -> the disk's curvature value for each watched order."""
    orders = config.orders

    def measure(z):
        model = build_model(
            domain, probes=[z], watch_order=max(orders), tol=config.curvature_tol
        )
        profile = curvature_profile(model, z, orders=orders)
        row = {}
        for n in orders:
            row[f"kappa{n}"] = profile[n]
            row[f"gap{n}"] = abs(profile[n] - burbea_bound(n)) / abs(burbea_bound(n))
        return model, row

    columns, diagnostics, meta = _walk(domain, config, measure)
    t = columns["t"]
    gates: dict[str, bool] = {}
    for n in orders:
        bound, gap = burbea_bound(n), columns[f"gap{n}"]
        tol = 1e-2 if n == 1 else 5e-2
        gates[f"|kappa{n} - ({bound:g})|/|{bound:g}| <= {tol:g} at t={t[-1]:g}"] = bool(
            gap[-1] <= tol
        )
        gates[f"kappa{n} gap decreasing over last 4 steps"] = bool(
            np.all(np.diff(gap[-4:]) < 0)
        )
        gates[f"kappa{n} increments Cauchy (factor 3)"] = cauchy_decay(columns[f"kappa{n}"])
    return ExperimentResult(
        name="curvature_limit",
        columns={**columns, **diagnostics},
        gates=gates,
        meta={
            "plot_columns": [f"gap{n}" for n in orders],
            "gap_slopes": {n: decay_order(t, columns[f"gap{n}"]) for n in orders},
            **meta,
        },
    )


# -- experiment 3: localization ------------------------------------------------


def localization_experiment(domain: Domain, config: ExperimentConfig) -> ExperimentResult:
    """The metric of a one-sided neighborhood piece against the full domain.

    ``U`` is the disk around the base boundary point whose radius is half the
    distance to the rest of the boundary, so ``U cap D`` is an exact
    two-corner lens with a closed-form metric.  Domain monotonicity makes the
    computed ratio structurally >= 1: the lens value is exact and the model
    value never exceeds the true metric of the larger domain.  The sandwich
    column is the closed-form lower metric (the full outer disk) divided by
    the lens metric; the true ratio lives between 1 and 1/sandwich.
    """
    p = complex(config.base_point)
    circle = domain.outer.circle_data()
    if circle is None:
        raise ConfigError("localization needs a circular outer boundary")
    center, radius, _ = circle
    to_holes = [float(np.abs(c.point(c.nearest_parameter(p)) - p)[0]) for c in domain.holes]
    u_radius = min(to_holes, default=radius) / 2.0
    if max(config.steps) >= u_radius:
        raise ConfigError("depth steps must stay inside the localization disk")
    lens = LensMetric.from_disks(center, radius, p, u_radius)
    outer_disk = DiskMetric(center, radius)

    def measure(z):
        model = build_model(domain, probes=[z], watch_order=0, tol=config.metric_tol)
        s_lens = float(lens.metric(z))
        ratio = s_lens / model.metric(z)
        return model, {
            "ratio": ratio,
            "gap": ratio - 1.0,
            "sandwich": outer_disk.metric(z) / s_lens,
        }

    columns, diagnostics, meta = _walk(domain, config, measure)
    t, ratio, sandwich = columns["t"], columns["ratio"], columns["sandwich"]
    # Textbook half-disk sandwich in first-power form: the density ratio of the
    # half-plane to the half-disk of radius u at depth t, (u^2-t^2)/(u^2+t^2).
    halfdisk_ratio = (u_radius**2 - t**2) / (u_radius**2 + t**2)
    small = t <= 0.02
    gates = {
        "ratio >= 1 at every depth": bool(np.all(ratio >= 1.0 - 1e-12)),
        f"|ratio - 1| <= 1e-2 at t={t[-1]:g}": bool(abs(ratio[-1] - 1.0) <= 1e-2),
        "ratio - 1 <= 2 * (1 - sandwich) once t <= 0.02": bool(
            np.all(columns["gap"][small] <= 2.0 * (1.0 - sandwich[small]))
        ),
        "ratio increments Cauchy (factor 3)": cauchy_decay(ratio),
    }
    return ExperimentResult(
        name="localization",
        columns={**columns, "halfdisk_ratio": halfdisk_ratio, **diagnostics},
        gates=gates,
        meta={"u_radius": u_radius, "plot_columns": ["gap"], **meta},
    )


# -- experiment 4: scaling principle -------------------------------------------


def scaling_kernel_experiment(domain: Domain, config: ExperimentConfig) -> ExperimentResult:
    """Kernels of blown-up domains against the limit half-plane kernel.

    At depth ``t`` the domain is rescaled by ``T(z) = (z - p_t)/dist(p_t)``;
    the rescaled kernels are compared to the half-plane kernel on a fixed grid
    in the frame of the outward normal, and the rescaled boundary is compared
    to the half-plane boundary in clipped Hausdorff distance.
    """
    p = complex(config.base_point)
    omega = outward_normal(domain, p)
    half = HalfPlaneMetric(omega)
    grid = _SCALING_GRID * omega
    ref_kernel = half.kernel(grid[:, None], grid[None, :])
    line = half.boundary_samples(config.clip_radius, count=4096)

    def measure(z):
        blown = scaled_domain(domain, z, -signed_distance(domain, z))
        inside = blown.inside(grid)
        dropped = int(np.count_nonzero(~inside))
        if dropped:
            warnings.warn(
                f"{dropped} grid points fall outside the rescaled domain "
                f"at t={abs(p - z):g}; dropped from the kernel comparison",
                RuntimeWarning,
            )
        kept = grid[inside]
        model = build_model(blown, probes=kept, watch_order=0, tol=config.metric_tol)
        kernel_gap = model.kernel_matrix(kept, kept) - ref_kernel[np.ix_(inside, inside)]
        boundary = np.concatenate(
            [curve_samples_in_ball(c, config.clip_radius) for c in blown.curves]
        )
        return model, {
            "sup_kernel_gap": float(np.max(np.abs(kernel_gap))),
            "hausdorff": hausdorff_distance_local(boundary, line, config.clip_radius),
            "dropped": dropped,
        }

    columns, diagnostics, meta = _walk(domain, config, measure)
    t, sup_gap, bd_gap = columns["t"], columns["sup_kernel_gap"], columns["hausdorff"]
    c_fit = float(np.sum(bd_gap * t) / np.sum(t * t))
    gates = {
        f"sup kernel gap shrinks 4x ({sup_gap[0]:.2e} -> {sup_gap[-1]:.2e})": bool(
            sup_gap[-1] <= sup_gap[0] / 4.0
        ),
        "boundary Hausdorff distance <= 2 * C * t at every depth": bool(
            np.all(bd_gap <= 2.0 * c_fit * t)
        ),
        "grid points dropped only at the coarsest steps": bool(
            np.all(np.diff(columns["dropped"]) <= 0)
        ),
        "sup kernel gap increments Cauchy (factor 3)": cauchy_decay(sup_gap),
    }
    return ExperimentResult(
        name="scaling_kernel",
        columns={**columns, **diagnostics},
        gates=gates,
        meta={
            "c_fit": c_fit,
            "omega": [omega.real, omega.imag],
            "gap_slope": decay_order(t, sup_gap),
            "hausdorff_slope": decay_order(t, bd_gap),
            "plot_columns": ["sup_kernel_gap", "hausdorff"],
            **meta,
        },
    )


EXPERIMENTS = {
    "metric-distance": metric_distance_experiment,
    "curvature-limit": curvature_limit_experiment,
    "localization": localization_experiment,
    "scaling-kernel": scaling_kernel_experiment,
}


def run_experiment(name: str, domain: Domain, config: ExperimentConfig) -> ExperimentResult:
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[name](domain, config)


# -- SVG ----------------------------------------------------------------------

_PALETTE = ["#1965b0", "#dc050c", "#4eb265", "#f7a600", "#882e72", "#777777"]


def write_loglog_svg(
    path: str,
    x: np.ndarray,
    series: dict[str, np.ndarray],
    title: str = "",
    width: int = 640,
    height: int = 440,
) -> None:
    """Minimal log-log scatter/line plot, written as a standalone SVG file."""
    margin = 64
    x = np.asarray(x, dtype=float)
    series = {label: np.asarray(y, dtype=float) for label, y in series.items()}
    xs_all = np.log10(x)
    ys_all = np.concatenate([
        np.log10(y[(y > 0) & np.isfinite(y)]) for y in series.values() if np.any(y > 0)
    ] or [np.array([0.0])])
    x_lo, x_hi = float(np.min(xs_all)), float(np.max(xs_all))
    y_lo, y_hi = float(np.min(ys_all)), float(np.max(ys_all))
    x_hi = x_hi if x_hi > x_lo else x_lo + 1.0
    y_hi = y_hi if y_hi > y_lo else y_lo + 1.0

    def px(lx):
        return margin + (lx - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(ly):
        return height - margin - (ly - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    for d in range(int(np.ceil(x_lo)), int(np.floor(x_hi)) + 1):
        parts.append(
            f'<text x="{px(d):.1f}" y="{height - margin + 16}" '
            f'text-anchor="middle">1e{d}</text>'
        )
    for d in range(int(np.ceil(y_lo)), int(np.floor(y_hi)) + 1):
        parts.append(
            f'<text x="{margin - 6}" y="{py(d):.1f}" text-anchor="end">1e{d}</text>'
        )
    for idx, (label, y) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        mask = (y > 0) & np.isfinite(y)
        if not np.any(mask):
            continue
        xy = [
            (f"{px(np.log10(xv)):.1f}", f"{py(np.log10(yv)):.1f}")
            for xv, yv in zip(x[mask], y[mask])
        ]
        pts = " ".join(f"{u},{v}" for u, v in xy)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.extend(f'<circle cx="{u}" cy="{v}" r="2.5" fill="{color}"/>' for u, v in xy)
        parts.append(
            f'<text x="{width - margin - 4}" y="{margin + 14 * (idx + 1)}" '
            f'text-anchor="end" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
