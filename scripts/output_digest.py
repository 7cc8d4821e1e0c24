#!/usr/bin/env python3
"""Print a sha256 digest of every output that a numerical change must keep.

One ``sha256  name`` line per output:

* for each experiment config in ``configs/`` (domain files are skipped), the
  stdout of ``spanlab run`` with the output directory replaced by ``<out>``,
  each SVG file that it writes, and each column of each CSV file, named
  ``config/file.csv:column``, so a change that moves one column shows on
  that column's line alone;
* the raw bytes of ``metric`` and ``metric_matrix(z, 3)`` at 1000 seeded
  points of a degree-2048 ``annulus(0.5)`` model, one call per point, of
  its ``kernel_matrix`` between those points and the first 64 of them, and
  of kappa_1, kappa_2 and kappa_3 from ``curvature_profile(model, z,
  orders=(1, 2, 3))`` at the same 1000 points;
* the raw bytes of ``metric`` and ``metric_matrix(z, 2)`` at 64 seeded points
  of a degree-512 dense-route model of |z| < 1 minus B(0.2, 0.4);
* the raw bytes of three geometry outputs: the nodes of ``annulus(0.5)``
  blown up at ``1 - t`` for t = 0.00625, the samples of its outer curve
  within ``CLIP_RADIUS``, and the ``nearest_boundary`` feet at 64 seeded
  points inside the ellipse with semi-axes 1 and 0.6.

Run it on two checkouts and diff the output: equal lines mean bit-identical
outputs.  Set ``OPENBLAS_NUM_THREADS=1`` on both, since the BLAS thread count
can change the last bit of a matrix product.

    PYTHONPATH=src python3 scripts/output_digest.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import spanlab as sl
from spanlab.cli import main as spanlab_main
from spanlab.domains import curve_samples_in_ball
from spanlab.lab import CLIP_RADIUS

ROOT = Path(__file__).resolve().parent.parent


def _line(data: bytes, name: str) -> str:
    return f"{hashlib.sha256(data).hexdigest()}  {name}"


def csv_digests(text: str, name: str) -> list[str]:
    header, *rows = text.splitlines()
    columns = zip(*(row.split(",") for row in rows))
    return [
        _line("\n".join(values).encode(), f"{name}:{column}")
        for column, values in zip(header.split(","), columns)
    ]


def config_digests(scratch: Path) -> tuple[list[str], bool]:
    lines, ok = [], True
    for config in sorted((ROOT / "configs").glob("*.json")):
        if "experiment" not in json.loads(config.read_text(encoding="utf-8")):
            continue  # a domain file, not a run config
        out = scratch / config.stem
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            ok &= spanlab_main(["run", str(config), "--out", str(out)]) == 0
        text = stdout.getvalue().replace(str(out), "<out>")
        lines.append(_line(text.encode(), f"{config.stem}.stdout"))
        for path in sorted(out.iterdir()):
            name = f"{config.stem}/{path.name}"
            if path.suffix == ".csv":
                lines += csv_digests(path.read_text(encoding="utf-8"), name)
            else:
                lines.append(_line(path.read_bytes(), name))
    return lines, ok


def model_digests() -> list[str]:
    # Probes at the band's edges pin the degree at 2048.  There, at every
    # point of the band, one block's powers fall below 1e-154 before its end.
    model = sl.build_model(sl.annulus(0.5), probes=[0.5505, 0.9495], watch_order=3, tol=1e-9)
    if model.meta["degree"] != 2048:
        raise SystemExit(f"expected a degree-2048 model, got {model.meta['degree']}")
    rng = np.random.default_rng(0)
    radii = np.sqrt(rng.uniform(0.55**2, 0.95**2, 1000))
    points = radii * np.exp(2j * np.pi * rng.random(1000))
    metric = np.array([model.metric(complex(z)) for z in points])
    matrices = np.array([model.metric_matrix(complex(z), 3) for z in points])
    orders = (1, 2, 3)
    profiles = [sl.curvature_profile(model, complex(z), orders=orders) for z in points]
    kappas = np.array([[profile[n] for n in orders] for profile in profiles])
    return [
        _line(metric.tobytes(), "model.metric"),
        _line(matrices.tobytes(), "model.metric_matrix"),
        _line(model.kernel_matrix(points, points[:64]).tobytes(), "model.kernel_matrix"),
        _line(kappas.tobytes(), "model.curvature_profile"),
    ]


def dense_digests() -> list[str]:
    # A probe at -0.9 pins the dense route's cap, degree 512.
    domain = sl.domain_from_dict(
        {
            "outer": {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0},
            "holes": [{"kind": "circle", "center": [0.2, 0.0], "radius": 0.4}],
            "anchors": [[0.2, 0.0]],
        }
    )
    model = sl.build_model(domain, probes=[-0.9], watch_order=2, tol=1e-10)
    if model.meta["degree"] != 512:
        raise SystemExit(f"expected a degree-512 model, got {model.meta['degree']}")
    rng = np.random.default_rng(0)
    points = np.empty(0, dtype=complex)
    while points.size < 64:
        z = rng.uniform(-0.95, 0.95, 64) + 1j * rng.uniform(-0.95, 0.95, 64)
        points = np.concatenate([points, z[(np.abs(z) < 0.95) & (np.abs(z - 0.2) > 0.45)]])
    points = points[:64]
    metric = np.array([model.metric(complex(z)) for z in points])
    matrices = np.array([model.metric_matrix(complex(z), 2) for z in points])
    return [
        _line(metric.tobytes(), "dense.metric"),
        _line(matrices.tobytes(), "dense.metric_matrix"),
    ]


def geometry_digests() -> list[str]:
    t = 0.00625
    blown = sl.scaled_domain(sl.annulus(0.5), 1.0 - t, t)
    nodes = np.concatenate([curve.points for curve in blown.curves])
    ellipse = sl.ellipse(semi_axes=(1.0, 0.6))
    rng = np.random.default_rng(0)
    points = np.sqrt(rng.random(64)) * np.exp(2j * np.pi * rng.random(64))
    points = points.real + 0.6j * points.imag  # inside the ellipse
    return [
        _line(nodes.tobytes(), "geometry.scaled_nodes"),
        _line(curve_samples_in_ball(blown.outer, CLIP_RADIUS).tobytes(), "geometry.clip_samples"),
        _line(ellipse.nearest_boundary(points)[2].tobytes(), "geometry.ellipse_feet"),
    ]


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        lines, ok = config_digests(Path(scratch))
    lines += model_digests() + dense_digests() + geometry_digests()
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
