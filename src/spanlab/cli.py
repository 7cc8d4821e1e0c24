"""Command-line front end: run experiments, check models against exact oracles, validate domains."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import lab
from .curvature import curvature_profile
from .dirichlet import build_model, default_probes
from .errors import ConfigError, DomainError
from .lab import CURVATURE_TOL, METRIC_TOL, ExperimentConfig, run_experiment
from .reference import AnnulusMetric, DiskAutomorphism, DiskMetric
from .shapes import (
    _as_complex,
    _check_keys,
    _read,
    annulus,
    disk,
    domain_from_dict,
    json_numbers,
    read_json,
)


def _run_config(raw, path: str) -> tuple[list[str], object, ExperimentConfig]:
    """Experiment names, domain and config from ``raw``, the parsed file at ``path``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    _check_keys(
        raw,
        {"experiment", "domain", "base_point", "steps", "orders"},
        {"experiment", "domain", "base_point"},
        path,
    )
    domain = domain_from_dict(raw["domain"])
    kwargs = {"base_point": _as_complex(raw["base_point"], "base_point")}
    if "steps" in raw:
        kwargs["steps"] = _read(raw["steps"], "steps", json_numbers)
    if "orders" in raw:
        kwargs["orders"] = _read(raw["orders"], "orders", json_numbers, kind=int)
    config = ExperimentConfig(**kwargs)
    names = raw["experiment"]
    if names == "all":
        names = sorted(lab.EXPERIMENTS)
    elif isinstance(names, str):
        names = [names]
    else:
        raise ConfigError(f"{path}: experiment must be a name or 'all'")
    for name in names:
        if name not in lab.EXPERIMENTS:
            raise ConfigError(
                f"{path}: unknown experiment {name!r}; choose from {sorted(lab.EXPERIMENTS)}"
            )
    return names, domain, config


def _cmd_run(args) -> int:
    names, domain, config = _run_config(read_json(args.config), args.config)
    all_ok = True
    for name in names:
        result = run_experiment(name, domain, config)
        print(f"== {result.name} ==")
        print(result.table())
        for line in result.gate_lines():
            print(line)
        if args.out:
            for written in result.save(args.out):
                print(f"wrote {written}")
        all_ok = all_ok and result.passed
        print()
    return 0 if all_ok else 1


def _oracles() -> list[tuple]:
    """Label, domain, exact metric, the disk automorphism onto it, base point, inward step, depths."""
    identity = DiskAutomorphism(0.0)
    diagonal = (0.1, 0.01, 0.001)
    # |z| < 1 minus B(0.2, 0.4).  The automorphism with parameter a, the root
    # in (0, 1) of q a^2 - 2 p a + q = 0, sends the hole's ends -0.2 and 0.6
    # to -rho and rho: the hole becomes the circle |w| = rho.
    x1, x2 = -0.2, 0.6
    p, q = 1.0 + x1 * x2, x1 + x2
    phi = DiskAutomorphism((p - np.sqrt(p * p - q * q)) / q)
    eccentric = domain_from_dict(
        {
            "outer": {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0},
            "holes": [{"kind": "circle", "center": [0.2, 0.0], "radius": 0.4}],
            "anchors": [[0.2, 0.0]],
        }
    )
    ring, ring_metric = annulus(0.5), AnnulusMetric(0.5)
    image = AnnulusMetric(float(phi.apply(x2).real))
    return [
        ("disk", disk(), DiskMetric(), identity, 1.0, -1.0, diagonal),
        ("annulus(0.5)", ring, ring_metric, identity, 1.0, -1.0, diagonal),
        ("annulus(0.5)", ring, ring_metric, identity, 0.5, 1.0, diagonal),
        ("dense-eccentric", eccentric, image, phi, -1.0, 1.0, (0.2, 0.1)),
    ]


def _exact(reference, phi: DiskAutomorphism, z: complex) -> tuple[float, dict[int, float]]:
    """Metric and curvatures 1, 2 at z, pulled back by ``phi`` from ``reference``.

    The metric picks up ``|phi'|^2``; the curvatures are conformal invariants.
    """
    w = complex(phi.apply(z))
    metric = float(reference.metric(w)) * abs(complex(phi.derivative(z))) ** 2
    return metric, curvature_profile(reference, w, orders=(1, 2))


def _cmd_oracle(args) -> int:
    """Build a model at each depth toward a boundary point and check it against exact values."""
    ok = True
    for label, domain, reference, phi, base, inward, depths in _oracles():
        for t in depths:
            z = complex(base + inward * t)
            model = build_model(domain, probes=[z], watch_order=2, tol=CURVATURE_TOL)
            metric, kappas = _exact(reference, phi, z)
            got = curvature_profile(model, z, orders=(1, 2))
            gaps = [model.metric(z) / metric] + [got[n] / kappas[n] for n in (1, 2)]
            gap = float(np.max(np.abs(np.array(gaps) - 1.0)))
            converged = model.meta["converged"]
            passed = converged and gap <= METRIC_TOL
            print(
                f"[{'PASS' if passed else 'FAIL'}] {label} toward {base:g} t={t:g}: "
                f"route={model.meta['route']}, converged={converged}, "
                f"max relative gap {gap:.1e} <= {METRIC_TOL:g}"
            )
            ok &= passed
    return 0 if ok else 1


def _cmd_validate(args) -> int:
    """Validate a domain file or a full run config, and build one model at tolerance 1e-6."""
    raw = read_json(args.domain)
    if isinstance(raw, dict) and "experiment" in raw:
        names, domain, config = _run_config(raw, args.domain)
        print(f"config: experiments {names}, base point {config.base_point}")
        print(f"steps: {len(config.steps)} from {config.steps[0]:g} to {config.steps[-1]:g}")
    else:
        domain = domain_from_dict(raw)
    print(f"outer curve: {domain.outer.nodes} nodes, area {domain.outer.signed_area():.6g}")
    print(f"holes: {len(domain.holes)}")
    print(f"diameter bound: {domain.diameter:.6g}")
    probes = default_probes(domain)
    model = build_model(domain, probes=probes, watch_order=0, tol=1e-6)
    meta = model.meta
    print(
        f"model: route={meta['route']} degree={meta['degree']} "
        f"size={model.size} rank={model.factorization.rank} nodes={meta['nodes']}"
    )
    print(f"condition estimate: {meta['condition']:.3e}")
    print(f"resolution floor: {meta['eps_model']:.3e} (converged={meta['converged']})")
    values = model.metric(probes)
    for z, s in zip(probes, values):
        print(f"  s({z.real:+.4f}{z.imag:+.4f}i) = {s:.9g}")
    if np.min(values) <= 0:
        print("[FAIL] metric must be positive on interior probes")
        return 1
    print("[PASS] domain loads, model builds, metric positive on probes")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spanlab",
        description="Span metrics, reduced Bergman kernels, and boundary-limit experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiments described by a JSON config")
    p_run.add_argument("config", help="path to the experiment config (JSON)")
    p_run.add_argument("--out", help="directory for CSV/SVG output", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_oracle = sub.add_parser(
        "oracle", help="check models built toward the boundary against exact metrics"
    )
    p_oracle.set_defaults(func=_cmd_oracle)

    p_val = sub.add_parser(
        "validate", help="validate a domain or run-config file and build a small model"
    )
    p_val.add_argument("domain", help="path to the domain or run-config file (JSON)")
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
