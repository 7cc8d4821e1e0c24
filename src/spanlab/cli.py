"""Command-line front end: run experiments, check oracles, validate domains."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import lab
from .curvature import (
    burbea_bound,
    curvature_profile,
    gaussian_curvature_fd_oracle,
)
from .dirichlet import build_model, default_probes
from .errors import ConfigError, DomainError
from .lab import ExperimentConfig, run_experiment
from .reference import DiskMetric, HalfPlaneMetric, LensMetric, halfdisk_density
from .shapes import domain_from_dict, json_numbers, read_json


# Numeric keys of a run config, each with its conversion to the
# ``ExperimentConfig`` field of the same name.
_NUMERIC_KEYS = {
    "base_point": lambda bp: complex(*json_numbers(bp)),
    "steps": json_numbers,
    "orders": lambda orders: json_numbers(orders, int),
}
_RUN_KEYS = {"experiment", "domain", *_NUMERIC_KEYS}


def _run_config(raw, path: str) -> tuple[list[str], object, ExperimentConfig]:
    """Experiment names, domain and config from ``raw``, the parsed file at ``path``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    extra = set(raw) - _RUN_KEYS
    if extra:
        raise ConfigError(f"{path}: unknown keys {sorted(extra)}")
    for key in ("experiment", "domain", "base_point"):
        if key not in raw:
            raise ConfigError(f"{path}: missing key {key!r}")
    domain = domain_from_dict(raw["domain"])
    bp = raw["base_point"]
    if not (isinstance(bp, (list, tuple)) and len(bp) == 2):
        raise ConfigError(f"{path}: base_point must be [re, im]")
    kwargs = {}
    for key, convert in _NUMERIC_KEYS.items():
        if key in raw:
            try:
                kwargs[key] = convert(raw[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{path}: malformed {key} ({exc})") from None
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


def _check(label: str, ok: bool, detail: str = "") -> bool:
    state = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{state}] {label}{suffix}")
    return ok


def _oracle_disk_curvature() -> bool:
    disk = DiskMetric()
    rng = np.random.default_rng(7)
    pts = 0.6 * rng.random(5) * np.exp(2j * np.pi * rng.random(5))
    worst = 0.0
    for z in pts:
        prof = curvature_profile(disk, complex(z), orders=(1, 2, 3))
        for n in (1, 2, 3):
            worst = max(worst, abs(prof[n] - burbea_bound(n)) / abs(burbea_bound(n)))
    return _check(
        "disk curvatures sit on the sharp bounds", worst < 1e-10, f"max rel {worst:.1e}"
    )


def _oracle_fd_curvature() -> bool:
    disk = DiskMetric()
    rng = np.random.default_rng(7)
    pts = 0.6 * rng.random(5) * np.exp(2j * np.pi * rng.random(5))
    worst = max(abs(gaussian_curvature_fd_oracle(disk, complex(z)) + 4.0) for z in pts)
    return _check(
        "finite-difference Gaussian curvature on the disk",
        worst < 1e-4,
        f"max gap {worst:.1e}",
    )


def _oracle_halfplane() -> bool:
    hp = HalfPlaneMetric(omega=np.exp(0.3j))
    rng = np.random.default_rng(7)
    pts = 0.6 * rng.random(5) * np.exp(2j * np.pi * rng.random(5))
    zs = 0.4 * pts - 0.2
    gap = float(np.max(np.abs(np.pi * hp.kernel(zs, zs) - hp.metric(zs))))
    return _check(
        "half-plane kernel diagonal matches its metric", gap < 1e-12, f"gap {gap:.1e}"
    )


def _oracle_lens() -> bool:
    lens = LensMetric.half_disk(1.0)
    samples = np.array([0.5j, 0.25 + 0.4j, -0.3 + 0.2j, 0.1 + 0.7j])
    halfdisk = (halfdisk_density(samples) / 2.0) ** 2
    rel = float(np.max(np.abs(lens.metric(samples) / halfdisk - 1.0)))
    return _check(
        "lens uniformization reproduces the half-disk metric",
        rel < 1e-10,
        f"max rel {rel:.1e}",
    )


_ORACLES = {
    "disk-curvature": _oracle_disk_curvature,
    "fd-curvature": _oracle_fd_curvature,
    "halfplane": _oracle_halfplane,
    "lens": _oracle_lens,
}


def _cmd_oracle(args) -> int:
    """Cross-check the closed-form layer against itself along independent routes."""
    if args.name == "all":
        names = sorted(_ORACLES)
    elif args.name in _ORACLES:
        names = [args.name]
    else:
        raise ConfigError(f"unknown oracle {args.name!r}; choose from {sorted(_ORACLES)}")
    ok = True
    for name in names:
        ok &= _ORACLES[name]()
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
        f"size={model.size} rank={model.factorization.rank}"
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

    p_oracle = sub.add_parser("oracle", help="cross-check the closed-form reference layer")
    p_oracle.add_argument(
        "name",
        nargs="?",
        default="all",
        help=f"one of {sorted(_ORACLES)} or 'all' (default)",
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
    except (ConfigError, DomainError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
