"""The public API: the pinned exported names and settable values, and every
benchmark-traced function.

``perfbench/spans.py`` patches the functions it traces by dotted name; it is
read here as text, so deleting one of them fails this fast test rather than
only the benchmark's own suite.
"""

import ast
import importlib
from pathlib import Path

import spanlab as sl

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced_targets() -> list[str]:
    targets = set()
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            getattr(name, "id", None) in ("TARGETS", "SETUP_TARGETS") for name in node.targets
        ):
            targets.update(ast.literal_eval(node.value))
    return sorted(targets)


def _resolves(target: str) -> bool:
    module, _, rest = target.partition(".")
    owner = importlib.import_module(f"spanlab.{module}")
    for part in rest.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_traced_targets_resolve():
    targets = _traced_targets()
    assert targets  # the two tables were found
    assert [t for t in targets if not _resolves(t)] == []


def test_public_names_exist():
    assert [name for name in sl.__all__ if not hasattr(sl, name)] == []


def test_public_api_is_pinned():
    assert sl.__all__ == [
        "BasisBlock",
        "BoundaryCurve",
        "ConfigError",
        "CurvatureError",
        "DiskAutomorphism",
        "DiskMetric",
        "Domain",
        "DomainError",
        "EmptyClipError",
        "EXPERIMENTS",
        "ExperimentConfig",
        "ExperimentResult",
        "GramFactorization",
        "HalfPlaneMetric",
        "KernelModel",
        "LensMetric",
        "QuadratureError",
        "annulus",
        "build_blocks",
        "build_model",
        "burbea_bound",
        "curvature_from_matrix",
        "curvature_profile",
        "default_probes",
        "disk",
        "domain_from_dict",
        "ellipse",
        "gaussian_curvature_fd_oracle",
        "gram_dense",
        "gram_diagonal",
        "hausdorff_distance_local",
        "inner_normal_sequence",
        "outward_normal",
        "rotation_center",
        "run_experiment",
        "scaled_domain",
        "signed_distance",
        "spot_check_offdiagonal",
        "zero_period_residual",
    ]


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in node.decorator_list
    )


def test_settable_values_are_pinned():
    # Defaulted parameters plus defaulted dataclass fields: each one is a
    # setting that callers may vary and that tests must then cover.
    count = 0
    for path in sorted(Path(sl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    assert count == 40


def test_test_only_oracles_are_not_public():
    # They live in tests/oracles.py; the package keeps what its callers use.
    moved = (
        "gram_area_circular",
        "dirichlet_inner",
        "MobiusMap",
        "inverted_domain",
        "load_domain",
        "halfdisk_density",
        "higher_order_curvature",
    )
    assert [name for name in moved if hasattr(sl, name)] == []
    assert not hasattr(sl.LensMetric, "half_disk")
    assert not hasattr(sl.KernelModel, "kernel_coefficients")
    assert not hasattr(sl.GramFactorization, "solve")
