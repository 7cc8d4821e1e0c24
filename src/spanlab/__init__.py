"""Numerical laboratory for span metrics of finitely connected planar domains.

The package computes the reduced Bergman kernel of a domain bounded by smooth
curves, the span metric ``s = pi K(z, z)`` and its higher-order curvatures,
and runs boundary-limit experiments: the metric against squared boundary
distance, curvature limits, localization, and the scaling principle that
blows a boundary point up to a half-plane.
"""

from .curvature import (
    CurvatureReport,
    burbea_bound,
    curvature_from_matrix,
    curvature_profile,
    gaussian_curvature_fd_oracle,
    higher_order_curvature,
)
from .dirichlet import (
    BasisBlock,
    GramFactorization,
    KernelModel,
    build_blocks,
    build_model,
    default_probes,
    dirichlet_inner,
    gram_area_circular,
    gram_dense,
    gram_diagonal,
    spot_check_offdiagonal,
    zero_period_residual,
)
from .domains import (
    BoundaryCurve,
    Domain,
    hausdorff_distance_local,
    inner_normal_sequence,
    outward_normal,
    rotation_center,
    scaled_domain,
    signed_distance,
)
from .errors import (
    ConfigError,
    CurvatureError,
    DomainError,
    EmptyClipError,
    QuadratureError,
)
from .lab import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentResult,
    default_schedule,
    run_experiment,
)
from .reference import (
    DiskAutomorphism,
    DiskMetric,
    HalfPlaneMetric,
    LensMetric,
    MobiusMap,
    halfdisk_density,
    inverted_domain,
)
from .shapes import annulus, disk, domain_from_dict, ellipse, load_domain

__version__ = "0.1.0"

__all__ = [
    "BasisBlock",
    "BoundaryCurve",
    "ConfigError",
    "CurvatureError",
    "CurvatureReport",
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
    "MobiusMap",
    "QuadratureError",
    "annulus",
    "build_blocks",
    "build_model",
    "burbea_bound",
    "curvature_from_matrix",
    "curvature_profile",
    "default_probes",
    "default_schedule",
    "dirichlet_inner",
    "disk",
    "domain_from_dict",
    "ellipse",
    "gaussian_curvature_fd_oracle",
    "gram_area_circular",
    "gram_dense",
    "gram_diagonal",
    "halfdisk_density",
    "hausdorff_distance_local",
    "higher_order_curvature",
    "inner_normal_sequence",
    "inverted_domain",
    "load_domain",
    "outward_normal",
    "rotation_center",
    "run_experiment",
    "scaled_domain",
    "signed_distance",
    "spot_check_offdiagonal",
    "zero_period_residual",
]
