"""Numerical laboratory for span metrics of finitely connected planar domains.

The package computes the reduced Bergman kernel of a domain bounded by smooth
curves, the span metric ``s = pi K(z, z)`` and its higher-order curvatures,
and runs boundary-limit experiments: the metric against squared boundary
distance, curvature limits, localization, and the scaling principle that
blows a boundary point up to a half-plane.
"""

from .curvature import (
    burbea_bound,
    curvature_from_matrix,
    curvature_profile,
    gaussian_curvature_fd_oracle,
)
from .dirichlet import (
    BasisBlock,
    GramFactorization,
    KernelModel,
    build_blocks,
    build_model,
    default_probes,
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
    run_experiment,
)
from .reference import (
    DiskAutomorphism,
    DiskMetric,
    HalfPlaneMetric,
    LensMetric,
)
from .shapes import annulus, disk, domain_from_dict, ellipse

__version__ = "0.1.0"

__all__ = [
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
