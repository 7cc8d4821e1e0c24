"""Gaussian and higher-order curvatures of a span metric.

The order-n curvature of a metric with squared density ``s`` is

    kappa_n = -(n+1)! * s^{-(n+1)(n+2)/2} * det [ s_{j kbar} ]_{j,k=0..n},

where ``s_{j kbar}`` are the mixed holomorphic/antiholomorphic derivatives of
``s`` along the diagonal of the polarized kernel.  Order 1 is the ordinary
Gaussian curvature ``-Delta log s / (2 s)``, which this module also provides
as an independent finite-difference oracle.

Near a boundary the derivative matrix is severely graded (entry (j, k) grows
like ``dist^{-(2+j+k)}``), so determinants are taken in log space after
diagonal equilibration.
"""

from __future__ import annotations

from math import factorial, lgamma, log

import numpy as np

from .errors import CurvatureError
from .linalg import equilibrate


def burbea_bound(order: int) -> float:
    """Sharp upper bound of the order-n curvature: the disk attains it.

    Evaluates to -4 at order 1, -144 at order 2, -82944 at order 3.
    """
    if order < 1:
        raise CurvatureError("curvature order must be at least 1")
    product = 1
    for k in range(1, order + 2):
        product *= factorial(k)
    return -float(product) ** 2


def curvature_from_matrix(matrix: np.ndarray, order: int) -> float:
    """Order-n curvature from the (n+1) x (n+1) metric derivative matrix.

    ``matrix[j, k]`` must hold ``s_{j kbar}``; the top-left entry is the
    metric itself.  The determinant of a Hermitian positive semidefinite
    matrix is real and nonnegative; a drift of the computed determinant's
    phase beyond 1e-8 raises, since it means the input was not a metric
    derivative matrix.
    """
    s_matrix = np.asarray(matrix, dtype=complex)
    return _curvature(s_matrix, *equilibrate(s_matrix[: order + 1, : order + 1]), order)


def _curvature(s_matrix: np.ndarray, scaled: np.ndarray, log_d: np.ndarray, order: int) -> float:
    """``curvature_from_matrix`` given ``equilibrate`` of a leading block at least n + 1 wide."""
    if s_matrix.shape[0] < order + 1 or s_matrix.shape[1] < order + 1:
        raise CurvatureError(f"need a {order + 1} x {order + 1} matrix for order {order}")
    metric = float(s_matrix[0, 0].real)
    if metric <= 0.0:
        raise CurvatureError(f"metric value {metric} is not positive")
    sign, log_abs_det = np.linalg.slogdet(scaled[: order + 1, : order + 1])
    sign = complex(sign)
    log_abs_det = float(log_abs_det + 2.0 * np.sum(log_d[: order + 1]))
    phase_residual = float(abs(sign - 1.0))
    if abs(sign) > 0.5 and sign.real < 0.0:
        raise CurvatureError("negative determinant: matrix is not positive semidefinite")
    exponent = (order + 1) * (order + 2) / 2.0
    log_kappa = lgamma(order + 2) + log_abs_det - exponent * log(metric)
    value = -float(np.exp(log_kappa)) * (sign.real if abs(sign) > 0.5 else 0.0)
    if phase_residual > 1e-8 and np.isfinite(log_abs_det) and log_kappa > -60:
        raise CurvatureError(
            f"determinant phase residual {phase_residual:.2e}; matrix is not Hermitian PSD"
        )
    return value


def curvature_profile(source, z: complex, orders) -> dict[int, float]:
    """All requested curvature orders from a single derivative matrix.

    ``source`` needs a ``metric_matrix(z, order)`` method returning the
    Hermitian matrix ``[s_{j kbar}(z)]``; kernel models and the closed-form
    reference metrics all provide one.  The matrix is equilibrated once,
    and each order takes the determinant of a leading block: the same
    entries that equilibrating that block alone would give.
    """
    s_matrix = np.asarray(source.metric_matrix(z, max(orders)), dtype=complex)
    scaled, log_d = equilibrate(s_matrix)
    return {n: _curvature(s_matrix, scaled, log_d, n) for n in orders}


def gaussian_curvature_fd_oracle(source, z: complex, h: float = 5e-4) -> float:
    """Gaussian curvature by a 5-point Laplacian of log s: -Delta log s / (2 s).

    Entirely independent of the derivative-matrix route: it only samples the
    metric itself.  ``source`` may be anything with a ``metric`` method or a
    bare callable returning s(z).  Truncation error is O(h^2) times fourth
    derivatives of log s, so the stencil must sit well inside the domain;
    when the source carries a domain, a margin of two stencil widths is
    enforced.
    """
    metric_fn = source.metric if hasattr(source, "metric") else source
    domain = getattr(source, "domain", None)
    if domain is not None:
        dist = domain.nearest_boundary(z)[3][0]
        if dist < 2.0 * h:
            raise CurvatureError(
                f"stencil margin violation: boundary distance {dist:.2e} < 2h = {2 * h:.2e}"
            )
    center = float(metric_fn(z))
    if center <= 0.0:
        raise CurvatureError("metric must be positive at the stencil center")
    stencil = [z + h, z - h, z + 1j * h, z - 1j * h]
    lap = sum(log(float(metric_fn(p))) for p in stencil) - 4.0 * log(center)
    return -lap / (h * h) / (2.0 * center)
