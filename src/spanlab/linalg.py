"""Dense Hermitian helpers: pivoted Cholesky and equilibrated log-determinants.

These are the only linear-algebra kernels the model layer needs; everything is
kept explicit (no hidden regularization) so the factorization diagnostics can
be reported honestly.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import zpstrf


def hermitize(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Symmetrize a nominally Hermitian matrix, returning the relative residual.

    The residual ``max|A - A*| / max|A|`` measures how far the assembled matrix
    was from Hermitian before symmetrization; callers treat it as a quadrature
    diagnostic.
    """
    a = np.asarray(a, dtype=complex)
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if scale == 0.0:
        return a.copy(), 0.0
    adjoint = a.conj().T
    resid = float(np.max(np.abs(a - adjoint))) / scale
    return 0.5 * (a + adjoint), resid


def pivoted_cholesky(a: np.ndarray, drop_tol: float = 1e-13):
    """Diagonal-pivoted Cholesky of a Hermitian positive semidefinite matrix.

    Returns ``(perm, L, pivots)`` with ``A[perm][:, perm] ~= L @ L.conj().T``.
    ``L`` has ``r`` columns where ``r`` is the numerical rank: LAPACK's ``zpstrf``
    stops at the first pivot at or below ``drop_tol`` times the largest diagonal
    entry.  ``pivots`` holds the accepted pivot values in order, so
    ``pivots[0] / pivots[-1]`` estimates the retained condition number.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    top = float(np.max(np.real(np.diagonal(a)))) if n else 0.0
    if top <= 0.0:
        return np.arange(n), np.zeros((n, 0), dtype=complex), np.zeros(0)
    c, piv, rank, _ = zpstrf(a, tol=drop_tol * top, lower=1)
    L = np.tril(c[:, :rank])
    return piv - 1, L, np.abs(np.diagonal(L)) ** 2


def whiten_cholesky(L: np.ndarray, perm: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Apply ``L^{-1} P`` to one vector or a stack of column vectors.

    ``vectors`` has shape ``(n,)`` or ``(n, m)``; the result drops to the
    retained rank ``r`` (rows of ``L``).
    """
    v = np.asarray(vectors, dtype=complex)
    single = v.ndim == 1
    if single:
        v = v[:, None]
    r = L.shape[1]
    out = solve_triangular(L[:r, :r], v[perm][:r], lower=True, check_finite=False)
    return out[:, 0] if single else out


def unwhiten_solve(L: np.ndarray, perm: np.ndarray, n: int, vector: np.ndarray) -> np.ndarray:
    """Solve ``G x = b`` through the pivoted factor, zero-padding dropped pivots."""
    r = L.shape[1]
    y = whiten_cholesky(L, perm, vector)
    x_perm = solve_triangular(
        L[:r, :r].conj().T, y, lower=False, check_finite=False
    )
    x = np.zeros(n, dtype=complex)
    x[perm[:r]] = x_perm
    return x


def equilibrated_slogdet(a: np.ndarray) -> tuple[complex, float]:
    """Sign and log-magnitude of ``det A`` after symmetric diagonal equilibration.

    Rows and columns are scaled by ``1/sqrt(|a_jj|)`` before the LU-based
    ``slogdet``; the scaling is undone in log space.  This keeps determinants
    of severely graded matrices (boundary-limit derivative matrices grow like
    ``dist^{-(2+j+k)}``) inside double-precision range.
    """
    a = np.asarray(a, dtype=complex)
    d = np.sqrt(np.abs(np.real(np.diagonal(a))))
    d = np.where(d > 0.0, d, 1.0)
    scaled = a / np.outer(d, d)
    sign, logdet = np.linalg.slogdet(scaled)
    return complex(sign), float(logdet + 2.0 * np.sum(np.log(d)))
