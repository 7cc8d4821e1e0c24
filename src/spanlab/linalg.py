"""Dense Hermitian helpers: pivoted Cholesky and equilibration for log-determinants.

These are the only linear-algebra kernels the model layer needs; everything is
kept explicit (no hidden regularization) so the factorization diagnostics can
be reported honestly.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import zpstrf

# Side of the square tiles that ``hermitize`` reads in mirrored pairs.
_TILE = 128


def hermitize(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Symmetrize a nominally Hermitian matrix, returning the relative residual.

    The residual ``max|A - A*| / max|A|`` measures how far the assembled matrix
    was from Hermitian before symmetrization; callers treat it as a quadrature
    diagnostic.  Each pair of mirrored ``_TILE`` x ``_TILE`` tiles is read once,
    while both sit in cache, and each entry is ``0.5 (a_jk + conj(a_kj))``
    as written, so the result is ``0.5 (A + A*)`` bit for bit.
    """
    a = np.asarray(a, dtype=complex)
    out = np.empty_like(a)
    peaks, gaps = [0.0], [0.0]
    for i in range(0, a.shape[0], _TILE):
        for j in range(i, a.shape[0], _TILE):
            rows, cols = slice(i, i + _TILE), slice(j, j + _TILE)
            upper, lower = a[rows, cols], a[cols, rows]
            adjoint = lower.conj().T
            peaks += [np.max(np.abs(upper)), np.max(np.abs(lower))]
            gaps.append(np.max(np.abs(upper - adjoint)))
            np.multiply(upper + adjoint, 0.5, out=out[rows, cols])
            if i != j:
                np.multiply(lower + upper.conj().T, 0.5, out=out[cols, rows])
    scale = float(np.max(peaks))
    if scale == 0.0:
        return a.copy(), 0.0
    return out, float(np.max(gaps)) / scale


def pivoted_cholesky(a: np.ndarray):
    """Diagonal-pivoted Cholesky of a Hermitian positive semidefinite matrix.

    Returns ``(perm, L, pivots)`` with ``A[perm][:, perm] ~= L @ L.conj().T``.
    ``L`` has ``r`` columns where ``r`` is the numerical rank: LAPACK's ``zpstrf``
    stops at the first pivot at or below 1e-13 times the largest diagonal
    entry.  ``pivots`` holds the accepted pivot values in order, so
    ``pivots[0] / pivots[-1]`` estimates the retained condition number.

    ``L`` is C-ordered, one copy of ``zpstrf``'s Fortran-ordered output
    with the strict upper triangle then zeroed row by row in place.  The
    layout matters: ``solve_triangular`` takes a different LAPACK path for a
    Fortran-ordered factor, which moves a one-vector whitening in the last
    bit.  ``zpstrf`` works on its own copy, so ``a`` is left as it was.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    top = float(np.max(np.real(np.diagonal(a)))) if n else 0.0
    if top <= 0.0:
        return np.arange(n), np.zeros((n, 0), dtype=complex), np.zeros(0)
    c, piv, rank, _ = zpstrf(a, tol=1e-13 * top, lower=1)
    L = np.ascontiguousarray(c[:, :rank])
    for i in range(rank - 1):
        L[i, i + 1 :] = 0.0
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


def equilibrate(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``A`` with rows and columns scaled by ``1/d_j = 1/sqrt(|a_jj|)``, and ``log d``.

    An LU-based ``slogdet`` of the result plus ``2 sum(log d)`` is the
    log-determinant of ``A``, which keeps determinants of severely graded
    matrices (boundary-limit derivative matrices grow like
    ``dist^{-(2+j+k)}``) inside double-precision range.  A zero diagonal
    entry keeps ``d_j = 1``.  Each entry is scaled on its own, so a leading
    block of the result is the equilibration of the leading block of
    ``A``, bit for bit.
    """
    a = np.asarray(a, dtype=complex)
    d = np.sqrt(np.abs(np.real(np.diagonal(a))))
    d = np.where(d > 0.0, d, 1.0)
    return a / np.outer(d, d), np.log(d)
