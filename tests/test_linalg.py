"""Factorization and determinant helpers against plain numpy routes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg.lapack import zpstrf

from spanlab.linalg import (
    equilibrate,
    hermitize,
    pivoted_cholesky,
    whiten_cholesky,
)


def random_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    b = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return b @ b.conj().T


# Sizes past LAPACK's block size (64) take zpstrf's blocked path.
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(1, 12), st.sampled_from([100, 257, 300])),
)
def test_pivoted_cholesky_reconstructs(seed, n):
    rng = np.random.default_rng(seed)
    a = random_psd(rng, n)
    perm, low, pivots = pivoted_cholesky(a)
    shuffled = a[np.ix_(perm, perm)]
    assert np.allclose(low @ low.conj().T, shuffled, atol=1e-10 * np.max(np.abs(a)))
    assert np.all(np.diff(pivots) <= 1e-12 * pivots[0])


@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(8, 5), (200, 120)]))
def test_pivoted_cholesky_drops_deficient_rank(seed, shape):
    n, rank = shape
    rng = np.random.default_rng(seed)
    a = random_psd(rng, n, rank=rank)
    _, low, _ = pivoted_cholesky(a)
    assert low.shape[1] == rank


@pytest.mark.parametrize("n, rank", [(1, 1), (9, 9), (200, 120), (300, 300)])
def test_pivoted_cholesky_factor_is_exactly_lower(rng, n, rank):
    a = random_psd(rng, n, rank=rank)
    before = a.copy()
    _, low, _ = pivoted_cholesky(a)
    assert np.array_equal(a.view(np.uint64), before.view(np.uint64))  # input untouched
    assert low.flags.c_contiguous  # the layout that fixes solve_triangular's path
    assert low.shape == (n, rank)
    assert np.all(np.triu(low, 1) == 0.0)
    top = float(np.max(np.real(np.diagonal(a))))
    c, _, kept, _ = zpstrf(a, tol=1e-13 * top, lower=1)
    assert np.array_equal(low.view(np.uint64), np.tril(c[:, :kept]).view(np.uint64))


def test_whiten_gives_orthonormal_coordinates(rng):
    a = random_psd(rng, 9)
    perm, low, _ = pivoted_cholesky(a)
    # Whitening the basis's own Gram half-factorization must give an isometry:
    # w(x)^H w(y) == x^H A^{-1} y ... checked via A itself.
    x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    y = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    wx = whiten_cholesky(low, perm, x)
    wy = whiten_cholesky(low, perm, y)
    direct = x.conj() @ np.linalg.solve(a, y)
    assert abs(np.vdot(wx, wy) - direct) < 1e-8 * (1 + abs(direct))


def equilibrated_slogdet(a):
    """Sign and log|det| of ``a`` through ``equilibrate``, as the curvatures take them."""
    scaled, log_d = equilibrate(a)
    sign, logdet = np.linalg.slogdet(scaled)
    return complex(sign), float(logdet + 2.0 * np.sum(log_d))


def test_equilibrated_slogdet_agrees_with_numpy(rng):
    a = random_psd(rng, 6) + 6 * np.eye(6)
    sign, logabs = equilibrated_slogdet(a)
    ref_sign, ref_log = np.linalg.slogdet(a)
    assert abs(logabs - ref_log) < 1e-9 * abs(ref_log)
    assert abs(sign - ref_sign) < 1e-9


def test_equilibrated_slogdet_survives_grading(rng):
    # Diagonal scales spanning ~50 orders of magnitude: the plain slogdet of
    # the unequilibrated matrix would overflow its conditioning; the scaled
    # route must still get log|det| right because the true det factors.
    d = 10.0 ** np.arange(0, 25, 4.0)
    base = random_psd(rng, d.size) + d.size * np.eye(d.size)
    a = base * np.outer(d, d)
    sign, logabs = equilibrated_slogdet(a)
    _, base_log = np.linalg.slogdet(base)
    expected = base_log + 2.0 * np.sum(np.log(d))
    assert abs(sign - 1.0) < 1e-9
    assert abs(logabs - expected) < 1e-9 * abs(expected)


@pytest.mark.parametrize("n", [1, 100, 257, 1024])
def test_hermitize_is_the_plain_formula_bit_for_bit(rng, n):
    # the tiles cover a partial last tile (257) and several full ones (1024)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    sym, res = hermitize(a)
    adjoint = a.conj().T
    assert np.array_equal(sym.view(np.uint64), (0.5 * (a + adjoint)).view(np.uint64))
    assert res == float(np.max(np.abs(a - adjoint))) / float(np.max(np.abs(a)))


def test_hermitize_reports_residual(rng):
    a = random_psd(rng, 5)
    sym, res = hermitize(a)
    assert res < 1e-14
    bumped = a.copy()
    bumped[0, 1] += 0.1
    sym2, res2 = hermitize(bumped)
    assert res2 > 1e-3
    assert np.allclose(sym2, sym2.conj().T)
