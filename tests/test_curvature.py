"""Higher-order curvature formulas against bounds, closed forms, and FD."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import spanlab as sl

interior_disk = st.tuples(st.floats(0.0, 0.7), st.floats(0.0, 2 * np.pi)).map(
    lambda rt: rt[0] * np.exp(1j * rt[1])
)


def test_bound_values():
    assert sl.burbea_bound(1) == -4.0
    assert sl.burbea_bound(2) == -144.0
    assert sl.burbea_bound(3) == -82944.0
    with pytest.raises(sl.CurvatureError):
        sl.burbea_bound(0)


def test_disk_curvature_from_pinned_matrix():
    # at the disk center the order-1 matrix is [[1, 0], [0, 2]]
    kappa = sl.curvature_from_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]), 1)
    assert abs(kappa + 4.0) < 1e-14


@given(z=interior_disk)
def test_disk_attains_bounds_everywhere(z):
    ref = sl.DiskMetric()
    profile = sl.curvature_profile(ref, z, orders=(1, 2, 3))
    for n in (1, 2, 3):
        assert abs(profile[n] - sl.burbea_bound(n)) < 1e-9 * abs(sl.burbea_bound(n))


def test_halfplane_attains_bounds():
    hp = sl.HalfPlaneMetric(np.exp(0.9j) * 1.3)
    for z in (0.0, 0.2 - 0.1j):
        profile = sl.curvature_profile(hp, z, orders=(1, 2, 3))
        for n in (1, 2, 3):
            assert abs(profile[n] - sl.burbea_bound(n)) < 1e-9 * abs(sl.burbea_bound(n))


def test_curvature_is_scale_invariant():
    small = sl.DiskMetric(radius=0.01)
    huge = sl.DiskMetric(radius=100.0)
    for ref in (small, huge):
        z = ref.center + 0.3 * ref.radius
        assert abs(sl.curvature_profile(ref, z, orders=(1,))[1] + 4.0) < 1e-8


@given(z=interior_disk)
def test_fd_oracle_matches_matrix_route_on_disk(z):
    ref = sl.DiskMetric()
    fd = sl.gaussian_curvature_fd_oracle(ref, z)
    assert abs(fd + 4.0) < 1e-4


def test_fd_oracle_on_model(annulus_model):
    z = 0.72 + 0.05j
    matrix_route = sl.curvature_profile(annulus_model, z, orders=(1,))[1]
    fd_route = sl.gaussian_curvature_fd_oracle(annulus_model, z)
    assert abs(matrix_route - fd_route) < 1e-4 * abs(matrix_route)


def test_fd_oracle_margin_violation(annulus_model):
    with pytest.raises(sl.CurvatureError, match="margin"):
        sl.gaussian_curvature_fd_oracle(annulus_model, 0.999 + 0.0j, h=5e-3)


def test_annulus_curvature_strictly_below_bound(annulus_model):
    """The hole forces kappa_1 < -4 strictly; the disk is the only case of equality."""
    for z in (0.75 + 0.0j, 0.55 + 0.2j, -0.6 + 0.3j):
        kappa = sl.curvature_profile(annulus_model, z, orders=(1,))[1]
        assert kappa < -4.0 - 1e-3


def test_matrix_size_checked():
    with pytest.raises(sl.CurvatureError):
        sl.curvature_from_matrix(np.eye(2), order=2)


def test_nonpositive_metric_rejected():
    with pytest.raises(sl.CurvatureError):
        sl.curvature_from_matrix(np.array([[0.0, 0.0], [0.0, 1.0]]), 1)


def test_non_hermitian_matrix_rejected():
    # determinant 1 - 1j has a nonreal phase, impossible for a Hermitian matrix
    bad = np.array([[1.0, 1.0], [1.0j, 1.0]], dtype=complex)
    with pytest.raises(sl.CurvatureError):
        sl.curvature_from_matrix(bad, 1)


def test_indefinite_matrix_rejected():
    # Hermitian but with negative determinant: not a metric derivative matrix
    bad = np.array([[1.0, 3.0], [3.0, 1.0]], dtype=complex)
    with pytest.raises(sl.CurvatureError, match="not positive semidefinite"):
        sl.curvature_from_matrix(bad, 1)


def test_metric_derivative_matrix_helper(annulus_model):
    m = annulus_model.metric_matrix(0.75 + 0.0j, 2)
    assert m.shape == (3, 3)
    assert np.allclose(m, m.conj().T)
    assert m[0, 0].real == pytest.approx(annulus_model.metric(0.75 + 0.0j))


def test_profile_is_the_per_order_curvature_bit_for_bit(annulus_model, rng):
    # One equilibration of the order-3 matrix serves every order: its leading
    # blocks are the equilibrations of the leading blocks.
    radii = rng.uniform(0.55, 0.95, 40)
    for z in radii * np.exp(2j * np.pi * rng.random(40)):
        matrix = annulus_model.metric_matrix(complex(z), 3)
        profile = sl.curvature_profile(annulus_model, complex(z), orders=(1, 2, 3))
        for n in (1, 2, 3):
            want = sl.curvature_from_matrix(matrix, n)
            assert np.float64(profile[n]).view(np.uint64) == np.float64(want).view(np.uint64)


class _FixedMatrix:
    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=complex)

    def metric_matrix(self, z, order):
        return self.matrix


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[0.0, 0.0], [0.0, 1.0]], "is not positive"),
        ([[1.0, 3.0], [3.0, 1.0]], "not positive semidefinite"),
        ([[1.0, 1.0], [1.0j, 1.0]], "phase residual"),
        ([[1.0]], "need a 2 x 2 matrix"),
    ],
)
def test_profile_keeps_every_per_order_check(matrix, message):
    with pytest.raises(sl.CurvatureError, match=message):
        sl.curvature_profile(_FixedMatrix(matrix), 0.0, orders=(1,))
