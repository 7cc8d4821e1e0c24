"""Closed-form layer, cross-checked along independent routes.

These are the oracles everything else is judged against, so they get the most
paranoid treatment: every closed form is verified against either a second
closed form, a finite-difference route, or a pinned hand-computed value.
"""

from decimal import Decimal, localcontext
from math import ceil, log

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import MobiusMap, half_disk_lens, halfdisk_density, inverted_domain

import spanlab as sl

interior_points = st.tuples(st.floats(0.05, 0.85), st.floats(0.0, 2 * np.pi)).map(
    lambda rt: rt[0] * np.exp(1j * rt[1])
)


# -- disk ---------------------------------------------------------------------


def test_disk_metric_pinned_values():
    ref = sl.DiskMetric()
    assert abs(ref.metric(0.0) - 1.0) < 1e-15
    assert abs(ref.metric(0.5) - 16.0 / 9.0) < 1e-14
    assert abs(ref.kernel(0.3 + 0.1j, 0.0) - 1.0 / np.pi) < 1e-15


def test_disk_metric_matrix_at_center():
    m = sl.DiskMetric().metric_matrix(0.0, 1)
    assert np.allclose(m, [[1.0, 0.0], [0.0, 2.0]])


@given(z=interior_points)
def test_disk_metric_derivative_vs_fd(z):
    ref = sl.DiskMetric()
    h = 1e-5
    # first derivative: s_z = (s_x - i s_y) / 2
    sx = (ref.metric(z + h) - ref.metric(z - h)) / (2 * h)
    sy = (ref.metric(z + 1j * h) - ref.metric(z - 1j * h)) / (2 * h)
    fd = 0.5 * (sx - 1j * sy)
    closed = ref.metric_derivative(z, 1, 0)
    assert abs(fd - closed) < 2e-5 * (1 + abs(closed))
    # mixed second derivative: s_{z zbar} = Laplacian(s) / 4
    lap = (
        ref.metric(z + h)
        + ref.metric(z - h)
        + ref.metric(z + 1j * h)
        + ref.metric(z - 1j * h)
        - 4 * ref.metric(z)
    ) / h**2
    closed11 = ref.metric_derivative(z, 1, 1)
    assert abs(lap / 4 - closed11) < 5e-4 * (1 + abs(closed11))


def test_scaled_disk_metric_is_affine_pullback():
    big = sl.DiskMetric(center=2.0 - 1.0j, radius=3.0)
    unit = sl.DiskMetric()
    z = 0.4 + 0.2j
    w = 2.0 - 1.0j + 3.0 * z
    assert abs(big.metric(w) - unit.metric(z) / 9.0) < 1e-14
    assert abs(big.metric_derivative(w, 1, 2) - unit.metric_derivative(z, 1, 2) / 3**5) < 1e-12


def test_disk_kernel_function():
    z, w = 0.3 + 0.2j, -0.1 + 0.4j
    assert abs(sl.DiskMetric().kernel(z, w) - 1.0 / (np.pi * (1 - z * np.conj(w)) ** 2)) < 1e-15


# -- annulus --------------------------------------------------------------------


def _laurent_metric(x: float, r: float) -> Decimal:
    """sum_{n != -1} (n+1) x^{2n} / (1 - r^{2n+2}) at 40 digits, for real r < x < 1.

    Both tails fall geometrically, by x^2 and by (r/x)^2 per term; the sum
    stops where each is below 1e-45.
    """
    terms = ceil(45 * log(10) / (2 * min(-log(x), log(x / r)))) + 2
    with localcontext() as ctx:
        ctx.prec = 40
        x2, q = Decimal(x) ** 2, Decimal(r) ** 2
        return sum(
            (n + 1) * x2**n / (1 - q ** (n + 1)) for n in range(-terms, terms) if n != -1
        )


@pytest.mark.parametrize("x", [0.52, 0.75, 0.9, 0.99])
def test_annulus_image_series_matches_laurent_series(x):
    want = _laurent_metric(x, 0.5)
    ref = sl.reference.AnnulusMetric(0.5)
    for z in (x, x * np.exp(2.1j)):
        assert abs(ref.metric(z) / float(want) - 1.0) <= 1e-14


def test_annulus_metric_matrix_is_hermitian_and_rotation_invariant():
    ref = sl.reference.AnnulusMetric(0.5)
    z, turn = 0.7 + 0.1j, np.exp(0.4j)
    m = ref.metric_matrix(z, 2)
    assert np.allclose(m, m.conj().T, rtol=1e-14, atol=0.0)
    # s_{j kbar}(e^{i a} z) = e^{-i a j} e^{i a k} s_{j kbar}(z)
    phase = np.outer(turn ** -np.arange(3.0), turn ** np.arange(3.0))
    assert np.allclose(ref.metric_matrix(turn * z, 2), phase * m, rtol=1e-13, atol=0.0)


# -- half-plane -----------------------------------------------------------------


@given(
    angle=st.floats(0.0, 2 * np.pi),
    scale=st.floats(0.5, 2.0),
    x=st.floats(-0.5, 0.5),
    y=st.floats(-0.5, 0.5),
)
def test_halfplane_pullback_coherence(angle, scale, x, y):
    """The closed-form metric equals pi * kernel diagonal (pure pullback route)."""
    omega = scale * np.exp(1j * angle)
    hp = sl.HalfPlaneMetric(omega)
    z = complex(x, y)
    v = (np.conj(omega) * z).real
    if v > 0.7:  # keep clear of the boundary
        z = 0.5 * z
    s_closed = hp.metric(z)
    s_kernel = np.pi * hp.kernel(z, z)
    assert abs(s_kernel - s_closed) < 1e-10 * abs(s_closed)


def test_halfplane_metric_is_quarter_inverse_square_distance():
    omega = np.exp(0.7j)
    hp = sl.HalfPlaneMetric(omega)
    for z in (0.0, 0.3 - 0.2j, -0.5 + 0.1j):
        d = (1.0 - (np.conj(omega) * z).real) / abs(omega)
        assert abs(hp.metric(z) - 1.0 / (4 * d * d)) < 1e-12 / d**2
    assert abs(hp.metric(0.0) - 0.25) < 1e-15


def test_halfplane_derivative_vs_fd():
    hp = sl.HalfPlaneMetric(0.8 * np.exp(0.3j))
    z = 0.2 + 0.3j
    h = 1e-5
    sx = (hp.metric(z + h) - hp.metric(z - h)) / (2 * h)
    sy = (hp.metric(z + 1j * h) - hp.metric(z - 1j * h)) / (2 * h)
    fd = 0.5 * (sx - 1j * sy)
    assert abs(fd - hp.metric_derivative(z, 1, 0)) < 1e-6


# -- half-disk and the sandwich ratio ---------------------------------------------


def test_halfdisk_density_pinned_value():
    assert abs(halfdisk_density(0.5j) - 10.0 / 3.0) < 1e-14
    assert abs(halfdisk_density(1.0j, r=2.0) - halfdisk_density(0.5j) / 2.0) < 1e-14
    assert abs((halfdisk_density(0.5j) / 2.0) ** 2 - (5.0 / 3.0) ** 2) < 1e-13


@given(t=st.floats(0.01, 0.5))
def test_halfdisk_halfplane_ratio_in_unit_interval(t):
    """lambda_halfplane / lambda_halfdisk = (r^2-|z|^2)/(|r+z||r-z|) on z = it."""
    z = 1j * t
    lam_halfplane = 1.0 / t  # upper half-plane density at height t
    ratio = lam_halfplane / halfdisk_density(z)
    expected = (1.0 - t * t) / abs((1 + z) * (1 - z))
    assert abs(ratio - expected) < 1e-12
    assert 0.0 < ratio <= 1.0


def test_halfdisk_ratio_tends_to_one():
    ts = np.array([0.2, 0.1, 0.05, 0.025, 0.0125])
    ratios = (1.0 / ts) / halfdisk_density(1j * ts)
    assert np.all(np.diff(ratios) > 0)
    assert ratios[-1] > 0.999


# -- lens -------------------------------------------------------------------------


def test_lens_half_disk_agrees_with_closed_form():
    lens = half_disk_lens(1.0)
    pts = np.array([0.5j, 0.25 + 0.4j, -0.3 + 0.2j, 0.1 + 0.7j, 0.6 + 0.1j])
    rel = np.abs(lens.metric(pts) / (halfdisk_density(pts) / 2.0) ** 2 - 1.0)
    assert np.max(rel) < 1e-12


def test_lens_from_disks_corners_lie_on_both_circles():
    lens = sl.LensMetric.from_disks(0.0, 1.0, 1.0 + 0.0j, 0.5)
    for corner in (lens.w1, lens.w2):
        assert abs(abs(corner) - 1.0) < 1e-12
        assert abs(abs(corner - 1.0) - 0.5) < 1e-12


def test_lens_uniformizer_derivative_vs_fd():
    lens = sl.LensMetric.from_disks(0.0, 1.0, 1.0 + 0.0j, 0.5)
    z = 0.9 + 0.1j
    h = 1e-7
    fd = (lens.uniformize(z + h) - lens.uniformize(z - h)) / (2 * h)
    closed = lens.uniformize_derivative(z)
    assert abs(fd - closed) < 1e-6 * (1 + abs(closed))


def test_lens_metric_blows_up_at_boundary():
    lens = sl.LensMetric.from_disks(0.0, 1.0, 1.0 + 0.0j, 0.5)
    inner = float(lens.metric(0.75 + 0.0j))
    near = float(lens.metric(0.99 + 0.0j))
    assert near > 100 * inner


# -- conformal helpers --------------------------------------------------------------


def test_disk_automorphism_roundtrip_and_pullback():
    phi = sl.DiskAutomorphism(0.3 - 0.2j)
    ref = sl.DiskMetric()
    for z in (0.0, 0.5 + 0.1j, -0.2 + 0.6j):
        w = phi.apply(z)
        assert abs(w) < 1.0
        assert abs(phi.invert(w) - z) < 1e-14
        # metric invariance: s(z) = s(phi(z)) |phi'(z)|^2
        pulled = ref.metric(w) * abs(phi.derivative(z)) ** 2
        assert abs(pulled - ref.metric(z)) < 1e-12 * ref.metric(z)
    with pytest.raises(sl.DomainError):
        sl.DiskAutomorphism(1.2)


def test_mobius_map_roundtrip():
    mob = MobiusMap(anchor=0.1 + 0.2j, scale=0.5)
    z = 0.8 - 0.3j
    assert abs(mob.invert(mob.apply(z)) - z) < 1e-14
    h = 1e-7
    fd = (mob.apply(z + h) - mob.apply(z - h)) / (2 * h)
    assert abs(fd - mob.derivative(z)) < 1e-6


def test_inverted_domain_geometry(annulus_domain):
    flipped, mob = inverted_domain(annulus_domain, 0)
    # the old hole becomes the new outer curve; the old outer becomes a hole
    assert len(flipped.holes) == 1
    assert flipped.contains(mob.apply(0.75 + 0.0j))
    assert not flipped.contains(mob.apply(0.3 + 0.0j))
