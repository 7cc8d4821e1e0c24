"""Geometry layer: curves, containment, scaling, clipped Hausdorff."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import curve_samples_in_ball_full, segments_cross
from scipy.spatial.distance import cdist

import spanlab as sl
from spanlab.domains import BAND_FACTOR, _check_simple, curve_samples_in_ball
from spanlab.shapes import read_json, smoothed_polygon_curve

# -- curves -------------------------------------------------------------------


def test_circle_curve_basics():
    curve = sl.BoundaryCurve({0: 1.0 + 1.0j, 1: 2.0})
    assert abs(curve.signed_area() - np.pi * 4.0) < 1e-12
    assert abs(curve.radius_bound() - 2.0) < 1e-12
    center, radius, orient = curve.circle_data()
    assert abs(center - (1 + 1j)) < 1e-12 and abs(radius - 2.0) < 1e-12 and orient == 1


def test_clockwise_circle_has_negative_area():
    curve = sl.BoundaryCurve({0: 0.0, -1: 0.5})
    assert curve.signed_area() < 0
    assert curve.circle_data()[2] == -1


def test_degenerate_curve_rejected():
    with pytest.raises(sl.DomainError):
        sl.BoundaryCurve({0: 1.0})  # a point, |velocity| = 0


def test_curve_derivative_matches_fd():
    curve = sl.BoundaryCurve({0: 0.1, 1: 1.0, -2: 0.1, 3: 0.05})
    t = np.array([0.3, 1.7, 4.0])
    h = 1e-6
    fd = (curve.point(t + h) - curve.point(t - h)) / (2 * h)
    assert np.max(np.abs(fd - curve.derivative(t))) < 1e-6


@pytest.mark.parametrize(
    "curve",
    [
        sl.BoundaryCurve({0: 0.1 + 0.2j, 1: 1.0, 2: 0.3, -3: 0.05j}),
        smoothed_polygon_curve([1.2 - 1j, 1.2 + 1j, -1.2 + 1j, -1.2 - 1j], 0.02, 64, 512),
    ],
    ids=["four-modes", "polygon"],
)
def test_curve_values_do_not_depend_on_the_batch(curve):
    # one evaluator, with no BLAS product whose blocking depends on the batch
    t = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, 100_000)
    points, velocities = curve.point(t), curve.derivative(t)
    for i in np.linspace(0, t.size - 1, 200).astype(int):
        assert curve.point(t[i]) == points[i]
        assert curve.derivative(t[i]) == velocities[i]
    assert np.array_equal(curve.points, curve._jet(curve.params, 0)[:, 0])
    assert np.array_equal(curve.velocities, curve._jet(curve.params, 1)[:, 1])


def test_nearest_parameter_on_circle():
    curve = sl.BoundaryCurve({0: 0.0, 1: 1.0})
    (t,) = curve.nearest_parameter(0.5 + 0.5j)
    foot = np.asarray(curve.point(t)).item()
    assert abs(abs(foot - (0.5 + 0.5j)) - (1.0 - abs(0.5 + 0.5j))) < 1e-12
    assert abs(foot - np.exp(1j * np.pi / 4)) < 1e-10


# -- domain validation ----------------------------------------------------------


_UNIT = sl.BoundaryCurve({0: 0.0, 1: 1.0})


def test_domain_rejects_clockwise_outer():
    with pytest.raises(sl.DomainError, match="outer curve must be counterclockwise"):
        sl.Domain(sl.BoundaryCurve({0: 0.0, -1: 1.0}))


def test_domain_rejects_ccw_hole():
    with pytest.raises(sl.DomainError, match="hole curve 0 must be clockwise"):
        sl.Domain(_UNIT, holes=[sl.BoundaryCurve({0: 0.0, 1: 0.3})], anchors=[0.0])


def test_domain_rejects_anchor_outside_hole():
    with pytest.raises(sl.DomainError, match="anchor 0 is not inside its hole"):
        sl.Domain(_UNIT, holes=[sl.BoundaryCurve({0: 0.5, -1: 0.2})], anchors=[-0.5])


def test_domain_rejects_hole_outside_outer():
    with pytest.raises(sl.DomainError, match="hole curve 0 is not inside the outer curve"):
        sl.Domain(_UNIT, holes=[sl.BoundaryCurve({0: 5.0, -1: 0.2})], anchors=[5.0])


def test_domain_rejects_self_intersecting_outer():
    # A limacon with an inner loop.
    with pytest.raises(sl.DomainError, match="transversal crossing"):
        sl.Domain(sl.BoundaryCurve({1: 0.5, 2: 1.0}))


def test_domain_rejects_near_cusp():
    # A limacon a hair short of its cusp: non-adjacent nodes there nearly coincide.
    with pytest.raises(sl.DomainError, match="at sample resolution"):
        sl.Domain(sl.BoundaryCurve({1: 1.0, 2: 0.4999999}))


def test_domain_rejects_hole_through_outer():
    with pytest.raises(sl.DomainError, match="boundary curves 0 and 1 cross"):
        sl.Domain(_UNIT, holes=[sl.BoundaryCurve({0: 0.9, -1: 0.2})], anchors=[0.9])


def test_domain_rejects_crossing_holes():
    holes = [sl.BoundaryCurve({0: 0.2, -1: 0.3}), sl.BoundaryCurve({0: -0.2, -1: 0.3})]
    with pytest.raises(sl.DomainError, match="boundary curves 1 and 2 cross"):
        sl.Domain(_UNIT, holes=holes, anchors=[0.3, -0.3])


def test_domain_rejects_touching_curves():
    # A hole 1e-7 short of the outer circle: nodes of the two curves nearly coincide.
    hole = sl.BoundaryCurve({0: 0.5, -1: 0.4999999})
    with pytest.raises(sl.DomainError, match="boundary curves 0 and 1 touch at sample resolution"):
        sl.Domain(_UNIT, holes=[hole], anchors=[0.5])


def test_domain_rejects_nested_holes():
    holes = [sl.BoundaryCurve({0: 0.0, -1: 0.5}), sl.BoundaryCurve({0: 0.0, -1: 0.2})]
    with pytest.raises(sl.DomainError, match="holes 0 and 1 overlap"):
        sl.Domain(_UNIT, holes=holes, anchors=[0.0, 0.0])


_MODE = st.complex_numbers(max_magnitude=0.3, allow_nan=False, allow_infinity=False)
_TOL = st.shared(st.floats(0.0, 0.01), key="tol")  # one value per example


@st.composite
def _fourier_curves(draw):
    """One or two curves ``e^{it} + small modes``, 16 to 64 nodes each.

    A second curve keeps its random centre, or is moved outside the first
    along a drawn direction until its extreme node is a drawn gap from the
    first's: a multiple of the test's tolerance, below or above it, never at it.
    """
    curves, nodes = [], []
    for _ in range(draw(st.integers(1, 2))):
        coeffs = {k: draw(_MODE) for k in (-2, -1, 2, 3)}
        coeffs[1] = draw(st.floats(0.3, 1.5))
        coeffs[0] = draw(st.complex_numbers(max_magnitude=2.5, allow_nan=False, allow_infinity=False))
        curves.append(coeffs)
        nodes.append(draw(st.integers(16, 64)))
    share = draw(st.none() | st.floats(0.0, 0.75) | st.floats(1.25, 2.0))
    try:
        built = [sl.BoundaryCurve(c, nodes=n) for c, n in zip(curves, nodes)]
        if len(built) == 2 and share is not None:
            u = np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
            first, second = (c.points * np.conj(u) for c in built)
            gap = share * draw(_TOL)
            shift = u * (first[np.argmax(first.real)] - second[np.argmin(second.real)] + gap)
            curves[1][0] += shift
            built[1] = sl.BoundaryCurve(curves[1], nodes=nodes[1])
    except sl.DomainError:
        assume(False)  # a stationary point
    return built


@settings(max_examples=300)
@given(curves=_fourier_curves(), tol=_TOL)
def test_check_simple_matches_all_pairs_oracle(curves, tol):
    xy = [np.column_stack([c.points.real, c.points.imag]) for c in curves]
    near = False
    for c, nodes in zip(curves, xy):
        gap = np.abs(np.subtract.outer(np.arange(c.nodes), np.arange(c.nodes)))
        near |= bool(np.any(cdist(nodes, nodes)[np.minimum(gap, c.nodes - gap) > 1] < tol))
    self_cross = any(segments_cross(c.points) for c in curves)
    pair_cross = len(curves) == 2 and segments_cross(curves[0].points, curves[1].points)
    touch = len(curves) == 2 and bool(np.any(cdist(*xy) < tol))
    if near:
        message = "curve self-intersects at sample resolution"
    elif self_cross:
        message = "transversal crossing"
    elif pair_cross:
        message = "boundary curves 0 and 1 cross"
    elif touch:
        message = "boundary curves 0 and 1 touch at sample resolution"
    else:
        _check_simple(curves, tol)
        return
    with pytest.raises(sl.DomainError, match=message):
        _check_simple(curves, tol)


def test_validation_memory_is_linear_in_nodes():
    # All-pairs node distances at 4096 nodes per curve would need over 500 MB.
    tracemalloc.start()
    try:
        sl.annulus(0.5, nodes=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_containment_on_annulus(annulus_domain):
    assert annulus_domain.contains(0.75)
    assert not annulus_domain.contains(0.25)  # inside the hole
    assert not annulus_domain.contains(1.25)  # outside
    assert not annulus_domain.contains(1.0)  # on the boundary band
    for z in (np.exp(0.3j), 0.5 * np.exp(2.1j)):
        assert annulus_domain.nearest_boundary(z)[3] <= annulus_domain.band


_ECCENTRIC = {
    "outer": {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0},
    "holes": [{"kind": "circle", "center": [0.2, 0.0], "radius": 0.4}],
    "anchors": [[0.2, 0.0]],
}


@pytest.mark.parametrize(
    "domain",
    [sl.disk(), sl.annulus(0.5), sl.domain_from_dict(_ECCENTRIC)],
    ids=["disk", "annulus-0.5", "eccentric"],
)
@given(
    curve=st.integers(0, 1),
    angle=st.floats(0.0, 2 * np.pi),
    log_depth=st.floats(-9.0, -0.5),
    outward=st.booleans(),
)
def test_inside_matches_exact_circles(domain, curve, angle, log_depth, outward):
    circles = [c.circle_data()[:2] for c in domain.curves]
    center, radius = circles[curve % len(circles)]
    offset = 10.0**log_depth * domain.diameter * (1.0 if outward else -1.0)
    z = center + (radius + offset) * np.exp(1j * angle)
    gaps = [abs(z - c) - r for c, r in circles]  # signed distance to each circle
    exact = gaps[0] < 0.0 and all(g > 0.0 for g in gaps[1:])
    nearest = min(abs(g) for g in gaps)
    got = bool(domain.inside([z])[0])
    if nearest > 1.01 * domain.band:
        assert got == exact == domain.contains(z)
    elif nearest < 0.99 * domain.band:
        assert not got  # inside the band is boundary


_ELLIPSE = sl.ellipse(semi_axes=(1.0, 0.6))


def _ellipse_level(z):
    """x^2 + (y/0.6)^2: below 1 exactly where the ellipse winds once round z."""
    z = np.asarray(z, dtype=complex)
    return z.real**2 + (z.imag / 0.6) ** 2


@given(x=st.floats(-1.1, 1.1), y=st.floats(-0.7, 0.7))
def test_inside_is_the_winding_number_on_the_ellipse(x, y):
    z = complex(x, y)
    level = _ellipse_level(z)
    # |grad level| < 4.5 on this box, so |level - 1| > 1e-6 puts z more than
    # 2.2e-7 > band from the curve; closer points may be boundary
    if abs(level - 1.0) > 1e-6:
        assert bool(_ELLIPSE.inside([z])[0]) == (level < 1.0)


def test_inside_is_the_winding_number_next_to_ellipse_edges():
    # chord midpoints lie inside the curve by the sagitta (~1e-5 >> band), so
    # the node polygon's winding number is wrong just outside them
    nodes = _ELLIPSE.outer.points
    midpoints = 0.5 * (nodes + np.roll(nodes, -1))
    pts = np.concatenate([midpoints * (1 - 1e-12), midpoints * (1 + 1e-12), 0.999 * nodes])
    assert np.array_equal(_ELLIPSE.inside(pts), _ellipse_level(pts) < 1.0)


@settings(max_examples=200)
@given(
    angle=st.floats(0.0, 2 * np.pi),
    log_depth=st.floats(-9.0, -0.5),
    outward=st.booleans(),
)
def test_inside_is_exact_near_the_ellipse(angle, log_depth, outward):
    # x = cos(s), y = 0.6 sin(s); points along the exact normal on either side
    a, b = 1.0, 0.6
    foot = complex(a * np.cos(angle), b * np.sin(angle))
    normal = complex(b * np.cos(angle), a * np.sin(angle))
    depth = 10.0**log_depth * _ELLIPSE.diameter
    z = foot + (depth if outward else -depth) * normal / abs(normal)
    exact = (z.real / a) ** 2 + (z.imag / b) ** 2 < 1.0
    got = bool(_ELLIPSE.inside([z])[0])
    if depth > 1.01 * _ELLIPSE.band:
        assert got == exact
    elif depth < 0.99 * _ELLIPSE.band:
        assert not got  # inside the band is boundary


def test_inside_on_many_points_is_sliced_and_matches_single_slices(rng):
    # The winding-number branch builds (points x nodes) arrays; one unsliced
    # pass over these 16384 points peaks at about 450 MB on the 512-node ellipse.
    pts = rng.uniform(-1.1, 1.1, 16384) + 1j * rng.uniform(-0.7, 0.7, 16384)
    tracemalloc.start()
    try:
        mask = _ELLIPSE.inside(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    stacked = [_ELLIPSE.inside(pts[i : i + 1000]) for i in range(0, pts.size, 1000)]
    assert np.array_equal(mask, np.concatenate(stacked))


# -- nearest boundary points ------------------------------------------------------

_AFFINE = sl.annulus(1.25, outer_radius=2.5, center=1 - 1j)
_CIRCLES = {
    "disk": sl.disk().outer,
    "annulus-hole": sl.annulus(0.5).holes[0],
    "eccentric-hole": sl.domain_from_dict(_ECCENTRIC).holes[0],
    "affine-outer": _AFFINE.outer,
    "affine-hole": _AFFINE.holes[0],
}


@pytest.mark.parametrize("curve", list(_CIRCLES.values()), ids=list(_CIRCLES))
@given(polar=st.lists(st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.05, 3.0)), min_size=1))
def test_nearest_parameter_is_the_radial_foot_on_circles(curve, polar):
    center, radius, _ = curve.circle_data()
    z = np.array([center + radius * s * np.exp(1j * a) for a, s in polar])
    foot = curve.point(curve.nearest_parameter(z))
    assert np.max(np.abs(foot - (center + radius * (z - center) / np.abs(z - center)))) <= 1e-12


_ELLIPSE_GRID = _ELLIPSE.outer.point(np.arange(65536) * (2 * np.pi / 65536))


@given(angle=st.floats(0.0, 2 * np.pi), log_depth=st.floats(-9.0, -1.0), outward=st.booleans())
def test_nearest_boundary_beats_a_fine_grid_on_the_ellipse(angle, log_depth, outward):
    # inner depths stay below the least radius of curvature, 0.36, so the
    # nearest point is unique
    curve = _ELLIPSE.outer
    velocity = complex(curve.derivative(angle))
    depth = 10.0**log_depth * _ELLIPSE.diameter * (1.0 if outward else -1.0)
    z = complex(curve.point(angle)) - 1j * depth * velocity / abs(velocity)
    (dist,) = _ELLIPSE.nearest_boundary(z)[3]
    assert dist <= np.min(np.abs(_ELLIPSE_GRID - z)) + 1e-12


# On this 16-node ellipse Newton runs off from the nearest node at these points,
# so the 65-sample guard answers instead.
_COARSE = sl.ellipse(semi_axes=(1.0, 0.3), nodes=16)
_GUARDED = np.array([-0.913 + 0.023j, 0.911 - 0.013j])


def test_nearest_parameter_guard_takes_a_sample_near_the_start_node():
    curve = _COARSE.outer
    spacing = 2 * np.pi / curve.nodes
    for z, t in zip(_GUARDED, curve.nearest_parameter(_GUARDED)):
        start = curve.params[np.argmin(np.abs(curve.points - z))]
        assert t in (start + np.linspace(-spacing, spacing, 65)) % (2 * np.pi)


@pytest.mark.parametrize(
    "domain",
    [
        _ELLIPSE,
        _COARSE,
        sl.domain_from_dict(_ECCENTRIC),
        sl.domain_from_dict(
            {"outer": {"kind": "polygon", "vertices": [[1.2, -1], [1.2, 1], [-1.2, 1], [-1.2, -1]]}}
        ),
    ],
    ids=["ellipse", "coarse-ellipse", "eccentric", "polygon"],
)
def test_nearest_boundary_of_an_array_is_the_stacked_single_calls(domain, rng):
    box = rng.uniform(-1.3, 1.3, (2, 200))
    pts = np.concatenate([box[0] + 1j * box[1], _GUARDED])
    batch = domain.nearest_boundary(pts)
    single = [domain.nearest_boundary(z) for z in pts]
    for got, want in zip(batch, zip(*single)):
        assert got.shape == pts.shape
        assert np.concatenate(want).tobytes() == got.tobytes()  # bit for bit
    assert [a.size for a in domain.nearest_boundary(np.empty(0, dtype=complex))] == [0] * 4


def test_signed_distance_signs(annulus_domain):
    assert sl.signed_distance(annulus_domain, 0.75) < 0
    assert sl.signed_distance(annulus_domain, 1.1) > 0
    assert sl.signed_distance(annulus_domain, 0.3) > 0  # in the hole = outside
    assert abs(sl.signed_distance(annulus_domain, 0.75) + 0.25) < 1e-9


@given(
    x1=st.floats(-1.2, 1.2),
    y1=st.floats(-1.2, 1.2),
    x2=st.floats(-1.2, 1.2),
    y2=st.floats(-1.2, 1.2),
)
def test_signed_distance_is_lipschitz(annulus_domain, x1, y1, x2, y2):
    a, b = complex(x1, y1), complex(x2, y2)
    da = sl.signed_distance(annulus_domain, a)
    db = sl.signed_distance(annulus_domain, b)
    assert abs(da - db) <= abs(a - b) + 1e-9


def test_outward_normal_on_circles(annulus_domain):
    p = np.exp(0.7j)
    nu = sl.outward_normal(annulus_domain, p)
    assert abs(nu - p) < 1e-9  # outer circle: radial, outward
    q = 0.5 * np.exp(1.2j)
    nu_hole = sl.outward_normal(annulus_domain, q)
    assert abs(nu_hole + np.exp(1.2j)) < 1e-9  # points into the hole


def test_outward_normal_rejects_interior_point(annulus_domain):
    with pytest.raises(sl.DomainError):
        sl.outward_normal(annulus_domain, 0.75)


def test_inner_normal_sequence(annulus_domain):
    pts = sl.inner_normal_sequence(annulus_domain, 1.0, [0.1, 0.05, 0.025])
    assert np.allclose(pts, [0.9, 0.95, 0.975])
    with pytest.raises(sl.DomainError):
        sl.inner_normal_sequence(annulus_domain, 1.0, [0.6])  # lands in the hole


# -- scaling ----------------------------------------------------------------------


def _blow_up(domain, z):
    """The scaling step of the experiments: center ``z``, scale ``dist(z)``."""
    scale = -sl.signed_distance(domain, z)
    return sl.scaled_domain(domain, z, scale), scale


def test_scaling_map_roundtrip_on_nodes(annulus_domain):
    z = 0.9 + 0.0j
    blown, scale = _blow_up(annulus_domain, z)
    for old, new in zip(annulus_domain.curves, blown.curves):
        assert np.max(np.abs(new.points * scale + z - old.points)) < 1e-12
        assert new.nodes == old.nodes


def test_scaling_map_sends_base_point_to_origin_frame(annulus_domain):
    p = np.exp(0.4j)
    omega = sl.outward_normal(annulus_domain, p)
    blown, _ = _blow_up(annulus_domain, 0.92 * p)
    # the center goes to the origin, at distance 1 from the scaled boundary ...
    assert abs(sl.signed_distance(blown, 0.0) + 1.0) < 1e-12
    # ... and its boundary foot lands on the outward normal
    assert abs(blown.nearest_boundary(0.0)[2][0] - omega) < 1e-6


def test_scaling_map_requires_interior_point(annulus_domain):
    with pytest.raises(sl.DomainError):
        _blow_up(annulus_domain, 1.05)


def test_limit_halfplane_invariants(annulus_domain):
    p = np.exp(1.1j)
    omega = sl.outward_normal(annulus_domain, p)
    half = sl.HalfPlaneMetric(omega)
    # the normal is a unit vector, so the half-plane {Re(conj(omega) z) < 1}
    # holds the origin at distance 1/|omega| = 1 from its boundary line ...
    assert abs(abs(omega) - 1.0) < 1e-12
    assert abs(half.metric(0.0) - abs(omega) ** 2 / 4.0) < 1e-12
    # ... and that line passes through omega itself.
    line = half.boundary_samples(2.0, count=4097)
    assert np.min(np.abs(line - omega)) < 1e-9


def test_halfplane_boundary_samples_clip():
    half = sl.HalfPlaneMetric(omega=1.0 + 0.0j)
    pts = half.boundary_samples(3.0, count=257)
    assert np.max(np.abs(pts)) <= 3.0 + 1e-12
    assert np.max(np.abs(pts.real - 1.0)) < 1e-12
    with pytest.raises(sl.EmptyClipError):
        half.boundary_samples(0.5)


def test_hausdorff_distance_local():
    a = np.linspace(-2, 2, 101) + 0.0j
    b = a + 0.3j
    d = sl.hausdorff_distance_local(a, b, 1.5)
    # 0.3 plus a small rim effect: the two clipped sets end at different x.
    assert 0.3 <= d < 0.31
    with pytest.raises(sl.EmptyClipError):
        sl.hausdorff_distance_local(a + 10, b, 1.5)


def test_hausdorff_distance_local_matches_brute_force(rng):
    cases = []
    for size_a, size_b, radius in ((200, 300, 1.0), (1500, 40, 0.7), (1, 500, 2.0)):
        a = rng.normal(size=size_a) + 1j * rng.normal(size=size_a)
        b = 0.5 * (rng.normal(size=size_b) + 1j * rng.normal(size=size_b))
        a[0] = 0.1  # keep both clipped sets nonempty
        b[0] = -0.1j
        cases.append((a, b, radius))
    # A dense collinear set against an arc far from it, as the half-plane's
    # edge is from the hole of annulus(0.5) blown up at t = 0.1.
    turn = np.exp(0.7j)
    arc = turn * (-9.0 + 5.0 * np.exp(1j * np.linspace(-0.6, 0.6, 1500)))
    cases.append((arc, turn * (1.0 + 1j * np.linspace(-5.0, 5.0, 2048)), 5.0))
    for a, b, radius in cases:
        ca, cb = a[np.abs(a) <= radius], b[np.abs(b) <= radius]
        dist = cdist(np.column_stack([ca.real, ca.imag]), np.column_stack([cb.real, cb.imag]))
        brute = max(dist.min(axis=1).max(), dist.min(axis=0).max())
        got = sl.hausdorff_distance_local(a, b, radius)
        assert got == pytest.approx(brute, rel=1e-14, abs=0.0)


def test_curve_samples_in_ball(annulus_domain):
    blown = sl.scaled_domain(annulus_domain, 1.0 + 0.0j, 0.05)
    samples = curve_samples_in_ball(blown.outer, 5.0)
    assert samples.size >= 1000
    assert np.max(np.abs(samples)) <= 5.0 + 1e-9
    # all samples lie on the blown-up outer circle |1 + 0.05 w| = 1
    assert np.max(np.abs(np.abs(1.0 + 0.05 * samples) - 1.0)) < 1e-12


_BLOWN_UP = {
    "annulus": sl.annulus(0.5),
    "limacon": sl.Domain(sl.BoundaryCurve({1: 1.0, 2: 0.3})),
    "ellipse": sl.ellipse(semi_axes=(1.0, 0.6)),
}


@pytest.mark.parametrize("name", sorted(_BLOWN_UP))
def test_curve_samples_in_ball_matches_full_grid(name, rng):
    # Skipping the coarse cells that cannot reach the window must keep every
    # in-window sample.  A sample may differ in the last bit, since ``point``
    # rounds by batch; after the blow-up the modes cancel, so the unit is an
    # ulp of sum |c_k|, the size of the terms summed.
    domain = _BLOWN_UP[name]
    for angle in rng.uniform(0.1, np.pi / 2 - 0.1, 2) + np.pi / 2 * rng.integers(0, 4, 2):
        for p in [domain.outer.point(angle)] + [h.point(angle) for h in domain.holes]:
            normal = sl.outward_normal(domain, p)
            for t in (0.1, 0.01, 1e-3, 1e-4):
                z = p - t * normal
                blown = sl.scaled_domain(domain, z, -sl.signed_distance(domain, z))
                sizes = []
                for curve in blown.curves:
                    got = curve_samples_in_ball(curve, 5.0)
                    want = curve_samples_in_ball_full(curve, 5.0)
                    assert got.size == want.size
                    ulp = np.spacing(np.sum(np.abs(curve.coefficients)))
                    assert np.all(np.abs(got - want) <= 2.0 * ulp)
                    sizes.append(want.size)
                if t == 1e-4:
                    assert 0 < max(sizes) < 4000  # the 2^20 cap binds


def test_rotation_center(annulus_domain):
    center = sl.rotation_center(annulus_domain)
    assert center is not None and abs(center) < 1e-12
    offset = sl.rotation_center(sl.disk(center=2.0 + 1.0j, radius=0.5))
    assert offset is not None and abs(offset - (2.0 + 1.0j)) < 1e-12
    assert sl.rotation_center(sl.ellipse()) is None


def test_band_is_tiny(annulus_domain):
    assert annulus_domain.band <= BAND_FACTOR * annulus_domain.diameter * 1.01


# -- JSON domain files ------------------------------------------------------------


def annulus_dict():
    return {
        "outer": {"kind": "circle", "center": [0, 0], "radius": 1.0},
        "holes": [{"kind": "circle", "center": [0, 0], "radius": 0.5}],
        "anchors": [[0.0, 0.0]],
    }


def test_domain_from_dict_roundtrip(annulus_domain):
    dom = sl.domain_from_dict(annulus_dict())
    assert len(dom.holes) == 1
    assert abs(dom.outer.signed_area() - annulus_domain.outer.signed_area()) < 1e-12


def test_domain_dict_rejects_unknown_keys():
    bad = annulus_dict()
    bad["extra"] = 1
    with pytest.raises(sl.ConfigError, match="unknown keys"):
        sl.domain_from_dict(bad)
    bad2 = annulus_dict()
    bad2["outer"]["fuzz"] = 2
    with pytest.raises(sl.ConfigError, match="unknown keys"):
        sl.domain_from_dict(bad2)


def test_domain_dict_requires_anchor_per_hole():
    bad = annulus_dict()
    bad["anchors"] = []
    with pytest.raises(sl.ConfigError):
        sl.domain_from_dict(bad)


def test_domain_dict_complex_shape_checked():
    # every domain number is a finite JSON number of the right type and shape,
    # and the error names where it is
    ellipse = {"outer": {"kind": "ellipse", "center": [0, 0], "semi_axes": [1.0, 0.5]}}
    square = {"outer": {"kind": "polygon", "vertices": [[1, -1], [1, 1], [-1, 1], [-1, -1]]}}
    for base, path, value in (
        (annulus_dict(), ("anchors",), [[0.0]]),
        (annulus_dict(), ("outer", "center"), [True, 0]),
        (annulus_dict(), ("outer", "radius"), "1.0"),
        (annulus_dict(), ("outer", "radius"), None),
        (annulus_dict(), ("outer", "radius"), float("inf")),
        (annulus_dict(), ("nodes",), "64"),
        (annulus_dict(), ("nodes",), 64.9),
        (annulus_dict(), ("holes",), {}),
        (ellipse, ("outer", "semi_axes"), ["1", 0.5]),
        (ellipse, ("outer", "semi_axes"), [1]),
        (ellipse, ("outer", "rotation"), True),
        (square, ("outer", "smoothing"), -5),  # exp(-smoothing k^2) would overflow
    ):
        bad = json.loads(json.dumps(base))
        *parents, key = path
        target = bad
        for name in parents:
            target = target[name]
        target[key] = value
        with pytest.raises(sl.ConfigError, match=re.escape(".".join(("domain", *path)))):
            sl.domain_from_dict(bad)


def test_load_domain_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(sl.ConfigError, match="invalid JSON"):
        sl.domain_from_dict(read_json(str(path)))


def test_load_domain_file(tmp_path):
    path = tmp_path / "ann.json"
    path.write_text(json.dumps(annulus_dict()), encoding="utf-8")
    dom = sl.domain_from_dict(read_json(str(path)))
    assert dom.contains(0.75)


def test_fourier_curve_from_dict():
    dom = sl.domain_from_dict(
        {"outer": {"kind": "fourier", "coefficients": {"0": [0, 0], "1": [1, 0], "2": [0.08, 0]}}}
    )
    assert dom.contains(0.0)


def test_polygon_curve_from_dict():
    dom = sl.domain_from_dict(
        {
            "outer": {
                "kind": "polygon",
                "vertices": [[1.2, -1], [1.2, 1], [-1.2, 1], [-1.2, -1]],
                "smoothing": 0.02,
            }
        }
    )
    assert dom.contains(0.0)
    assert dom.contains(0.9 + 0.7j)
