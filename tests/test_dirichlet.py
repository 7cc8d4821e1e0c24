"""Boundary Gram machinery and kernel models.

Ordering mirrors how trust is established: first the boundary integral
against hand-computed values and an independent area quadrature, then the
Gram routes against each other, then kernel models against closed forms and
against their own defining identities.
"""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import spanlab as sl
from spanlab.dirichlet import _FLUSH, _flush_tiny, _rows, block_sizes, evaluate_blocks
from spanlab.linalg import hermitize, pivoted_cholesky

interior_disk = st.tuples(st.floats(0.05, 0.8), st.floats(0.0, 2 * np.pi)).map(
    lambda rt: rt[0] * np.exp(1j * rt[1])
)
interior_annulus = st.tuples(st.floats(0.55, 0.95), st.floats(0.0, 2 * np.pi)).map(
    lambda rt: rt[0] * np.exp(1j * rt[1])
)


# -- the boundary integral against pinned values -------------------------------


def test_dirichlet_inner_monomials_on_disk(disk_domain):
    # integral over the disk of z^m conj(z^m) dA = pi / (m + 1)
    for m in (0, 1, 2, 5):
        value = sl.dirichlet_inner(
            disk_domain,
            lambda z, m=m: z**m,
            lambda z, m=m: z ** (m + 1) / (m + 1),
        )
        assert abs(value - np.pi / (m + 1)) < 1e-12


def test_dirichlet_inner_distinct_monomials_orthogonal(disk_domain):
    value = sl.dirichlet_inner(disk_domain, lambda z: z**3, lambda z: z**2 / 2.0)
    assert abs(value) < 1e-12


def test_dirichlet_inner_flags_nonconvergence(disk_domain):
    # A pole sitting 1e-3 outside the circle: perfectly admissible integrand,
    # but 64 boundary nodes cannot resolve the peak, so the value moves when
    # the node count doubles and the convergence guard must fire.
    a = 1.001
    with pytest.raises(sl.QuadratureError):
        sl.dirichlet_inner(
            disk_domain,
            lambda z: 1.0 / (z - a) ** 2,
            lambda z: -1.0 / (z - a),
            nodes=64,
        )


def test_disk_gram_is_pi_over_m_plus_one(disk_domain):
    blocks = sl.build_blocks(disk_domain, 6)
    gram, residual = sl.gram_dense(disk_domain, blocks)
    assert residual < 1e-12
    expected = np.diag([np.pi / (m + 1) for m in range(6)])
    assert np.max(np.abs(gram - expected)) < 1e-12


def test_annulus_hole_norms_closed_form(annulus_domain):
    # For the hole block around 0 with scale rho: D(z^-m) = pi (rho^2 - rho^{2m}) / (m-1)
    # after the sigma = rho normalization used by the block.
    rho = 0.5
    blocks = sl.build_blocks(annulus_domain, 4, [4])
    gram, _ = sl.gram_dense(annulus_domain, blocks)
    for i, m in enumerate(range(2, 6)):
        expected = np.pi * (rho**2 - rho ** (2 * m)) / (m - 1)
        assert abs(gram[4 + i, 4 + i] - expected) < 1e-12


def test_boundary_gram_matches_area_gram_on_disk(disk_domain):
    blocks = sl.build_blocks(disk_domain, 8)
    boundary, _ = sl.gram_dense(disk_domain, blocks)
    area = sl.gram_area_circular(disk_domain, blocks)
    scale = np.sqrt(np.outer(np.diag(boundary).real, np.diag(boundary).real))
    assert np.max(np.abs(boundary - area) / scale) < 1e-10


def test_boundary_gram_matches_area_gram_on_annulus(annulus_domain):
    blocks = sl.build_blocks(annulus_domain, 6, [5])
    boundary, _ = sl.gram_dense(annulus_domain, blocks)
    area = sl.gram_area_circular(annulus_domain, blocks, radial_nodes=400)
    scale = np.sqrt(np.outer(np.diag(boundary).real, np.diag(boundary).real))
    assert np.max(np.abs(boundary - area) / scale) < 1e-10


def test_diagonal_route_matches_dense_route(annulus_domain):
    blocks = sl.build_blocks(annulus_domain, 12, [10])
    dense, _ = sl.gram_dense(annulus_domain, blocks)
    diag = sl.gram_diagonal(annulus_domain, blocks)
    assert np.max(np.abs(np.diag(dense).real - diag) / diag) < 1e-12
    off = dense - np.diag(np.diag(dense))
    assert np.max(np.abs(off)) < 1e-12 * np.max(diag)


def test_gram_dense_flush_keeps_the_gram():
    # Seen from the outer circle the pole base is at most 0.1/0.8 = 0.125, so
    # high powers fall far below the flush threshold.
    dom = sl.domain_from_dict(
        {
            "outer": {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0},
            "holes": [{"kind": "circle", "center": [0.2, 0.0], "radius": 0.1}],
            "anchors": [[0.2, 0.0]],
        }
    )
    blocks = sl.build_blocks(dom, 256)
    n = block_sizes(blocks)
    nodes = max(2 * n + 64, max(c.nodes for c in dom.curves))
    gram, _ = sl.gram_dense(dom, blocks)
    reference = np.zeros((n, n), dtype=complex)
    below = 0
    for curve in dom.curves:
        c = curve if curve.nodes == nodes else curve.resample(nodes)
        weighted = evaluate_blocks(blocks, c.points, 0) * c.complex_weights
        primitives = evaluate_blocks(blocks, c.points, -1)
        for a in (weighted, primitives):
            parts = a.view(float)
            below += np.count_nonzero((parts != 0.0) & (np.abs(parts) < _FLUSH))
        reference += weighted @ primitives.conj().T / 2j
    reference, _ = hermitize(reference)
    assert below > 0
    d = np.sqrt(np.diag(reference).real)
    assert np.max(np.abs(gram - reference) / np.outer(d, d)) < 1e-100
    perm, L, _ = pivoted_cholesky(gram)
    perm_ref, L_ref, _ = pivoted_cholesky(reference)
    assert L.shape[1] == L_ref.shape[1]
    assert np.array_equal(perm, perm_ref)


_parts = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-150, 1e-150),
    st.sampled_from([_FLUSH, -_FLUSH, np.nextafter(_FLUSH, 0.0), 5e-324]),
)


@given(pairs=st.lists(st.tuples(_parts, _parts), min_size=1, max_size=20))
def test_flush_tiny_zeroes_only_parts_below_threshold(pairs):
    original = np.array(pairs, dtype=float).view(complex)
    a = original.copy()
    assert _flush_tiny(a) is a
    out = a.view(float)
    kept = np.abs(original.view(float)) >= _FLUSH
    assert np.array_equal(out[kept], original.view(float)[kept])
    assert np.all(out[~kept] == 0.0)


def _analytic_derivative(block, z, m, j):
    """d^j/dz^j of one basis function by ``np.power``: the jet's oracle."""
    if block.kind == "monomial":
        if m < j:
            return np.zeros_like(z)
        falling = np.prod([m - i for i in range(j)])
        return falling * np.power(z - block.center, m - j) / block.scale**m
    rising = np.prod([m + i for i in range(j)])
    return (-1.0) ** j * rising * block.scale**m * np.power(z - block.center, -(m + j))


@given(
    kind=st.sampled_from(["monomial", "pole"]),
    start=st.integers(0, 3),
    count=st.integers(1, 40),
    order=st.integers(0, 4),
    scale=st.floats(0.25, 2.0),
    radii=st.lists(st.floats(0.5, 1.5), min_size=1, max_size=4),
    angle=st.floats(0.0, 2 * np.pi),
)
def test_jet_matches_analytic_derivatives(kind, start, count, order, scale, radii, angle):
    center = 0.3 - 0.2j
    block = sl.BasisBlock(kind=kind, center=center, scale=scale, start=start, count=count)
    z = center + scale * np.array(radii) * np.exp(1j * (angle + np.arange(len(radii))))
    jet = block.jet(z, order)
    assert jet.shape == (order + 1, count, z.size)
    for j in range(order + 1):
        for i, m in enumerate(block.powers):
            want = _analytic_derivative(block, z, int(m), j)
            assert np.all(np.abs(jet[j, i] - want) <= 1e-13 * np.abs(want)), (j, m)
        assert np.array_equal(block.evaluate(z, j), block.jet(z, j)[j])


_finite_parts = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from([0.0, -0.0, 5e-324, -1e-300]),
)


@given(
    diag=st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=12),
    parts=st.lists(_finite_parts, min_size=72, max_size=72),
)
def test_reciprocal_whitening_equals_the_quotient(diag, parts):
    d = np.array(diag)
    v = np.array(parts).view(complex)[: 3 * d.size].reshape(d.size, 3)
    fact = sl.GramFactorization.from_diagonal(d)
    with np.errstate(over="ignore", under="ignore"):
        want = v / np.sqrt(d)[:, None]
        pairs = [(fact.whiten(v), want), (fact.whiten(v[:, 0]), v[:, 0] / np.sqrt(d))]
    for got, quotient in pairs:
        got_parts, want_parts = got.view(float), quotient.view(float)
        assert np.array_equal(got_parts, want_parts)
        # bit for bit, except that a zero part may carry the other sign
        nonzero = want_parts != 0.0
        assert np.array_equal(got_parts[nonzero].view(np.uint64), want_parts[nonzero].view(np.uint64))


_PI = Decimal("3.1415926535897932384626433827950288419716939937510")


@pytest.mark.parametrize(
    "domain",
    [sl.annulus(0.5), sl.annulus(0.9), sl.annulus(1.25, outer_radius=2.5, center=1 - 1j)],
    ids=["annulus-0.5", "annulus-0.9", "annulus-affine"],
)
def test_gram_diagonal_closed_form_at_high_degree(domain):
    # 40-digit oracle from the same float radii and scales: exponents near
    # 1.3e5 amplify any rounding of the ratios R/r_out and sigma/r_in.
    degree = 65536
    blocks = sl.build_blocks(domain, degree)
    diag = sl.gram_diagonal(domain, blocks)
    with localcontext() as ctx:
        ctx.prec = 40
        r_out = Decimal(domain.outer.circle_data()[1])
        r_in = Decimal(domain.holes[0].circle_data()[1])
        big_r, sigma = Decimal(blocks[0].scale), Decimal(blocks[1].scale)
        for m in (0, 7, 4095, 65535):
            k = 2 * m + 2
            want = _PI * big_r**2 / (m + 1) * ((r_out / big_r) ** k - (r_in / big_r) ** k)
            assert abs(diag[m] / float(want) - 1.0) <= 1e-14, m
        for m in (2, 9, 4097, 65537):
            k = 2 * m - 2
            want = _PI * sigma**2 / (m - 1) * ((sigma / r_in) ** k - (sigma / r_out) ** k)
            assert abs(diag[degree + m - 2] / float(want) - 1.0) <= 1e-14, m


def test_zero_periods_on_annulus(annulus_domain):
    blocks = sl.build_blocks(annulus_domain, 8, [6])
    assert sl.zero_period_residual(annulus_domain, blocks) < 1e-12


@pytest.mark.parametrize("order", [0, -1])
def test_rows_equal_one_function_blocks(order):
    # The spot check's and the period check's rows, against evaluating each
    # basis function as a block of its own: bit for bit.
    dom = sl.annulus(0.5)
    blocks = sl.build_blocks(dom, 4096)
    indices = [4095, 0, 1, 5, 100, 4096, 4097, 5000, 8191, 3, 2047]
    offsets = np.cumsum([0] + [b.count for b in blocks])
    for curve in dom.curves:
        rows = _rows(blocks, indices, curve.points, order)
        for row, index in zip(rows, indices):
            q = int(np.searchsorted(offsets, index, side="right")) - 1
            b = blocks[q]
            lone = sl.BasisBlock(b.kind, b.center, b.scale, b.start + index - offsets[q], 1)
            assert np.array_equal(row, lone.evaluate(curve.points, order)[0]), index


def test_spot_check_passes_on_annulus(annulus_domain):
    blocks = sl.build_blocks(annulus_domain, 16, [16])
    diag = sl.gram_diagonal(annulus_domain, blocks)
    worst = sl.spot_check_offdiagonal(annulus_domain, blocks, diag, pairs=20)
    assert worst < 1e-10


def test_spot_check_rejects_nonsymmetric_domain():
    dom = sl.ellipse(semi_axes=(1.0, 0.6))
    blocks = sl.build_blocks(dom, 12)
    fake_diag = np.ones(block_sizes(blocks))
    with pytest.raises(sl.QuadratureError):
        sl.spot_check_offdiagonal(dom, blocks, fake_diag, pairs=20)


@pytest.mark.parametrize("gram", [sl.gram_area_circular, sl.gram_diagonal])
def test_gram_area_rejects_nonsymmetric_domain(gram):
    dom = sl.ellipse(semi_axes=(1.0, 0.6))
    with pytest.raises(sl.ConfigError):
        gram(dom, sl.build_blocks(dom, 4))


def test_rank_zero_gram_signals():
    with pytest.raises(sl.QuadratureError):
        sl.GramFactorization.from_dense(np.zeros((3, 3), dtype=complex))


def test_per_hole_degrees():
    dom = sl.Domain(
        outer=sl.BoundaryCurve({0: 0.0, 1: 2.0}),
        holes=[
            sl.BoundaryCurve({0: -0.8, -1: 0.3}),
            sl.BoundaryCurve({0: 0.9, -1: 0.25}),
        ],
        anchors=[-0.8, 0.9],
    )
    blocks = sl.build_blocks(dom, 10, [4, 7])
    assert [b.count for b in blocks] == [10, 4, 7]
    with pytest.raises(sl.ConfigError):
        sl.build_blocks(dom, 10, [4])


# -- kernel models against the disk closed form ----------------------------------


@given(z=interior_disk, w=interior_disk)
def test_disk_model_kernel_matches_closed_form(disk_model, z, w):
    ref = sl.DiskMetric()
    got = complex(disk_model.kernel_matrix(z, w)[0, 0])
    want = complex(ref.kernel(z, w))
    assert abs(got - want) <= 1e-8 * (1 + abs(want))


@given(z=interior_disk)
def test_disk_model_metric_derivatives_match_closed_form(disk_model, z):
    ref = sl.DiskMetric()
    got = disk_model.metric_matrix(z, 2)
    want = ref.metric_matrix(z, 2)
    scale = np.sqrt(np.outer(np.abs(np.diag(want)), np.abs(np.diag(want))))
    assert np.max(np.abs(got - want) / scale) < 1e-7


def test_disk_model_mixed_derivative_entry(disk_model):
    z = 0.31 - 0.17j
    ref = sl.DiskMetric()
    # d^j/dz^j d^k/dzetabar^k of the kernel on the diagonal is s_{j kbar} / pi
    mixed = disk_model.metric_matrix(z, 2) / np.pi
    got = mixed[1, 2]
    want = complex(ref.metric_derivative(z, 1, 2)) / np.pi
    assert abs(got - want) < 1e-8 * (1 + abs(want))
    # conjugate symmetry and consistency with the kernel diagonal
    flip = mixed[2, 1]
    assert abs(got - np.conj(flip)) < 1e-12 * (1 + abs(got))
    base = mixed[0, 0]
    assert abs(base - disk_model.kernel_matrix(z, z)[0, 0]) < 1e-12 * (1 + abs(base))


def test_model_kernel_at_disk_center(disk_model):
    assert abs(disk_model.kernel_matrix(0.2 + 0.1j, 0.0)[0, 0] - 1.0 / np.pi) < 1e-10
    assert abs(disk_model.metric_matrix(0.0, 1)[1, 1] / np.pi - 2.0 / np.pi) < 1e-10


# -- defining identities of the model itself --------------------------------------


@given(z=interior_annulus, w=interior_annulus)
def test_kernel_hermitian_symmetry(annulus_model, z, w):
    kzw = annulus_model.kernel_matrix(z, w)[0, 0]
    kwz = annulus_model.kernel_matrix(w, z)[0, 0]
    assert abs(kzw - np.conj(kwz)) <= 1e-12 * (1 + abs(kzw))


@given(z=interior_annulus)
def test_kernel_diagonal_positive(annulus_model, z):
    assert annulus_model.kernel_matrix(z, z)[0, 0].real > 0
    assert annulus_model.metric(z) > 0


def test_reproduction_identity(annulus_model):
    """D(g_m, K(., zeta)) == g_m(zeta), via independent boundary quadrature."""
    domain = annulus_model.domain
    blocks = annulus_model.blocks
    zeta = 0.7 + 0.1j
    beta = annulus_model.kernel_coefficients(zeta)

    def section_primitive(pts):
        return np.tensordot(beta, evaluate_blocks(blocks, pts, -1), axes=(0, 0))

    for index in (0, 1, 5, annulus_model.blocks[0].count + 2):
        def basis_fn(pts, index=index):
            return evaluate_blocks(blocks, pts, 0)[index]

        got = sl.dirichlet_inner(domain, basis_fn, section_primitive, nodes=2048)
        want = complex(basis_fn(np.array([zeta]))[0])
        assert abs(got - want) <= 1e-8 * (1 + abs(want))


def test_subspace_monotonicity(annulus_domain):
    """K_N(z, z) never decreases when the basis grows."""
    z = np.array([0.75 + 0.0j, 0.55 + 0.3j, -0.1 + 0.8j])
    values = []
    for degree in (8, 16, 32, 64):
        blocks = sl.build_blocks(annulus_domain, degree)
        fact = sl.GramFactorization.from_diagonal(sl.gram_diagonal(annulus_domain, blocks))
        model = sl.KernelModel(annulus_domain, blocks, fact)
        values.append(model.metric(z))
    stacked = np.array(values)
    assert np.all(np.diff(stacked, axis=0) >= -1e-12 * stacked[:-1])


def test_domain_monotonicity(disk_model, annulus_model):
    """Shrinking the domain (disk -> annulus) raises the metric."""
    for z in (0.75 + 0.0j, 0.6 + 0.2j, -0.55 + 0.4j):
        assert annulus_model.metric(z) >= disk_model.metric(z) * (1.0 - 1e-10)


def test_affine_pullback_of_model():
    """Kernel models transform exactly under affine maps of the domain."""
    base = sl.annulus(0.5)
    shifted = sl.annulus(0.5 * 2.5, outer_radius=2.5, center=1.0 - 1.0j)
    m_base = sl.build_model(base, probes=[0.75 + 0.0j], tol=1e-9)
    m_shift = sl.build_model(shifted, probes=[1.0 - 1.0j + 2.5 * 0.75], tol=1e-9)
    for z in (0.75 + 0.0j, 0.6 + 0.2j):
        w = 1.0 - 1.0j + 2.5 * z
        assert abs(m_shift.metric(w) * 2.5**2 - m_base.metric(z)) < 1e-8 * m_base.metric(z)


def test_mobius_pullback_through_inverted_domain(annulus_model):
    """s_D(z) = s_D'(T z) |T'(z)|^2 for the inversion that flips the hole."""
    domain = annulus_model.domain
    flipped, mob = sl.inverted_domain(domain, 0)
    model_flipped = sl.build_model(flipped, probes=[mob.apply(0.75 + 0.0j)], tol=1e-9)
    for z in (0.75 + 0.0j, 0.6 - 0.25j):
        w = complex(mob.apply(z))
        pulled = model_flipped.metric(w) * abs(mob.derivative(z)) ** 2
        direct = annulus_model.metric(z)
        assert abs(pulled - direct) < 1e-7 * direct


def test_conformal_pullback_under_disk_automorphism(disk_model):
    """Model metric vs closed form through phi_a: the map fixes the disk."""
    phi = sl.DiskAutomorphism(0.25 - 0.35j)
    ref = sl.DiskMetric()
    for z in (0.1 + 0.2j, -0.4 + 0.1j, 0.5j):
        w = complex(phi.apply(z))
        pulled = float(ref.metric(w)) * abs(complex(phi.derivative(z))) ** 2
        assert abs(disk_model.metric(z) - pulled) < 1e-8 * pulled


# -- model construction mechanics ---------------------------------------------------


def test_build_model_converges_and_records(annulus_model):
    meta = annulus_model.meta
    assert meta["converged"]
    assert meta["eps_model"] <= meta["tol"]
    assert meta["route"] == "diagonal"
    degrees = [d for d, _ in meta["history"]]
    assert all(b == 2 * a for a, b in zip(degrees, degrees[1:]))
    assert annulus_model.factorization.condition() >= 1.0


def test_build_model_dense_route(ellipse_model):
    assert ellipse_model.meta["route"] == "dense"
    assert ellipse_model.meta["converged"]
    assert ellipse_model.meta["gram_residual"] < 1e-12
    assert ellipse_model.meta["period_residual"] < 1e-10
    assert ellipse_model.metric(0.2 + 0.1j) > 0


def test_ellipse_model_fd_curvature_consistency(ellipse_model):
    """Dense-route model passes an independent curvature cross-check."""
    z = 0.2 + 0.1j
    matrix_route = sl.higher_order_curvature(ellipse_model, z, 1)
    fd_route = sl.gaussian_curvature_fd_oracle(ellipse_model, z, h=1e-3)
    assert abs(matrix_route - fd_route) < 5e-4 * abs(matrix_route)


@pytest.mark.parametrize("t, converged", [(0.032, True), (0.008, False)])
def test_a_build_that_reaches_the_degree_cap_compares_two_models(t, converged):
    # The start degree for these probes is 512, the dense route's cap: a first
    # build there used to be the only one, leaving eps_model NaN.
    model = sl.build_model(sl.ellipse(semi_axes=(1.0, 0.6)), probes=[1.0 - t], tol=1e-8)
    assert [degree for degree, _ in model.meta["history"]] == [256, 512]
    assert np.isfinite(model.eps_model)
    assert model.meta["converged"] is converged


def test_build_model_rejects_bad_tolerances(disk_domain):
    for tol in (0.0, -1e-8, float("nan"), float("inf")):
        with pytest.raises(sl.ConfigError):
            sl.build_model(disk_domain, tol=tol)


def test_interior_check_raises(annulus_model):
    with pytest.raises(sl.DomainError):
        annulus_model.metric(0.3 + 0.0j)  # inside the hole
    with pytest.raises(sl.DomainError):
        annulus_model.kernel_matrix(1.2, 0.75)


def test_interior_check_near_a_hole_between_nodes(annulus_model):
    # Midway between two of the hole's 512 nodes the node polygon lies
    # 9.4e-6 inside the circle, so a polygon test called this point interior.
    z = (0.5 - 5e-6) * np.exp(1j * np.pi / 512)
    assert not annulus_model.domain.contains(z)
    with pytest.raises(sl.DomainError):
        annulus_model.metric(z)


@pytest.mark.parametrize("t", [1e-5, 1e-7])
def test_interior_check_near_the_outer_circle_between_nodes(disk_model, t):
    # Outside the node polygon (sagitta 1.9e-5) but inside the disk.
    z = (1.0 - t) * np.exp(1j * np.pi / 512)
    assert disk_model.domain.contains(z)
    assert disk_model.metric(z) > 0.0
    assert np.all(np.isfinite(disk_model.metric_matrix(z, 2)))


def test_ellipse_model_accepts_points_between_nodes(ellipse_model):
    # Midway between nodes, 2e-7 to 2e-4 inside the ellipse: the node polygon
    # (sagitta up to 1.9e-5) refused the two shallower depths.
    curve = ellipse_model.domain.outer
    mid = curve.params + np.pi / curve.nodes
    inward = 1j * curve.derivative(mid, 1) / np.abs(curve.derivative(mid, 1))
    depths = np.array([2e-7, 2e-6, 2e-5, 2e-4])[:, None]
    pts = (curve.point(mid) + depths * inward).ravel()
    assert np.all(ellipse_model.domain.inside(pts))
    assert not np.any(ellipse_model.domain.inside(curve.point(mid) - 2e-7 * inward))
    assert np.all(ellipse_model.metric(pts) > 0.0)


@pytest.mark.parametrize(
    "domain", [sl.disk(), sl.ellipse(semi_axes=(1.0, 0.6))], ids=["disk", "ellipse"]
)
def test_boundary_nodes_are_not_interior(domain):
    # The ellipse's probe ray ends exactly at node 0.
    assert not np.any(domain.inside(domain.outer.points))
    for p in sl.default_probes(domain):
        assert domain.contains(complex(p))


def test_default_probes_are_interior(annulus_domain):
    probes = sl.default_probes(annulus_domain)
    assert probes.size >= 4
    for p in probes:
        assert annulus_domain.contains(complex(p))


def test_save_load_roundtrip(annulus_model, tmp_path):
    path = tmp_path / "model.json"
    annulus_model.save(str(path))
    text = path.read_text(encoding="utf-8")
    assert text.startswith('{"format": "spanlab-model"')
    again = sl.KernelModel.load(str(path))
    z, w = 0.75 + 0.0j, 0.6 - 0.2j
    assert abs(again.kernel_matrix(z, w)[0, 0] - annulus_model.kernel_matrix(z, w)[0, 0]) < 1e-14
    assert again.meta["degree"] == annulus_model.meta["degree"]
    # byte-determinism of the format itself
    path2 = tmp_path / "model2.json"
    annulus_model.save(str(path2))
    assert path2.read_bytes() == path.read_bytes()


def test_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "nope.json"
    path.write_text('{"format": "something-else"}', encoding="utf-8")
    with pytest.raises(sl.ConfigError):
        sl.KernelModel.load(str(path))
