"""Boundary Gram machinery and kernel models.

Ordering mirrors how trust is established: first the boundary integral
against hand-computed values and an independent area quadrature, then the
Gram routes against each other, then kernel models against closed forms and
against their own defining identities.
"""

import json
import tracemalloc
from decimal import Decimal, localcontext
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import (
    dirichlet_inner,
    gram_area_circular,
    gram_dense_product,
    inverted_domain,
    kernel_coefficients,
)

import spanlab as sl
from spanlab import dirichlet
from spanlab.dirichlet import (
    _FLUSH,
    _binary_powers,
    _flush_tiny,
    _gram_nodes,
    _ladder_rows,
    _power_ladder,
    _rows,
    block_sizes,
    evaluate_blocks,
)
from spanlab.linalg import pivoted_cholesky

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
        value = dirichlet_inner(
            disk_domain,
            lambda z, m=m: z**m,
            lambda z, m=m: z ** (m + 1) / (m + 1),
        )
        assert abs(value - np.pi / (m + 1)) < 1e-12


def test_dirichlet_inner_distinct_monomials_orthogonal(disk_domain):
    value = dirichlet_inner(disk_domain, lambda z: z**3, lambda z: z**2 / 2.0)
    assert abs(value) < 1e-12


def test_dirichlet_inner_flags_nonconvergence(disk_domain):
    # A pole sitting 1e-3 outside the circle: perfectly admissible integrand,
    # but 64 boundary nodes cannot resolve the peak, so the value moves when
    # the node count doubles and the convergence guard must fire.
    a = 1.001
    with pytest.raises(sl.QuadratureError):
        dirichlet_inner(
            disk_domain,
            lambda z: 1.0 / (z - a) ** 2,
            lambda z: -1.0 / (z - a),
            nodes=64,
        )


def test_disk_gram_is_pi_over_m_plus_one(disk_domain):
    blocks = sl.build_blocks(disk_domain, 6)
    gram, residual = sl.gram_dense(disk_domain, blocks, _gram_nodes(disk_domain, blocks))
    assert residual < 1e-12
    expected = np.diag([np.pi / (m + 1) for m in range(6)])
    assert np.max(np.abs(gram - expected)) < 1e-12


def test_annulus_hole_norms_closed_form(annulus_domain):
    # For the hole block around 0 with scale rho: D(z^-m) = pi (rho^2 - rho^{2m}) / (m-1)
    # after the sigma = rho normalization used by the block.
    rho = 0.5
    blocks = sl.build_blocks(annulus_domain, 4)
    gram, _ = sl.gram_dense(annulus_domain, blocks, _gram_nodes(annulus_domain, blocks))
    for i, m in enumerate(range(2, 6)):
        expected = np.pi * (rho**2 - rho ** (2 * m)) / (m - 1)
        assert abs(gram[4 + i, 4 + i] - expected) < 1e-12


def test_boundary_gram_matches_area_gram_on_disk(disk_domain):
    blocks = sl.build_blocks(disk_domain, 8)
    boundary, _ = sl.gram_dense(disk_domain, blocks, _gram_nodes(disk_domain, blocks))
    area = gram_area_circular(disk_domain, blocks)
    scale = np.sqrt(np.outer(np.diag(boundary).real, np.diag(boundary).real))
    assert np.max(np.abs(boundary - area) / scale) < 1e-10


def test_boundary_gram_matches_area_gram_on_annulus(annulus_domain):
    blocks = sl.build_blocks(annulus_domain, 6)
    boundary, _ = sl.gram_dense(annulus_domain, blocks, _gram_nodes(annulus_domain, blocks))
    area = gram_area_circular(annulus_domain, blocks, radial_nodes=400)
    scale = np.sqrt(np.outer(np.diag(boundary).real, np.diag(boundary).real))
    assert np.max(np.abs(boundary - area) / scale) < 1e-10


def test_diagonal_route_matches_dense_route(annulus_domain):
    blocks = sl.build_blocks(annulus_domain, 12)
    dense, _ = sl.gram_dense(annulus_domain, blocks, _gram_nodes(annulus_domain, blocks))
    diag = sl.gram_diagonal(annulus_domain, blocks)
    assert np.max(np.abs(np.diag(dense).real - diag) / diag) < 1e-12
    off = dense - np.diag(np.diag(dense))
    assert np.max(np.abs(off)) < 1e-12 * np.max(diag)


def _config_depths(pattern: str) -> list[float]:
    configs = Path(__file__).resolve().parent.parent / "configs"
    steps = {t for path in configs.glob(pattern) for t in json.loads(path.read_text())["steps"]}
    return sorted(steps, reverse=True)


@pytest.mark.parametrize("base, inward", [(1.0, -1.0), (0.5, 1.0)], ids=["outer", "hole"])
def test_diagonal_route_matches_annulus_image_series(base, inward):
    # every depth of the annulus(0.5) run configs, toward both circles
    dom = sl.annulus(0.5)
    ref = sl.reference.AnnulusMetric(0.5)
    depths = _config_depths("annulus-*.json")
    assert len(depths) == 13
    for t in depths:
        z = base + inward * t
        model = sl.build_model(dom, probes=[z], watch_order=2, tol=1e-10)
        assert model.meta["route"] == "diagonal" and model.meta["converged"]
        assert abs(model.metric(z) / ref.metric(z) - 1.0) <= 1e-12, t
        got = sl.curvature_profile(model, z, orders=(1, 2))
        want = sl.curvature_profile(ref, z, orders=(1, 2))
        for n in (1, 2):
            assert abs(got[n] / want[n] - 1.0) <= 1e-12, (t, n)


def test_gram_dense_flush_keeps_the_gram(monkeypatch):
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
    nodes = _gram_nodes(dom, blocks)
    gram, _ = sl.gram_dense(dom, blocks, nodes)
    below = 0
    for curve in dom.curves:
        c = curve if curve.nodes == nodes else curve.resample(nodes)
        weighted = evaluate_blocks(blocks, c.points, 0) * c.complex_weights
        primitives = evaluate_blocks(blocks, c.points, -1)
        for a in (weighted, primitives):
            parts = a.view(float)
            below += np.count_nonzero((parts != 0.0) & (np.abs(parts) < _FLUSH))
    # the same route, unflushed
    monkeypatch.setattr(dirichlet, "_flush_tiny", lambda a: a)
    reference, _ = sl.gram_dense(dom, blocks, nodes)
    assert below > 0
    d = np.sqrt(np.diag(reference).real)
    assert np.max(np.abs(gram - reference) / np.outer(d, d)) < 1e-100
    perm, L, _ = pivoted_cholesky(gram)
    perm_ref, L_ref, _ = pivoted_cholesky(reference)
    assert L.shape[1] == L_ref.shape[1]
    assert np.array_equal(perm, perm_ref)


def _circle(x: float, y: float, r: float) -> dict:
    return {"kind": "circle", "center": [x, y], "radius": r}


_ELLIPSE = {"kind": "fourier", "coefficients": {"0": [0.2, 0], "-1": [0.15, 0], "1": [0.05, 0]}}
_POLYGON = {"kind": "polygon", "vertices": [[0.0, -0.1], [0.0, 0.1], [0.4, 0.1], [0.4, -0.1]]}


@pytest.mark.parametrize(
    "holes, anchors, shrinks",
    [
        ([_circle(0.2, 0, 0.4)], [[0.2, 0]], True),
        ([_circle(0.2, 0, 0.1)], [[0.2, 0]], True),
        ([_circle(0.55, 0, 0.3)], [[0.55, 0]], True),
        ([_circle(0.5, 0, 0.1), _circle(-0.4, 0.3, 0.15)], [[0.5, 0], [-0.4, 0.3]], True),
        ([_ELLIPSE], [[0.2, 0]], False),
        ([_POLYGON], [[0.2, 0]], False),
        ([_circle(0.2, 0, 0.4)], [[0.4, 0]], False),
    ],
    ids=["B(0.2,0.4)", "B(0.2,0.1)", "B(0.55,0.3)", "two-holes", "ellipse-hole", "polygon-2to1", "off-centre-anchor"],
)
def test_gram_nodes_follow_the_highest_power_not_the_basis_size(holes, anchors, shrinks):
    # About a circle centred at its anchor, each entry pairs two functions of
    # power <= p, so 2p + 64 nodes resolve it whatever the number of blocks.
    # Off that case a pole of power p oscillates up to twice as fast on these
    # holes (2p + 64 nodes misread the Gram by 0.05 to 2.8), and the count
    # stays 2n + 64.  Either way the count is rounded up to a multiple of 64
    # (2 * 257 + 64 = 578 becomes 640), and the Gram is the one at 2n + 64.
    dom = sl.domain_from_dict({"outer": _circle(0, 0, 1.0), "holes": holes, "anchors": anchors})
    blocks = sl.build_blocks(dom, 256)
    n = block_sizes(blocks)
    nodes = _gram_nodes(dom, blocks)
    assert nodes == (640 if shrinks else 2 * n + 64)
    gram, _ = sl.gram_dense(dom, blocks, nodes)
    wide, _ = sl.gram_dense(dom, blocks, 2 * n + 64)
    d = np.sqrt(np.diag(wide).real)
    assert np.max(np.abs(gram - wide) / np.outer(d, d)) < 1e-12


@pytest.mark.parametrize("degree", [16, 256, 512])
def test_gram_nodes_unchanged_on_a_simply_connected_domain(degree):
    # One monomial block: p = n = degree, so the count is the size rule's,
    # and with it every Gram entry and model output, bit for bit.
    dom = sl.ellipse(semi_axes=(1.0, 0.6))
    blocks = sl.build_blocks(dom, degree)
    assert _gram_nodes(dom, blocks) == max(2 * block_sizes(blocks) + 64, dom.outer.nodes)


def test_build_model_records_the_gram_nodes(ellipse_model, annulus_model):
    blocks = sl.build_blocks(ellipse_model.domain, ellipse_model.meta["degree"])
    assert ellipse_model.meta["nodes"] == _gram_nodes(ellipse_model.domain, blocks)
    assert annulus_model.meta["nodes"] is None  # closed-form Gram, no quadrature


_SPLIT_CASES = {
    "B(0.2,0.4)-256": ([_circle(0.2, 0, 0.4)], [[0.2, 0]], _circle(0, 0, 1.0), 256),
    "B(0.2,0.4)-512": ([_circle(0.2, 0, 0.4)], [[0.2, 0]], _circle(0, 0, 1.0), 512),
    "centred-and-eccentric": (
        [_circle(0, 0, 0.2), _circle(0.6, 0, 0.15)],
        [[0, 0], [0.6, 0]],
        _circle(0, 0, 1.0),
        256,
    ),
    "three-holes": (
        [_circle(0.5, 0, 0.1), _circle(-0.4, 0.3, 0.15), _circle(-0.2, -0.5, 0.2)],
        [[0.5, 0], [-0.4, 0.3], [-0.2, -0.5]],
        _circle(0, 0, 1.0),
        256,
    ),
    "off-centre-outer": ([_circle(0.2, 0, 0.4)], [[0.2, 0]], _circle(0.3, 0.1, 1.0), 256),
    "off-centre-anchor": ([_circle(0.2, 0, 0.4)], [[0.4, 0]], _circle(0, 0, 1.0), 256),
}


@pytest.mark.parametrize("holes, anchors, outer, degree", _SPLIT_CASES.values(), ids=_SPLIT_CASES)
def test_split_gram_matches_the_plain_product(holes, anchors, outer, degree):
    # Closed forms and FFT columns on circles about a block's centre, the
    # product elsewhere, against one product of every sampled row.  The
    # centred hole puts two modal blocks on the outer circle.  A wrong
    # frequency moves both triangles by opposite amounts, so the residual
    # is checked too.
    dom = sl.domain_from_dict({"outer": outer, "holes": holes, "anchors": anchors})
    blocks = sl.build_blocks(dom, degree)
    nodes = _gram_nodes(dom, blocks)
    gram, residual = sl.gram_dense(dom, blocks, nodes)
    plain, _ = gram_dense_product(dom, blocks, nodes)
    assert residual < 1e-12
    d = np.sqrt(np.diag(plain).real)
    assert np.max(np.abs(gram - plain) / np.outer(d, d)) < 1e-12
    assert pivoted_cholesky(gram)[1].shape[1] == pivoted_cholesky(plain)[1].shape[1]


@pytest.mark.parametrize(
    "dom",
    [sl.ellipse(semi_axes=(1.0, 0.6)), sl.Domain(sl.BoundaryCurve({1: 1.0, 2: 0.3}))],
    ids=["ellipse", "limacon"],
)
def test_gram_without_a_modal_block_is_the_plain_product(dom):
    blocks = sl.build_blocks(dom, 128)
    nodes = _gram_nodes(dom, blocks)
    gram, residual = sl.gram_dense(dom, blocks, nodes)
    plain, plain_residual = gram_dense_product(dom, blocks, nodes)
    assert np.array_equal(gram, plain) and residual == plain_residual


@given(
    pole=st.booleans(),
    orientation=st.sampled_from([1, -1]),
    center=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    radius=st.floats(0.5, 2.0),
    ratio=st.floats(0.8, 1.25),
    phase=st.floats(0.0, 2 * np.pi),
    start=st.integers(0, 8),
    count=st.integers(1, 64),
    nodes=st.integers(16, 200),
)
def test_modal_rows_match_the_sampled_rows(
    pole, orientation, center, radius, ratio, phase, start, count, nodes
):
    c = complex(*center)
    curve = sl.BoundaryCurve({0: c, orientation: radius * np.exp(1j * phase)}, nodes=nodes)
    block = dirichlet.BasisBlock(
        kind="pole" if pole else "monomial",
        center=c,
        scale=radius * ratio,
        start=start + 2 * pole,
        count=count,
    )
    alpha, f, beta = dirichlet._modal_rows(block, curve)
    # e^{i f t_n} with the argument reduced exactly
    modes = np.exp(2j * np.pi * (np.multiply.outer(f, np.arange(nodes)) % nodes) / nodes)
    weighted = block.evaluate(curve.points, 0) * curve.complex_weights
    primitives = block.evaluate(curve.points, -1)
    for sampled, closed in ((weighted, alpha), (primitives, beta)):
        gap = np.abs(sampled - closed[:, None] * modes) / np.abs(closed)[:, None]
        assert np.max(gap) < 1e-13


@pytest.mark.parametrize(
    "holes, anchors",
    [([_ELLIPSE], [[0.2, 0]]), ([_POLYGON], [[0.2, 0]]), ([_circle(0.2, 0, 0.4)], [[0.4, 0]])],
    ids=["ellipse-hole", "polygon-2to1", "off-centre-anchor"],
)
def test_residual_guard_fires_on_too_few_nodes(holes, anchors):
    # At degree 512 these holes need 2n + 64 = 2112 nodes.  On 1090, the
    # highest-power count, the sampled pole rows alias; the two triangles
    # are separate sums (FFT columns against the modal outer monomials, the
    # product on the hole), so they disagree far beyond roundoff.
    dom = sl.domain_from_dict({"outer": _circle(0, 0, 1.0), "holes": holes, "anchors": anchors})
    _, residual = sl.gram_dense(dom, sl.build_blocks(dom, 512), 1090)
    assert residual > 1e-10


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


@given(
    moduli=st.lists(st.floats(0.05, 0.9999), min_size=1, max_size=4),
    angle=st.floats(0.0, 2 * np.pi),
    start=st.integers(0, 3),
    count=st.integers(1, 4096),
)
def test_power_ladder_stops_only_below_the_flush(moduli, angle, start, count):
    base = np.array(moduli) * np.exp(1j * (angle + np.arange(len(moduli))))
    reference = np.empty((count, base.size), dtype=complex)
    reference[:] = base
    reference[0] = _binary_powers(base, [start])[0]
    np.cumprod(reference, axis=0, out=reference)
    ladder = _power_ladder(base, start, count)
    zero = ~np.any(ladder, axis=1)
    assert np.array_equal(ladder[~zero].view(np.uint64), reference[~zero].view(np.uint64))
    assert np.all(np.abs(reference[zero]) < _FLUSH)


@pytest.mark.parametrize("radius", [0.55, 0.7, 0.9, 0.95])
def test_jet_does_no_subnormal_arithmetic(radius):
    z = radius * np.exp(0.3j)
    for block in sl.build_blocks(sl.annulus(0.5), 2048):
        with np.errstate(under="raise"):
            block.jet(z, 3)
            block.evaluate(z, -1)


def test_floor_leaves_model_outputs_bit_identical(monkeypatch, rng):
    dom = sl.annulus(0.5)
    blocks = sl.build_blocks(dom, 2048)
    model = sl.KernelModel(dom, blocks, sl.GramFactorization.from_diagonal(sl.gram_diagonal(dom, blocks)))
    radii = rng.uniform(0.551, 0.949, 64)
    pts = radii * np.exp(2j * np.pi * rng.random(64))
    # At every point the ladder of at least one block stops early.
    for z in pts:
        assert min(_ladder_rows(abs(b.base(z)), b.start, b.count) for b in blocks) < 2048

    def outputs():
        return [
            np.array([model.metric(z) for z in pts]),
            model.metric(pts),
            np.array([model.metric_matrix(z, 3) for z in pts]),
            model.kernel_matrix(pts, pts),
        ]

    floored = outputs()
    monkeypatch.setattr(dirichlet, "_ladder_rows", lambda r, start, count: count)
    for got, want in zip(floored, outputs()):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_kernel_matrix_multiplies_flushed_operands(monkeypatch, rng):
    # A batch across the band keeps every ladder row, so its whitened values
    # have subnormal parts; the product must not see them.
    dom = sl.annulus(0.5)
    blocks = sl.build_blocks(dom, 2048)
    model = sl.KernelModel(dom, blocks, sl.GramFactorization.from_diagonal(sl.gram_diagonal(dom, blocks)))
    pts = rng.uniform(0.55, 0.95, 200) * np.exp(2j * np.pi * rng.random(200))
    raw = model.factorization.whiten(evaluate_blocks(blocks, pts))
    assert np.any((raw.view(float) != 0.0) & (np.abs(raw.view(float)) < _FLUSH))
    other = pts[::-1][:70].copy()
    raw_other = model.factorization.whiten(evaluate_blocks(blocks, other))

    operands = []
    whiten = model.factorization.whiten

    def recording_whiten(vectors):
        operands.append(whiten(vectors))
        return operands[-1]

    monkeypatch.setattr(model.factorization, "whiten", recording_whiten)
    got = model.kernel_matrix(pts, pts)
    assert len(operands) == 1  # equal arguments share one whitened operand
    assert np.array_equal(got.view(np.uint64), (raw.T @ raw.conj()).view(np.uint64))
    got = model.kernel_matrix(pts, other)
    assert len(operands) == 3  # different arguments are whitened apart
    for w in operands:
        parts = w.view(float)
        assert not np.any((parts != 0.0) & (np.abs(parts) < _FLUSH))
    assert np.array_equal(got.view(np.uint64), (raw.T @ raw_other.conj()).view(np.uint64))


@pytest.mark.parametrize("route", ["diagonal", "dense"])
def test_metric_matrix_reuses_its_arrays(route, annulus_model, ellipse_model, rng):
    # The jets and their conjugate go into an array kept between calls; each
    # call must still give the product of freshly built ones, bit for bit.
    model = annulus_model if route == "diagonal" else ellipse_model
    assert model.meta["route"] == route
    radius = rng.uniform(0.55, 0.95, 4) if route == "diagonal" else rng.uniform(0.0, 0.5, 4)
    for z in radius * np.exp(2j * np.pi * rng.random(4)):
        got = model.metric_matrix(complex(z), 3)
        jet = np.concatenate([b.jet([z], 3)[:, :, 0] for b in model.blocks], axis=1)
        u = model.factorization.whiten(jet.T).T
        assert np.array_equal(got, np.pi * (u @ u.conj().T))


def test_metric_matrix_allocates_only_the_whitening(annulus_model):
    # Called one point at a time, fresh arrays of this size cost page faults
    # whenever the C allocator returns them to the system between calls.  The
    # diagonal whitening still allocates its product, and numpy's iterator may
    # add a buffer for a strided operand.
    one = 4 * annulus_model.size * 16  # one (order + 1, size) complex array at order 3
    annulus_model.metric_matrix(0.7 + 0.1j, 3)
    tracemalloc.start()
    try:
        annulus_model.metric_matrix(-0.2 + 0.75j, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * one


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
    blocks = sl.build_blocks(annulus_domain, 8)
    assert sl.zero_period_residual(annulus_domain, blocks) < 1e-12


@pytest.mark.parametrize("kind", ["monomial", "pole"])
def test_period_check_does_not_alias(kind):
    # On a circle about its centre, z^m gives g gamma' the frequency m + 1 and
    # a pole of power m the frequency 1 - m.  At m = N - 1 (monomial) or
    # N + 1 (pole) that is a multiple of the circle's N = 512 nodes, where the
    # trapezoid rule folds it onto a constant (0.86 and 0.76); the Gram's
    # nodes do not.
    curve_nodes = 512
    dom = sl.annulus(0.5, nodes=curve_nodes)
    if kind == "monomial":
        block = sl.BasisBlock("monomial", 0j, 1.0, curve_nodes - 1, 1)
    else:
        block = sl.BasisBlock("pole", 0j, 0.5, curve_nodes + 1, 1)
    assert sl.zero_period_residual(dom, [block]) < 1e-14


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
    blocks = sl.build_blocks(annulus_domain, 16)
    diag = sl.gram_diagonal(annulus_domain, blocks)
    worst = sl.spot_check_offdiagonal(annulus_domain, blocks, diag)
    assert worst < 1e-10


def test_spot_check_rejects_nonsymmetric_domain():
    dom = sl.ellipse(semi_axes=(1.0, 0.6))
    blocks = sl.build_blocks(dom, 12)
    fake_diag = np.ones(block_sizes(blocks))
    with pytest.raises(sl.QuadratureError):
        sl.spot_check_offdiagonal(dom, blocks, fake_diag)


@pytest.mark.parametrize("gram", [gram_area_circular, sl.gram_diagonal])
def test_gram_area_rejects_nonsymmetric_domain(gram):
    dom = sl.ellipse(semi_axes=(1.0, 0.6))
    with pytest.raises(sl.ConfigError):
        gram(dom, sl.build_blocks(dom, 4))


def test_rank_zero_gram_signals():
    with pytest.raises(sl.QuadratureError):
        sl.GramFactorization.from_dense(np.zeros((3, 3), dtype=complex))


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
    beta = kernel_coefficients(annulus_model, zeta)

    def section_primitive(pts):
        return np.tensordot(beta, evaluate_blocks(blocks, pts, -1), axes=(0, 0))

    for index in (0, 1, 5, annulus_model.blocks[0].count + 2):
        def basis_fn(pts, index=index):
            return evaluate_blocks(blocks, pts, 0)[index]

        got = dirichlet_inner(domain, basis_fn, section_primitive, nodes=2048)
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
    flipped, mob = inverted_domain(domain, 0)
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


def test_dense_route_kernel_matrix(ellipse_model):
    z = np.array([0.2 + 0.1j, -0.5 + 0.2j, 0.1 - 0.4j])
    k = ellipse_model.kernel_matrix(z, z)
    assert np.max(np.abs(k - k.conj().T)) <= 1e-12 * np.max(np.abs(k))
    assert np.allclose(np.pi * np.diag(k).real, ellipse_model.metric(z), rtol=1e-12, atol=0.0)


# -- model construction mechanics ---------------------------------------------------


def test_build_model_converges_and_records(annulus_model):
    meta = annulus_model.meta
    assert meta["converged"]
    assert meta["eps_model"] <= meta["tol"]
    assert meta["route"] == "diagonal"
    degrees = [d for d, _ in meta["history"]]
    assert all(b == 2 * a for a, b in zip(degrees, degrees[1:]))
    assert annulus_model.factorization.condition() >= 1.0


def _tail_oracle(domain, model, probes, order):
    """Largest |T_jk| / sqrt(S_jj S_kk) over real probes, summed in ``decimal``.

    S is the watched matrix of the kept degree-2d model and T its part from
    each block's functions d..2d-1, both from the closed-form series: the
    derivatives of ``(z/R)^m`` and ``(sigma/z)^m`` over their closed-form
    squared norms on ``r_in < |z| < r_out``, for the same float radii, scales
    and probes.
    """
    degree = model.meta["degree"]
    mono, pole = model.blocks
    assert mono.center == pole.center == 0
    orders = range(order + 1)
    worst = Decimal(0)
    with localcontext() as ctx:
        ctx.prec = 50
        r_out = Decimal(domain.outer.circle_data()[1])
        r_in = Decimal(domain.holes[0].circle_data()[1])
        big_r, sigma = Decimal(mono.scale), Decimal(pole.scale)
        for probe in probes:
            x = Decimal(probe)
            full = [[Decimal(0)] * len(orders) for _ in orders]
            tail = [[Decimal(0)] * len(orders) for _ in orders]
            for i in range(degree):
                m, e = i, 2 * i + 2  # monomial (z/R)^m
                norm = _PI * big_r**2 / (m + 1) * ((r_out / big_r) ** e - (r_in / big_r) ** e)
                falling = [prod((Decimal(m - q) for q in range(j)), start=Decimal(1)) for j in orders]
                ders = [falling[j] * x ** (m - j) / big_r**m if j <= m else Decimal(0) for j in orders]
                m, e = i + 2, 2 * i + 2  # pole (sigma/z)^m
                norm_pole = _PI * sigma**2 / (m - 1) * ((sigma / r_in) ** e - (sigma / r_out) ** e)
                rising = [prod((Decimal(m + q) for q in range(j)), start=Decimal(1)) for j in orders]
                ders_pole = [(-1) ** j * rising[j] * sigma**m / x ** (m + j) for j in orders]
                for j in orders:
                    for k in orders:
                        term = ders[j] * ders[k] / norm + ders_pole[j] * ders_pole[k] / norm_pole
                        full[j][k] += term
                        if i >= degree // 2:
                            tail[j][k] += term
            for j in orders:
                for k in orders:
                    worst = max(worst, abs(tail[j][k]) / (full[j][j] * full[k][k]).sqrt())
    return float(worst)


@pytest.mark.parametrize("order, tol", [(0, 1e-8), (2, 1e-10)])
def test_eps_model_is_the_exact_partial_tail(annulus_domain, order, tol):
    # The change against the half degree is read from the kept model's own
    # rows d..2d-1, so it is the exact tail, not a difference that rounds to 0.
    probes = [0.6, 0.9]
    model = sl.build_model(annulus_domain, probes=probes, watch_order=order, tol=tol)
    want = _tail_oracle(annulus_domain, model, probes, order)
    assert 0.0 < model.eps_model < tol
    assert abs(model.eps_model / want - 1.0) <= 1e-12
    assert model.meta["history"][-1] == [model.meta["degree"], model.eps_model]


def test_one_gram_and_one_spot_check_per_built_degree(annulus_domain, monkeypatch):
    built = {"gram_diagonal": [], "spot_check_offdiagonal": []}
    for name, calls in built.items():
        original = getattr(dirichlet, name)

        def counting(domain, blocks, *args, original=original, calls=calls):
            calls.append(block_sizes(blocks) // 2)
            return original(domain, blocks, *args)

        monkeypatch.setattr(dirichlet, name, counting)
    # A start well below the degree that converges, so several degrees are built.
    monkeypatch.setattr(dirichlet, "_initial_degree", lambda *args: 16)
    model = sl.build_model(annulus_domain, probes=[0.9], watch_order=2, tol=1e-10)
    degrees = [degree for degree, _ in model.meta["history"]]
    assert degrees[0] == 32 and len(degrees) >= 3
    assert all(b == 2 * a for a, b in zip(degrees, degrees[1:]))
    assert built["gram_diagonal"] == built["spot_check_offdiagonal"] == degrees
    assert all(change is not None for _, change in model.meta["history"])
    assert degrees[-1] == model.meta["degree"]


def test_watched_matrix_is_reused_and_copied(annulus_domain):
    probes = [0.9, 0.6j]
    model = sl.build_model(annulus_domain, probes=probes, watch_order=3, tol=1e-10)
    blocks = sl.build_blocks(annulus_domain, model.meta["degree"])
    fresh = sl.KernelModel(
        annulus_domain, blocks, sl.GramFactorization.from_diagonal(sl.gram_diagonal(annulus_domain, blocks))
    )
    for z in probes:
        want = fresh.metric_matrix(z, 3)
        got = model.metric_matrix(z, 3)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        got[:] = 0.0
        again = model.metric_matrix(z, 3)
        assert np.array_equal(again.view(np.uint64), want.view(np.uint64))
    profile = sl.curvature_profile(model, 0.9, orders=(1, 2, 3))
    assert profile == sl.curvature_profile(fresh, 0.9, orders=(1, 2, 3))


def test_trimmed_products_equal_the_untrimmed(annulus_domain, monkeypatch, rng):
    # Near the outer circle the pole block, which comes last, ends in a long
    # run of zero ladder rows; metric_matrix and kernel_matrix leave it out.
    blocks = sl.build_blocks(annulus_domain, 2048)
    model = sl.KernelModel(
        annulus_domain, blocks, sl.GramFactorization.from_diagonal(sl.gram_diagonal(annulus_domain, blocks))
    )
    near = rng.uniform(0.85, 0.95, 40) * np.exp(2j * np.pi * rng.random(40))
    other = rng.uniform(0.8, 0.9, 30) * np.exp(2j * np.pi * rng.random(30))
    live = []
    for pts in (near, other):
        values = evaluate_blocks(blocks, pts)
        live.append(dirichlet._live_rows(values, [2048, 2048]))
        assert np.any(values[live[-1] - 1]) and not np.any(values[live[-1] :])
    assert max(live) < model.size and live[0] != live[1]

    def outputs():
        return [
            np.array([model.metric_matrix(complex(z), 0) for z in near]),
            np.array([model.metric_matrix(complex(z), 3) for z in near]),
            model.kernel_matrix(near, near),
            model.kernel_matrix(near, other),
            model.kernel_matrix(other, near),
        ]

    trimmed = outputs()
    monkeypatch.setattr(dirichlet, "_live_rows", lambda rows, counts: rows.shape[0])
    for got, want in zip(trimmed, outputs()):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_build_model_dense_route(ellipse_model):
    assert ellipse_model.meta["route"] == "dense"
    assert ellipse_model.meta["converged"]
    assert ellipse_model.meta["gram_residual"] < 1e-12
    assert ellipse_model.meta["period_residual"] < 1e-10
    assert ellipse_model.metric(0.2 + 0.1j) > 0


def test_ellipse_model_fd_curvature_consistency(ellipse_model):
    """Dense-route model passes an independent curvature cross-check."""
    z = 0.2 + 0.1j
    matrix_route = sl.curvature_profile(ellipse_model, z, orders=(1,))[1]
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
    for tol in (float("nan"), -1e-6, -1e-8, 0.0, float("inf")):
        with pytest.raises(sl.ConfigError, match="tol must be positive and finite"):
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
    inward = 1j * curve.derivative(mid) / np.abs(curve.derivative(mid))
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
