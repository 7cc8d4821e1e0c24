"""Acceptance gate: every headline claim at its stated tolerance.

One test per criterion; each prints a single [PASS]/[FAIL] line with the
measured numbers so a plain ``pytest -s tests/test_acceptance.py`` reads as a
checklist.  Tolerances are pinned here and must not be loosened to make a
failing build green.
"""

import warnings

import numpy as np
import pytest
from oracles import dirichlet_inner, gram_area_circular, kernel_coefficients

import spanlab as sl
from spanlab.dirichlet import _gram_nodes, build_blocks, evaluate_blocks, gram_dense

# the dyadic depth schedule 0.128 * 2^-j, j = 0..7, ends exactly at t = 1e-3
DEPTHS = tuple(0.128 * 0.5**j for j in range(8))
SCALING_DEPTHS = tuple(0.1 * 0.5**j for j in range(5))


def _line(num: int, ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} ({detail})")
    assert ok, f"criterion {num}: {label} ({detail})"


@pytest.fixture(scope="module")
def metric_runs(disk_domain, annulus_domain):
    config = sl.ExperimentConfig(base_point=1.0 + 0.0j, steps=DEPTHS)
    return {
        "disk": sl.run_experiment("metric-distance", disk_domain, config),
        "annulus": sl.run_experiment("metric-distance", annulus_domain, config),
    }


@pytest.fixture(scope="module")
def curvature_run(annulus_domain):
    config = sl.ExperimentConfig(base_point=1.0 + 0.0j, steps=DEPTHS, orders=(1, 2))
    return sl.run_experiment("curvature-limit", annulus_domain, config)


@pytest.fixture(scope="module")
def localization_run(annulus_domain):
    config = sl.ExperimentConfig(base_point=1.0 + 0.0j, steps=DEPTHS)
    return sl.run_experiment("localization", annulus_domain, config)


@pytest.fixture(scope="module")
def scaling_run(annulus_domain):
    config = sl.ExperimentConfig(base_point=1.0 + 0.0j, steps=SCALING_DEPTHS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return sl.run_experiment("scaling-kernel", annulus_domain, config)


def test_criterion_1_disk_exactness(disk_domain):
    model = sl.build_model(disk_domain)  # default degrees and tolerances
    radii = np.linspace(0.08, 0.8, 10)
    angles = np.linspace(0.0, 2 * np.pi, 10, endpoint=False)
    grid = (radii[:, None] * np.exp(1j * angles[None, :])).ravel()
    got = np.array([model.metric(z) for z in grid])
    want = 1.0 / (1.0 - np.abs(grid) ** 2) ** 2
    worst = float(np.max(np.abs(got - want) / want))
    _line(1, worst <= 1e-8, "disk metric matches 1/(1-|z|^2)^2", f"max rel err {worst:.2e}")


def test_criterion_2_curvature_constants(disk_model, rng):
    center = sl.curvature_profile(disk_model, 0j, orders=(1, 2))
    err_center = max(abs(center[1] + 4.0), abs(center[2] + 144.0))
    pts = 0.6 * np.sqrt(rng.random(20)) * np.exp(2j * np.pi * rng.random(20))
    worst_fd = 0.0
    for z in pts:
        matrix_route = sl.curvature_profile(disk_model, complex(z), orders=(1,))[1]
        fd_route = sl.gaussian_curvature_fd_oracle(disk_model, complex(z), h=5e-4)
        worst_fd = max(worst_fd, abs(matrix_route - fd_route))
    _line(
        2,
        err_center <= 1e-9 and worst_fd <= 1e-4,
        "kappa_1 = -4, kappa_2 = -144 at 0; FD oracle agrees",
        f"center err {err_center:.2e}, max FD gap {worst_fd:.2e}",
    )


def test_criterion_3_curvature_inequalities(annulus_domain, rng):
    pts = np.sqrt(rng.uniform(0.55**2, 0.95**2, 50)) * np.exp(2j * np.pi * rng.random(50))
    model = sl.build_model(annulus_domain, probes=list(pts), watch_order=3, tol=1e-9)
    eps = model.eps_model  # relative; scale by |bound| for absolute slack
    strict_margin = np.inf
    slack_violation = -np.inf
    for z in pts:
        profile = sl.curvature_profile(model, complex(z), orders=(1, 2, 3))
        strict_margin = min(strict_margin, -4.0 - profile[1])
        for n in (1, 2, 3):
            bound = sl.burbea_bound(n)
            slack_violation = max(slack_violation, (profile[n] - bound) / abs(bound))
    ok = strict_margin > 10 * eps * 4.0 and slack_violation <= eps
    _line(
        3,
        ok,
        "kappa_1 < -4 strictly and kappa_n below sharp bounds on the annulus",
        f"min gap {strict_margin:.2e} vs 10*eps*4 = {10 * eps * 4.0:.2e}, "
        f"worst rel excess {slack_violation:.2e}",
    )


def test_criterion_4_metric_distance_limit(metric_runs):
    details = []
    ok = True
    for name, run in metric_runs.items():
        gap = abs(run.columns["product"][-1] - 0.25)
        order = run.meta["order"]
        ok = ok and gap <= 1e-2 and order >= 0.9
        details.append(f"{name}: |value-1/4| {gap:.2e}, order {order:.3f}")
    _line(4, ok, "s * dist^2 -> 1/4 on disk and annulus", "; ".join(details))


def test_criterion_5_curvature_limits(curvature_run):
    k1 = curvature_run.columns["kappa1"]
    k2 = curvature_run.columns["kappa2"]
    gap1, gap2 = abs(k1[-1] + 4.0), abs(k2[-1] + 144.0) / 144.0
    mono1 = bool(np.all(np.diff(np.abs(k1 + 4.0)[-4:]) < 0))
    mono2 = bool(np.all(np.diff(np.abs(k2 + 144.0)[-4:]) < 0))
    ok = gap1 <= 1e-2 and gap2 <= 5e-2 and mono1 and mono2
    _line(
        5,
        ok,
        "kappa_1 -> -4 and kappa_2 -> -144 at the boundary",
        f"|kappa1+4| {gap1:.2e}, |kappa2+144|/144 {gap2:.2e}, "
        f"monotone last 4: {mono1 and mono2}",
    )


def test_criterion_6_localization(localization_run):
    ratio = localization_run.columns["ratio"]
    above = bool(np.all(ratio >= 1.0 - 1e-12))
    gap = abs(ratio[-1] - 1.0)
    _line(
        6,
        above and gap <= 1e-2,
        "localization ratio >= 1 and -> 1",
        f"min ratio {ratio.min():.12f}, |ratio-1| at t=1e-3: {gap:.2e}",
    )


def test_criterion_7_scaling_principle(scaling_run):
    sup = scaling_run.columns["sup_kernel_gap"]
    bd = scaling_run.columns["hausdorff"]
    t = scaling_run.columns["t"]
    c_fit = scaling_run.meta["c_fit"]
    shrink = sup[-1] <= sup[0] / 4.0
    hausdorff_ok = bool(np.all(bd <= 2.0 * c_fit * t))
    _line(
        7,
        shrink and hausdorff_ok,
        "blown-up kernels -> half-plane kernel; boundary -> half-plane boundary",
        f"sup gap {sup[0]:.2e} -> {sup[-1]:.2e} ({sup[0] / sup[-1]:.1f}x), "
        f"d_H <= 2*C*t with C = {c_fit:.3f}",
    )


def test_criterion_8_property_suite(disk_domain, annulus_domain, annulus_model):
    checks = {}

    # Gram Hermitian positive definite (dense boundary quadrature route)
    blocks = build_blocks(annulus_domain, 16)
    gram, residual = gram_dense(annulus_domain, blocks, _gram_nodes(annulus_domain, blocks))
    eigs = np.linalg.eigvalsh(gram)
    checks["gram Hermitian-PD"] = residual <= 1e-10 and eigs.min() > 0

    # kernel Hermitian symmetry
    z = np.array([0.6 + 0.1j, -0.7 + 0.05j])
    w = np.array([0.55 - 0.2j, 0.1 + 0.65j])
    k_zw = annulus_model.kernel_matrix(z, w)
    k_wz = annulus_model.kernel_matrix(w, z)
    checks["kernel Hermitian symmetry"] = float(
        np.max(np.abs(k_zw - k_wz.conj().T))
    ) <= 1e-12 * float(np.max(np.abs(k_zw)))

    # reproduction identity through an independent boundary quadrature
    zeta = 0.7 + 0.1j
    beta = kernel_coefficients(annulus_model, zeta)

    def section_primitive(pts):
        return np.tensordot(beta, evaluate_blocks(annulus_model.blocks, pts, -1), axes=(0, 0))

    repro_ok = True
    for index in (0, 1, 5, annulus_model.blocks[0].count + 2):
        def basis_fn(pts, index=index):
            return evaluate_blocks(annulus_model.blocks, pts, 0)[index]

        got = dirichlet_inner(annulus_model.domain, basis_fn, section_primitive, nodes=2048)
        want = complex(basis_fn(np.array([zeta]))[0])
        repro_ok = repro_ok and abs(got - want) <= 1e-8 * (1 + abs(want))
    checks["reproduction identity"] = repro_ok

    # subspace monotonicity: growing the basis can only raise the metric
    z0 = 0.55 + 0.2j
    values = []
    for d in (8, 16, 32):
        blocks = build_blocks(disk_domain, d)
        fact = sl.GramFactorization.from_diagonal(sl.gram_diagonal(disk_domain, blocks))
        values.append(sl.KernelModel(disk_domain, blocks, fact).metric(z0))
    truth = sl.DiskMetric().metric(z0)
    checks["subspace monotonicity"] = (
        values[0] <= values[1] + 1e-12
        and values[1] <= values[2] + 1e-12
        and values[2] <= truth * (1 + 1e-10)
    )

    # domain monotonicity: shrinking the domain can only raise the metric
    checks["domain monotonicity"] = annulus_model.metric(0.7 + 0.0j) >= truth_at(0.7)

    # conformal pullback: disk automorphism
    disk_model = sl.build_model(disk_domain, probes=[0.3 + 0.2j], tol=1e-9)
    phi = sl.DiskAutomorphism(0.25 - 0.35j)
    pulled = disk_model.metric(phi.apply(z0)) * abs(phi.derivative(z0)) ** 2
    checks["automorphism pullback"] = abs(pulled - disk_model.metric(z0)) <= 1e-8 * abs(
        disk_model.metric(z0)
    )

    # conformal pullback: affine map of the annulus
    scale, shift = 2.5, 1.0 - 1.0j
    big = sl.annulus(0.5 * scale, outer_radius=scale, center=shift)
    big_model = sl.build_model(big, probes=[shift + scale * (0.7 + 0.0j)], tol=1e-9)
    affine = big_model.metric(shift + scale * (0.7 + 0.0j)) * scale**2
    checks["affine pullback"] = abs(affine - annulus_model.metric(0.7 + 0.0j)) <= 1e-8 * abs(
        affine
    )

    # boundary-integral vs area-quadrature Gram on the disk
    disk_blocks = build_blocks(disk_domain, 12)
    g_boundary, _ = gram_dense(disk_domain, disk_blocks, _gram_nodes(disk_domain, disk_blocks))
    g_area = gram_area_circular(disk_domain, disk_blocks, radial_nodes=400)
    rel = float(np.max(np.abs(g_boundary - g_area)) / np.max(np.abs(g_boundary)))
    checks["boundary vs area Gram"] = rel <= 1e-10

    failed = [name for name, ok in checks.items() if not ok]
    _line(
        8,
        not failed,
        "structural property suite",
        f"{len(checks)} checks" + (f"; failed: {failed}" if failed else ", all passing"),
    )


def truth_at(r: float) -> float:
    return float(sl.DiskMetric().metric(r))
