"""Independent oracles that only the tests use.

Each one reaches a number by a route the package does not take, so a test
can hold the package's result against it:

* ``gram_area_circular``: the Gram matrix by polar area quadrature, against
  the boundary (Stokes) route of ``gram_dense`` and ``gram_diagonal``;
* ``gram_dense_product``: the boundary Gram as one matrix product of every
  sampled row, against the closed forms and FFTs that ``gram_dense`` takes
  on circles about a block's centre;
* ``dirichlet_inner``: one Dirichlet inner product by boundary quadrature at
  two node counts, for the reproducing identity of a model's kernel;
* ``inverted_domain`` and ``MobiusMap``: the inversion that turns a hole
  inside out, for the Moebius invariance of the span metric;
* ``segments_cross``: every segment of a closed polyline against every other,
  for the k-d tree that picks the candidate pairs of domain validation;
* ``curve_samples_in_ball_full``: the whole fine parameter grid, filtered
  afterwards, for the speed-bounded cells of ``curve_samples_in_ball``;
* ``halfdisk_density`` and ``half_disk_lens``: the half-disk's closed-form
  density, against the lens uniformization of the same region;
* ``kernel_coefficients``: the coefficients of ``K(., zeta)`` in a diagonal
  model's basis, for the reproducing identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from spanlab.dirichlet import BasisBlock, KernelModel, _flush_tiny, block_sizes, evaluate_blocks
from spanlab.domains import BoundaryCurve, Domain, rotation_center
from spanlab.errors import ConfigError, DomainError, QuadratureError
from spanlab.reference import LensMetric
from spanlab.linalg import hermitize


def gram_area_circular(
    domain: Domain,
    blocks: Sequence[BasisBlock],
    radial_nodes: int = 200,
) -> np.ndarray:
    """Gram matrix by direct polar area quadrature (independent oracle route).

    Only rotation-invariant domains are supported: Gauss-Legendre radially,
    trapezoid in angle.  Deliberately dumb and separate from the boundary
    route so the two can cross-check each other.
    """
    center = rotation_center(domain)
    if center is None:
        raise ConfigError("area oracle needs concentric circular boundaries")
    outer_r = domain.outer.circle_data()[1]
    inner_r = domain.holes[0].circle_data()[1] if domain.holes else 0.0
    r_nodes, r_weights = np.polynomial.legendre.leggauss(radial_nodes)
    r = 0.5 * (outer_r - inner_r) * (r_nodes + 1.0) + inner_r
    wr = 0.5 * (outer_r - inner_r) * r_weights * r
    n_theta = 2 * block_sizes(blocks) + 32
    theta = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    grid = center + np.outer(r, np.exp(1j * theta)).ravel()
    weights = np.repeat(wr, n_theta) * (2.0 * np.pi / n_theta)
    values = evaluate_blocks(blocks, grid, 0)
    gram = (values * weights) @ values.conj().T
    return hermitize(gram)[0]


def gram_dense_product(
    domain: Domain, blocks: Sequence[BasisBlock], nodes: int
) -> tuple[np.ndarray, float]:
    """(Gram matrix, hermitian residual) from ``nodes`` sampled nodes per curve.

    Every basis function is sampled on every curve, and each curve adds one
    product of the flushed weighted values and conjugate primitives.
    """
    n = block_sizes(blocks)
    gram = np.zeros((n, n), dtype=complex)
    for curve in domain.curves:
        c = curve if curve.nodes == nodes else curve.resample(nodes)
        values = evaluate_blocks(blocks, c.points, 0)
        values *= c.complex_weights
        primitives = evaluate_blocks(blocks, c.points, -1)
        np.conj(primitives, out=primitives)
        gram += _flush_tiny(values) @ _flush_tiny(primitives).T / 2j
    return hermitize(gram)


def dirichlet_inner(domain: Domain, f, g_primitive, nodes: int = 1024) -> complex:
    """``int_D f conj(g) dA`` through Stokes, given ``g``'s primitive.

    ``f`` must have a single-valued primitive on the domain (all model basis
    functions do), otherwise the boundary formula picks up period terms.  The
    integral is recomputed at doubled node count, and a disagreement beyond
    1e-8 relative raises ``QuadratureError``.
    """

    def at(n: int) -> complex:
        total = 0.0 + 0.0j
        for curve in domain.curves:
            c = curve if curve.nodes == n else curve.resample(n)
            total += np.sum(f(c.points) * np.conj(g_primitive(c.points)) * c.complex_weights)
        return total / 2j

    coarse = at(nodes)
    fine = at(2 * nodes)
    if abs(coarse - fine) > 1e-8 * (1.0 + abs(fine)):
        raise QuadratureError(
            f"boundary quadrature not converged: {coarse} vs {fine} at {nodes}/{2 * nodes} nodes"
        )
    return fine


@dataclass(frozen=True)
class MobiusMap:
    """The inversion ``w = scale / (z - anchor)`` and its inverse."""

    anchor: complex
    scale: float

    def apply(self, z):
        return self.scale / (np.asarray(z, dtype=complex) - self.anchor)

    def invert(self, w):
        return self.anchor + self.scale / np.asarray(w, dtype=complex)

    def derivative(self, z):
        return -self.scale / (np.asarray(z, dtype=complex) - self.anchor) ** 2


def _refit_curve(points: np.ndarray, nodes: int) -> BoundaryCurve:
    """Trig-poly fit of equispaced samples of an analytic closed curve."""
    n = points.size
    coeffs_full = np.fft.fft(points) / n
    ks = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    top = float(np.max(np.abs(coeffs_full)))
    keep = (np.abs(coeffs_full) > 1e-13 * top) & (np.abs(ks) < n // 2)
    coefficients = {int(k): complex(c) for k, c in zip(ks[keep], coeffs_full[keep])}
    return BoundaryCurve(coefficients, nodes=nodes)


def inverted_domain(domain: Domain, hole_index: int) -> tuple[Domain, MobiusMap]:
    """Turn hole ``hole_index`` inside out: its boundary becomes the outer curve.

    The Moebius inversion centered at the hole's anchor maps the domain
    conformally onto a new finitely connected domain whose outer boundary is
    the image of the selected hole; the old outer curve becomes a hole with
    anchor ``0`` (the image of infinity).  The span metric pulls back through
    the map: ``s_old(z) = s_new(w(z)) |w'(z)|^2``.  This serves the Moebius
    invariance oracle: a model of the inverted domain, pulled back, must give
    the metric of a model of the original one.  The experiments need no such
    step; they accept a base point on any boundary curve.
    """
    if not 0 <= hole_index < len(domain.holes):
        raise DomainError(f"domain has no hole {hole_index}")
    anchor = domain.anchors[hole_index]
    hole = domain.holes[hole_index]
    scale = float(np.min(np.abs(hole.points - anchor)))
    mapping = MobiusMap(anchor=anchor, scale=scale)

    def move(curve: BoundaryCurve) -> BoundaryCurve:
        dense = curve.resample(max(curve.nodes * 2, 1024))
        return _refit_curve(mapping.apply(dense.points), nodes=curve.nodes)

    new_outer = move(hole)
    new_holes = [move(domain.outer)]
    new_anchors = [0.0 + 0.0j]
    for q, other in enumerate(domain.holes):
        if q == hole_index:
            continue
        new_holes.append(move(other))
        new_anchors.append(complex(mapping.apply(domain.anchors[q])))
    return Domain(new_outer, new_holes, new_anchors), mapping


def segments_cross(pts_a: np.ndarray, pts_b: np.ndarray | None = None) -> bool:
    """Strict transversal crossing between closed-polyline segments, all pairs.

    With one argument, tests the polyline against itself (adjacent segment
    pairs excluded); with two, tests every segment of one against every
    segment of the other.  Grazing contact is not a crossing.
    """
    a0 = pts_a
    a1 = np.roll(pts_a, -1)
    if pts_b is None:
        b0, b1 = a0, a1
    else:
        b0, b1 = pts_b, np.roll(pts_b, -1)
    u = (a1 - a0)[:, None]
    v = (b1 - b0)[None, :]
    d1 = np.imag(np.conj(u) * (b0[None, :] - a0[:, None]))
    d2 = np.imag(np.conj(u) * (b1[None, :] - a0[:, None]))
    d3 = np.imag(np.conj(v) * (a0[:, None] - b0[None, :]))
    d4 = np.imag(np.conj(v) * (a1[:, None] - b0[None, :]))
    crossing = (d1 * d2 < 0.0) & (d3 * d4 < 0.0)
    if pts_b is None:
        n = pts_a.size
        idx = np.arange(n)
        gap = np.abs(idx[:, None] - idx[None, :])
        crossing &= np.minimum(gap, n - gap) > 1
    return bool(np.any(crossing))


def curve_samples_in_ball_full(curve: BoundaryCurve, radius: float) -> np.ndarray:
    """``curve_samples_in_ball`` by evaluating every fine parameter, then filtering.

    Same coarse pass, fraction and fine grid size; no cell is skipped.
    """
    coarse_n = 4096
    t = np.arange(coarse_n) * (2.0 * np.pi / coarse_n)
    pts = curve.point(t)
    frac = float(np.count_nonzero(np.abs(pts) <= 1.1 * radius)) / coarse_n
    if frac == 0.0:
        return pts[np.abs(pts) <= radius]
    fine_n = min(1 << 20, max(coarse_n, int(4000 / max(frac, 1e-6))))
    t = np.arange(fine_n) * (2.0 * np.pi / fine_n)
    pts = curve.point(t)
    return pts[np.abs(pts) <= radius]


def halfdisk_density(z, r: float = 1.0):
    """Curvature -1 density of the half-disk {|z| < r, Im z > 0}.

    First-power convention; square half of it to get the span metric.  At
    ``z = i r/2`` the value is ``10/(3 r)``.
    """
    z = np.asarray(z, dtype=complex)
    return np.abs(r + z) * np.abs(r - z) / (z.imag * (r**2 - np.abs(z) ** 2))


def half_disk_lens(r: float) -> LensMetric:
    """The half-disk {|z| < r, Im z > 0} as a circle/line lens."""
    return LensMetric.from_arcs(-r, r, 1j * r, 0.0, 0.5j * r)


def kernel_coefficients(model: KernelModel, zeta: complex) -> np.ndarray:
    """Coefficients beta with K(., zeta) = sum_j beta_j g_j, on a diagonal Gram."""
    v = evaluate_blocks(model.blocks, [zeta])[:, 0]
    return np.conj(v / model.factorization.diag)
