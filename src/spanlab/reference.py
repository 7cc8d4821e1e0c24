"""Closed-form reference metrics, kernels, and conformal helpers.

Everything called a *metric* here is the squared density ``s``: on the unit
disk ``s(z) = 1/(1-|z|^2)^2``.  A curvature ``-1`` first-power density
``lambda`` relates to it by ``s = (lambda/2)^2``; the only first-power
quantity in this module is :func:`halfdisk_density`, which is kept in that
form because it is the natural shape of the quoted formula and doubles as an
independent oracle for the lens machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .domains import BoundaryCurve, Domain
from .errors import DomainError, EmptyClipError


def _disk_metric_derivative(w, j: int, k: int):
    """d^j/dz^j d^k/dzbar^k of 1/(1-z zbar)^2 on the unit disk."""
    w = np.asarray(w, dtype=complex)
    den = 1.0 - w * np.conj(w)
    total = np.zeros_like(w)
    for i in range(min(j, k) + 1):
        coeff = comb(j, i) * (factorial(k) // factorial(k - i)) * factorial(k + 1 + j - i)
        total = total + coeff * w ** (k - i) * np.conj(w) ** (j - i) * den ** (
            -(k + 2 + j - i)
        )
    return total


class _MetricMatrix:
    """``metric_matrix`` from a closed-form ``metric_derivative``."""

    def metric_matrix(self, z: complex, order: int) -> np.ndarray:
        """Entry [j, k] = s_{j kbar}(z) for j, k = 0..order."""
        return np.array(
            [
                [self.metric_derivative(z, j, k) for k in range(order + 1)]
                for j in range(order + 1)
            ],
            dtype=complex,
        )


@dataclass(frozen=True)
class DiskMetric(_MetricMatrix):
    """Span metric of the disk |z - center| < radius."""

    center: complex = 0.0 + 0.0j
    radius: float = 1.0

    def _pull(self, z):
        return (np.asarray(z, dtype=complex) - self.center) / self.radius

    def kernel(self, z, zeta):
        zw, ww = self._pull(z), self._pull(zeta)
        return 1.0 / (np.pi * self.radius**2 * (1.0 - zw * np.conj(ww)) ** 2)

    def metric(self, z):
        w = self._pull(z)
        return (1.0 / (self.radius * (1.0 - np.abs(w) ** 2)) ** 2).real

    def metric_derivative(self, z, j: int, k: int):
        w = self._pull(z)
        return _disk_metric_derivative(w, j, k) / self.radius ** (2 + j + k)


@dataclass(frozen=True)
class HalfPlaneMetric(_MetricMatrix):
    """Span metric of the half-plane { Re(conj(omega) z) < 1 }.

    The boundary line is at distance ``1/|omega|`` from the origin and the
    metric blows up like ``1/(4 d^2)`` with ``d`` the distance to it.
    """

    omega: complex

    def _disk_image(self, z):
        u = np.conj(self.omega) * np.asarray(z, dtype=complex)
        return u / (2.0 - u)

    def _disk_image_derivative(self, z):
        u = np.conj(self.omega) * np.asarray(z, dtype=complex)
        return 2.0 * np.conj(self.omega) / (2.0 - u) ** 2

    def kernel(self, z, zeta):
        fz, fw = self._disk_image(z), self._disk_image(zeta)
        return (
            self._disk_image_derivative(z)
            * np.conj(self._disk_image_derivative(zeta))
            / (np.pi * (1.0 - fz * np.conj(fw)) ** 2)
        )

    def metric(self, z):
        v = (np.conj(self.omega) * np.asarray(z, dtype=complex)).real
        return abs(self.omega) ** 2 / (4.0 * (1.0 - v) ** 2)

    def metric_derivative(self, z, j: int, k: int):
        v = (np.conj(self.omega) * np.asarray(z, dtype=complex)).real
        return (
            abs(self.omega) ** 2
            / 4.0
            * factorial(j + k + 1)
            * (np.conj(self.omega) / 2.0) ** j
            * (self.omega / 2.0) ** k
            * (1.0 - v) ** (-(2 + j + k))
        )

    def boundary_samples(self, radius: float, count: int = 2048) -> np.ndarray:
        """Samples of the boundary line inside the closed ball ``|z| <= radius``."""
        foot = self.omega / abs(self.omega) ** 2
        if abs(foot) > radius:
            raise EmptyClipError("boundary line misses the clipping ball")
        half = np.sqrt(radius**2 - abs(foot) ** 2)
        s = np.linspace(-half, half, count)
        direction = 1j * self.omega / abs(self.omega)
        return foot + s * direction


def halfdisk_density(z, r: float = 1.0):
    """Curvature -1 density of the half-disk {|z| < r, Im z > 0}.

    First-power convention; square half of it to get the span metric.  At
    ``z = i r/2`` the value is ``10/(3 r)``.
    """
    z = np.asarray(z, dtype=complex)
    return (
        np.abs(r + z) * np.abs(r - z) / (z.imag * (r**2 - np.abs(z) ** 2))
    )


@dataclass(frozen=True)
class DiskAutomorphism:
    """The disk automorphism ``(z - a) / (1 - conj(a) z)`` fixing the circle."""

    a: complex

    def __post_init__(self):
        if abs(self.a) >= 1.0:
            raise DomainError("automorphism parameter must lie in the open disk")

    def apply(self, z):
        z = np.asarray(z, dtype=complex)
        return (z - self.a) / (1.0 - np.conj(self.a) * z)

    def derivative(self, z):
        z = np.asarray(z, dtype=complex)
        return (1.0 - abs(self.a) ** 2) / (1.0 - np.conj(self.a) * z) ** 2

    def invert(self, w):
        w = np.asarray(w, dtype=complex)
        return (w + self.a) / (1.0 + np.conj(self.a) * w)


class LensMetric:
    """Span metric of a two-corner circular lens, via an explicit uniformization.

    The lens is a simply connected region bounded by two circular arcs (a
    straight side counts as an arc) meeting at corners ``w1`` and ``w2``.  The
    Moebius map ``zeta = (z - w1)/(z - w2)`` straightens both arcs into rays
    from the origin; a rotation and the power ``pi/alpha`` (``alpha`` the
    opening angle of the sector holding the lens image) take the sector to the
    upper half-plane, whose squared density is ``1/(4 Im^2)``.  Pulling back
    gives the exact span metric of the lens.
    """

    def __init__(self, w1: complex, w2: complex, start_angle: float, opening: float):
        if not 0.0 < opening < 2.0 * np.pi:
            raise DomainError("lens opening angle must lie in (0, 2 pi)")
        self.w1 = complex(w1)
        self.w2 = complex(w2)
        self.start_angle = float(start_angle)
        self.opening = float(opening)
        self.power = np.pi / self.opening

    @classmethod
    def from_arcs(
        cls,
        w1: complex,
        w2: complex,
        arc_point_a: complex,
        arc_point_b: complex,
        interior_point: complex,
    ) -> "LensMetric":
        """Lens from its corners, one sample per boundary arc, and an interior point.

        Each boundary arc passes through both corners, so its Moebius image is
        a full ray: any sample on the arc pins the ray's angle exactly.
        """

        def angle(z):
            return float(np.angle((z - w1) / (z - w2)))

        th_a, th_b = angle(arc_point_a), angle(arc_point_b)
        span = (th_b - th_a) % (2.0 * np.pi)
        rel_int = (angle(interior_point) - th_a) % (2.0 * np.pi)
        if span in (0.0,):
            raise DomainError("the two boundary arcs coincide")
        if rel_int < span:
            return cls(w1, w2, th_a, span)
        return cls(w1, w2, th_b, 2.0 * np.pi - span)

    @classmethod
    def from_disks(
        cls, center_a: complex, radius_a: float, center_b: complex, radius_b: float
    ) -> "LensMetric":
        """Lens = intersection of two overlapping disks with crossing circles."""
        d = abs(center_b - center_a)
        if d <= abs(radius_a - radius_b) or d >= radius_a + radius_b:
            raise DomainError("circles do not cross; the intersection is not a lens")
        unit = (center_b - center_a) / d
        along = (d**2 + radius_a**2 - radius_b**2) / (2.0 * d)
        off = np.sqrt(radius_a**2 - along**2)
        w1 = center_a + (along + 1j * off) * unit
        w2 = center_a + (along - 1j * off) * unit
        mid_a = center_a + radius_a * unit
        mid_b = center_b - radius_b * unit
        return cls.from_arcs(w1, w2, mid_a, mid_b, (mid_a + mid_b) / 2.0)

    @classmethod
    def half_disk(cls, r: float = 1.0) -> "LensMetric":
        """The half-disk {|z| < r, Im z > 0} as a circle/line lens."""
        return cls.from_arcs(-r, r, 1j * r, 0.0, 0.5j * r)

    def uniformize(self, z):
        """Map to the upper half-plane; valid only for points inside the lens."""
        z = np.asarray(z, dtype=complex)
        zeta = (z - self.w1) / (z - self.w2)
        rel = (np.angle(zeta) - self.start_angle) % (2.0 * np.pi)
        return np.abs(zeta) ** self.power * np.exp(1j * self.power * rel)

    def uniformize_derivative(self, z):
        z = np.asarray(z, dtype=complex)
        zeta = (z - self.w1) / (z - self.w2)
        dzeta = (self.w1 - self.w2) / (z - self.w2) ** 2
        return self.power * self.uniformize(z) / zeta * dzeta

    def metric(self, z):
        w = self.uniformize(z)
        dw = self.uniformize_derivative(z)
        return np.abs(dw) ** 2 / (4.0 * w.imag**2)


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
