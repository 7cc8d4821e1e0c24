"""Finitely connected planar domains bounded by smooth closed curves.

A boundary curve is stored as a trigonometric polynomial

    gamma(t) = sum_k c_k exp(i k t),   t in [0, 2 pi),

together with M equispaced sample nodes.  Derivatives, normals and quadrature
weights all come from the coefficients, so boundary data is spectrally
accurate; there is no polygonal approximation anywhere in the geometry layer.
``BoundaryCurve._jet`` is the one curve evaluator: nodes, ``point``,
``derivative``, Newton feet and normals all come from it.  It calls no BLAS,
so a point's value does not depend on which other points share the call.

Orientation convention: the outer curve runs counterclockwise, hole curves run
clockwise, so the concatenation of all curves is the positively oriented
boundary cycle of the domain.

``Domain.inside`` is the one interior test; every other routine that needs to
know whether a point is interior asks it.  ``BoundaryCurve.nearest_parameter``
is the one nearest-point routine: a Newton solve vectorised over an array of
points, which ``Domain.nearest_boundary`` (distances, feet, normals) and the
side test inside ``Domain.inside`` both call.  ``_check_simple`` is the one
validation routine: one pass over every segment of every node polyline, with
a k-d tree, finds the self-intersections and crossings.

The scaling principle needs no objects of its own: ``scaled_domain(domain,
z, -signed_distance(domain, z))`` is the blown-up domain at an interior point
``z``, and its limit at the boundary point ``p`` is the half-plane
``reference.HalfPlaneMetric(outward_normal(domain, p))``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import directed_hausdorff

from .errors import DomainError, EmptyClipError

# Containment tolerance band: points closer than BAND_FACTOR * diameter to a
# boundary curve are boundary points, and ``Domain.inside`` refuses them.
BAND_FACTOR = 1e-8

# Points per slice of the winding-number branch of ``Domain.inside``.
_INSIDE_SLICE = 1024


class BoundaryCurve:
    """Closed trigonometric-polynomial curve with equispaced sample nodes."""

    def __init__(self, coefficients: dict[int, complex], nodes: int = 512):
        if nodes < 16:
            raise DomainError("a boundary curve needs at least 16 nodes")
        ks = np.array(sorted(coefficients), dtype=int)
        cs = np.array([coefficients[int(k)] for k in ks], dtype=complex)
        keep = np.abs(cs) > 0.0
        if not np.any(keep[ks != 0]):
            raise DomainError("curve has no nonconstant Fourier mode")
        self.wavenumbers = ks[keep]
        self.coefficients = cs[keep]
        # Fourier factors of gamma, gamma' and gamma'' (see ``_jet``)
        self._jet_factors = np.stack(
            [(1j * self.wavenumbers) ** j * self.coefficients for j in range(3)]
        )
        self.nodes = int(nodes)
        self.params = np.arange(self.nodes) * (2.0 * np.pi / self.nodes)
        self.points, self.velocities = np.ascontiguousarray(self._jet(self.params, 1).T)
        self.speed = np.abs(self.velocities)
        if np.min(self.speed) <= 0.0:
            raise DomainError("curve parametrization has a stationary point")
        dt = 2.0 * np.pi / self.nodes
        self.weights = dt * self.speed
        self.complex_weights = dt * self.velocities

    # -- evaluation ---------------------------------------------------------

    def point(self, t) -> np.ndarray:
        return self._jet(t, 0)[..., 0]

    def derivative(self, t) -> np.ndarray:
        return self._jet(t, 1)[..., 1]

    def resample(self, nodes: int) -> "BoundaryCurve":
        return BoundaryCurve(
            {int(k): complex(c) for k, c in zip(self.wavenumbers, self.coefficients)},
            nodes=nodes,
        )

    # -- derived quantities -------------------------------------------------

    @property
    def center_coefficient(self) -> complex:
        mask = self.wavenumbers == 0
        return complex(self.coefficients[mask][0]) if np.any(mask) else 0.0 + 0.0j

    def signed_area(self) -> float:
        # A = (1/2i) oint conj(z) dz, positive for counterclockwise curves
        val = np.sum(np.conj(self.points) * self.complex_weights) / (2.0j)
        return float(val.real)

    def radius_bound(self) -> float:
        return float(np.max(np.abs(self.points - self.center_coefficient)))

    @cached_property
    def spacing(self) -> float:
        """Longest chord between neighbouring sample nodes."""
        return float(np.max(np.abs(np.roll(self.points, -1) - self.points)))

    def circle_data(self):
        """Return ``(center, radius, orientation)`` if the curve is a circle.

        A circle is a single Fourier mode ``c_0 + c_s e^{i s t}`` with
        ``s = +-1``; anything else returns ``None``.  Modes below 1e-12 of
        the dominant one count as absent.
        """
        center = self.center_coefficient
        scale = float(np.max(np.abs(self.coefficients)))
        rad = None
        orient = 0
        for k, c in zip(self.wavenumbers, self.coefficients):
            if k == 0:
                continue
            if k in (1, -1) and abs(c) > 1e-12 * scale:
                if rad is not None:
                    return None
                rad = abs(c)
                orient = int(k)
            elif abs(c) > 1e-12 * scale:
                return None
        if rad is None:
            return None
        return center, float(rad), orient

    def _jet(self, t, order: int) -> np.ndarray:
        """(..., order + 1) array of the derivatives of orders 0..order at ``t``.

        One exponential serves every order.  ``einsum`` without ``optimize``
        calls no BLAS and sums the modes of each point in their own order, so
        a point's values do not depend on which other points share the call.
        """
        phases = np.exp(1j * np.multiply.outer(np.asarray(t, dtype=float), self.wavenumbers))
        return np.einsum("...m,jm->...j", phases, self._jet_factors[: order + 1])

    def nearest_parameter(self, pts) -> np.ndarray:
        """Parameters of the curve points nearest to each point of the 1-D array ``pts``.

        Newton's method on ``|gamma(t) - z|^2`` runs on all points at once,
        each from its nearest node.  A point stops after 30 steps, after a
        step below 1e-15, or where the second derivative is not positive;
        a live mask keeps it frozen there while the others go on.  A point
        whose iterate ends more than two node spacings from its start node
        takes instead the best of 65 samples within one spacing of that node.
        """
        z = np.atleast_1d(np.asarray(pts, dtype=complex))
        start = np.argmin(np.abs(self.points - z[:, None]), axis=1)
        t = self.params[start]
        live = np.ones(z.shape, dtype=bool)
        for _ in range(30):
            g, g1, g2 = self._jet(t, 2).T
            # half the first and second derivatives of |gamma(t) - z|^2
            f1 = (g - z) * np.conj(g1)
            f2 = np.abs(g1) ** 2 + ((g - z) * np.conj(g2)).real
            live &= ~(f2 <= 0.0)
            step = f1.real / np.where(live, f2, np.inf)  # frozen points step by 0
            t = t - step
            live &= ~(np.abs(step) < 1e-15)
            if not live.any():
                break
        t %= 2.0 * np.pi
        spacing = 2.0 * np.pi / self.nodes
        sep = np.abs((t - self.params[start] + np.pi) % (2.0 * np.pi) - np.pi)
        for i in np.flatnonzero(sep > 2.0 * spacing):
            fine = self.params[start[i]] + np.linspace(-spacing, spacing, 65)
            t[i] = fine[np.argmin(np.abs(self.point(fine) - z[i]))] % (2.0 * np.pi)
        return t


def _check_simple(curves: Sequence[BoundaryCurve], tol: float) -> None:
    """Raise ``DomainError`` unless the node polylines of ``curves`` are simple and disjoint.

    Non-adjacent nodes of one curve closer than ``tol`` are a self-intersection
    at sample resolution, and nodes of two curves closer than ``tol`` make the
    curves touch.  Two segments cross when each strictly separates the
    ends of the other.  Segments that meet, or start less than ``tol`` apart,
    have midpoints at most the longest segment plus ``tol`` apart, so a k-d
    tree over the midpoints yields every pair that needs either test.
    """
    sizes = np.array([c.nodes for c in curves])
    owner = np.repeat(np.arange(len(curves)), sizes)
    a0 = np.concatenate([c.points for c in curves])
    a1 = np.concatenate([np.roll(c.points, -1) for c in curves])
    mid = 0.5 * (a0 + a1)
    tree = cKDTree(np.column_stack([mid.real, mid.imag]), balanced_tree=False, compact_nodes=False)
    i, j = tree.query_pairs(max(c.spacing for c in curves) + tol, output_type="ndarray").T
    same = owner[i] == owner[j]
    gap = np.abs(i - j)
    keep = ~same | (np.minimum(gap, sizes[owner[i]] - gap) > 1)  # neighbours always meet
    i, j, same = i[keep], j[keep], same[keep]
    if np.any(same & (np.abs(a0[i] - a0[j]) < tol)):
        raise DomainError("curve self-intersects at sample resolution")
    u, v = a1[i] - a0[i], a1[j] - a0[j]
    d1 = np.imag(np.conj(u) * (a0[j] - a0[i]))
    d2 = np.imag(np.conj(u) * (a1[j] - a0[i]))
    d3 = np.imag(np.conj(v) * (a0[i] - a0[j]))
    d4 = np.imag(np.conj(v) * (a1[i] - a0[j]))
    crossing = (d1 * d2 < 0.0) & (d3 * d4 < 0.0)
    if np.any(crossing & same):
        raise DomainError("curve self-intersects (transversal crossing)")
    if np.any(crossing):
        q, p = min(zip(owner[i][crossing], owner[j][crossing]))
        raise DomainError(f"boundary curves {q} and {p} cross")
    touching = ~same & (np.abs(a0[i] - a0[j]) < tol)
    if np.any(touching):
        q, p = min(zip(owner[i][touching], owner[j][touching]))
        raise DomainError(f"boundary curves {q} and {p} touch at sample resolution")


def _winding(curve: BoundaryCurve, pts: np.ndarray) -> np.ndarray:
    """Winding number of ``curve``'s node polygon around each point."""
    return _winding_of(curve.points[None, :] - pts[:, None])


def _winding_of(rel: np.ndarray) -> np.ndarray:
    """Winding numbers from the (points x nodes) node-minus-point differences.

    The turning angles come from ``conj(rel) * next`` rather than a quotient,
    so a point on a node gets a finite (meaningless) count instead of a
    division by zero; ``Domain.inside`` decides such points by the side test.
    """
    following = np.concatenate((rel[:, 1:], rel[:, :1]), axis=1)
    turns = np.sum(np.angle(following * np.conj(rel)), axis=1)
    return np.rint(turns / (2.0 * np.pi)).astype(int)


class Domain:
    """Bounded domain: one outer curve and zero or more hole curves.

    ``anchors[q]`` is a designated point inside hole ``q``; pole-type basis
    functions of the model layer are centered there.
    """

    def __init__(
        self,
        outer: BoundaryCurve,
        holes: Sequence[BoundaryCurve] = (),
        anchors: Sequence[complex] = (),
    ):
        self.outer = outer
        self.holes = list(holes)
        self.anchors = [complex(a) for a in anchors]
        if len(self.anchors) != len(self.holes):
            raise DomainError("need exactly one anchor per hole")
        self._validate()

    # -- structure ----------------------------------------------------------

    @property
    def curves(self) -> list[BoundaryCurve]:
        return [self.outer] + self.holes

    @property
    def centroid(self) -> complex:
        return self.outer.center_coefficient

    @property
    def diameter(self) -> float:
        return 2.0 * self.outer.radius_bound()

    @property
    def band(self) -> float:
        return BAND_FACTOR * self.diameter

    def _validate(self) -> None:
        if self.outer.signed_area() <= 0.0:
            raise DomainError("outer curve must be counterclockwise")
        for q, hole in enumerate(self.holes):
            if hole.signed_area() >= 0.0:
                raise DomainError(f"hole curve {q} must be clockwise")
        _check_simple(self.curves, 1e-6 * self.diameter)
        # no curve crosses another, so one node places a whole hole
        firsts = np.array([hole.points[0] for hole in self.holes])
        around = _winding(self.outer, firsts)
        for q, hole in enumerate(self.holes):
            if around[q] != 1:
                raise DomainError(f"hole curve {q} is not inside the outer curve")
            if _winding(hole, np.array([self.anchors[q]]))[0] != -1:
                raise DomainError(f"anchor {q} is not inside its hole")
            others = np.flatnonzero(_winding(hole, firsts) != 0)
            others = others[others != q]
            if others.size:
                raise DomainError(f"holes {q} and {others[0]} overlap")

    # -- containment and distance -------------------------------------------

    def nearest_boundary(self, pts):
        """Nearest boundary point to each point of the 1-D array ``pts``.

        Returns arrays of the curve index, the curve parameter, the boundary
        point and the distance.  On a tie the earlier curve wins.
        """
        z = np.atleast_1d(np.asarray(pts, dtype=complex))
        params = np.array([curve.nearest_parameter(z) for curve in self.curves])
        feet = np.array([c.point(t) for c, t in zip(self.curves, params)])
        dists = np.abs(feet - z)
        idx = np.argmin(dists, axis=0)
        pick = (idx, np.arange(z.size))
        return idx, params[pick], feet[pick], dists[pick]

    def contains(self, z: complex) -> bool:
        """The scalar form of ``inside``."""
        return bool(self.inside([z])[0])

    @cached_property
    def _circle_bounds(self) -> tuple[complex, float, list[tuple[complex, float]]] | None:
        """``(c_0, r_0 - band, [(c_q, r_q + band) per hole])`` if every curve is a circle."""
        data = [c.circle_data() for c in self.curves]
        if any(d is None for d in data):
            return None
        (c0, r0, _), *holes = data
        return c0, r0 - self.band, [(c, r + self.band) for c, r, _ in holes]

    def inside(self, pts) -> np.ndarray:
        """Vectorised interior test: a boolean per point.

        Points within ``band`` of a boundary curve are boundary, not interior.
        When every curve is a circle this is the closed form ``|z - c_0| <
        r_0 - band`` and ``|z - c_q| > r_q + band`` for each hole.  Otherwise
        each curve is decided by the winding number of its node polygon, except
        within two node spacings of that curve, where the polygon can stray
        from the curve: there the side of the Newton-refined nearest curve
        point decides.  That branch works through the points in slices of
        ``_INSIDE_SLICE``, so its (points x nodes) arrays stay bounded.
        """
        pts = np.atleast_1d(np.asarray(pts, dtype=complex))
        if self._circle_bounds is None:
            inside = np.ones(pts.shape, dtype=bool)
            for lo in range(0, pts.size, _INSIDE_SLICE):
                part = pts[lo : lo + _INSIDE_SLICE]
                for q, curve in enumerate(self.curves):
                    rel = curve.points[None, :] - part[:, None]
                    ok = _winding_of(rel) == (1 if q == 0 else 0)
                    near = np.flatnonzero(np.min(np.abs(rel), axis=1) < 2.0 * curve.spacing)
                    jet = curve._jet(curve.nearest_parameter(part[near]), 1)
                    offset = part[near] - jet[:, 0]
                    outward = -1j * jet[:, 1]  # out of the domain on every curve
                    ok[near] = (np.abs(offset) > self.band) & ((offset * np.conj(outward)).real < 0.0)
                    inside[lo : lo + _INSIDE_SLICE] &= ok
            return inside
        c0, below, holes = self._circle_bounds
        inside = np.abs(pts - c0) < below
        for c, above in holes:
            inside &= np.abs(pts - c) > above
        return inside


def signed_distance(domain: Domain, z: complex) -> float:
    """Signed Euclidean distance to the boundary: negative inside the domain.

    This is the defining function ``psi`` used by the scaling construction;
    its gradient on the boundary is the outward unit normal.
    """
    dist = float(domain.nearest_boundary(z)[3][0])
    return -dist if domain.contains(complex(z)) else dist


def outward_normal(domain: Domain, p: complex) -> complex:
    """Outward unit normal at a boundary point ``p``.

    Raises ``DomainError`` if ``p`` does not lie on the boundary (within the
    containment band).
    """
    (idx,), (t,), _, (dist,) = domain.nearest_boundary(p)
    if dist > domain.band:
        raise DomainError(f"{p} is not a boundary point (distance {dist:.3e})")
    g1 = complex(domain.curves[idx].derivative(t))
    return -1j * g1 / abs(g1)


def inner_normal_sequence(domain: Domain, p: complex, steps: Sequence[float]) -> np.ndarray:
    """Points ``p - t_j * nu(p)`` along the inner normal at boundary point ``p``.

    Every step must land strictly inside the domain; otherwise the sequence is
    not usable as a family of scaling centers and a ``DomainError`` is raised.
    """
    steps = np.asarray(steps, dtype=float)
    if np.any(steps <= 0.0):
        raise DomainError("normal steps must be positive")
    pts = p - steps * outward_normal(domain, p)
    outside = np.flatnonzero(~domain.inside(pts))
    if outside.size:
        i = outside[0]
        raise DomainError(f"step {steps[i]} leaves the domain at {pts[i]}")
    return pts


def scaled_domain(domain: Domain, center: complex, scale: float) -> Domain:
    """Image of ``domain`` under ``T(z) = (z - center) / scale``, coefficient-exact.

    The scaling step of the boundary experiments takes an interior ``center``
    and ``scale = -signed_distance(domain, center)``; a ``scale`` that is not
    positive (a center on or outside the boundary) raises ``DomainError``.
    """
    if not scale > 0.0:
        raise DomainError(f"scaling center {center} has scale {scale:.3e}, need scale > 0")
    center = complex(center)

    def move(curve: BoundaryCurve) -> BoundaryCurve:
        coeffs = {int(k): complex(c) / scale for k, c in zip(curve.wavenumbers, curve.coefficients)}
        coeffs[0] = coeffs.get(0, 0.0) - center / scale
        return BoundaryCurve(coeffs, nodes=curve.nodes)

    return Domain(
        outer=move(domain.outer),
        holes=[move(h) for h in domain.holes],
        anchors=list((np.array(domain.anchors, dtype=complex) - center) / scale),
    )


def hausdorff_distance_local(
    a_points: np.ndarray, b_points: np.ndarray, radius: float
) -> float:
    """Hausdorff distance between two point sets clipped to ``|z| <= radius``.

    Each directed distance is exact: ``directed_hausdorff`` ends a point's scan
    once it meets a point nearer than the largest distance so far (Taha and
    Hanbury, IEEE TPAMI 37, 2015).  Raises ``EmptyClipError`` when either
    clipped set is empty, since the clipped Hausdorff distance is undefined.
    """
    a = np.asarray(a_points, dtype=complex).ravel()
    b = np.asarray(b_points, dtype=complex).ravel()
    a = a[np.abs(a) <= radius]
    b = b[np.abs(b) <= radius]
    if a.size == 0 or b.size == 0:
        raise EmptyClipError("clipped point set is empty")
    pa, pb = np.column_stack([a.real, a.imag]), np.column_stack([b.real, b.imag])
    return float(max(directed_hausdorff(pa, pb)[0], directed_hausdorff(pb, pa)[0]))


def curve_samples_in_ball(curve: BoundaryCurve, radius: float) -> np.ndarray:
    """Dense samples of a curve restricted to ``|z| <= radius``.

    A coarse pass estimates the in-window parameter fraction, and a uniform
    fine grid aims at 4000 in-window samples, capped at 2^20 parameters.  As
    ``L = sum |k c_k|`` bounds ``|gamma'|``, only fine parameters in a coarse
    cell ``[t_c, t_{c+1})`` with ``|gamma(t_c)| <= radius + 2 pi L / coarse_n``
    are evaluated.  Returns the (possibly empty) array of in-window points.
    """
    coarse_n = 4096
    t = np.arange(coarse_n) * (2.0 * np.pi / coarse_n)
    pts = curve.point(t)
    frac = float(np.count_nonzero(np.abs(pts) <= 1.1 * radius)) / coarse_n
    if frac == 0.0:
        return pts[np.abs(pts) <= radius]
    fine_n = min(1 << 20, max(coarse_n, int(4000 / max(frac, 1e-6))))
    speed = float(np.sum(np.abs(curve.wavenumbers * curve.coefficients)))
    cells = np.flatnonzero(np.abs(pts) <= radius + speed * (2.0 * np.pi / coarse_n))
    lo, hi = -(-np.stack([cells, cells + 1]) * fine_n // coarse_n)  # each cell holds [lo, hi)
    count = hi - lo
    index = np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)
    pts = curve.point(index * (2.0 * np.pi / fine_n))
    return pts[np.abs(pts) <= radius]


def rotation_center(domain: Domain) -> complex | None:
    """Common center if every boundary curve is a circle about one point.

    Such a domain is invariant under all rotations about the center, which
    the model layer exploits (the monomial/pole basis diagonalizes the Gram
    matrix exactly).  Anchors must coincide with the center as well, to
    1e-12 of the largest radius.
    """
    data = [c.circle_data() for c in domain.curves]
    if any(d is None for d in data):
        return None
    center = data[0][0]
    scale = max(d[1] for d in data)
    for d in data:
        if abs(d[0] - center) > 1e-12 * scale:
            return None
    for a in domain.anchors:
        if abs(a - center) > 1e-12 * scale:
            return None
    return complex(center)
