"""Finite models of the reduced Bergman kernel of a finitely connected domain.

The model space is a span of derivatives of single-valued, Dirichlet-finite
holomorphic functions:

* recentered monomials ``((z - z0)/R)^m`` for the outer boundary, and
* inverse powers ``(sigma_q/(z - a_q))^m`` with ``m >= 2`` for each hole
  (the simple pole is excluded: its primitive is a logarithm, which is not
  single-valued around the hole).

All Gram entries are area integrals ``int_D g_j conj(g_k) dA``.  Because every
basis function has a single-valued primitive ``G_k``, Stokes' theorem turns
them into boundary integrals

    (1/2i) oint_{bd D} g_j(z) conj(G_k(z)) dz,

which the trapezoid rule on trigonometric-polynomial curves evaluates with
spectral accuracy.  The kernel of the model is ``K(z, w) = v(w)^* G^{-1} v(z)``
with ``v`` the vector of basis values, and the span metric is the squared
density ``s(z) = pi K(z, z)``.

Domains whose boundary circles are concentric (disk, annulus, affine images)
are rotation invariant about the common center, so the Gram matrix of the
centered basis is exactly diagonal with closed-form entries (a few off-diagonal
pairs are still integrated on every build, as a run-time check of the symmetry);
that fast path makes basis sizes of ``10^5`` routine, which is what
boundary-limit experiments need.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .domains import BoundaryCurve, Domain, rotation_center
from .errors import ConfigError, DomainError, QuadratureError
from .linalg import hermitize, pivoted_cholesky, unwhiten_solve, whiten_cholesky


def _int_power(base: np.ndarray, exponent: int) -> np.ndarray:
    """base**exponent by binary exponentiation (exact integer exponent)."""
    result = np.ones_like(base)
    square = base.copy()
    e = int(exponent)
    while e > 0:
        if e & 1:
            result = result * square
        square = square * square
        e >>= 1
    return result


def _power_ladder(base: np.ndarray, start: int, count: int) -> np.ndarray:
    """Array of shape (count, len(base)) holding base**(start + i)."""
    out = np.empty((count, base.size), dtype=complex)
    out[:] = base[None, :]
    out[0] = _int_power(base, start)
    np.cumprod(out, axis=0, out=out)
    return out


def _falling(powers: np.ndarray, order: int) -> np.ndarray:
    out = np.ones(powers.shape, dtype=float)
    for i in range(order):
        out *= powers - i
    return out


def _rising(powers: np.ndarray, order: int) -> np.ndarray:
    out = np.ones(powers.shape, dtype=float)
    for i in range(order):
        out *= powers + i
    return out


@dataclass(frozen=True)
class BasisBlock:
    """A run of consecutive powers sharing one center and scale."""

    kind: str  # 'monomial' or 'pole'
    center: complex
    scale: float
    start: int
    count: int

    @property
    def powers(self) -> np.ndarray:
        return np.arange(self.start, self.start + self.count)

    def base(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        if self.kind == "monomial":
            return (z - self.center) / self.scale
        return self.scale / (z - self.center)

    def frequencies(self) -> np.ndarray:
        """Angular frequency of each function on circles about the center."""
        return self.powers if self.kind == "monomial" else -self.powers

    def evaluate(self, z, order: int = 0) -> np.ndarray:
        """(count, len(z)) array of order-th derivatives; order=-1 gives primitives."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        u = self.base(z)
        if self.kind == "monomial":
            if order == -1:
                rows = _power_ladder(u, self.start + 1, self.count)
                coeff = self.scale / (self.powers + 1.0)
                return coeff[:, None] * rows
            out = np.zeros((self.count, z.size), dtype=complex)
            first = max(0, order - self.start)
            live = self.count - first
            if live > 0:
                rows = _power_ladder(u, self.start + first - order, live)
                coeff = _falling(self.powers[first:], order) / self.scale**order
                out[first:] = coeff[:, None] * rows
            return out
        if order == -1:
            rows = _power_ladder(u, self.start - 1, self.count)
            coeff = -self.scale / (self.powers - 1.0)
            return coeff[:, None] * rows
        rows = _power_ladder(u, self.start, self.count)
        if order == 0:
            return rows
        coeff = (-1.0) ** order * _rising(self.powers, order)
        shift = (z - self.center) ** (-order)
        return coeff[:, None] * rows * shift[None, :]


def build_blocks(
    domain: Domain,
    outer_degree: int,
    hole_degree: int | Sequence[int] | None = None,
) -> list[BasisBlock]:
    """Basis blocks: outer monomials plus ``m >= 2`` inverse powers per hole.

    ``hole_degree`` may be a single count shared by all holes (default: the
    outer degree) or one count per hole.
    """
    if outer_degree < 1:
        raise ConfigError("outer degree must be at least 1")
    if hole_degree is None:
        hole_counts = [outer_degree] * len(domain.holes)
    elif np.isscalar(hole_degree):
        hole_counts = [int(hole_degree)] * len(domain.holes)
    else:
        hole_counts = [int(n) for n in hole_degree]
        if len(hole_counts) != len(domain.holes):
            raise ConfigError("need one hole degree per hole")
    blocks = [
        BasisBlock(
            kind="monomial",
            center=domain.centroid,
            scale=domain.outer.radius_bound(),
            start=0,
            count=outer_degree,
        )
    ]
    for hole, anchor, count in zip(domain.holes, domain.anchors, hole_counts):
        sigma = float(np.min(np.abs(hole.points - anchor)))
        blocks.append(
            BasisBlock(kind="pole", center=anchor, scale=sigma, start=2, count=count)
        )
    return blocks


def evaluate_blocks(blocks: Sequence[BasisBlock], z, order: int = 0) -> np.ndarray:
    return np.concatenate([b.evaluate(z, order) for b in blocks], axis=0)


def block_sizes(blocks: Sequence[BasisBlock]) -> int:
    return int(sum(b.count for b in blocks))


# -- Gram assembly ----------------------------------------------------------


_FLUSH = np.sqrt(np.finfo(float).tiny)


def _flush_tiny(a: np.ndarray) -> np.ndarray:
    """Zero, in place, every real or imaginary part of ``a`` below ``_FLUSH``.

    A product of two parts that survive is at least ``tiny``, so every
    product formed in a matrix product of flushed operands is a normal number.
    """
    parts = a.view(float)
    parts[np.abs(parts) < _FLUSH] = 0.0
    return a


def gram_dense(
    domain: Domain, blocks: Sequence[BasisBlock], nodes: int | None = None
) -> tuple[np.ndarray, float]:
    """Full Gram matrix by boundary quadrature; returns (matrix, hermitian residual).

    Real and imaginary parts below ``sqrt(tiny)`` ~ 1.5e-154 of the weighted
    values and of the primitives are zeroed before the product, which keeps it
    out of slow subnormal arithmetic.  That moves an entry by about 1e-150 at
    most on a unit-sized domain: below one ulp of the diagonal, whose entries
    are squared norms of ~1e-4 or more at the degrees the dense route uses.
    """
    n = block_sizes(blocks)
    if nodes is None:
        nodes = max(2 * n + 64, max(c.nodes for c in domain.curves))
    gram = np.zeros((n, n), dtype=complex)
    for curve in domain.curves:
        c = curve if curve.nodes == nodes else curve.resample(nodes)
        values = evaluate_blocks(blocks, c.points, 0)
        values *= c.complex_weights
        primitives = evaluate_blocks(blocks, c.points, -1)
        np.conj(primitives, out=primitives)
        gram += _flush_tiny(values) @ _flush_tiny(primitives).T / 2j
    return hermitize(gram)


def gram_diagonal(domain: Domain, blocks: Sequence[BasisBlock]) -> np.ndarray:
    """Diagonal Gram entries for a rotation-invariant domain and centered basis.

    Off-diagonal entries vanish by symmetry.  On ``r_in < |z - c| < r_out``
    (``r_in = 0`` for a disk) the squared norm of ``((z-c)/s)^m`` is
    ``2 pi s^2/k (r_out/s)^k (1 - (r_in/r_out)^k)`` with ``k = 2m + 2``, and
    that of ``(s/(z-c))^m`` is ``2 pi s^2/k (s/r_in)^k (1 - (r_in/r_out)^k)``
    with ``k = 2m - 2``.  The scales sit a few ulps from the radii while ``k``
    reaches ~1e5, so ``log(r_out/s)`` and ``log(s/r_in)`` go through ``log1p``.
    """
    if rotation_center(domain) is None:
        raise ConfigError("diagonal Gram needs concentric circular boundaries")
    r_out = domain.outer.circle_data()[1]
    r_in = domain.holes[0].circle_data()[1] if domain.holes else 0.0
    log_ratio = np.log(r_in / r_out) if r_in > 0.0 else -np.inf
    parts = []
    for block in blocks:
        s = block.scale
        if block.kind == "monomial":
            k, gap = 2.0 * block.powers + 2.0, (r_out - s) / s
        else:
            k, gap = 2.0 * block.powers - 2.0, (s - r_in) / r_in
        parts.append(2.0 * np.pi * s**2 / k * np.exp(k * np.log1p(gap)) * -np.expm1(k * log_ratio))
    diag = np.concatenate(parts)
    if np.min(diag) <= 0.0:
        raise QuadratureError("nonpositive squared norm in the diagonal Gram path")
    return diag


def _single_row(blocks: Sequence[BasisBlock], index: int, z, order: int) -> np.ndarray:
    """One basis function's values without materializing the whole block."""
    for block in blocks:
        if index < block.count:
            lone = BasisBlock(block.kind, block.center, block.scale, block.start + index, 1)
            return lone.evaluate(z, order)[0]
        index -= block.count
    raise IndexError(index)


def spot_check_offdiagonal(
    domain: Domain,
    blocks: Sequence[BasisBlock],
    diag: np.ndarray,
    pairs: int = 12,
    tol: float = 1e-9,
    rng: np.random.Generator | None = None,
) -> float:
    """Verify that randomly chosen off-diagonal Gram entries vanish.

    Guards the diagonal fast path at run time.  Pairs whose frequency
    difference is a nonzero multiple of the node count are skipped: for those
    the trapezoid rule aliases the oscillation to frequency zero and reports a
    spurious value even though the true entry is zero.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    freqs = np.concatenate([b.frequencies() for b in blocks])
    n = freqs.size
    node_counts = [c.nodes for c in domain.curves]
    worst = 0.0
    checked = 0
    attempts = 0
    while checked < pairs and attempts < 50 * pairs:
        attempts += 1
        j, k = rng.integers(0, n, size=2)
        if j == k:
            continue
        df = int(freqs[j] - freqs[k])
        if any(df % m == 0 for m in node_counts):
            continue
        value = 0.0 + 0.0j
        for curve in domain.curves:
            gj = _single_row(blocks, int(j), curve.points, 0)
            pk = _single_row(blocks, int(k), curve.points, -1)
            value += np.sum(gj * np.conj(pk) * curve.complex_weights) / 2j
        scale = float(np.sqrt(diag[j] * diag[k]))
        worst = max(worst, abs(value) / scale)
        checked += 1
    if worst > tol:
        raise QuadratureError(
            f"off-diagonal Gram entry {worst:.2e} on a rotation-invariant domain"
        )
    return worst


def zero_period_residual(
    domain: Domain,
    blocks: Sequence[BasisBlock],
    max_functions: int = 64,
    rng: np.random.Generator | None = None,
) -> float:
    """Largest relative contour integral of any basis function around any curve.

    The boundary Gram formula is only valid when every basis function has a
    single-valued primitive, i.e. zero period around every hole.  Monomials
    and inverse powers of order two and higher satisfy this identically; this
    quadrature check guards the discretization.  Functions whose frequency
    aliases to zero on a curve's node count are skipped on that curve (the
    trapezoid rule folds those oscillations onto a spurious constant).
    """
    rng = np.random.default_rng(0) if rng is None else rng
    total = block_sizes(blocks)
    if total <= max_functions:
        indices = np.arange(total)
    else:
        indices = rng.choice(total, size=max_functions, replace=False)
    freqs = np.concatenate([b.frequencies() for b in blocks])
    worst = 0.0
    for curve in domain.curves:
        length = float(np.sum(curve.weights))
        for index in indices:
            f = int(freqs[index])
            if f != 0 and f % curve.nodes == 0:
                continue
            g = _single_row(blocks, int(index), curve.points, 0)
            period = np.sum(g * curve.complex_weights)
            scale = 1.0 + float(np.max(np.abs(g))) * length
            worst = max(worst, abs(period) / scale)
    return worst


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


def dirichlet_inner(
    domain: Domain,
    f,
    g_primitive,
    nodes: int = 1024,
    check: bool = True,
    rtol: float = 1e-8,
) -> complex:
    """``int_D f conj(g) dA`` through Stokes, given ``g``'s primitive.

    ``f`` must have a single-valued primitive on the domain (all model basis
    functions do), otherwise the boundary formula picks up period terms.  With
    ``check`` on, the integral is recomputed at doubled node count and a
    disagreement raises ``QuadratureError``.
    """

    def at(n: int) -> complex:
        total = 0.0 + 0.0j
        for curve in domain.curves:
            c = curve if curve.nodes == n else curve.resample(n)
            total += np.sum(f(c.points) * np.conj(g_primitive(c.points)) * c.complex_weights)
        return total / 2j

    coarse = at(nodes)
    fine = at(2 * nodes)
    if check and abs(coarse - fine) > rtol * (1.0 + abs(fine)):
        raise QuadratureError(
            f"boundary quadrature not converged: {coarse} vs {fine} at {nodes}/{2 * nodes} nodes"
        )
    return fine


# -- factorization and model ------------------------------------------------


@dataclass
class GramFactorization:
    kind: str  # 'cholesky' or 'diagonal'
    size: int
    diag: np.ndarray | None = None
    perm: np.ndarray | None = None
    L: np.ndarray | None = None
    pivots: np.ndarray | None = None

    @classmethod
    def from_dense(cls, gram: np.ndarray) -> "GramFactorization":
        perm, L, pivots = pivoted_cholesky(gram)
        if L.shape[1] == 0:
            raise QuadratureError("Gram matrix has numerical rank zero")
        return cls(kind="cholesky", size=gram.shape[0], perm=perm, L=L, pivots=pivots)

    @classmethod
    def from_diagonal(cls, diag: np.ndarray) -> "GramFactorization":
        return cls(kind="diagonal", size=diag.size, diag=np.asarray(diag, dtype=float))

    @property
    def rank(self) -> int:
        return self.size if self.kind == "diagonal" else self.L.shape[1]

    def condition(self) -> float:
        if self.kind == "diagonal":
            return float(np.max(self.diag) / np.min(self.diag))
        return float(self.pivots[0] / self.pivots[-1])

    def whiten(self, vectors: np.ndarray) -> np.ndarray:
        """Apply the inverse half-factor; kernel sums become plain dot products."""
        if self.kind == "diagonal":
            v = np.asarray(vectors, dtype=complex)
            scale = np.sqrt(self.diag)
            return v / (scale[:, None] if v.ndim == 2 else scale)
        return whiten_cholesky(self.L, self.perm, vectors)

    def solve(self, vector: np.ndarray) -> np.ndarray:
        if self.kind == "diagonal":
            return np.asarray(vector, dtype=complex) / self.diag
        return unwhiten_solve(self.L, self.perm, self.size, vector)


class KernelModel:
    """A computable reduced Bergman kernel: basis blocks plus Gram factorization."""

    def __init__(
        self,
        domain: Domain,
        blocks: Sequence[BasisBlock],
        factorization: GramFactorization,
        meta: dict | None = None,
        check_interior: bool = True,
    ):
        self.domain = domain
        self.blocks = list(blocks)
        self.factorization = factorization
        self.meta = dict(meta or {})
        self.check_interior = check_interior

    def _require_interior(self, pts: np.ndarray) -> None:
        if not self.check_interior:
            return
        mask = _inside_mask(self.domain, pts)
        if not np.all(mask):
            bad = pts[~mask][0]
            raise DomainError(f"evaluation point {bad} is not interior to the domain")

    @property
    def size(self) -> int:
        return block_sizes(self.blocks)

    @property
    def eps_model(self) -> float:
        return float(self.meta.get("eps_model", np.nan))

    def basis_values(self, z, order: int = 0) -> np.ndarray:
        return evaluate_blocks(self.blocks, z, order)

    def whitened_values(self, z, order: int = 0) -> np.ndarray:
        return self.factorization.whiten(self.basis_values(z, order))

    def kernel_matrix(self, z, zeta) -> np.ndarray:
        """Matrix of kernel values, entry [i, j] = K(z_i, zeta_j)."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        zeta = np.atleast_1d(np.asarray(zeta, dtype=complex))
        self._require_interior(np.concatenate([z, zeta]))
        wz = self.whitened_values(z)
        ww = self.whitened_values(zeta)
        return wz.T @ ww.conj()

    def kernel(self, z: complex, zeta: complex) -> complex:
        return complex(self.kernel_matrix([z], [zeta])[0, 0])

    def kernel_mixed_derivative(self, z: complex, j: int, k: int) -> complex:
        """d^j/dz^j d^k/dzetabar^k of the kernel, evaluated on the diagonal."""
        self._require_interior(np.array([z], dtype=complex))
        uj = self.whitened_values([z], order=j)[:, 0]
        uk = self.whitened_values([z], order=k)[:, 0]
        return complex(np.sum(uj * np.conj(uk)))

    def metric(self, z):
        """Span metric s(z) = pi K(z, z); returns a float for scalar input."""
        scalar = np.isscalar(z) or np.asarray(z).ndim == 0
        pts = np.atleast_1d(np.asarray(z, dtype=complex))
        self._require_interior(pts)
        w = self.whitened_values(pts)
        values = np.pi * np.sum(np.abs(w) ** 2, axis=0)
        return float(values[0]) if scalar else values

    def metric_matrix(self, z: complex, order: int) -> np.ndarray:
        """Hermitian matrix of metric derivatives, entry [j, k] = s_{j kbar}(z).

        Built as ``pi U U^*`` from whitened derivative vectors, so it is
        positive semidefinite by construction.
        """
        self._require_interior(np.array([z], dtype=complex))
        rows = [self.whitened_values([z], order=d)[:, 0] for d in range(order + 1)]
        u = np.array(rows)
        return np.pi * (u @ u.conj().T)

    def kernel_coefficients(self, zeta: complex) -> np.ndarray:
        """Coefficients beta with K(., zeta) = sum_j beta_j g_j."""
        self._require_interior(np.array([zeta], dtype=complex))
        v = self.basis_values([zeta])[:, 0]
        return np.conj(self.factorization.solve(v))

    def kernel_section(self, zeta: complex):
        beta = self.kernel_coefficients(zeta)
        return lambda z: np.tensordot(beta, self.basis_values(z), axes=(0, 0))

    # -- persistence --------------------------------------------------------
    #
    # Text format (JSON, one object per file):
    #   format:        "spanlab-model", version 1
    #   curves:        [{nodes, wavenumbers: [k...], coefficients: [[re,im]...]}]
    #                  (curve 0 is the outer boundary, the rest are holes)
    #   anchors:       [[re, im] ...], one point inside each hole
    #   blocks:        [{kind, center: [re,im], scale, start, count} ...]
    #   factorization: {kind: "diagonal", diag: [...]}
    #                  or {kind: "cholesky", perm, pivots, L: [[[re,im]...]...]}
    #   meta:          build diagnostics (degree, eps_model, ...)

    def save(self, path: str) -> None:
        payload = {
            "format": "spanlab-model",
            "version": 1,
            "curves": [
                {
                    "nodes": curve.nodes,
                    "wavenumbers": [int(k) for k in curve.wavenumbers],
                    "coefficients": _complex_list(curve.coefficients),
                }
                for curve in self.domain.curves
            ],
            "anchors": [[a.real, a.imag] for a in self.domain.anchors],
            "blocks": [
                {
                    "kind": b.kind,
                    "center": [b.center.real, b.center.imag],
                    "scale": b.scale,
                    "start": b.start,
                    "count": b.count,
                }
                for b in self.blocks
            ],
            "factorization": self._factorization_payload(),
            "meta": self.meta,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, default=float)
            handle.write("\n")

    def _factorization_payload(self) -> dict:
        fact = self.factorization
        if fact.kind == "diagonal":
            return {"kind": "diagonal", "diag": fact.diag.tolist()}
        return {
            "kind": "cholesky",
            "perm": fact.perm.tolist(),
            "pivots": fact.pivots.tolist(),
            "L": [_complex_list(row) for row in fact.L],
        }

    @classmethod
    def load(cls, path: str) -> "KernelModel":
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("format") != "spanlab-model":
            raise ConfigError(f"{path} is not a saved kernel model")
        curves = [
            BoundaryCurve(
                {
                    int(k): complex(c[0], c[1])
                    for k, c in zip(entry["wavenumbers"], entry["coefficients"])
                },
                nodes=int(entry["nodes"]),
            )
            for entry in payload["curves"]
        ]
        domain = Domain(
            outer=curves[0],
            holes=curves[1:],
            anchors=[complex(a[0], a[1]) for a in payload["anchors"]],
            validate=False,
        )
        blocks = [
            BasisBlock(
                kind=b["kind"],
                center=complex(b["center"][0], b["center"][1]),
                scale=float(b["scale"]),
                start=int(b["start"]),
                count=int(b["count"]),
            )
            for b in payload["blocks"]
        ]
        stored = payload["factorization"]
        if stored["kind"] == "diagonal":
            fact = GramFactorization.from_diagonal(np.asarray(stored["diag"], dtype=float))
        else:
            fact = GramFactorization(
                kind="cholesky",
                size=block_sizes(blocks),
                perm=np.asarray(stored["perm"], dtype=int),
                L=_complex_array(stored["L"]),
                pivots=np.asarray(stored["pivots"], dtype=float),
            )
        return cls(domain, blocks, fact, meta=payload["meta"])


def _complex_list(values: np.ndarray) -> list:
    return [[v.real, v.imag] for v in np.asarray(values, dtype=complex)]


def _complex_array(pairs: list) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


# -- adaptive construction --------------------------------------------------


def default_probes(domain: Domain, count: int = 8) -> np.ndarray:
    """Deep-interior probe points: midpoints of inside-runs along radial rays."""
    center = domain.centroid
    radius = domain.outer.radius_bound()
    probes = []
    for q in range(count):
        direction = np.exp(2j * np.pi * q / count)
        radii = np.linspace(0.0, radius, 257)[1:]
        pts = center + radii * direction
        inside = _inside_mask(domain, pts)
        run = _longest_run(inside)
        if run is not None:
            probes.append(pts[(run[0] + run[1]) // 2])
    if not probes:
        raise ConfigError("no interior probe points found")
    return np.array(probes, dtype=complex)


def _inside_mask(domain: Domain, pts: np.ndarray) -> np.ndarray:
    """Vectorized winding-number containment (no near-boundary refinement).

    A point that coincides with a boundary node is not interior; its winding
    number is undefined, so its row is replaced by a constant before dividing.
    """
    inside = np.ones(pts.size, dtype=bool)
    for q, curve in enumerate(domain.curves):
        rel = curve.points[None, :] - pts[:, None]
        off_node = rel.all(axis=1)
        rel[~off_node] = 1.0
        following = np.concatenate((rel[:, 1:], rel[:, :1]), axis=1)
        turns = np.sum(np.angle(following / rel), axis=1)
        winding = np.rint(turns / (2.0 * np.pi)).astype(int)
        inside &= (winding == (1 if q == 0 else 0)) & off_node
    return inside


def _longest_run(mask: np.ndarray):
    best, start = None, None
    for i, flag in enumerate(list(mask) + [False]):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if best is None or i - start > best[1] - best[0]:
                best = (start, i - 1)
            start = None
    return best


def _initial_degree(domain: Domain, probes: np.ndarray, watch_order: int, tol: float) -> int:
    """Power-of-two starting degree from the probes' distance to the boundary.

    The tail of a degree-N model at relative boundary distance t behaves like
    a Poisson upper tail with mean 2 N t and shape 2 * order + 2; the inverse
    of that tail at ``tol`` sets the first degree worth trying.
    """
    radius = domain.outer.radius_bound()
    t_rel = min(domain.nearest_boundary(complex(p))[3] for p in probes) / radius
    shape = 2 * watch_order + 2
    u_target = -np.log(tol) + 3.0 * shape + 10.0
    degree = max(32.0, u_target / (2.0 * max(t_rel, 1e-6)))
    return 1 << int(np.ceil(np.log2(degree)))


def build_model(
    domain: Domain,
    probes: np.ndarray | None = None,
    watch_order: int = 0,
    tol: float = 1e-8,
    degree: int | None = None,
    max_degree: int | None = None,
) -> KernelModel:
    """Build a kernel model, escalating the basis degree until it stops moving.

    Watches every entry of the order-``watch_order`` metric derivative matrix
    at the probe points; the degree doubles until the relative change between
    consecutive models falls below ``tol``, and the finer model is kept.  The
    last observed change is recorded as ``eps_model``: downstream experiments
    treat it as the model's resolution floor.
    """
    center = rotation_center(domain)
    fast = center is not None
    if probes is None:
        probes = default_probes(domain)
    probes = np.asarray(probes, dtype=complex)
    if degree is None:
        degree = _initial_degree(domain, probes, watch_order, tol)
    if max_degree is None:
        max_degree = (1 << 17) if fast else 512
    degree = min(degree, max_degree)

    history: list[tuple[int, float]] = []
    previous = None
    while True:
        blocks = build_blocks(domain, degree)
        if fast:
            diag = gram_diagonal(domain, blocks)
            spot_check_offdiagonal(domain, blocks, diag)
            fact = GramFactorization.from_diagonal(diag)
            residual = 0.0
            periods = None
        else:
            gram, residual = gram_dense(domain, blocks)
            if residual > 1e-10:
                raise QuadratureError(
                    f"boundary Gram asymmetric beyond roundoff: residual {residual:.2e}"
                )
            periods = zero_period_residual(domain, blocks)
            if periods > 1e-8:
                raise QuadratureError(
                    f"basis function with nonzero period around a hole: {periods:.2e}"
                )
            fact = GramFactorization.from_dense(gram)
        model = KernelModel(domain, blocks, fact)
        watched = [model.metric_matrix(complex(p), watch_order) for p in probes]
        change = np.inf
        if previous is not None:
            change = 0.0
            for s_new, s_old in zip(watched, previous):
                d = np.sqrt(np.abs(np.diag(s_new)))
                scale = np.outer(d, d)
                change = max(change, float(np.max(np.abs(s_new - s_old) / scale)))
        history.append((degree, change))
        converged = change < tol
        if converged or degree >= max_degree:
            model.meta.update(
                {
                    "route": "diagonal" if fast else "dense",
                    "degree": degree,
                    "eps_model": change if np.isfinite(change) else float("nan"),
                    "converged": bool(converged),
                    "history": [[d, c if np.isfinite(c) else None] for d, c in history],
                    "gram_residual": residual,
                    "period_residual": periods,
                    "condition": fact.condition(),
                    "watch_order": watch_order,
                    "tol": tol,
                }
            )
            return model
        previous = watched
        degree = min(degree * 2, max_degree) if degree < max_degree else degree
