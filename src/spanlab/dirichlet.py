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

Point evaluation goes through jets: ``BasisBlock.jet`` returns every derivative
order up to ``n`` from one power ladder per block, and the model whitens the
whole (size, n + 1) stack in one call, so the metric derivative matrix
``[s_{j kbar}]`` costs one ladder per block rather than one per block and
order.  Before evaluating, the model checks that the points are interior with
``Domain.inside``, which is a closed form when every boundary curve is a
circle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .domains import BoundaryCurve, Domain, rotation_center
from .errors import ConfigError, DomainError, QuadratureError
from .linalg import hermitize, pivoted_cholesky, unwhiten_solve, whiten_cholesky


def _binary_power(square: np.ndarray, e: Sequence[int]) -> np.ndarray:
    """Row i of ``square`` raised to the integer power ``e[i]`` by repeated squaring.

    Batched over the rows: ``e`` must be decreasing, so that the rows still
    to be squared are a prefix.  ``square`` is overwritten.  The loop runs on
    Python integers, which keeps a one-row call (every power ladder makes
    one) as cheap as a scalar loop.  Every product is a plain ``a * b`` on a
    row or a prefix, because numpy can round a one-element
    ``multiply(a, b, out=...)`` differently in the last bit.
    """
    raised = np.ones_like(square)
    e = [int(x) for x in e]
    while True:
        for i, x in enumerate(e):
            if x & 1:
                raised[i] = raised[i] * square[i]
        e = [x >> 1 for x in e]
        deep = sum(x > 0 for x in e)
        if deep == 0:
            return raised
        square[:deep] = square[:deep] * square[:deep]


def _power_ladder(
    base: np.ndarray, start: int, count: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Array of shape (count, len(base)) holding base**(start + i), in ``out`` if given."""
    out = np.empty((count, base.size), dtype=complex) if out is None else out
    out[:] = base[None, :]
    out[0] = _binary_power(base[None, :].copy(), [start])[0]
    np.cumprod(out, axis=0, out=out)
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

    def jet(self, z, order: int) -> np.ndarray:
        """(order + 1, count, len(z)) array of the derivatives of orders 0..order.

        One power ladder serves every order.  A monomial's order-j row is the
        ladder shifted down by j, times ``falling(m, j) / scale^j``; a pole's is
        the ladder itself times ``(-1)^j rising(m, j) (z - a)^-j``.
        """
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        u = self.base(z)
        out = np.zeros((order + 1, self.count, z.size), dtype=complex)
        powers = self.powers
        factorial = np.ones(self.count)  # falling(m, j) or rising(m, j)
        if self.kind == "monomial":
            low = max(self.start - order, 0)
            ladder = _power_ladder(u, low, self.start + self.count - low)
            for j in range(order + 1):
                if j:
                    factorial *= powers - (j - 1)
                first = max(0, j - self.start)
                if first >= self.count:
                    continue
                coeff = factorial[first:] / self.scale**j
                top = self.start + first - j - low
                rows = ladder[top : top + self.count - first]
                np.multiply(coeff[:, None], rows, out=out[j, first:])
            return out
        _power_ladder(u, self.start, self.count, out=out[0])
        for j in range(1, order + 1):
            factorial *= powers + (j - 1)
            coeff = (-1.0) ** j * factorial
            np.multiply(coeff[:, None], out[0], out=out[j])
            out[j] *= ((z - self.center) ** (-j))[None, :]
        return out

    def evaluate(self, z, order: int = 0) -> np.ndarray:
        """(count, len(z)) array of order-th derivatives; order=-1 gives primitives."""
        if order >= 0:
            return self.jet(z, order)[order]
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        if self.kind == "monomial":
            rows = _power_ladder(self.base(z), self.start + 1, self.count)
            coeff = self.scale / (self.powers + 1.0)
        else:
            rows = _power_ladder(self.base(z), self.start - 1, self.count)
            coeff = -self.scale / (self.powers - 1.0)
        return coeff[:, None] * rows


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


def gram_dense(domain: Domain, blocks: Sequence[BasisBlock]) -> tuple[np.ndarray, float]:
    """Full Gram matrix by boundary quadrature; returns (matrix, hermitian residual).

    Real and imaginary parts below ``sqrt(tiny)`` ~ 1.5e-154 of the weighted
    values and of the primitives are zeroed before the product, which keeps it
    out of slow subnormal arithmetic.  That moves an entry by about 1e-150 at
    most on a unit-sized domain: below one ulp of the diagonal, whose entries
    are squared norms of ~1e-4 or more at the degrees the dense route uses.
    """
    n = block_sizes(blocks)
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


def _rows(blocks: Sequence[BasisBlock], indices, z, order: int) -> np.ndarray:
    """Values (order 0) or primitives (order -1) of the basis functions at ``indices``.

    Returns a (len(indices), len(z)) array without materializing whole blocks.
    Each row is its block's base raised by ``_binary_power``, the routine that
    also starts every power ladder, so a row is bit for bit the value
    ``BasisBlock.evaluate`` gives on a one-function block.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    indices = np.asarray(indices, dtype=int)
    offsets = np.cumsum([0] + [b.count for b in blocks])
    owner = np.searchsorted(offsets, indices, side="right") - 1
    powers = np.array([b.start for b in blocks])[owner] + indices - offsets[owner]
    monomial = np.array([b.kind == "monomial" for b in blocks])[owner]
    e = np.where(monomial, powers + 1, powers - 1) if order == -1 else powers
    rank = np.argsort(-e, kind="stable")
    square = np.stack([b.base(z) for b in blocks])[owner[rank]]
    result = np.empty((indices.size, z.size), dtype=complex)
    result[rank] = _binary_power(square, e[rank])
    if order == 0:
        return result
    scales = np.array([b.scale for b in blocks])[owner]
    coeff = np.empty(indices.size)
    coeff[monomial] = scales[monomial] / (powers[monomial] + 1.0)
    coeff[~monomial] = -scales[~monomial] / (powers[~monomial] - 1.0)
    return coeff[:, None] * result


def spot_check_offdiagonal(
    domain: Domain, blocks: Sequence[BasisBlock], diag: np.ndarray, pairs: int = 12
) -> float:
    """Verify that randomly chosen off-diagonal Gram entries vanish.

    Guards the diagonal fast path at run time: an entry above 1e-9 of its
    diagonal raises ``QuadratureError``.  Pairs whose frequency
    difference is a nonzero multiple of the node count are skipped: for those
    the trapezoid rule aliases the oscillation to frequency zero and reports a
    spurious value even though the true entry is zero.
    """
    rng = np.random.default_rng(0)
    freqs = np.concatenate([b.frequencies() for b in blocks])
    n = freqs.size
    node_counts = [c.nodes for c in domain.curves]
    chosen = []
    attempts = 0
    while len(chosen) < pairs and attempts < 50 * pairs:
        attempts += 1
        j, k = rng.integers(0, n, size=2)
        if j == k:
            continue
        df = int(freqs[j] - freqs[k])
        if any(df % m == 0 for m in node_counts):
            continue
        chosen.append((j, k))
    js, ks = np.array(chosen, dtype=int).reshape(-1, 2).T
    values = np.zeros(js.size, dtype=complex)
    for curve in domain.curves:
        g = _rows(blocks, js, curve.points, 0)
        p = _rows(blocks, ks, curve.points, -1)
        values += np.sum(g * np.conj(p) * curve.complex_weights, axis=1) / 2j
    worst = 0.0
    for value, j, k in zip(values, js, ks):
        worst = max(worst, abs(value) / float(np.sqrt(diag[j] * diag[k])))
    if worst > 1e-9:
        raise QuadratureError(
            f"off-diagonal Gram entry {worst:.2e} on a rotation-invariant domain"
        )
    return worst


def zero_period_residual(domain: Domain, blocks: Sequence[BasisBlock]) -> float:
    """Largest relative contour integral of any basis function around any curve.

    The boundary Gram formula is only valid when every basis function has a
    single-valued primitive, i.e. zero period around every hole.  Monomials
    and inverse powers of order two and higher satisfy this identically; this
    quadrature check guards the discretization.  Functions whose frequency
    aliases to zero on a curve's node count are skipped on that curve (the
    trapezoid rule folds those oscillations onto a spurious constant).  Bases
    larger than 64 functions are checked on 64 drawn from a fixed seed.
    """
    total = block_sizes(blocks)
    if total <= 64:
        indices = np.arange(total)
    else:
        indices = np.random.default_rng(0).choice(total, size=64, replace=False)
    freqs = np.concatenate([b.frequencies() for b in blocks])
    worst = 0.0
    for curve in domain.curves:
        length = float(np.sum(curve.weights))
        f = freqs[indices]
        kept = indices[(f == 0) | (f % curve.nodes != 0)]
        g = _rows(blocks, kept, curve.points, 0)
        periods = np.sum(g * curve.complex_weights, axis=1)
        scales = 1.0 + np.max(np.abs(g), axis=1) * length
        for period, scale in zip(periods, scales):
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


# -- factorization and model ------------------------------------------------


@dataclass
class GramFactorization:
    kind: str  # 'cholesky' or 'diagonal'
    size: int
    diag: np.ndarray | None = None
    perm: np.ndarray | None = None
    L: np.ndarray | None = None
    pivots: np.ndarray | None = None
    inv_sqrt: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.kind == "diagonal":
            # numpy divides a complex by a real-valued complex by multiplying
            # with the reciprocal, so whitening by this product gives the
            # quotient v / sqrt(diag) bit for bit, up to the sign of a zero part.
            self.inv_sqrt = 1.0 / np.sqrt(self.diag)

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
            return v * (self.inv_sqrt[:, None] if v.ndim == 2 else self.inv_sqrt)
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
    ):
        self.domain = domain
        self.blocks = list(blocks)
        self.factorization = factorization
        self.meta = dict(meta or {})

    def _require_interior(self, pts: np.ndarray) -> None:
        mask = self.domain.inside(pts)
        if not np.all(mask):
            bad = pts[~mask][0]
            raise DomainError(f"evaluation point {bad} is not interior to the domain")

    @property
    def size(self) -> int:
        return block_sizes(self.blocks)

    @property
    def eps_model(self) -> float:
        return float(self.meta.get("eps_model", np.nan))

    def kernel_matrix(self, z, zeta) -> np.ndarray:
        """Matrix of kernel values, entry [i, j] = K(z_i, zeta_j)."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        zeta = np.atleast_1d(np.asarray(zeta, dtype=complex))
        self._require_interior(np.concatenate([z, zeta]))
        wz = self.factorization.whiten(evaluate_blocks(self.blocks, z))
        ww = self.factorization.whiten(evaluate_blocks(self.blocks, zeta))
        return wz.T @ ww.conj()

    def metric(self, z):
        """Span metric s(z) = pi K(z, z); returns a float for scalar input."""
        scalar = np.isscalar(z) or np.asarray(z).ndim == 0
        pts = np.atleast_1d(np.asarray(z, dtype=complex))
        self._require_interior(pts)
        w = self.factorization.whiten(evaluate_blocks(self.blocks, pts))
        values = np.pi * np.sum(np.abs(w) ** 2, axis=0)
        return float(values[0]) if scalar else values

    def metric_matrix(self, z: complex, order: int) -> np.ndarray:
        """Hermitian matrix of metric derivatives, entry [j, k] = s_{j kbar}(z).

        Built as ``pi U U^*`` from the whitened derivative vectors ``U`` of
        orders 0..order, so it is positive semidefinite by construction: one
        jet per basis block and one whitening call for all orders.
        """
        self._require_interior(np.array([z], dtype=complex))
        jet = np.concatenate([b.jet([z], order)[:, :, 0] for b in self.blocks], axis=1)
        u = self.factorization.whiten(jet.T).T
        return np.pi * (u @ u.conj().T)

    def kernel_coefficients(self, zeta: complex) -> np.ndarray:
        """Coefficients beta with K(., zeta) = sum_j beta_j g_j."""
        self._require_interior(np.array([zeta], dtype=complex))
        v = evaluate_blocks(self.blocks, [zeta])[:, 0]
        return np.conj(self.factorization.solve(v))

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


def default_probes(domain: Domain) -> np.ndarray:
    """Deep-interior probe points: midpoints of inside-runs along 8 radial rays."""
    center = domain.centroid
    radius = domain.outer.radius_bound()
    probes = []
    for q in range(8):
        direction = np.exp(2j * np.pi * q / 8)
        radii = np.linspace(0.0, radius, 257)[1:]
        pts = center + radii * direction
        inside = domain.inside(pts)
        run = _longest_run(inside)
        if run is not None:
            probes.append(pts[(run[0] + run[1]) // 2])
    if not probes:
        raise ConfigError("no interior probe points found")
    return np.array(probes, dtype=complex)


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
    t_rel = np.min(domain.nearest_boundary(probes)[3]) / radius
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
) -> KernelModel:
    """Build a kernel model, escalating the basis degree until it stops moving.

    Watches every entry of the order-``watch_order`` metric derivative matrix
    at the probe points; the degree doubles until the relative change between
    consecutive models falls below ``tol``, and the finer model is kept.  The
    last observed change is recorded as ``eps_model``: downstream experiments
    treat it as the model's resolution floor.  The degree stops at 2^17 on the
    diagonal route and at 512 on the dense one, and starts at most at half that,
    so there are always two models to compare and ``eps_model`` is finite.
    """
    if not 0.0 < tol < np.inf:
        raise ConfigError(f"tol must be positive and finite, got {tol!r}")
    center = rotation_center(domain)
    fast = center is not None
    if probes is None:
        probes = default_probes(domain)
    probes = np.asarray(probes, dtype=complex)
    if degree is None:
        degree = _initial_degree(domain, probes, watch_order, tol)
    max_degree = (1 << 17) if fast else 512
    degree = min(degree, max_degree // 2)

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
        degree = min(degree * 2, max_degree)
