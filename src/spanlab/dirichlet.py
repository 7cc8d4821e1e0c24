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
boundary-limit experiments need.  There the degree-d model is the degree-2d
model cut to the first d functions of each block, so ``build_model`` builds
one model per step and reads the change between the two degrees, exactly,
from the finer model's rows d..2d-1: ``eps_model`` is that tail, and
``history`` lists the built degrees.

Point evaluation goes through jets: ``BasisBlock.jet`` returns every derivative
order up to ``n`` from one power ladder per block, and the model whitens the
(size, n + 1) stack in one call, so the metric derivative matrix
``[s_{j kbar}]`` costs one ladder per block rather than one per block and
order.  A ladder stops where the powers at every point are below
``sqrt(tiny)``, and each later step covers only the rows it kept: the jet
scales each order's live prefix and returns its extent, and on the diagonal
route ``metric``, ``metric_matrix`` and ``kernel_matrix`` whiten and multiply
up to the last live row alone.  So a point costs its live ladder, not the
basis size: near the outer circle of ``annulus(0.5)`` at t = 1e-3 the pole
block keeps 512 of its 65536 rows.  The rows left out are exact zeros,
so no subnormal number is formed and every output is the same bit for bit;
``metric`` pads its squares back to the whole length before the sum.  The
model checks first that the points are interior with ``Domain.inside``, a
closed form when all curves are circles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .domains import BoundaryCurve, Domain, rotation_center
from .errors import ConfigError, DomainError, QuadratureError
from .linalg import hermitize, pivoted_cholesky, whiten_cholesky

# No product of two numbers this large is subnormal.  ``gram_dense`` zeroes
# parts below it, and a power ladder stops where every power is below it.
_FLUSH = np.sqrt(np.finfo(float).tiny)


def _binary_powers(base: np.ndarray, exponents: Sequence[int]) -> np.ndarray:
    """Array of shape (len(exponents), len(base)) holding base**e for each exponent.

    Repeated squaring, with each square of ``base`` formed once for all the
    exponents.  The loop runs on Python integers, which keeps a one-exponent
    call (every power ladder starts with one) as cheap as a scalar loop.
    Every product is a plain ``a * b`` on a row, because numpy can round a
    one-element ``multiply(a, b, out=...)`` differently in the last bit.
    """
    raised = np.ones((len(exponents), base.size), dtype=complex)
    e = [int(x) for x in exponents]
    square = base
    while True:
        for i, x in enumerate(e):
            if x & 1:
                raised[i] = raised[i] * square
        e = [x >> 1 for x in e]
        if not any(e):
            return raised
        square = square * square


def _ladder_rows(r: float, start: int, count: int) -> int:
    """Leading rows of a ladder with ``max|base| = r`` that can reach ``_FLUSH``, plus two."""
    if not r < 1.0:
        return count
    if r == 0.0:
        return 1
    return int(min(count, max(1.0, np.log(_FLUSH) / np.log(r) - start + 3)))


def _ladder_head(
    base: np.ndarray, start: int, count: int, out: np.ndarray | None
) -> np.ndarray:
    """The nonzero leading rows of the ladder ``base**(start + i)``, i < count.

    They are written to the top of ``out``, or to a fresh array of only the
    rows that can reach ``_FLUSH`` when ``out`` is None.  The ladder stops
    two rows after every power has fallen below ``_FLUSH``.  The rows are
    one ``cumprod``, so once a row is zero every later one is; rows that
    underflowed to zero before the stop, which only a base below about
    1e-85 gives, are dropped too.
    """
    keep = _ladder_rows(float(np.abs(base).max(initial=0.0)), start, count)
    head = np.empty((keep, base.size), dtype=complex) if out is None else out[:keep]
    head[:] = base[None, :]
    head[0] = _binary_powers(base, [start])[0]
    np.cumprod(head, axis=0, out=head)
    while keep and not head[keep - 1].any():
        keep -= 1
    return head[:keep]


def _power_ladder(
    base: np.ndarray, start: int, count: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Array of shape (count, len(base)) holding base**(start + i), in ``out`` if given.

    The rows past ``_ladder_head``'s are exact zeros, so a one-point ladder
    forms no subnormal number.  The kept rows are the same ``cumprod``
    prefix, bit for bit, and a dropped value's square is below one ulp of
    any sum it enters.
    """
    out = np.empty((count, base.size), dtype=complex) if out is None else out
    head = _ladder_head(base, start, count, out)
    out[head.shape[0] :] = 0.0
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

    def jet(self, z, order: int) -> np.ndarray:
        """(order + 1, count, len(z)) array of the derivatives of orders 0..order.

        One power ladder serves every order.  A monomial's order-j row is the
        ladder shifted down by j, times ``falling(m, j) / scale^j``; a pole's is
        the ladder itself times ``(-1)^j rising(m, j) (z - a)^-j``.  Only the
        rows up to the ladder's end are computed (``_write_jet``); the rest
        are zeros.
        """
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.zeros((order + 1, self.count, z.size), dtype=complex)
        self._write_jet(z, order, out, [0] * (order + 1), {})
        return out

    def _coefficients(self, order: int, rows: int, memo: dict) -> np.ndarray:
        """Table of the jet's factors, rows 0..order and at least ``rows`` columns.

        Row j holds ``falling(m, j) / scale^j`` for a monomial block and
        ``(-1)^j rising(m, j)`` for a pole block, as complex numbers, the
        type numpy would cast them to in the product with the ladder.  One
        table per block is kept in ``memo`` and serves every call it covers:
        each entry is computed on its own, so a smaller table is its leading
        part, bit for bit.  A call it does not cover replaces it.
        """
        table = memo.get("table")
        if table is not None and table.shape[0] > order and table.shape[1] >= rows:
            return table
        if table is not None:
            order, rows = max(order, table.shape[0] - 1), max(rows, table.shape[1])
        powers = np.arange(self.start, self.start + rows)
        factorial = np.ones(rows)
        table = memo["table"] = np.empty((order + 1, rows), dtype=complex)
        for j in range(order + 1):
            if self.kind == "monomial":
                if j:
                    factorial *= powers - (j - 1)
                table[j] = factorial / self.scale**j
            else:
                if j:
                    factorial *= powers + (j - 1)
                table[j] = (-1.0) ** j * factorial
        return table

    def _write_jet(
        self, z: np.ndarray, order: int, out: np.ndarray, stale: Sequence[int], memo: dict
    ) -> list[int]:
        """Write ``jet(z, order)`` into ``out`` and return each order's extent.

        Order j's rows from ``extents[j]`` on are zero: the ladder keeps its
        nonzero rows alone (``_ladder_head``), so a point costs the rows its
        ladder holds, not the block size.  Only the rows below the extents
        are written and scaled, each bit for bit as on the whole block, by
        factors from ``_coefficients`` and its ``memo``.  Of the other rows,
        those below ``stale[j]`` are zeroed and the rest must be zero already.
        Row ``max(extents) - 1`` is nonzero in some order, so the extents are
        the block's live rows without a scan.
        """
        u = self.base(z)
        if self.kind == "monomial":
            low = max(self.start - order, 0)
            ladder = _ladder_head(u, low, self.start + self.count - low, None)
            lag = self.start - low  # row i of order j is ladder row i + lag - j
            kept = ladder.shape[0]
            extents = [
                min(self.count, max(kept - lag + j, 0)) if kept else 0 for j in range(order + 1)
            ]
            table = self._coefficients(order, max(extents), memo)
            for j, extent in enumerate(extents):
                first = max(0, j - self.start)  # rows below it are powers below j
                if first < extent:
                    rows = ladder[first + lag - j : extent + lag - j]
                    np.multiply(table[j, first:extent, None], rows, out=out[j, first:extent])
                if first and stale[j]:
                    out[j, : min(first, stale[j])] = 0.0
                if stale[j] > max(first, extent):
                    out[j, max(first, extent) : stale[j]] = 0.0
            return extents
        extent = _ladder_head(u, self.start, self.count, out[0]).shape[0]
        head = out[:, :extent]
        table = self._coefficients(order, extent, memo)
        offset = z - self.center
        for j in range(1, order + 1):
            np.multiply(table[j, :extent, None], head[0], out=head[j])
            head[j] *= (offset ** (-j))[None, :]
        for j in range(order + 1):
            if stale[j] > extent:
                out[j, extent : stale[j]] = 0.0
        return [extent] * (order + 1)

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


def build_blocks(domain: Domain, degree: int) -> list[BasisBlock]:
    """Basis blocks: ``degree`` outer monomials plus ``degree`` inverse powers per hole."""
    if degree < 1:
        raise ConfigError("degree must be at least 1")
    blocks = [
        BasisBlock(
            kind="monomial",
            center=domain.centroid,
            scale=domain.outer.radius_bound(),
            start=0,
            count=degree,
        )
    ]
    for hole, anchor in zip(domain.holes, domain.anchors):
        sigma = float(np.min(np.abs(hole.points - anchor)))
        blocks.append(
            BasisBlock(kind="pole", center=anchor, scale=sigma, start=2, count=degree)
        )
    return blocks


def evaluate_blocks(blocks: Sequence[BasisBlock], z, order: int = 0) -> np.ndarray:
    return np.concatenate([b.evaluate(z, order) for b in blocks], axis=0)


def block_sizes(blocks: Sequence[BasisBlock]) -> int:
    return int(sum(b.count for b in blocks))


def _spans(blocks: Sequence[BasisBlock]) -> list[slice]:
    """Rows of each block in ``evaluate_blocks(blocks, ...)``."""
    stops = np.cumsum([b.count for b in blocks])
    return [slice(int(stop) - b.count, int(stop)) for b, stop in zip(blocks, stops)]


# -- Gram assembly ----------------------------------------------------------


def _flush_tiny(a: np.ndarray) -> np.ndarray:
    """Zero, in place, every real or imaginary part of ``a`` below ``_FLUSH``.

    A product of two parts that survive is at least ``tiny``, so every
    product formed in a matrix product of flushed operands is a normal number.
    Any memory layout works: a Cholesky whitening returns Fortran order.
    """
    for parts in (a.real, a.imag):
        parts[np.abs(parts) < _FLUSH] = 0.0
    return a


def _circle_about(curve: BoundaryCurve, point: complex) -> bool:
    """Whether ``curve`` is a circle whose centre is within 1e-12 of its radius of ``point``."""
    circle = curve.circle_data()
    return circle is not None and abs(circle[0] - point) <= 1e-12 * circle[1]


def _gram_nodes(domain: Domain, blocks: Sequence[BasisBlock]) -> int:
    """Node count of ``gram_dense``: ``max(2p + 64, max curve.nodes)``.

    The trapezoid rule on N equispaced nodes is exact for trigonometric
    polynomials of degree < N (Trefethen and Weideman, SIAM Review 56, 2014),
    and each Gram entry pairs two functions only.  On a circle, a monomial of
    power m is a trigonometric polynomial of degree m.  On a circle about a
    pole block's centre, its values and primitives are single Fourier modes.
    So when every hole is a circle about its anchor, ``p`` is the highest
    power that any value or primitive reaches: the end of the range for a
    monomial block (its primitives gain a power) and one below it for a pole
    block (its primitives lose one).  The integrand ``g_j conj(G_k) gamma'``
    then has degree at most 2p + 1 < N on the holes, whatever the number of
    holes.  On the other curves a pole block's functions are analytic across
    the curve and bounded by ``(sigma / dist)^m``, so their coefficients
    decay geometrically; the 64 spare nodes and the curves' own node counts
    cover that.  A monomial on a non-circular outer curve has the bandwidth
    it has on a simply connected domain, where p is the basis size.  Off a
    circle about its anchor, ``(sigma / (z - a))^m`` oscillates up to
    ``m max|gamma'| / |gamma - a|`` per unit parameter, which is above m
    (twice it for an ellipse of axis ratio 2, or for an anchor halfway to
    the rim), so there ``p`` is the basis size.  ``2p + 64`` is rounded up
    to a multiple of 64, which keeps the FFTs of ``gram_dense`` off large
    prime lengths (2p + 64 = 1090 = 2 * 5 * 109 at degree 512); more nodes
    never loosen the quadrature.
    """
    if all(_circle_about(hole, a) for hole, a in zip(domain.holes, domain.anchors)):
        p = max(b.start + b.count - (b.kind == "pole") for b in blocks)
    else:
        p = block_sizes(blocks)
    return max(64 * ((2 * p + 127) // 64), max(c.nodes for c in domain.curves))


def _modal_rows(block: BasisBlock, curve: BoundaryCurve) -> tuple[np.ndarray, ...]:
    """Closed forms of ``block``'s rows on ``curve``, a circle about the block's centre.

    The curve is ``gamma(t) = c + w e^{i s t}`` with ``s = +-1`` its
    orientation.  Let ``u = w / scale`` and ``e = 1`` for a monomial block,
    ``u = scale / w`` and ``e = -1`` for a pole block.  On the node
    ``t_n = 2 pi n / N`` the value of power m times the weight
    ``(2 pi / N) gamma'(t_n)`` is ``alpha_m e^{i f_m t_n}`` with
    ``alpha_m = (2 pi i s w / N) u^m``, and the primitive is
    ``beta_m e^{i f_m t_n}`` with ``beta_m = scale u^(m + e) / (e (m + e))``.
    Both share the one frequency ``f_m = s (e m + 1)``.  Returns
    ``(alpha, f, beta)``.
    """
    orientation = curve.circle_data()[2]
    w = complex(curve.coefficients[curve.wavenumbers == orientation][0])
    e = 1 if block.kind == "monomial" else -1
    u = np.array([w / block.scale if e == 1 else block.scale / w])
    powers = block.powers
    weight = 2j * np.pi * orientation * w / curve.nodes
    alpha = weight * _power_ladder(u, block.start, block.count)[:, 0]
    beta = block.scale / (e * (powers + e)) * _power_ladder(u, block.start + e, block.count)[:, 0]
    return alpha, orientation * (e * powers + 1), beta


def gram_dense(
    domain: Domain, blocks: Sequence[BasisBlock], nodes: int
) -> tuple[np.ndarray, float]:
    """Full Gram matrix by boundary quadrature on ``nodes`` nodes per curve.

    Returns (matrix, hermitian residual).  ``build_model`` passes
    ``_gram_nodes``, which says why that many nodes resolve every entry.

    Each curve's sum is taken in three parts.  A block is *modal* on a curve
    that is a circle about the block's centre (``_circle_about``): the
    monomial block on a circular outer curve, a pole block on its own hole
    when that is a circle about the anchor.  There each weighted value and
    each primitive is one Fourier mode, ``alpha e^{i f t}`` and
    ``beta e^{i f t}`` (``_modal_rows``), so

    * a modal-by-modal entry is ``N alpha_j conj(beta_k) / 2i`` where
      ``f_j = f_k``, and zero elsewhere;
    * a modal-by-sampled entry is one DFT coefficient of the sampled
      primitive (or weighted value) row, at ``-f_j`` (or ``f_k``): one
      ``numpy.fft.fft`` of each sampled row, taken in place, gives them all;
    * only sampled-by-sampled entries are a matrix product.

    The upper and lower triangles still come from separate sums, so the
    Hermitian residual keeps measuring the quadrature.  On a curve with no
    modal block the sum is one product of all the rows.  The closed forms
    take the block's centre to be the circle's; a centre off by ``delta``
    moves a modal entry by about ``m delta / r`` relative, at most 5e-10 at
    power 513 under the 1e-12 of ``_circle_about``, and 0 where the anchor
    is the number that gives the circle's centre.

    Real and imaginary parts below ``sqrt(tiny)`` ~ 1.5e-154 of the weighted
    values, of the primitives and of the closed forms are zeroed first, which
    keeps the product out of slow subnormal arithmetic.  That moves an entry
    by about 1e-150 at most on a unit-sized domain: below one ulp of the
    diagonal, whose entries are squared norms of ~1e-4 or more at the
    degrees the dense route uses.
    """
    n = block_sizes(blocks)
    gram = np.zeros((n, n), dtype=complex)
    spans = _spans(blocks)
    for curve in domain.curves:
        c = curve if curve.nodes == nodes else curve.resample(nodes)
        modal = {}
        for q, block in enumerate(blocks):
            if _circle_about(c, block.center):
                alpha, f, beta = _modal_rows(block, c)
                modal[q] = (_flush_tiny(alpha), f, _flush_tiny(beta))
        for a, (alpha, f, _) in modal.items():
            for b, (_, g, beta) in modal.items():
                _, ia, ib = np.intersect1d(f, g, assume_unique=True, return_indices=True)
                entries = nodes * alpha[ia] * beta[ib].conj() / 2j
                gram[spans[a].start + ia, spans[b].start + ib] += entries
        sampled = [q for q in range(len(blocks)) if q not in modal]
        if not sampled:
            continue
        part = [blocks[q] for q in sampled]
        rows = _spans(part)
        values = evaluate_blocks(part, c.points, 0)
        values *= c.complex_weights
        primitives = evaluate_blocks(part, c.points, -1)
        np.conj(primitives, out=primitives)
        product = _flush_tiny(values) @ _flush_tiny(primitives).T
        product /= 2j
        for j, rj in zip(sampled, rows):
            for k, rk in zip(sampled, rows):
                gram[spans[j], spans[k]] += product[rj, rk]
        if not modal:
            continue
        del product
        # sum_n e^{i f t_n} x_n is coefficient -f mod N of fft(x)
        np.fft.fft(values, axis=1, out=values)
        np.fft.fft(primitives, axis=1, out=primitives)
        for a, (alpha, f, beta) in modal.items():
            for k, rk in zip(sampled, rows):
                upper = primitives[rk, -f % nodes]
                upper *= alpha / 2j
                gram[spans[a], spans[k]] += upper.T
                lower = values[rk, f % nodes]
                lower *= beta.conj() / 2j
                gram[spans[k], spans[a]] += lower
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
    Each block's base is raised by ``_binary_powers``, the routine that also
    starts every power ladder, once for all of its rows, so a row is bit for
    bit the value ``BasisBlock.evaluate`` gives on a one-function block.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    indices = np.asarray(indices, dtype=int)
    offsets = np.cumsum([0] + [b.count for b in blocks])
    owner = np.searchsorted(offsets, indices, side="right") - 1
    powers = np.array([b.start for b in blocks])[owner] + indices - offsets[owner]
    monomial = np.array([b.kind == "monomial" for b in blocks])[owner]
    e = np.where(monomial, powers + 1, powers - 1) if order == -1 else powers
    result = np.empty((indices.size, z.size), dtype=complex)
    for q in np.unique(owner):
        mine = np.flatnonzero(owner == q)
        result[mine] = _binary_powers(blocks[q].base(z), e[mine])
    if order == 0:
        return result
    scales = np.array([b.scale for b in blocks])[owner]
    coeff = np.empty(indices.size)
    coeff[monomial] = scales[monomial] / (powers[monomial] + 1.0)
    coeff[~monomial] = -scales[~monomial] / (powers[~monomial] - 1.0)
    return coeff[:, None] * result


def _frequency(blocks: Sequence[BasisBlock], index: int) -> int:
    """Angular frequency of basis function ``index`` on circles about the center."""
    for block in blocks:
        if index < block.count:
            power = block.start + index
            return power if block.kind == "monomial" else -power
        index -= block.count
    raise IndexError(index)


def spot_check_offdiagonal(domain: Domain, blocks: Sequence[BasisBlock], diag: np.ndarray) -> float:
    """Verify that 12 randomly chosen off-diagonal Gram entries vanish.

    Guards the diagonal fast path at run time: an entry above 1e-9 of its
    diagonal raises ``QuadratureError``.  Pairs whose frequency
    difference is a nonzero multiple of the node count are skipped: for those
    the trapezoid rule aliases the oscillation to frequency zero and reports a
    spurious value even though the true entry is zero.
    """
    rng = np.random.default_rng(0)
    n = block_sizes(blocks)
    node_counts = [c.nodes for c in domain.curves]
    chosen = []
    attempts = 0
    while len(chosen) < 12 and attempts < 600:
        attempts += 1
        j, k = rng.integers(0, n, size=2)
        if j == k:
            continue
        df = _frequency(blocks, int(j)) - _frequency(blocks, int(k))
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
    quadrature check guards the discretization on the Gram's own nodes,
    ``_gram_nodes``.  There no period aliases: on a circle about its centre a
    function of power m gives ``g gamma'`` the single frequency m + 1
    (monomial) or 1 - m (pole), nonzero and below the node count.
    Bases larger than 64 functions are checked on 64 drawn from a fixed seed.
    """
    total = block_sizes(blocks)
    if total <= 64:
        indices = np.arange(total)
    else:
        indices = np.random.default_rng(0).choice(total, size=64, replace=False)
    nodes = _gram_nodes(domain, blocks)
    worst = 0.0
    for curve in domain.curves:
        c = curve if curve.nodes == nodes else curve.resample(nodes)
        length = float(np.sum(c.weights))
        g = _rows(blocks, indices, c.points, 0)
        periods = np.sum(g * c.complex_weights, axis=1)
        scales = 1.0 + np.max(np.abs(g), axis=1) * length
        for period, scale in zip(periods, scales):
            worst = max(worst, abs(period) / scale)
    return worst


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
            # Kept complex, as numpy would cast it, so that a product with a
            # strided operand (a jet cut to its live rows) needs no cast buffer.
            self.inv_sqrt = (1.0 / np.sqrt(self.diag)).astype(complex)

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
        """Apply the inverse half-factor; kernel sums become plain dot products.

        A diagonal factorization also takes the leading rows alone: the rows
        left out are zeros, and so are their whitened values.
        """
        if self.kind == "diagonal":
            v = np.asarray(vectors, dtype=complex)
            inv_sqrt = self.inv_sqrt[: v.shape[0]]
            return v * (inv_sqrt[:, None] if v.ndim == 2 else inv_sqrt)
        return whiten_cholesky(self.L, self.perm, vectors)


class KernelModel:
    """A computable reduced Bergman kernel: basis blocks plus Gram factorization."""

    def __init__(
        self, domain: Domain, blocks: Sequence[BasisBlock], factorization: GramFactorization
    ):
        self.domain = domain
        self.blocks = list(blocks)
        self.factorization = factorization
        self.meta: dict = {}
        self._spans = _spans(self.blocks)
        self._factors: list[dict] = [{} for _ in self.blocks]  # see BasisBlock._coefficients
        self._scratch: dict[int, tuple] = {}  # see _whitened_jet
        self._watched: dict[tuple[complex, int], np.ndarray] = {}  # see build_model

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

    def _live(self, extents: Sequence[Sequence[int]]) -> int:
        """Rows of the stacked jet to whiten, from each block's ``_write_jet`` extents.

        On a diagonal factorization that is up to the last row nonzero in
        some order: the rows after it are the last live block's ladder below
        ``sqrt(tiny)`` and the blocks after that, all zeros, and dropping
        them, and only them, leaves every sum of the products bit for bit.
        A triangular whitening mixes the rows, so there it is every row.
        """
        if self.factorization.kind != "diagonal":
            return self.size
        live = 0
        for span, extent in zip(self._spans, extents):
            if max(extent):
                live = span.start + max(extent)
        return live

    def _values(self, pts: np.ndarray) -> tuple[np.ndarray, int]:
        """Basis values at ``pts``, shape (size, len(pts)), and the rows to whiten."""
        values = np.zeros((self.size, pts.size), dtype=complex)
        extents = [
            b._write_jet(pts, 0, values[None, span], [0], memo)
            for b, span, memo in zip(self.blocks, self._spans, self._factors)
        ]
        return values, self._live(extents)

    def _whitened_values(self, pts: np.ndarray) -> np.ndarray:
        values, live = self._values(pts)
        return _flush_tiny(self.factorization.whiten(values[:live]))

    def kernel_matrix(self, z, zeta) -> np.ndarray:
        """Matrix of kernel values, entry [i, j] = K(z_i, zeta_j).

        The whitened operands are flushed as in ``gram_dense``: a batch across
        the band keeps every ladder row, and the product would otherwise run
        on their subnormal parts.  Equal ``z`` and ``zeta`` share one operand.
        On the diagonal route the trailing zero rows are left out.
        """
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        zeta = np.atleast_1d(np.asarray(zeta, dtype=complex))
        self._require_interior(np.concatenate([z, zeta]))
        wz = self._whitened_values(z)
        if np.array_equal(z, zeta):
            return wz.T @ wz.conj()
        ww = self._whitened_values(zeta)
        rows = min(wz.shape[0], ww.shape[0])
        return wz[:rows].T @ ww[:rows].conj()

    def metric(self, z):
        """Span metric s(z) = pi K(z, z); returns a float for scalar input.

        Only the live rows (``_live``) are whitened and squared.  The squares
        are then padded with zeros to the whole whitening's length before
        the sum, since numpy's pairwise sum groups a shorter one differently.
        """
        scalar = np.isscalar(z) or np.asarray(z).ndim == 0
        pts = np.atleast_1d(np.asarray(z, dtype=complex))
        self._require_interior(pts)
        values, live = self._values(pts)
        squares = np.abs(self.factorization.whiten(values[:live])) ** 2
        missing = self.factorization.rank - squares.shape[0]
        if missing:
            squares = np.concatenate([squares, np.zeros((missing, pts.size))])
        values = np.pi * np.sum(squares, axis=0)
        return float(values[0]) if scalar else values

    def _whitened_jet(self, z: complex, order: int) -> tuple[np.ndarray, np.ndarray]:
        """Whitened derivative vectors ``U`` (order + 1 rows) at z, and their conjugate.

        The jets, and then the conjugate, go into one array kept per order and
        reused (so two threads must not share a model here): fresh arrays,
        about 1 MB at degree 2048, can cost a page fault per 4 KB on each
        call.  Each block writes only its live rows and zeroes what the last
        call left past them (``BasisBlock._write_jet``): its own rows and
        the conjugate's.  ``U`` ends at the rows ``_live`` gives.
        """
        pt = np.array([z], dtype=complex)
        self._require_interior(pt)
        if order not in self._scratch:
            stale = [[0] * (order + 1) for _ in self.blocks]
            self._scratch[order] = (np.zeros((order + 1, self.size, 1), dtype=complex), stale)
        jet, stale = self._scratch[order]
        extents = [
            b._write_jet(pt, order, jet[:, span], rows, memo)
            for b, span, rows, memo in zip(self.blocks, self._spans, stale, self._factors)
        ]
        u = self.factorization.whiten(jet[:, : self._live(extents), 0].T).T
        for q, span in enumerate(self._spans):
            conjugated = min(max(u.shape[1] - span.start, 0), span.stop - span.start)
            stale[q] = [max(extent, conjugated) for extent in extents[q]]
        return u, np.conjugate(u, out=jet[:, : u.shape[1], 0])

    def metric_matrix(self, z: complex, order: int) -> np.ndarray:
        """Hermitian matrix of metric derivatives, entry [j, k] = s_{j kbar}(z).

        Built as ``pi U U^*`` from the whitened derivative vectors ``U`` of
        orders 0..order, so it is positive semidefinite by construction: one
        jet per basis block and one whitening call for all orders.  At a
        probe that ``build_model`` watched at this order it returns a copy of
        the watched matrix.
        """
        watched = self._watched.get((complex(z), order))
        if watched is not None:
            return watched.copy()
        u, u_conj = self._whitened_jet(z, order)
        return np.pi * (u @ u_conj.T)


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


def _tail_change(model: KernelModel, z: complex, order: int, half: int) -> tuple[np.ndarray, float]:
    """Watched matrix at z, and its largest relative change since degree ``half``.

    On the diagonal route the degree-``half`` model is this model cut to the
    first ``half`` functions of each block (same centers, scales and norms),
    so the change is the part of ``pi U U^*`` from each block's rows
    ``half..2 half - 1``, relative to the diagonal of the watched matrix.
    """
    u, u_conj = model._whitened_jet(z, order)
    s = np.pi * (u @ u_conj.T)
    moved = np.zeros_like(s)
    for stop in np.cumsum([b.count for b in model.blocks]):
        rows = slice(stop - half, min(stop, u.shape[1]))
        moved += u[:, rows] @ u_conj[:, rows].T
    d = np.sqrt(np.abs(np.diag(s)))
    return s, float(np.max(np.pi * np.abs(moved) / np.outer(d, d)))


def build_model(
    domain: Domain,
    probes: np.ndarray | None = None,
    watch_order: int = 0,
    tol: float = 1e-8,
) -> KernelModel:
    """Build a kernel model, escalating the basis degree until it stops moving.

    Watches every entry of the order-``watch_order`` metric derivative matrix
    at the probe points; the degree doubles until the relative change between
    the models of consecutive degrees falls below ``tol``, and the finer model
    is kept.  The last change is recorded as ``eps_model``: downstream
    experiments treat it as the model's resolution floor.  The kept model
    keeps the matrices it watched, and ``metric_matrix`` at a probe returns a
    copy of them.

    On the diagonal route each step builds only the finer model: the coarser
    one is its first half per block, so the change is the exact tail of the
    watched matrices from those rows, and ``history`` lists each built degree
    with its change against half that degree.  The dense route builds every
    degree and compares consecutive models, so its ``history`` starts with
    the first degree and no change; its Gram and period check both use
    ``_gram_nodes`` nodes per curve, and ``meta["nodes"]`` records the count.
    The degree stops at 2^17 on the diagonal route and at 512 on the dense
    one, and the first comparison is against half the cap at most, so
    ``eps_model`` is finite.
    """
    if not 0.0 < tol < np.inf:
        raise ConfigError(f"tol must be positive and finite, got {tol!r}")
    center = rotation_center(domain)
    fast = center is not None
    if probes is None:
        probes = default_probes(domain)
    probes = np.asarray(probes, dtype=complex)
    max_degree = (1 << 17) if fast else 512
    degree = min(_initial_degree(domain, probes, watch_order, tol), max_degree // 2)
    if fast:
        degree *= 2

    history: list[tuple[int, float]] = []
    previous = None
    while True:
        blocks = build_blocks(domain, degree)
        if fast:
            diag = gram_diagonal(domain, blocks)
            spot_check_offdiagonal(domain, blocks, diag)
            fact = GramFactorization.from_diagonal(diag)
            residual = 0.0
            nodes = periods = None
        else:
            nodes = _gram_nodes(domain, blocks)
            gram, residual = gram_dense(domain, blocks, nodes)
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
        if fast:
            tails = [_tail_change(model, complex(p), watch_order, degree // 2) for p in probes]
            watched = [s for s, _ in tails]
            change = max((c for _, c in tails), default=0.0)
        else:
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
            model._watched = {(complex(p), watch_order): s for p, s in zip(probes, watched)}
            model.meta.update(
                {
                    "route": "diagonal" if fast else "dense",
                    "degree": degree,
                    "eps_model": change if np.isfinite(change) else float("nan"),
                    "converged": bool(converged),
                    "history": [[d, c if np.isfinite(c) else None] for d, c in history],
                    "nodes": nodes,
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
