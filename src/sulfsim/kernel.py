"""Gaussian kernel, its derivative, and the weighted empirical convolution.

:func:`grid_density` is the one deposit (fields, snapshots and the
fixed-point map) on a whole uniform grid: a moment deposit after
Greengard & Strain, "The fast Gauss transform" (1991).  A particle at
x = x_j + r, with x_j its nearest node and s = r/delta, gives node
offset o (a = o*h/delta) K(o*h - r) = norm e^{-a^2/2} e^{-s^2/2} e^{as}.
The Taylor series of e^{as} splits that into per-cell moments
sum w e^{-s^2/2} s^p (one ``bincount`` each) convolved with fixed
per-offset stencils for u and u'.  The convolution is one matrix
product: the moments of each block of ``_BLOCK`` cells times a
block-Toeplitz matrix of the stencils, cached per (spacing, bandwidth),
give the nodes the block reaches, and the overlapping spans of
neighbouring blocks are then added in a fixed order.  Only the blocks
from the first to the last that holds a particle enter the product and
the adds.  A deposit of u alone (the fixed-point map) multiplies by a
matrix of the u columns only, which halves the product and the adds;
each u sum keeps its order, so u keeps its bits.
BLAS may run the product on several threads, but each node's sum has a
fixed order that does not depend on the thread count.  A cloud may hold
several rows end to end, row r in columns ``bounds[r]`` .. ``bounds[r+1] - 1``
with its own divisor: the rows share the bincounts and the product, their
blocks laid back to back; each row's overlap-add reads its own blocks, so
each row equals its 1-d deposit.

The passes over the particles run over at most ``SLICE_COLUMNS`` = 2^14
columns, so their temporaries stay in cache.  Each pass takes the weights of
its own columns from the cloud (:meth:`WeightedPointCloud.cloud`): a particle
ensemble forms them there from its hazards, so only its state spans it.
Each pass adds its bincounts to the moments; a cell sums its
row's particles pass by pass in column order, and a pass cuts a row only
where its solo deposit does, at multiples of ``SLICE_COLUMNS`` of the row's
own columns, so the rows keep their 1-d bits; short rows share a pass.  The
nearest node is monotone in the position, so a row's range of nodes comes
from its smallest and largest positions, taken for all rows with one
reduction each; only a row with particles beyond the kernel's reach takes
one more pass over its slices, for the range of the particles that reach
the grid.

Contributions beyond 8 bandwidths, where the Gaussian tail is below
1e-15 relative, are skipped.  The tests compare the deposit with a dense
sum over particles that has the same cutoff.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import Grid1D

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# relative truncation below 1e-15 beyond this many bandwidths
CUTOFF_BANDWIDTHS = 8.0

# cells per block of the deposit's matrix product
_BLOCK = 16

# columns per pass of the deposit over the particles, and per slice of a row:
# a cell sums its row's particles slice by slice, in column order, so a pass
# may cut a row of a stack only where its solo deposit does
SLICE_COLUMNS = 1 << 14

# the highest Taylor order a stencil may need; spacing/bandwidth = 10 needs 200
_MAX_ORDER = 256


@dataclass
class WeightedPointCloud:
    """Particle positions with weights in [0, 1].

    Dead particles are represented with weight 0, which implements the
    cemetery convention (they contribute nothing to any density sum).
    """

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.positions.shape != self.weights.shape or self.positions.ndim != 1:
            raise ValueError("positions and weights must be 1-d arrays of equal length")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions must be finite")
        if self.weights.size and (self.weights.min() < 0.0 or self.weights.max() > 1.0):
            raise ValueError("weights must lie in [0, 1]")

    @classmethod
    def unchecked(cls, positions: np.ndarray, weights: np.ndarray) -> WeightedPointCloud:
        """A cloud of float arrays whose caller guarantees what
        ``__post_init__`` checks; nothing is copied or validated."""
        cloud = object.__new__(cls)
        cloud.positions, cloud.weights = positions, weights
        return cloud

    def __len__(self) -> int:
        return self.positions.size

    def cloud(self, lo: int = 0, hi: int | None = None) -> WeightedPointCloud:
        """Columns lo .. hi - 1 as a cloud of views.  The deposit asks this of
        the cloud it is given, so a :class:`~sulfsim.particles.ParticleEnsemble`,
        whose ``cloud`` forms the weights of those columns only, serves too."""
        return WeightedPointCloud.unchecked(self.positions[lo:hi], self.weights[lo:hi])


def kernel_value(x, delta: float):
    """Gaussian kernel K(x) = exp(-x^2 / (2 delta^2)) / (delta sqrt(2 pi))."""
    x = np.asarray(x, dtype=float)
    z = x / delta
    return np.exp(-0.5 * z * z) / (delta * SQRT_TWO_PI)


def kernel_grad(x, delta: float):
    """Kernel derivative K'(x) = -x / delta^2 * K(x)."""
    x = np.asarray(x, dtype=float)
    return -x / (delta * delta) * kernel_value(x, delta)


def _taylor_order(abs_a: np.ndarray, s_max: float) -> int:
    """Smallest order P whose Lagrange remainder of e^{as}, |s| <= s_max, is
    at most 1e-17 of the peak of K and of K' at every stencil point a;
    ValueError when no order up to _MAX_ORDER is."""
    x = abs_a * s_max
    envelope = np.exp(x - 0.5 * abs_a * abs_a) * np.maximum(1.0, (abs_a + s_max) * math.exp(0.5))
    remainder, order = envelope * x, 0
    while not remainder.max() <= 1e-17:  # an inf or NaN remainder runs into the cap
        if order == _MAX_ORDER:
            raise ValueError(f"spacing/bandwidth = {2.0 * s_max:g} needs a Taylor order "
                             f"above {_MAX_ORDER}")
        order += 1
        remainder = remainder * x / (order + 1)
    return order


def _stencils(h: float, delta: float) -> np.ndarray:
    """(2, R, 2*half+1) stencils at offsets o = -half..half.

    Row p holds the s^p coefficients, times e^{-a^2/2}, of norm e^{as}
    (for u) and of (norm/delta) (s - a) e^{as} (for u'), a = o*h/delta.
    R is the fewest rows whose dropped tail, summed over p at the largest
    |s|, stays at most 1e-17 of the peak of K and of K' at every offset.
    """
    half = int(math.ceil(CUTOFF_BANDWIDTHS * delta / h + 0.5))
    a = np.arange(-half, half + 1) * (h / delta)
    s_max = 0.5 * h / delta
    order = _taylor_order(np.abs(a), s_max)
    t = np.zeros((order + 4, a.size))  # t[p] = a^p / p!, and t[-1] = 0
    t[0] = 1.0
    for p in range(1, order + 3):
        t[p] = t[p - 1] * a / p
    gauss = np.exp(-0.5 * a * a) / (delta * SQRT_TWO_PI)
    p = np.arange(order + 2)
    out = np.stack([gauss * t[p], gauss / delta * (t[p - 1] - (p + 1)[:, None] * t[p + 1])])
    peak = np.array([1.0, math.exp(-0.5) / delta]) / (delta * SQRT_TWO_PI)
    term = np.abs(out) * (s_max**p)[:, None] / peak[:, None, None]
    tail = np.cumsum(term[:, ::-1], axis=1)[:, ::-1].max(axis=(0, 2))  # tail[R] = sum_{p>=R}
    if not np.isfinite(tail).all():
        raise ValueError(f"the Taylor tail overflows at spacing/bandwidth = {h / delta:g}")
    return out[:, : np.count_nonzero(tail > 1e-17)]


@functools.lru_cache(maxsize=16)
def _block_matrix(h: float, delta: float, gradient: bool = True) -> tuple[np.ndarray, int]:
    """Read-only block-Toeplitz matrix of the stencils, and half.

    The matrix maps the moments of a block of _BLOCK cells, rows (r, p), to
    the span of q*_BLOCK nodes they reach, columns (node, u or u'), with
    q = ceil((_BLOCK + 2*half) / _BLOCK): row (r, p) holds the u and u'
    stencil rows p at nodes r..r+2*half.  It is stored as q panels of
    _BLOCK nodes each, shape (q, _BLOCK*R, 2*_BLOCK).  Without ``gradient``
    it holds the u columns alone, shape (q, _BLOCK*R, _BLOCK).
    """
    stencils = _stencils(h, delta)[: 2 if gradient else 1]
    n_values, n_rows, width = stencils.shape
    q = -(-(_BLOCK + width - 1) // _BLOCK)
    mat = np.zeros((_BLOCK, n_rows, q * _BLOCK, n_values))
    for r in range(_BLOCK):
        mat[r, :, r : r + width] = stencils.transpose(1, 2, 0)
    mat = mat.reshape(_BLOCK * n_rows, q, n_values * _BLOCK).transpose(1, 0, 2)
    mat = np.ascontiguousarray(mat)
    mat.flags.writeable = False
    return mat, width // 2


@functools.lru_cache(maxsize=16)
def column_passes(bounds: tuple[int, ...],
                  columns: int) -> tuple[tuple[int, int, int, np.ndarray | None], ...]:
    """The deposit's passes over a cloud of rows laid out by ``bounds``, which
    the particle sweep's slices follow: (lo, hi, first row, row lengths) of
    consecutive column ranges.  Each row is cut into slices of ``columns`` of
    its own columns, as its solo deposit is; a pass packs whole slices, in
    order, up to ``columns`` columns.  The row lengths of a pass are None
    when it holds one slice."""
    slices = [(r, lo, min(lo + columns, bounds[r + 1]))
              for r in range(len(bounds) - 1) for lo in range(bounds[r], bounds[r + 1], columns)]
    passes: list[list[tuple[int, int, int]]] = []
    for piece in slices:
        if passes and piece[2] - passes[-1][0][1] <= columns:
            passes[-1].append(piece)
        else:
            passes.append([piece])
    out = []
    for p in passes:
        lengths = None
        if len(p) > 1:  # the empty rows among the pass's rows hold no columns
            lengths = np.zeros(p[-1][0] - p[0][0] + 1, dtype=np.int64)
            for r, lo, hi in p:
                lengths[r - p[0][0]] = hi - lo
            lengths.flags.writeable = False  # cached: every caller gets this array
        out.append((p[0][1], p[-1][2], p[0][0], lengths))
    return tuple(out)


def grid_density(
    cloud: WeightedPointCloud,
    grid: Grid1D,
    delta: float,
    n_total,
    gradient: bool = True,
    bounds=None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Evaluate the mollified density and its gradient at every grid node.

    Returns ``(u, du)`` with ``u[g] = (1/n_total) sum_i w_i K(x_g - x_i)``,
    and K' in place of K for ``du``, up to the 8-bandwidth truncation and a
    Taylor remainder below 1e-17 of the kernel's peak.  With ``gradient``
    false, du is None and the matrix product and the overlap-add carry the
    u columns alone, which halves them; u keeps its bits.  The divisor is the
    ensemble size, which exceeds the number of contributing particles once
    some have died.  The bincounts, the matrix product and the
    overlap-add run over the occupied blocks only: from the first to the
    last block of cells that holds a particle reaching the grid.

    With ``bounds`` (R + 1 increasing offsets from 0 to the cloud's size)
    the cloud holds R rows, row r its particles ``bounds[r]`` ..
    ``bounds[r+1] - 1``, and ``n_total`` holds one divisor per row; it gives
    (R, m) arrays, row r the deposit of row r alone: each row keeps its own
    first node, block phase and reach, its blocks follow the last row's in
    the product, and its overlap-add reads its own blocks only.

    ``cloud`` is a :class:`WeightedPointCloud`, or anything else with its
    ``positions`` and its :meth:`~WeightedPointCloud.cloud` of columns, such
    as a particle ensemble; each pass reads the weights of its own columns.
    """
    pos = cloud.positions
    stacked = bounds is not None
    bounds = tuple(np.asarray(bounds).tolist()) if stacked else (0, pos.size)
    divisors = np.asarray(n_total).tolist() if stacked else [n_total]
    if min(divisors, default=1) <= 0:
        raise ValueError("divisor n_total must be positive")
    if len(divisors) != len(bounds) - 1 or bounds[0] != 0 or bounds[-1] != pos.size:
        raise ValueError("bounds must cut the cloud into rows, with one divisor each")
    m = grid.n_nodes
    h = grid.spacing
    mat, half = _block_matrix(h, delta, gradient)
    q, n_rows, width = mat.shape[0], mat.shape[1] // _BLOCK, mat.shape[2] // _BLOCK
    u = np.zeros((len(divisors), m))
    du = np.zeros((len(divisors), m)) if gradient else None
    out = (u, du) if stacked else (u[0], du[0] if gradient else None)  # filled in place below
    filled = [r for r in range(len(divisors)) if bounds[r + 1] > bounds[r]]
    if not filled:
        return out

    def nearest(x):
        # nearest node j = floor((x - lower)/h + 0.5) of positions x, and the
        # buffer it was formed in; a particle reaches nodes j - half .. j + half
        buf = x - grid.lower
        buf /= h
        buf += 0.5
        return np.floor(buf, out=buf).astype(np.int64), buf

    # j is monotone in x, so a row's nodes run from j(min x) to j(max x), here
    # formed by the same operations on Python floats; rows with particles out
    # of reach take one more pass over their slices for the range of those
    # that reach, and a row that reaches no node, or holds none, gets no blocks
    j_min, j_max = {}, {}
    starts = [bounds[r] for r in filled]
    for ext, ufunc in ((j_min, np.minimum), (j_max, np.maximum)):
        for r, x in zip(filled, ufunc.reduceat(pos, starts).tolist()):
            ext[r] = math.floor((x - grid.lower) / h + 0.5)
    clipped = [r for r in filled if j_min[r] < -half or j_max[r] >= m + half]
    for r in clipped:
        lo_j, hi_j = m + half, -half - 1
        for lo in range(bounds[r], bounds[r + 1], SLICE_COLUMNS):
            j = nearest(pos[lo : min(lo + SLICE_COLUMNS, bounds[r + 1])])[0]
            reach = (j >= -half) & (j < m + half)
            lo_j = min(lo_j, int(np.where(reach, j, m + half).min()))
            hi_j = max(hi_j, int(np.where(reach, j, -half - 1).max()))
        j_min[r], j_max[r] = lo_j, hi_j
    # a row reaches nodes first..last; its cells are numbered j - first + half
    # and grouped in blocks of _BLOCK from cell 0; only its blocks b0..b0 +
    # n_blocks - 1, which hold particles, enter at block ``start`` of the
    # product, right after the blocks of the row before
    rows, shift, start = [], np.zeros(len(divisors), dtype=np.int64), 0
    block_at = []  # each row's first block in the product, then the end
    for r in range(len(divisors)):
        block_at.append(start)
        if r not in j_min:  # it holds no particle
            continue
        first, last = max(j_min[r] - half, 0), min(j_max[r] + half, m - 1)
        b0 = (j_min[r] - first + half) // _BLOCK
        n_blocks = (j_max[r] - first + half) // _BLOCK - b0 + 1
        shift[r] = first - half + (b0 - start) * _BLOCK
        if n_blocks > 0:  # node row 2*half - b0*_BLOCK of the row's add is node first
            rows.append((r, first, last, start, n_blocks, 2 * half - b0 * _BLOCK))
            start += n_blocks
    block_at.append(start)
    if not rows:
        return out
    # at least two blocks: numpy takes a one-row product as a vector product,
    # which sums in another order than the matrix product of more rows
    total = max(start, 2)

    # moment p of a cell: sum over its particles of w exp(-s^2/2) s^p, with
    # s = (x - x_j) / delta formed in j's buffer; each pass adds its bincounts,
    # over the cells of its own rows only, to moments that start at +0.0,
    # which adding leaves every sum's bits as they are
    moments = np.zeros((total * _BLOCK, n_rows))
    for lo, hi, r0, lengths in column_passes(bounds, SLICE_COLUMNS):
        r1 = r0 + (1 if lengths is None else len(lengths))
        c0, c1 = block_at[r0] * _BLOCK, block_at[r1] * _BLOCK
        x = pos[lo:hi]
        cell, s = nearest(x)
        np.subtract(x, np.add(np.multiply(cell, h, out=s), grid.lower, out=s), out=s)
        s /= delta
        reach = (cell >= -half) & (cell < m + half) if clipped else None
        cell -= shift[r0] + c0 if lengths is None else np.repeat(shift[r0:r1] + c0, lengths)
        ws = cloud.cloud(lo, hi).weights
        if reach is not None:
            cell, s, ws = cell[reach], s[reach], ws[reach]
        term = -0.5 * s * s
        np.exp(term, out=term)
        term *= ws
        for p in range(n_rows):
            if p:
                term *= s
            counts = np.bincount(cell, weights=term, minlength=c1 - c0)
            moments[c0:c1, p] += counts

    # spans[k, b]: what the moments of block b give its k-th block of nodes,
    # ``width`` values (u, or u and u') per node; the spans of a row's
    # neighbouring blocks overlap and are added for k = 0..q-1, row by row;
    # the moments go once multiplied, so that they do not add to the adds'
    spans = moments.reshape(total, -1) @ mat
    del moments
    for r, first, last, b, n_blocks, lo in rows:
        nodes = np.zeros((n_blocks + q - 1, width * _BLOCK))
        for k in range(q):
            nodes[k : k + n_blocks] += spans[k, b : b + n_blocks]
        nodes = nodes.reshape(-1, width) / divisors[r]
        for values, col in zip((u, du), nodes[lo : lo + last - first + 1].T):
            values[r, first : last + 1] = col
    return out
