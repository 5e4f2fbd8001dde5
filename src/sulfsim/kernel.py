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
the adds.  BLAS may run the product on several threads, but each node's
sum has a fixed order that does not depend on the thread count.

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
def _block_matrix(h: float, delta: float) -> tuple[np.ndarray, int]:
    """Read-only block-Toeplitz matrix of the stencils, and half.

    The matrix maps the moments of a block of _BLOCK cells, rows (r, p), to
    the span of q*_BLOCK nodes they reach, columns (node, u or u'), with
    q = ceil((_BLOCK + 2*half) / _BLOCK): row (r, p) holds the u and u'
    stencil rows p at nodes r..r+2*half.  It is stored as q panels of
    _BLOCK nodes each, shape (q, _BLOCK*R, 2*_BLOCK).
    """
    stencils = _stencils(h, delta)
    n_rows, width = stencils.shape[1:]
    q = -(-(_BLOCK + width - 1) // _BLOCK)
    mat = np.zeros((_BLOCK, n_rows, q * _BLOCK, 2))
    for r in range(_BLOCK):
        mat[r, :, r : r + width] = stencils.transpose(1, 2, 0)
    mat = mat.reshape(_BLOCK * n_rows, q, 2 * _BLOCK).transpose(1, 0, 2)
    mat = np.ascontiguousarray(mat)
    mat.flags.writeable = False
    return mat, width // 2


def grid_density(
    cloud: WeightedPointCloud,
    grid: Grid1D,
    delta: float,
    n_total: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the mollified density and its gradient at every grid node.

    Returns ``(u, du)`` with ``u[g] = (1/n_total) sum_i w_i K(x_g - x_i)``,
    and K' in place of K for ``du``, up to the 8-bandwidth truncation and a
    Taylor remainder below 1e-17 of the kernel's peak.  The divisor is the
    ensemble size, which exceeds the number of contributing particles once
    some have died.  The bincounts, the matrix product and the
    overlap-add run over the occupied blocks only: from the first to the
    last block of cells that holds a particle reaching the grid.
    """
    if n_total <= 0:
        raise ValueError("divisor n_total must be positive")
    m = grid.n_nodes
    h = grid.spacing
    mat, half = _block_matrix(h, delta)
    q, n_rows = mat.shape[0], mat.shape[1] // _BLOCK
    u, du = np.zeros(m), np.zeros(m)

    # nearest node j and scaled sub-spacing residual s = (x - x_j) / delta,
    # formed in the one buffer s; a particle reaches nodes j - half .. j + half
    pos, w = cloud.positions, cloud.weights
    if pos.size == 0:
        return u, du
    s = pos - grid.lower
    s /= h
    s += 0.5
    j = np.floor(s, out=s).astype(np.int64)
    np.subtract(pos, np.add(np.multiply(j, h, out=s), grid.lower, out=s), out=s)
    s /= delta
    j_min, j_max = int(j.min()), int(j.max())
    if j_min < -half or j_max >= m + half:
        reach = (j >= -half) & (j < m + half)
        j, s, w = j[reach], s[reach], w[reach]
        if j.size == 0:
            return u, du
        j_min, j_max = int(j.min()), int(j.max())
    first = max(j_min - half, 0)  # nodes first..last are reached
    last = min(j_max + half, m - 1)
    # cells are numbered j - first + half and grouped in blocks of _BLOCK from
    # cell 0; only blocks b0..b0 + n_blocks - 1, which hold particles, enter
    # the product, so each of them groups the same cells for any b0
    b0 = (j_min - first + half) // _BLOCK
    n_blocks = (j_max - first + half) // _BLOCK - b0 + 1
    cell = j  # j and term are updated in place, to keep a step's peak memory low
    cell -= first - half + b0 * _BLOCK

    # moment p of a cell: sum over its particles of w exp(-s^2/2) s^p
    term = -0.5 * s * s
    np.exp(term, out=term)
    term *= w
    moments = np.empty((n_blocks * _BLOCK, n_rows))
    for p in range(n_rows):
        if p:
            term *= s
        moments[:, p] = np.bincount(cell, weights=term, minlength=n_blocks * _BLOCK)

    # spans[k, b]: what the moments of block b give its k-th block of nodes;
    # the spans of neighbouring blocks overlap and are added for k = 0..q-1
    spans = moments.reshape(n_blocks, -1) @ mat
    nodes = np.zeros((n_blocks + q - 1, 2 * _BLOCK))
    for k in range(q):
        nodes[k : k + n_blocks] += spans[k]
    nodes = nodes.reshape(-1, 2)  # row i: (u, u') at node first - 2*half + b0*_BLOCK + i
    lo = 2 * half - b0 * _BLOCK
    u[first : last + 1], du[first : last + 1] = nodes[lo : lo + last - first + 1].T
    return u / n_total, du / n_total
