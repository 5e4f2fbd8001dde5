"""Gaussian kernel, its derivative, and weighted empirical convolutions.

Two evaluation paths are provided:

- :func:`grid_density`: the one production deposit (fields, snapshots and
  the fixed-point map) on a whole uniform grid, built from per-offset
  ``bincount`` passes.  Its reduction order is fixed (offset-major, then a
  single pairwise sum), so results are bit-identical for any worker count.
- :func:`mollify` / :func:`mollify_grad`: dense point queries summing over
  particles in index order with a hard 8-bandwidth cutoff; the test oracle
  and the exact-history field reader.

Both paths skip contributions beyond 8 bandwidths, where the Gaussian
tail is below 1e-15 relative.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import Grid1D

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# relative truncation below 1e-15 beyond this many bandwidths
CUTOFF_BANDWIDTHS = 8.0

_QUERY_CHUNK = 256


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


def _mollify_sum(cloud: WeightedPointCloud, delta: float, query, n_total: int, grad: bool):
    if n_total <= 0:
        raise ValueError("divisor n_total must be positive")
    q = np.atleast_1d(np.asarray(query, dtype=float))
    out = np.zeros(q.shape)
    cutoff = CUTOFF_BANDWIDTHS * delta
    pos, w = cloud.positions, cloud.weights
    for start in range(0, q.size, _QUERY_CHUNK):
        qq = q[start : start + _QUERY_CHUNK, None]
        diff = qq - pos[None, :]
        vals = kernel_grad(diff, delta) if grad else kernel_value(diff, delta)
        vals = np.where(np.abs(diff) <= cutoff, vals, 0.0)
        out[start : start + _QUERY_CHUNK] = (vals * w[None, :]).sum(axis=1)
    out /= n_total
    if np.isscalar(query) or np.asarray(query).ndim == 0:
        return float(out[0])
    return out


def mollify(cloud: WeightedPointCloud, delta: float, query, n_total: int):
    """Weighted kernel sum (1/n_total) sum_i w_i K(query - x_i).

    The divisor is the ensemble size, passed explicitly because it may
    exceed the cloud length once dead particles are dropped.
    """
    return _mollify_sum(cloud, delta, query, n_total, grad=False)


def mollify_grad(cloud: WeightedPointCloud, delta: float, query, n_total: int):
    """Gradient counterpart of :func:`mollify`, using K' in place of K."""
    return _mollify_sum(cloud, delta, query, n_total, grad=True)


def grid_density(
    cloud: WeightedPointCloud,
    grid: Grid1D,
    delta: float,
    n_total: int,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the mollified density and its gradient at every grid node.

    Returns ``(u, du)`` with ``u[g] = mollify(cloud, delta, x_g, n_total)``
    up to the shared 8-bandwidth truncation.  Deterministic for any
    ``workers`` value: each kernel offset makes its own partial rows and
    the rows are added in offset order.
    """
    if n_total <= 0:
        raise ValueError("divisor n_total must be positive")
    m = grid.n_nodes
    h = grid.spacing
    pos, w = cloud.positions, cloud.weights
    if pos.size == 0:
        return np.zeros(m), np.zeros(m)

    # nearest node and sub-spacing residual per particle
    j = np.floor((pos - grid.lower) / h + 0.5).astype(np.int64)
    r = pos - (grid.lower + j * h)

    half = int(math.ceil(CUTOFF_BANDWIDTHS * delta / h + 0.5))
    offsets = np.arange(-half, half + 1)

    inv_two_d2 = 0.5 / (delta * delta)
    norm = 1.0 / (delta * SQRT_TWO_PI)

    def one_offset(k: int) -> tuple[np.ndarray, np.ndarray]:
        o = offsets[k]
        arg = o * h - r  # x_{j+o} - pos
        kv = norm * np.exp(-arg * arg * inv_two_d2)
        idx = j + o
        valid = (idx >= 0) & (idx < m)
        if not valid.all():
            idx = idx[valid]
            contrib = (w * kv)[valid]
            gcontrib = (w * kv * (-arg) / (delta * delta))[valid]
        else:
            contrib = w * kv
            gcontrib = contrib * (-arg) / (delta * delta)
        return (np.bincount(idx, weights=contrib, minlength=m),
                np.bincount(idx, weights=gcontrib, minlength=m))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(one_offset, range(offsets.size)))
    else:
        rows = map(one_offset, range(offsets.size))
    # running sums, not an (offsets, m) buffer: a fresh buffer of that size
    # per call makes the allocator return and refault its pages every step
    u, du = np.zeros(m), np.zeros(m)
    for row_u, row_g in rows:
        u += row_u
        du += row_g
    return u / n_total, du / n_total
