"""Gaussian kernel, its derivative, and weighted empirical convolutions.

Two evaluation paths are provided:

- :func:`grid_density`: the one production deposit (fields, snapshots and
  the fixed-point map) on a whole uniform grid: a moment deposit after
  Greengard & Strain, "The fast Gauss transform" (1991).  A particle at
  x = x_j + r, with x_j its nearest node and s = r/delta, gives node
  offset o (a = o*h/delta) K(o*h - r) = norm e^{-a^2/2} e^{-s^2/2} e^{as}.
  The Taylor series of e^{as} splits that into per-cell moments
  sum w e^{-s^2/2} s^p (one ``bincount`` each) convolved with fixed
  per-offset stencils, cached per (spacing, bandwidth), for u and u'.
  Single-threaded, with a fixed summation order.
- :func:`mollify` / :func:`mollify_grad`: dense point queries summing over
  particles in index order with a hard 8-bandwidth cutoff; the test oracle
  and the exact-history field reader.

Both paths skip contributions beyond 8 bandwidths, where the Gaussian
tail is below 1e-15 relative.
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


def _taylor_order(abs_a: np.ndarray, s_max: float) -> int:
    """Smallest order P whose Lagrange remainder of e^{as}, |s| <= s_max, is
    at most 1e-17 of the peak of K and of K' at every stencil point a."""
    x = abs_a * s_max
    envelope = np.exp(x - 0.5 * abs_a * abs_a) * np.maximum(1.0, (abs_a + s_max) * math.exp(0.5))
    remainder, order = envelope * x, 0
    while remainder.max() > 1e-17:
        order += 1
        remainder = remainder * x / (order + 1)
    return order


@functools.lru_cache(maxsize=16)
def _stencils(h: float, delta: float) -> np.ndarray:
    """Read-only (2, P+2, 2*half+1) stencils at offsets o = half..-half,
    reversed so that ``np.correlate`` applies them as a convolution.

    Row p holds the s^p coefficients, times e^{-a^2/2}, of norm e^{as}
    (for u) and of (norm/delta) (s - a) e^{as} (for u'), a = o*h/delta.
    """
    half = int(math.ceil(CUTOFF_BANDWIDTHS * delta / h + 0.5))
    a = np.arange(-half, half + 1) * (h / delta)
    order = _taylor_order(np.abs(a), 0.5 * h / delta)
    t = np.zeros((order + 4, a.size))  # t[p] = a^p / p!, and t[-1] = 0
    t[0] = 1.0
    for p in range(1, order + 3):
        t[p] = t[p - 1] * a / p
    gauss = np.exp(-0.5 * a * a) / (delta * SQRT_TWO_PI)
    p = np.arange(order + 2)
    out = np.stack([gauss * t[p], gauss / delta * (t[p - 1] - (p + 1)[:, None] * t[p + 1])])
    out = np.ascontiguousarray(out[..., ::-1])
    out.flags.writeable = False
    return out


def grid_density(
    cloud: WeightedPointCloud,
    grid: Grid1D,
    delta: float,
    n_total: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the mollified density and its gradient at every grid node.

    Returns ``(u, du)`` with ``u[g] = mollify(cloud, delta, x_g, n_total)``
    up to the shared 8-bandwidth truncation and a Taylor remainder below
    1e-17 of the kernel's peak.
    """
    if n_total <= 0:
        raise ValueError("divisor n_total must be positive")
    m = grid.n_nodes
    h = grid.spacing
    stencils = _stencils(h, delta)
    half = stencils.shape[2] // 2
    u, du = np.zeros(m), np.zeros(m)

    # nearest node j and scaled sub-spacing residual s = (x - x_j) / delta;
    # a particle reaches the nodes j - half .. j + half
    pos, w = cloud.positions, cloud.weights
    j = np.floor((pos - grid.lower) / h + 0.5).astype(np.int64)
    s = (pos - (grid.lower + j * h)) / delta
    reach = (j >= -half) & (j < m + half)
    if not reach.all():
        j, s, w = j[reach], s[reach], w[reach]
    if j.size == 0:
        return u, du
    first = max(int(j.min()) - half, 0)  # nodes first..last are reached
    last = min(int(j.max()) + half, m - 1)
    cell = j  # j and term are updated in place, to keep a step's peak memory low
    cell -= first - half
    n_cells = last - first + 1 + 2 * half

    # moment p of a cell: sum over its particles of w exp(-s^2/2) s^p
    term = -0.5 * s * s
    np.exp(term, out=term)
    term *= w
    u_reached, du_reached = u[first : last + 1], du[first : last + 1]
    for p, (stencil_u, stencil_du) in enumerate(zip(*stencils)):
        if p:
            term *= s
        moment = np.bincount(cell, weights=term, minlength=n_cells)
        u_reached += np.correlate(moment, stencil_u, "valid")
        du_reached += np.correlate(moment, stencil_du, "valid")
    return u / n_total, du / n_total
