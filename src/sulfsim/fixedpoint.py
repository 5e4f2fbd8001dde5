"""Picard iteration of the discounted-kernel map on a frozen path archive.

The map sends a candidate lattice function u to

    (Phi u)(t, y) = (1/N) sum_i K(y - X_t^i) exp(-lambda c0 dt
                     sum_{s<t} exp(-lambda dt sum_{r<s} u(r, X_s^i)))

with the inner sums read off the archived paths by linear interpolation
in space: one time prefix sum of u, then one read of row s at X_s, which
is O(SN) for S snapshots of N paths, plus one ``grid_density`` per output
row.  Iterating from u == 0 gives the constant-rate discount as the first
iterate; the distance trace records the empirical contraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Grid1D, PhysicalParams
from .fields import TrajectoryArchive, lerp, lerp_coords
from .kernel import WeightedPointCloud, grid_density


def inner_integral(u: np.ndarray, paths: np.ndarray, grid: Grid1D, dt: float) -> np.ndarray:
    """I[s, i] = dt * sum_{r<s} u(r, X_s^i) for lattice u and (S+1, N) paths."""
    prefix = np.zeros(u.shape)
    prefix[1:] = dt * np.cumsum(u[:-1], axis=0)
    j, frac = lerp_coords(grid, paths)[:2]
    j += grid.n_nodes * np.arange(len(paths))[:, None]  # row s of the flat lattice
    return lerp(j, frac, prefix.ravel())[0]


def apply_mkfk_map(
    u: np.ndarray,
    archive: TrajectoryArchive,
    grid: Grid1D,
    delta: float,
    params: PhysicalParams,
) -> np.ndarray:
    """One application of the discounted-kernel map to the lattice ``u``.

    ``u`` has shape (n_snapshots, n_nodes) over the archive's time lattice.
    The archive must hold full (never-killed) paths.
    """
    paths = np.stack(archive.positions)  # (S+1, N)
    n_times = len(paths)
    if u.shape != (n_times, grid.n_nodes):
        raise ValueError(
            f"lattice shape {u.shape} does not match archive times {n_times} "
            f"x grid nodes {grid.n_nodes}"
        )
    dt = archive.dt
    lam, c0 = params.lam, params.c0
    inner = inner_integral(u, paths, grid, dt)

    # discount D[t, i] = exp(-lambda c0 dt sum_{s<t} exp(-lambda I[s, i]))
    hazard = np.zeros(inner.shape)
    hazard[1:] = lam * c0 * dt * np.cumsum(np.exp(-lam * inner[:-1]), axis=0)
    discount = np.exp(-hazard)

    return np.stack([
        grid_density(WeightedPointCloud(x, w), grid, delta, archive.n_total)[0]
        for x, w in zip(paths, discount)
    ])


@dataclass
class PicardResult:
    fixed_point: np.ndarray
    distances: np.ndarray  # sup |u_{k+1} - u_k| per iteration
    ratios: np.ndarray  # distances[k] / distances[k-1]
    converged: bool
    iterations: int


def picard_solve(
    archive: TrajectoryArchive,
    grid: Grid1D,
    delta: float,
    params: PhysicalParams,
    max_iters: int = 50,
    tol: float = 1e-10,
) -> PicardResult:
    """Iterate the map from u_0 == 0 until the sup distance drops below tol.

    Non-convergence within ``max_iters`` is reported through the distance
    trace and the ``converged`` flag, not an exception.
    """
    if max_iters < 2:
        raise ValueError("max_iters must be at least 2")
    n_times = len(archive)
    u = np.zeros((n_times, grid.n_nodes))
    distances: list[float] = []
    for _ in range(max_iters):
        nxt = apply_mkfk_map(u, archive, grid, delta, params)
        d = float(np.max(np.abs(nxt - u)))
        distances.append(d)
        u = nxt
        if d <= tol:
            break
    dist = np.asarray(distances)
    ratios = np.full(dist.shape, np.nan)
    ratios[1:] = dist[1:] / np.where(dist[:-1] > 0, dist[:-1], np.nan)
    return PicardResult(
        fixed_point=u,
        distances=dist,
        ratios=ratios,
        converged=bool(dist[-1] <= tol),
        iterations=len(dist),
    )
