"""Picard iteration of the discounted-kernel map on a frozen path archive.

The map sends a candidate lattice function u to

    (Phi u)(t, y) = (1/N) sum_i K(y - X_t^i) exp(-lambda c0 dt
                     sum_{s<t} exp(-lambda dt sum_{r<s} u(r, X_s^i)))

with the inner sums read off the archived paths by linear interpolation
in space.  The map streams over the time rows t in order, carrying two
running sums: sum_{r<t} u(r) on the lattice, and sum_{s<t} exp(-lambda
I(s, X_s^i)) per path.  Row t reads the first at X_t and deposits the
discounted cloud of X_t with one ``grid_density``, so one map is O(SN)
work for S snapshots of N paths.  The paths stay in the archive file, which
each map reads one row at a time into one (N,) buffer, so besides the
(S, m) lattices a map holds O(m + N) memory whatever S is.  Iterating from
u == 0 gives the constant-rate discount as the first iterate; the distance
trace records the empirical contraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Grid1D, PhysicalParams
from .fields import lerp, lerp_coords
from .io import TrajectoryArchive
from .kernel import WeightedPointCloud, grid_density


def apply_mkfk_map(
    u: np.ndarray,
    archive: TrajectoryArchive,
    grid: Grid1D,
    delta: float,
    params: PhysicalParams,
) -> np.ndarray:
    """One application of the discounted-kernel map to the lattice ``u``.

    ``u`` has shape (n_snapshots, n_nodes) over the archive's time lattice,
    whose paths are the never-killed ones of a feynman-kac run.
    """
    n_times = len(archive)
    if u.shape != (n_times, grid.n_nodes):
        raise ValueError(
            f"lattice shape {u.shape} does not match archive times {n_times} "
            f"x grid nodes {grid.n_nodes}"
        )
    dt = archive.dt
    lam, c0 = params.lam, params.c0
    u_sum = np.zeros(grid.n_nodes)  # sum_{r<t} u[r]
    e_sum = np.zeros(archive.n_total)  # sum_{s<t} exp(-lambda I[s])
    out = np.empty(u.shape)
    for t, x in enumerate(archive.positions):
        # discount exp(-lambda c0 dt sum_{s<t} exp(-lambda I[s]))
        discount = lam * c0 * dt * e_sum
        np.exp(-discount, out=discount)
        out[t] = grid_density(WeightedPointCloud.unchecked(x, discount), grid, delta,
                              archive.n_total)[0]
        if t + 1 < n_times:  # I[t] = dt sum_{r<t} u(r, X_t)
            j, frac = lerp_coords(grid, x)[:2]
            inner = lerp(j, frac, dt * u_sum)[0]
            e_sum += np.exp(-lam * inner)
            u_sum += u[t]
    return out


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
