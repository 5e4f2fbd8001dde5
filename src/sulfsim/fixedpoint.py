"""Picard iteration of the discounted-kernel map on a frozen path archive.

The map sends a candidate lattice function u to

    (Phi u)(t, y) = (1/N) sum_i K(y - X_t^i) exp(-lambda c0 dt
                     sum_{s<t} exp(-lambda dt sum_{r<s} u(r, X_s^i)))

with the inner sums read off the archived paths by linear interpolation
in space.  The map goes over the time rows t in order, carrying two
running sums: sum_{r<t} u(r) on the lattice, and sum_{s<t} exp(-lambda
I(s, X_s^i)) per path.  Row t reads the first at X_t and deposits the
discounted cloud of X_t, so one map is O(SN) work for S snapshots of N
paths.  The paths stay in the archive file, which each map reads in stacks
of up to 2^13 positions (``TrajectoryArchive.stacks``: several snapshots of
a small ensemble, one of a large one) into one reused buffer.  Per stack
the map adds the running sums row by row, as a map of one row at a time
would, reads the inner sums of all of its rows with one interpolation and
deposits them, laid end to end, with one ``grid_density`` of u alone, whose
rows are bit for bit their solo deposits.  So besides the (S, m) lattices a
map holds O(m + N) memory whatever S is.  Iterating from u == 0 gives the
constant-rate discount as the first iterate; the distance trace records
the empirical contraction.
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
    m, n = grid.n_nodes, archive.n_total
    u_sum = np.zeros(m)  # sum_{r<t} u[r]
    e_sum = np.zeros(n)  # sum_{s<t} exp(-lambda I[s])
    out = np.empty(u.shape)
    t = 0  # the stack's first row
    for x in archive.stacks:
        rows = len(x)
        reads = min(rows, n_times - 1 - t)  # the last row's I[t] is never used
        # I[t + k] = dt sum_{r<t+k} u(r, X_{t+k}): row k of the stacked lattice
        # is read at j + k*m of its flat values
        lattice = np.empty((reads, m))
        for k in range(reads):
            lattice[k] = u_sum
            u_sum += u[t + k]
        lattice *= dt
        j, frac = lerp_coords(grid, x[:reads])[:2]
        j += m * np.arange(reads)[:, None]
        e = lerp(j, frac, lattice.ravel())[0]
        e *= -lam
        np.exp(e, out=e)
        # discount exp(-lambda c0 dt sum_{s<t+k} exp(-lambda I[s])) of row k
        discount = np.empty((rows, n))
        for k in range(rows):
            discount[k] = e_sum
            if k < reads:
                e_sum += e[k]
        discount *= lam * c0 * dt
        np.negative(discount, out=discount)
        np.exp(discount, out=discount)
        cloud = WeightedPointCloud.unchecked(x.ravel(), discount.ravel())
        out[t : t + rows] = grid_density(cloud, grid, delta, [n] * rows, gradient=False,
                                         bounds=np.arange(rows + 1) * n)[0]
        t += rows
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
