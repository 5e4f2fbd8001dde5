"""Path-dependent accumulated fields A(t,x) and G(t,x) on a grid.

A and G hold left-endpoint time quadratures of the mollified density and
its gradient.  The grid accumulator is the one bookkeeping the dynamics
read; the tests check it against the same sums evaluated from archived
snapshots with no spatial interpolation.  A read of the fields is
``fields.args_at(fields.coords_at(x))``: the coordinates of the positions
once, then the values at them.  :func:`lerp` is the one linear read of
node values, shared with the fixed-point map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import Grid1D
from .dynamics import DriftArgs
from .kernel import WeightedPointCloud, grid_density


@dataclass
class AccumulatedFields:
    """Grid samples of the running time integrals at bandwidth ``delta``.
    A and G hold m node values, or (R, m) for a stack of R replicas, whose
    row r is read at j + r*m of ``A.ravel()`` and counted off-grid apart."""

    grid: Grid1D
    delta: float
    A: np.ndarray = field(default=None)  # type: ignore[assignment]
    G: np.ndarray = field(default=None)  # type: ignore[assignment]
    out_of_domain: int | np.ndarray = 0  # interpolation queries beyond the grid

    def __post_init__(self):
        m = self.grid.n_nodes
        if self.A is None:
            self.A = np.zeros(m)
        if self.G is None:
            self.G = np.zeros(m)
        if self.A.shape[-1:] != (m,) or self.A.ndim > 2 or self.G.shape != self.A.shape:
            raise ValueError("A and G must have one entry per grid node")

    def coords_at(self, x) -> LerpCoords:
        """Coordinates of x, one row per row of A, into the flat node values."""
        coords = lerp_coords(self.grid, np.asarray(x, dtype=float))
        if self.A.size > self.grid.n_nodes:
            coords.j[...] += self.grid.n_nodes * np.arange(len(self.A))[:, None]
        return coords

    def args_at(self, coords: LerpCoords, gradient: bool = True) -> DriftArgs:
        """Piecewise-linear read of (A, G) at the :class:`LerpCoords` of
        :meth:`coords_at`; with ``gradient`` false only A is read and J is None.

        Queries beyond the grid return the boundary-node values and bump the
        out-of-domain counter (of each row of a stack), once per read;
        positions are never clamped, so the dynamics continue off-grid.
        """
        j, frac, outside = coords
        if outside.any():
            self.out_of_domain = self.out_of_domain + np.count_nonzero(outside, axis=-1)
        if gradient:
            return DriftArgs(*lerp(j, frac, self.A.ravel(), self.G.ravel()))
        return DriftArgs(lerp(j, frac, self.A.ravel())[0], None)


def accumulate_step(
    fields: AccumulatedFields,
    cloud: WeightedPointCloud,
    n_total: int,
    dt: float,
) -> np.ndarray:
    """Add one left-endpoint quadrature term of the cloud at the fields'
    bandwidth: A(x_g) += dt * u(x_g), G(x_g) += dt * u'(x_g).  ``fields``
    is updated in place; returns the cloud's density u at the nodes, so
    that a caller recording it need not deposit again.
    """
    u, du = grid_density(cloud, fields.grid, fields.delta, n_total)
    fields.A += dt * u
    fields.G += dt * du
    return u


class LerpCoords(NamedTuple):
    """Where positions sit on a grid: left node j, fraction in [0, 1] towards
    node j + 1, and which positions lie off the grid (read at the boundary)."""

    j: np.ndarray
    frac: np.ndarray
    outside: np.ndarray


def lerp_coords(grid: Grid1D, x) -> LerpCoords:
    """Grid coordinates of positions x, as arrays of at least one dimension;
    off-grid positions are clamped to read the boundary node."""
    m = grid.n_nodes
    pos = np.atleast_1d((x - grid.lower) / grid.spacing)  # updated in place below
    outside = (pos < 0.0) | (pos > m - 1)
    np.clip(pos, 0.0, m - 1, out=pos)
    j = pos.astype(np.int64)
    np.minimum(j, m - 2, out=j)
    pos -= j  # now the fraction
    return LerpCoords(j, pos, outside)


def lerp(j: np.ndarray, frac: np.ndarray, *values: np.ndarray) -> list[np.ndarray]:
    """Linear reads v[j] (1 - frac) + v[j + 1] frac at array coordinates, one
    per array v of 1-d node values.  j + 1 and 1 - frac are formed once for
    all of them; the 1 - frac buffer then takes each v[j + 1] frac in turn,
    so the reads hold no more arrays at once than separate reads did."""
    right, buf = j + 1, 1.0 - frac
    reads = [v[j] for v in values]
    for read in reads:
        read *= buf
    for read, v in zip(reads, values):
        np.take(v, right, out=buf, mode="clip")  # unbuffered; j + 1 is a node
        buf *= frac
        read += buf
    return reads
