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
    A and G hold m node values, or (R, m) for a stack of R replicas: replica
    r is read at j + r*m of ``A.ravel()``, and its off-grid reads are
    counted apart."""

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

    def coords_at(self, x, offsets: np.ndarray | None = None) -> LerpCoords:
        """Coordinates of x into the flat node values; in a stack, ``offsets``
        holds r*m for each position of replica r."""
        coords = lerp_coords(self.grid, np.asarray(x, dtype=float))
        if offsets is not None:
            coords.j[...] += offsets
        return coords

    def args_at(self, coords: LerpCoords, gradient: bool = True, bounds=None) -> DriftArgs:
        """Piecewise-linear read of (A, G) at the :class:`LerpCoords` of
        :meth:`coords_at`; with ``gradient`` false only A is read and J is None.

        Queries beyond the grid return the boundary-node values and bump the
        out-of-domain counter once per read, per replica of a stack whose
        replica r holds the queries ``bounds[r]`` .. ``bounds[r+1] - 1``;
        positions are never clamped, so the dynamics continue off-grid.
        """
        j, frac, outside = coords
        if outside.any():
            self.out_of_domain = self.out_of_domain + count_by_row(outside, bounds)
        if gradient:
            return DriftArgs(*lerp(j, frac, self.A.ravel(), self.G.ravel()))
        return DriftArgs(lerp(j, frac, self.A.ravel())[0], None)


def count_by_row(flags: np.ndarray, bounds=None):
    """The number of true ``flags``: in all, or of each row r of the flags
    ``bounds[r]`` .. ``bounds[r+1] - 1`` when there are several rows."""
    if bounds is None or len(bounds) == 2:
        return np.count_nonzero(flags)
    return np.diff(np.concatenate(([0], np.cumsum(flags)))[bounds])


def accumulate_step(
    fields: AccumulatedFields,
    cloud: WeightedPointCloud,
    n_total,
    dt: float,
    bounds=None,
) -> np.ndarray:
    """Add one left-endpoint quadrature term of the cloud at the fields'
    bandwidth: A(x_g) += dt * u(x_g), G(x_g) += dt * u'(x_g).  ``fields``
    is updated in place; returns the cloud's density u at the nodes, so
    that a caller recording it need not deposit again.  The cloud is any
    that :func:`~sulfsim.kernel.grid_density` takes, a particle ensemble
    included; a stack's cloud comes with the replicas' ``bounds`` and
    divisors.
    """
    u, du = grid_density(cloud, fields.grid, fields.delta, n_total, bounds=bounds)
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
