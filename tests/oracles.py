"""Reference implementations the tests compare the production paths with.

- :func:`mollify` / :func:`mollify_grad`: dense point queries summing over
  particles in index order, with the same 8-bandwidth cutoff as
  :func:`sulfsim.kernel.grid_density`.
- :func:`write_paths_archive` / :func:`archive_paths`: an archive file
  written from given positions, and the (S, N) paths of an archive file
  read at once.
- :func:`exact_history_args`: the accumulated integrals (I, J) evaluated
  from stored snapshots with no spatial interpolation.
- :func:`accumulate_from_archive`: stored snapshots replayed through the
  grid accumulator.
- :func:`hold_fields_at_zero`: runs whose fields never accumulate, so the
  hazard rate stays lambda c0 and the drift vanishes.
- :func:`run_with_hazard_digests`: a run plus the sha256 of its hazards
  after every step.
- :func:`run_with_clouds`: a run plus its cloud at every step and at the
  end, in either mode.
- :func:`run_with_coupled_readout`: a feynman-kac run plus the killed
  interpretation read off its paths.
- :func:`inner_integral` / :func:`whole_lattice_map`: the discounted-kernel
  map evaluated on the whole (S, N) lattice at once, with ``np.cumsum``
  time prefix sums and one flat-lattice read.
- :func:`porosity` / :func:`drift_lipschitz_bound`: the porosity the drift
  is the log-gradient of, and the bound on |b| / |J| it implies.
- :func:`run_python`: a fresh interpreter that imports this checkout's
  ``sulfsim``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import sulfsim.particles
from sulfsim.config import Grid1D, PhysicalParams
from sulfsim.dynamics import DriftArgs
from sulfsim.fields import AccumulatedFields, accumulate_step, lerp, lerp_coords
from sulfsim.io import ARCHIVE_HEADER_BYTES, TrajectoryArchive, archive_writer, read_archive
from sulfsim.kernel import (
    CUTOFF_BANDWIDTHS,
    WeightedPointCloud,
    grid_density,
    kernel_grad,
    kernel_value,
)
from sulfsim.streams import draw_thresholds

_QUERY_CHUNK = 256


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


def write_paths_archive(path, paths, dt: float) -> TrajectoryArchive:
    """The archive file of ``paths`` (snapshot k is paths[k], N positions),
    written by the runs' own writer and read back."""
    paths = list(paths)
    with archive_writer(path, len(paths[0]), len(paths), dt) as write_row:
        for positions in paths:
            write_row(positions)
    return read_archive(path)


def archive_paths(archive: TrajectoryArchive) -> np.ndarray:
    """The (S, N) positions of an archive, read from its file at once."""
    payload = np.fromfile(archive.path, dtype="<f8", offset=ARCHIVE_HEADER_BYTES)
    return payload.reshape(len(archive), archive.n_total)


def exact_history_args(
    clouds: list[WeightedPointCloud],
    dt: float,
    x,
    delta: float,
    n_total: int,
    steps: int | None = None,
) -> DriftArgs:
    """Direct evaluation of the accumulated integrals from stored snapshots.

    I = dt * sum_{k < steps} mollify(clouds[k], x); same quadrature as the
    grid accumulator but with no spatial interpolation.  ``steps`` defaults
    to every stored snapshot.
    """
    if len(clouds) == 0:
        raise ValueError("no snapshots")
    if steps is None:
        steps = len(clouds)
    x = np.asarray(x, dtype=float)
    I = np.zeros(x.shape)
    J = np.zeros(x.shape)
    for cloud in clouds[:steps]:
        I += dt * np.asarray(mollify(cloud, delta, x, n_total))
        J += dt * np.asarray(mollify_grad(cloud, delta, x, n_total))
    if I.ndim == 0:
        return DriftArgs(float(I), float(J))
    return DriftArgs(I, J)


def accumulate_from_archive(
    clouds: list[WeightedPointCloud],
    dt: float,
    grid: Grid1D,
    delta: float,
    n_total: int,
    steps: int | None = None,
) -> AccumulatedFields:
    """Replay stored snapshots (the first ``steps``) through the grid accumulator."""
    fields = AccumulatedFields(grid=grid, delta=delta)
    for cloud in clouds[:steps]:
        accumulate_step(fields, cloud, n_total, dt)
    return fields


def hold_fields_at_zero(monkeypatch):
    """Make every accumulation of ``sulfsim.particles`` leave A and G
    unchanged and return None, so that each recorded cloud is deposited by
    the record itself: the fields stay at zero, the hazard rate at its t = 0
    value lambda c0, and the drift vanishes."""
    monkeypatch.setattr(sulfsim.particles, "accumulate_step", lambda *args, **kwargs: None)


def run_with_hazard_digests(monkeypatch, run, *args, **kwargs):
    """``run(*args, **kwargs)``, and the sha256 of the ensemble's hazards
    after each of its calls to ``sulfsim.particles._slice_step``."""
    digests: list[str] = []
    step = sulfsim.particles._slice_step

    def recorded(part, *a, **k):
        coords = step(part, *a, **k)
        digests.append(hashlib.sha256(part.hazards.tobytes()).hexdigest())
        return coords

    with monkeypatch.context() as m:
        m.setattr(sulfsim.particles, "_slice_step", recorded)
        out = run(*args, **kwargs)
    return out, digests


def run_with_clouds(monkeypatch, run, *args, **kwargs):
    """``run(*args, **kwargs)`` for one config, and copies of the cloud
    that each step hands to ``sulfsim.particles.accumulate_step``, followed
    by the final cloud, read off ``sim.ensemble``."""
    clouds: list[WeightedPointCloud] = []
    accumulate = sulfsim.particles.accumulate_step

    def recorded(fields, cloud, *a, **k):
        clouds.append(WeightedPointCloud(cloud.positions.copy(), cloud.weights.copy()))
        return accumulate(fields, cloud, *a, **k)

    with monkeypatch.context() as m:
        m.setattr(sulfsim.particles, "accumulate_step", recorded)
        sim = run(*args, **kwargs)
    clouds.append(sim.ensemble.cloud())
    return sim, clouds


def run_with_coupled_readout(monkeypatch, config, **options):
    """``run_simulation(config, **options)`` of a feynman-kac config, and the
    killed interpretation read off its paths at each recorded step: the
    alive fraction mean(Lambda < Z), with thresholds Z from the disjoint
    per-particle threshold streams, and the band 3 sqrt(mean(w (1 - w)) / N),
    w = exp(-Lambda).

    Conditionally on the paths the survival indicators are independent
    Bernoulli(w_i), which makes |mean weight - alive fraction| <= band the
    calibrated check.  The readout is taken from the hazards that each call
    of ``sulfsim.particles._slice_step`` starts from, and from the final
    ones; N <= ``SLICE_PARTICLES`` makes each call a whole step.  Two floats
    are kept per step.
    """
    n = config.particles
    assert config.mode == "feynman-kac" and n <= sulfsim.particles.SLICE_PARTICLES
    thresholds = draw_thresholds(config.seed, range(n))
    readout: list[tuple[float, float]] = []

    def read(hazards):
        w = np.exp(np.negative(hazards))
        readout.append((float(np.mean(hazards < thresholds)),
                        3.0 * np.sqrt(float(np.mean(w * (1.0 - w))) / n)))

    step = sulfsim.particles._slice_step

    def recorded(part, *a, **k):
        read(part.hazards)
        return step(part, *a, **k)

    with monkeypatch.context() as m:
        m.setattr(sulfsim.particles, "_slice_step", recorded)
        sim = sulfsim.particles.run_simulation(config, **options)
    read(sim.ensemble.hazards)
    alive, band = np.array(readout)[sim.steps_recorded].T
    return sim, alive, band


def inner_integral(u: np.ndarray, paths: np.ndarray, grid: Grid1D, dt: float) -> np.ndarray:
    """I[s, i] = dt * sum_{r<s} u(r, X_s^i) for lattice u and (S, N) paths."""
    prefix = np.zeros(u.shape)
    prefix[1:] = dt * np.cumsum(u[:-1], axis=0)
    j, frac = lerp_coords(grid, paths)[:2]
    j += grid.n_nodes * np.arange(len(paths))[:, None]  # row s of the flat lattice
    return lerp(j, frac, prefix.ravel())[0]


def whole_lattice_map(
    u: np.ndarray,
    archive: TrajectoryArchive,
    grid: Grid1D,
    delta: float,
    params: PhysicalParams,
) -> np.ndarray:
    """The discounted-kernel map of :func:`sulfsim.fixedpoint.apply_mkfk_map`
    with every (S, N) intermediate formed at once."""
    paths = archive_paths(archive)
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


def porosity(c, p: PhysicalParams):
    """Affine porosity phi(c) = phi0 + phi1 * c."""
    return p.phi0 + p.phi1 * np.asarray(c, dtype=float)


def drift_lipschitz_bound(p: PhysicalParams) -> float:
    """Upper bound on |b(I, J)| / |J|, uniform in I >= 0."""
    return abs(p.phi1) * p.lam * p.c0 / min(p.phi0, p.phi0 + p.phi1 * p.c0)


def run_python(args: list[str], cwd=None, blas_threads: int | None = None) -> str:
    """Standard output of ``python *args`` in a fresh interpreter that finds
    this checkout's ``sulfsim`` first; the run must exit 0.  ``blas_threads``
    pins the BLAS and OpenMP thread counts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(sulfsim.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])])
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(blas_threads)
    res = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return res.stdout
