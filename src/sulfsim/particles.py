"""Interacting particle engine.

Both reaction mechanisms share the same Euler-Maruyama dynamics with the
path-dependent drift; they differ in how the reaction enters:

- ``feynman-kac``: every particle survives and carries the discount
  weight exp(-Lambda_i), where Lambda_i is its cumulative hazard.
- ``killed``: particle i dies once Lambda_i reaches an independent
  Exp(1) threshold Z_i; dead particles keep weight 0 in every density
  sum and step with zero increments, so they freeze but still consume
  their noise draws: runs of the two modes stay pathwise coupled.

Per-step order: build the mode's cloud from the state at the step start,
accumulate it into the fields (a recorded step keeps that deposit for its
snapshot), draw the step's noise for the whole ensemble, then sweep once
over slices of at most ``SLICE_PARTICLES`` particles, so that a slice's
temporaries stay in cache whatever N is.  One function steps a slice
(:func:`_slice_step`): it reads (I, J) at X_k, takes the Euler-Maruyama
step with the slice's columns of the noise, checks that the positions are
finite, reads I at X_{k+1}, and updates the hazards.  Every read is
``fields.args_at`` at the grid coordinates of ``fields.coords_at``, clamped
at I >= 0, and feeds the unchecked :func:`~sulfsim.dynamics.drift_b` and
:func:`~sulfsim.dynamics.reaction_rate`.  When one slice
holds the whole ensemble, the grid coordinates of X_{k+1} it returns serve
the next step's drift; otherwise each slice computes those of X_k again
and no full-length coordinate array outlives a step.  Both modes step the
same full-length arrays, and every element goes through the same
operations whatever the slicing.  Each read counts the off-grid
queries and negative-I clamps of alive particles only.  A non-finite
position ends the run once the sweep is over, naming every such particle.

:func:`run_simulations`, the one stepping loop, steps replicas that differ
in seed, mode and ensemble size as one ensemble of 1-d arrays, replica r in
columns ``bounds[r]`` .. ``bounds[r+1] - 1``: one pass of array operations
per step for all of them, replicas kept apart by the deposit and the field
reads, one draw per seed, and each replica's outputs bit for bit its solo
run's.  :func:`run_simulation` is one run of it.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, SimConfig, validate_config
from .dynamics import drift_b, reaction_rate
from .fields import AccumulatedFields, accumulate_step, count_by_row
from .initial import transform_uniforms
from .io import archive_writer
from .kernel import WeightedPointCloud, grid_density
from .streams import ParticleStreams, draw_thresholds

# particles per slice of a step's sweep and of the initial transform: the
# slice's dozen float64 temporaries (2^14 * 8 B = 128 KiB each) stay within
# a 2 MiB L2 cache
SLICE_PARTICLES = 1 << 14


class NonFiniteStateError(RuntimeError):
    """A particle position became non-finite; carries step and indices."""

    def __init__(self, step: int, indices: np.ndarray):
        self.step = int(step)
        self.indices = np.asarray(indices)
        super().__init__(
            f"non-finite particle state at step {self.step}, "
            f"particle indices {self.indices[:8].tolist()}"
        )


@dataclass
class ParticleEnsemble:
    """R replicas end to end in 1-d arrays: replica r owns the columns
    ``bounds[r]`` .. ``bounds[r+1] - 1``, and ``killed[r]`` flags its mode.
    One run is R = 1.  ``thresholds`` is None exactly when none is killed;
    else a feynman-kac replica has thresholds +inf, so it stays alive.  The
    weights and the alive mask are read off the hazards."""

    positions: np.ndarray
    hazards: np.ndarray
    thresholds: np.ndarray | None
    killed: np.ndarray
    bounds: np.ndarray

    @classmethod
    def stack(cls, members: list[ParticleEnsemble]) -> ParticleEnsemble:
        """The ensemble whose replicas are those of ``members``, in order;
        one member is returned as it is, not copied."""
        if len(members) == 1:
            return members[0]
        killed = np.concatenate([e.killed for e in members])
        thresholds = np.concatenate([np.full(e.positions.shape, np.inf) if e.thresholds is None
                                     else e.thresholds for e in members]) if killed.any() else None
        bounds = np.cumsum([0] + [e.positions.size for e in members])
        return cls(np.concatenate([e.positions for e in members]),
                   np.concatenate([e.hazards for e in members]), thresholds, killed, bounds)

    def head(self, n: int, killed: bool) -> ParticleEnsemble:
        """The first n particles of a one-replica ensemble as one replica of
        mode ``killed``, as views; a feynman-kac replica keeps no thresholds."""
        return ParticleEnsemble(self.positions[:n], self.hazards[:n],
                                self.thresholds[:n] if killed else None,
                                np.array([killed]), np.array([0, n]))

    def row(self, r: int) -> ParticleEnsemble:
        """Replica r, as views of its columns."""
        lo, hi = self.bounds[r : r + 2].tolist()
        return ParticleEnsemble(self.positions[lo:hi], self.hazards[lo:hi],
                                self.thresholds[lo:hi] if self.killed[r] else None,
                                self.killed[r : r + 1], np.array([0, hi - lo]))

    def columns(self, lo: int, hi: int) -> ParticleEnsemble:
        """The particles in columns lo .. hi - 1, as views; replica r holds
        its columns among them, none when it lies outside."""
        return ParticleEnsemble(self.positions[lo:hi], self.hazards[lo:hi],
                                None if self.thresholds is None else self.thresholds[lo:hi],
                                self.killed, np.clip(self.bounds - lo, 0, hi - lo))

    @property
    def weights(self) -> np.ndarray:
        """The discount weights exp(-Lambda), a new array."""
        weights = np.negative(self.hazards)
        return np.exp(weights, out=weights)

    @property
    def alive(self) -> np.ndarray:
        """Lambda < Z, a new array; Z is +inf without thresholds, as in a feynman-kac row."""
        return self.hazards < (np.inf if self.thresholds is None else self.thresholds)

    def cloud(self) -> WeightedPointCloud:
        """The density cloud of each replica's mode at the current state.

        Feynman-Kac: every particle with its discount weight.  Killed:
        surviving particles with weight 1; the dead carry weight 0, which
        is the cemetery convention (they drop out of every sum) while the
        divisor stays the full ensemble size.  Each run of replicas of one
        mode computes its own weights only.  The arrays are not checked
        again: the initial positions are finite draws, :func:`_slice_step`
        checks every step's, and the weights are exp(-hazard) or 0 and 1.
        """
        weights = np.empty(self.hazards.shape)
        killed, bounds = self.killed.tolist(), self.bounds.tolist()
        first = 0
        for r in range(1, len(killed) + 1):
            if r < len(killed) and killed[r] == killed[first]:
                continue
            cols = slice(bounds[first], bounds[r])
            if killed[first]:
                np.less(self.hazards[cols], self.thresholds[cols], out=weights[cols])
            else:
                np.exp(np.negative(self.hazards[cols], out=weights[cols]), out=weights[cols])
            first = r
        return WeightedPointCloud.unchecked(self.positions, weights)


def init_ensemble(config: SimConfig, streams: ParticleStreams | None = None) -> ParticleEnsemble:
    """Draw the initial ensemble from per-particle streams.

    Positions are i.i.d. rho_0 (one uniform per particle through the
    inverse CDF); hazards start at 0; killed mode draws
    Exp(1) thresholds from streams disjoint from position/noise streams.
    The ensemble has one particle per stream of ``streams``, which by
    default are the config's N.
    """
    config = validate_config(config.with_grid())
    if streams is None:
        streams = ParticleStreams(config.seed, config.particles)
    positions = streams.initial_uniforms()  # transformed in place, a slice at a time
    for lo in range(0, positions.size, SLICE_PARTICLES):
        cols = slice(lo, lo + SLICE_PARTICLES)
        positions[cols] = transform_uniforms(config.initial, positions[cols])
    thresholds = None
    if config.mode == "killed":
        thresholds = draw_thresholds(config.seed, streams.indices)
    return ParticleEnsemble(positions, np.zeros(positions.size), thresholds,
                            np.array([config.mode == "killed"]), np.array([0, positions.size]))


def _slice_step(part: ParticleEnsemble, fields, noise: np.ndarray, dt: float, params,
                negative_I: np.ndarray, coords=None, offsets=None):
    """Step the slice ``part`` (views of the ensemble's columns) from X_k to X_{k+1}.

    Reads (I, J) at X_k, or at its ``coords`` when given; moves Y += b(I, J) dt
    + sqrt(2 dt) xi, with xi the slice's standard normals ``noise`` (scaled in
    place); checks that the positions are finite; reads I at X_{k+1}; then
    adds dt * rate(I) to the hazards.  In a stack ``offsets`` holds each
    particle's offset into the stacked fields.  Each read clamps I at 0, and
    counts only alive particles, per replica of a stack, in ``negative_I``
    (in place) and in the fields' ``out_of_domain``.

    In killed mode b dt, sqrt(2 dt) xi and dt * rate are multiplied by the
    alive mask Lambda < Z at X_k: a dead particle stays put and keeps its
    hazard, so it stays dead, but still consumes its noise draw, which keeps
    the streams of the two modes aligned.  b dt and then sqrt(2 dt) xi are
    added to the position; adding their sum instead would round differently.

    Returns the coordinates of X_{k+1}, or None when a position is not
    finite; the slice then holds that position and its old hazards, and is
    no longer valid.  The drift is unchecked, so the check also catches a
    non-finite A or G read.
    """
    alive = part.alive if part.thresholds is not None else None
    bounds = part.bounds

    def read(coords, gradient):
        if alive is not None:  # the dead's off-grid flags go: coords are the step's own
            np.logical_and(coords.outside, alive, out=coords.outside)
        I, J = fields.args_at(coords, gradient, bounds)
        negative = I < 0.0
        if negative.any():
            if alive is not None:
                negative &= alive
            negative_I[...] += count_by_row(negative, bounds)
            I = np.maximum(I, 0.0)
        return I, J

    x = part.positions
    I, J = read(fields.coords_at(x, offsets) if coords is None else coords, True)
    b = drift_b(I, J, params)
    b *= dt
    noise *= np.sqrt(2.0 * dt)
    if alive is not None:
        b *= alive
        noise *= alive
    x += b
    x += noise
    if not np.isfinite(x).all():
        return None
    coords = fields.coords_at(x, offsets)
    increment = dt * reaction_rate(read(coords, False)[0], params)
    if alive is not None:
        increment *= alive
    part.hazards += increment
    return coords


@dataclass
class SimulationOutput:
    """Recorded time series of one run."""

    config: SimConfig
    times: np.ndarray
    steps_recorded: np.ndarray
    densities: list[np.ndarray]
    mass: np.ndarray
    weight_or_alive: np.ndarray
    escaped: np.ndarray
    diagnostics: dict
    ensemble: ParticleEnsemble
    fields: AccumulatedFields
    field_snaps: list[tuple[int, np.ndarray, np.ndarray]] = field(default_factory=list)


def run_simulations(
    configs: list[SimConfig],
    snapshot_stride: int | None = None,
    archive_path: str | Path | None = None,
    fields_stride: int = 0,
) -> list[SimulationOutput]:
    """Run the configured particle systems and record density snapshots.

    The configs may differ only in ``particles``, ``seed`` and ``mode``: they
    step as one stack of replicas laid end to end, and each replica's outputs
    are bit for bit those of its run alone.  Each seed draws once per step,
    and once for the initial state, sized to its largest replica, which
    replica r reads the first N_r values of: streams are prefix-stable in N,
    so these are its solo run's draws.  A non-finite position in any replica
    aborts the stack.

    The dynamics read the time integrals from grid fields
    (:class:`AccumulatedFields`); the tests hold their interpolation-free
    exact-history oracle.  Each cloud is deposited once:
    a recorded step keeps the density its field accumulation computed, and
    only the final cloud is deposited for the record alone.  A field
    snapshot at step k holds A and G before step k's term.

    ``archive_path`` writes the positions of every step, and the final ones,
    to that trajectory archive as the run goes (:func:`sulfsim.io.archive_writer`):
    the file appears once the run ends, and a run that raises leaves none.
    Only a feynman-kac run is archived: a killed run's paths stop at their
    death, so they are not paths of the fixed-point map (ConfigError).
    """
    configs = [validate_config(c.with_grid()) for c in configs]
    config = configs[0]
    if any(replace(c, particles=config.particles, seed=config.seed, mode=config.mode) != config
           for c in configs):
        raise ValueError("stacked configs may differ only in particles, seed and mode")
    if len(configs) > 1 and archive_path is not None:
        raise ValueError("archive_path needs a single config")
    if archive_path is not None and config.mode != "feynman-kac":
        raise ConfigError([f"a trajectory archive needs mode feynman-kac, not {config.mode}: "
                           "a killed run's paths stop at their deaths"])
    grid = config.grid
    params = config.physical
    delta = config.kernel.bandwidth
    dt = config.step
    n_steps = config.n_steps
    stride = config.recording_stride(snapshot_stride)
    sizes = np.array([c.particles for c in configs])
    total = int(sizes.sum())

    largest: dict[int, int] = {}
    for c in configs:
        largest[c.seed] = max(largest.get(c.seed, 0), c.particles)
    streams = {seed: ParticleStreams(seed, n) for seed, n in largest.items()}
    try:
        # each seed's initial state once, thresholds too if one of its replicas is killed
        drawn = {seed: init_ensemble(replace(config, seed=seed, particles=s.n, mode=(
                     "killed" if any(c.seed == seed and c.mode == "killed" for c in configs)
                     else "feynman-kac")), s) for seed, s in streams.items()}
        ens = ParticleEnsemble.stack([drawn[c.seed].head(c.particles, c.mode == "killed")
                                      for c in configs])
    except MemoryError as err:
        stack = f", the largest of {len(configs)} replicas," if len(configs) > 1 else ""
        raise MemoryError(f"an ensemble of {sizes.max()} particles{stack} is too large "
                          f"({err})") from err
    del drawn
    bounds = ens.bounds

    acc = AccumulatedFields(grid, delta, *np.zeros((2, len(configs), grid.n_nodes)),
                            out_of_domain=np.zeros(len(configs), dtype=np.int64))
    # replica r reads row r of the stacked fields, at j + r*m of their flat values
    offsets = np.repeat(np.arange(len(configs)) * grid.n_nodes, sizes) if len(configs) > 1 else None

    negative_I = np.zeros(len(configs), dtype=np.int64)
    times, steps_rec = [], []
    densities, mass, weight_or_alive, escaped = ([[] for _ in configs] for _ in range(4))
    field_snaps: list[tuple[int, np.ndarray, np.ndarray]] = []

    def record(k: int, cloud: WeightedPointCloud, u: np.ndarray | None = None) -> None:
        if u is None:  # the step did not deposit this cloud
            u, _ = grid_density(cloud, grid, delta, sizes, bounds=bounds)
        times.append(k * dt)
        steps_rec.append(k)
        outside = (cloud.positions < grid.lower) | (cloud.positions > grid.upper)
        for r, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
            weights = cloud.weights[lo:hi]
            densities[r].append(u[r])
            mass[r].append(float(np.trapezoid(u[r], dx=grid.spacing)))
            weight_or_alive[r].append(float(weights.mean()))
            escaped[r].append(float(weights[outside[lo:hi]].sum() / (hi - lo)))

    one_slice = total <= SLICE_PARTICLES
    coords = None  # of X_k, handed on from the last step when one slice holds all
    # a row per step and one for the final cloud
    writer = (nullcontext() if archive_path is None else
              archive_writer(archive_path, total, n_steps + 1, dt))
    with writer as write_row:
        for k in range(n_steps):
            cloud = ens.cloud()
            recording = k % stride == 0
            if recording and fields_stride and k % fields_stride == 0:
                field_snaps.append((k, acc.A.copy(), acc.G.copy()))  # before step k's term
            if write_row is not None:
                write_row(ens.positions)
            u = accumulate_step(acc, cloud, sizes, dt, bounds)
            if recording:
                record(k, cloud, u)
            del cloud  # its weight array is not read by the step
            draws = {seed: s.normals() for seed, s in streams.items()}  # one draw per seed
            noise = (np.concatenate([draws[c.seed][: c.particles] for c in configs])
                     if len(configs) > 1 else draws[config.seed])
            del draws
            bad = False  # the sweep goes past a non-finite slice: the error names every particle
            for lo in range(0, total, SLICE_PARTICLES):
                hi = min(lo + SLICE_PARTICLES, total)
                coords = _slice_step(ens if one_slice else ens.columns(lo, hi), acc,
                                     noise[lo:hi], dt, params, negative_I,
                                     coords if one_slice else None,
                                     None if offsets is None else offsets[lo:hi])
                bad |= coords is None
            del noise
            if bad:  # each particle by its index in its own replica
                bad = np.flatnonzero(~np.isfinite(ens.positions))
                replica = np.searchsorted(bounds, bad, "right") - 1
                raise NonFiniteStateError(k, bad - bounds[replica])

        if write_row is not None:
            write_row(ens.positions)
    if fields_stride:
        field_snaps.append((n_steps, acc.A.copy(), acc.G.copy()))
    record(n_steps, ens.cloud())

    outputs = []
    for r, c in enumerate(configs):
        replica = ens.row(r)
        diag = {"negative_I": int(negative_I[r]),
                "out_of_domain": int(acc.out_of_domain[r]), "final_escaped_mass": escaped[r][-1]}
        if c.mode == "killed":
            diag["deaths"] = int(np.count_nonzero(replica.hazards >= replica.thresholds))
        outputs.append(SimulationOutput(
            config=c,
            times=np.asarray(times),
            steps_recorded=np.asarray(steps_rec, dtype=int),
            densities=densities[r],
            mass=np.asarray(mass[r]),
            weight_or_alive=np.asarray(weight_or_alive[r]),
            escaped=np.asarray(escaped[r]),
            diagnostics=diag,
            ensemble=replica,
            fields=AccumulatedFields(grid, delta, acc.A[r], acc.G[r], diag["out_of_domain"]),
            field_snaps=[(k, a[r], g[r]) for k, a, g in field_snaps],
        ))
    return outputs


def run_simulation(config: SimConfig, **options) -> SimulationOutput:
    """One run of :func:`run_simulations`, with the same options."""
    return run_simulations([config], **options)[0]
