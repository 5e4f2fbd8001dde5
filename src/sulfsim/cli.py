"""Command-line front end.

Exit codes: 0 success, 2 invalid config/usage (an ensemble too large to
allocate included), 3 numerical abort, 4 missing or mismatched data.
Every command is a pure function of (config file, flags, seed); manifests
record output checksums so reruns can be verified byte-for-byte.

The group callback ``main()`` sets the process up before any command runs:
it pins glibc's malloc thresholds (``_pin_malloc_thresholds``) and registers
``gc.freeze`` to run at interpreter exit (``_freeze_collector_at_exit``).
"""

from __future__ import annotations

import atexit
import ctypes
import gc
import os
import sys
from dataclasses import replace
from functools import wraps
from pathlib import Path

import click
import numpy as np

from . import __version__
from .config import (
    INITIAL_FAMILIES,
    ConfigError,
    Grid1D,
    SimConfig,
    load_config,
    validate_config,
)
from .fixedpoint import picard_solve
from .io import (
    DataError,
    RunManifest,
    column_text,
    read_archive,
    read_csv,
    snapshot_name,
    write_csv,
)
from .metrics import compare_series, convergence_study
from .particles import NonFiniteStateError, run_simulation, run_simulations
from .pde import NonFinitePdeStateError, mollify_grid_function, solve_pde
from .plots import emit_plot_scripts, render_scripts

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_DATA = 4

_MODE_ALIASES = {"fk": "feynman-kac", "kill": "killed"}
_SNAPSHOT_STRIDE_HELP = "record every k-th step (default: ~10 snapshots)"

# glibc mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _handle_errors(fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as err:
            click.echo("invalid config:", err=True)
            for v in err.violations:
                click.echo(f"  - {v}", err=True)
            sys.exit(EXIT_CONFIG)
        except MemoryError as err:
            click.echo(f"out of memory: {err}", err=True)
            sys.exit(EXIT_CONFIG)
        except (NonFiniteStateError, NonFinitePdeStateError) as err:
            click.echo(f"numerical abort: {err}", err=True)
            sys.exit(EXIT_NUMERICAL)
        except (DataError, FileNotFoundError) as err:
            click.echo(f"data error: {err}", err=True)
            sys.exit(EXIT_DATA)

    return wrapper


# (flag, YAML key path, type, help): one config option each, whose click
# parameter is the key path with "__" for "."
_CONFIG_FLAGS = [
    ("--lambda", "physical.lambda", float, "reaction rate"),
    ("--c0", "physical.c0", float, "initial calcite density"),
    ("--phi0", "physical.phi0", float, "porosity offset"),
    ("--phi1", "physical.phi1", float, "porosity slope"),
    ("--phi-bar", "physical.phi_bar", float, "porosity upper bound"),
    ("--s0", "physical.s0", float, "initial-density sup bound"),
    ("--bandwidth", "kernel.bandwidth", float, "kernel bandwidth"),
    ("--lower", "grid.lower", float, "grid lower bound"),
    ("--upper", "grid.upper", float, "grid upper bound"),
    ("--spacing", "grid.spacing", float, "grid spacing"),
    ("--horizon", "horizon", float, "time horizon T"),
    ("--step", "step", float, "time step dt"),
    ("--particles", "particles", int, "ensemble size N"),
    ("--initial-family", "initial.family", click.Choice(INITIAL_FAMILIES),
     "initial density family"),
    ("--center", "initial.center", float, "initial density center"),
    ("--width", "initial.width", float, "initial density width"),
    ("--normalize/--no-normalize", "initial.normalize", bool,
     "rescale a tabulated initial density to unit mass"),
]


def _with_config_options(fn):
    for flag, path, kind, help_text in reversed(_CONFIG_FLAGS):
        fn = click.option(flag, path.replace(".", "__"), type=kind, default=None,
                          help=help_text)(fn)
    return click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                        default=None, help="YAML config file; flags override its fields.")(fn)


def _writable_out(ctx, param, value: Path) -> Path:
    """Refuse an ``--out`` that the command could not create or write in: its
    nearest existing ancestor must be a directory this process may write.
    Nothing is created here."""
    existing = next(p for p in (value, *value.parents) if p.exists())
    if not existing.is_dir():
        raise click.BadParameter(f"{value} lies under {existing}, which is not a directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise click.BadParameter(f"{existing} is a directory that cannot be written")
    return value


def _out_option(default: str):
    """``--out``, a directory (an existing file, a path under one or an
    unwritable directory is a usage error), which the command creates once it
    has something to write."""
    return click.option("--out", "out_dir", type=click.Path(file_okay=False, path_type=Path),
                        envvar="SULFSIM_OUTDIR", default=default, show_default=True,
                        callback=_writable_out, help="output directory (or $SULFSIM_OUTDIR)")


_workers_option = click.option(
    "--workers", type=int, default=1, expose_value=False,
    help="ignored: every command runs single-threaded (kept for existing scripts)")


def _build_config(config_path=None, **values) -> SimConfig:
    """The config file (or the defaults) with every given flag merged over it;
    ``values`` are the config options' parameters, plus ``mode`` and ``seed``."""
    overrides: dict = {}
    for name, value in values.items():
        if value is not None:
            *sections, key = name.split("__")
            node = overrides
            for section in sections:
                node = node.setdefault(section, {})
            node[key] = value
    return validate_config(load_config(config_path, overrides)).with_grid()


def _write_snapshots(directory: Path, prefix: str, header: list[str], nodes: list[str],
                     steps, *series) -> list[Path]:
    """One CSV per recorded step: the node column, which the caller formats
    once (``column_text``) for all of its files, then the step's row of each
    series."""
    return [write_csv(directory / snapshot_name(prefix, int(step)), header, [nodes, *values])
            for step, *values in zip(steps, *series)]


def _write_run_outputs(out: Path, sim, manifest: RunManifest,
                       archive: Path | None = None) -> None:
    nodes = column_text(sim.config.grid.nodes())
    paths = _write_snapshots(out / "snapshots", "u", ["x", "u"], nodes,
                             sim.steps_recorded, sim.densities)
    paths.append(write_csv(out / "run.csv",
                           ["t", "mass", "alive_fraction_or_mean_weight", "escaped_mass"],
                           [sim.times, sim.mass, sim.weight_or_alive, sim.escaped]))
    if sim.field_snaps:
        paths += _write_snapshots(out / "fields", "af", ["x", "A", "G"], nodes,
                                  *zip(*sim.field_snaps))
    if archive is not None:  # written by the run
        paths.append(archive)
    for p in paths:
        manifest.add_output(out, p)


def _write_pde_outputs(out: Path, res, manifest: RunManifest) -> None:
    nodes = column_text(res.config.grid.nodes())
    paths = [*_write_snapshots(out / "snapshots", "u", ["x", "u"], nodes,
                               res.steps_recorded, res.densities),
             *_write_snapshots(out / "calcite", "c", ["x", "c"], nodes,
                               res.steps_recorded, res.calcite)]
    paths.append(write_csv(out / "run.csv", ["t", "mass"], [res.times, res.mass]))
    steps = np.arange(1, len(res.sink) + 1)
    paths.append(write_csv(out / "ledger.csv",
                           ["step", "sink", "boundary_flux", "clamped", "residual"],
                           [steps, res.sink, res.boundary_flux, res.clamped, res.residual]))
    for p in paths:
        manifest.add_output(out, p)


def _pin_malloc_thresholds() -> None:
    """Keep glibc from handing the step loop's temporaries back to the OS.

    glibc's default thresholds (128 KiB, raised only after a large block is
    freed) let every N-sized numpy temporary of a time step be mmapped or
    trimmed on free and page-faulted in again on the next step.  Measured
    minor faults inside `run_simulation` (2-core Xeon, glibc 2.36), default
    thresholds -> these: 105k -> 360 over the 500 steps of a default fk run
    (N = 10^4), 61k -> 3.2k for a killed run at N = 10^5, 112k -> 13k for 5
    fk steps at N = 10^6.  Outputs do not depend on them.  Without glibc's
    mallopt this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _freeze_collector_at_exit() -> None:
    """Register ``gc.freeze`` to run at interpreter exit, once per process.

    Finalization runs the cyclic collector over every module object and frees
    them one by one; frozen objects are skipped and the OS takes the memory
    back at once.  Python does not promise ``__del__`` for objects alive at
    exit, and every file a command writes is closed before it returns.
    Measured from a perfbench child's stamp to its exit
    (``tools/exit_times.py``; 2-core Xeon, Python 3.11.7, numpy 2.4.6), median
    of 6: 36 -> 7 ms for each of `picard`'s two commands, 34 -> 7 ms on
    `kill-wide`.  Nothing is frozen while the process runs, so an in-process
    caller (the test suite) keeps collecting its cycles.
    """
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)


@click.group()
@click.version_option(__version__)
def main():
    """Particle and finite-difference solvers for the sulphation model."""
    _pin_malloc_thresholds()
    _freeze_collector_at_exit()


@main.command()
@_with_config_options
@click.option("--mode", type=click.Choice(["fk", "kill", "feynman-kac", "killed"]),
              default=None, help="reaction mode (default: the config's mode)")
@click.option("--seed", type=int, required=True, help="master RNG seed (required)")
@_out_option("sim-out")
@click.option("--snapshot-stride", type=click.IntRange(min=1), default=None,
              help=_SNAPSHOT_STRIDE_HELP)
@click.option("--fields-stride", type=click.IntRange(min=0), default=0,
              help="also export A and G at each recorded step that is a multiple of k, "
                   "and at the end (0: off)")
@click.option("--archive/--no-archive", "archive_flag", default=False,
              help="dump full trajectories for the fixedpoint command")
@_workers_option
@_handle_errors
def simulate(mode, seed, out_dir, snapshot_stride, fields_stride, archive_flag, **cfg_kwargs):
    """Run the particle system and write snapshots, series, and manifest."""
    cfg = _build_config(mode=_MODE_ALIASES.get(mode, mode), seed=seed, **cfg_kwargs)
    archive = out_dir / "archive.bin" if archive_flag else None
    sim = run_simulation(
        cfg,
        snapshot_stride=snapshot_stride,
        archive_path=archive,
        fields_stride=fields_stride,
    )
    manifest = RunManifest(command="simulate", config=cfg.to_dict(),
                           diagnostics=sim.diagnostics)
    _write_run_outputs(out_dir, sim, manifest, archive)
    manifest.write(out_dir)
    click.echo(f"simulate: wrote {len(manifest.outputs)} files to {out_dir}")


@main.command()
@_with_config_options
@_out_option("pde-out")
@click.option("--snapshot-stride", type=click.IntRange(min=1), default=None,
              help=_SNAPSHOT_STRIDE_HELP)
@_workers_option
@_handle_errors
def pde(out_dir, snapshot_stride, **cfg_kwargs):
    """Solve the deterministic reference PDE on the configured grid."""
    cfg = _build_config(**cfg_kwargs)
    res = solve_pde(cfg, snapshot_stride=snapshot_stride)
    manifest = RunManifest(
        command="pde",
        config=cfg.to_dict(),
        diagnostics={
            "clamped_mass": float(np.cumsum(res.clamped)[-1]),  # added in step order
            "max_residual": float(np.max(np.abs(res.residual))) if len(res.residual) else 0.0,
        },
    )
    _write_pde_outputs(out_dir, res, manifest)
    manifest.write(out_dir)
    click.echo(f"pde: wrote {len(manifest.outputs)} files to {out_dir}")


def _load_snapshot_series(run_dir: Path):
    snap_dir = run_dir / "snapshots"
    files = sorted(snap_dir.glob("u_*.csv"))
    if not files:
        raise DataError(f"no snapshots under {run_dir}")
    xs, series, steps = None, [], []
    for f in files:
        step = f.stem.split("_", 1)[1]
        if not step.isdecimal():
            raise DataError(f"{f} is not named u_<step>.csv")
        x, u = _columns(f, "x", "u")
        if not np.isfinite(u).all():
            raise DataError(f"{f} holds a non-finite density")
        if xs is None:
            if len(x) < 2:
                raise DataError(f"{f} holds {len(x)} grid nodes; a grid needs at least 2")
            # node k within rounding (1e-9 of the grid's scale) of x_0 + k*spacing
            spacing = (x[-1] - x[0]) / (len(x) - 1)
            off = np.abs(x - (x[0] + spacing * np.arange(len(x)))).max()
            if not (spacing > 0.0 and off <= 1e-9 * max(abs(x[0]), abs(x[-1]), spacing)):
                raise DataError(f"the x column of {f} is not an increasing uniform grid")
            xs = x
        elif x.shape != xs.shape or not np.array_equal(x, xs):
            raise DataError(f"grid mismatch in {f}")
        series.append(u)
        steps.append(int(step))
    (times,) = _columns(run_dir / "run.csv", "t")
    if len(times) != len(series):  # a row per snapshot, or the times are mislabelled
        raise DataError(f"{run_dir / 'run.csv'} has {len(times)} times for "
                        f"{len(series)} snapshots")
    if not np.isfinite(times).all():
        raise DataError(f"{run_dir / 'run.csv'} holds a non-finite time")
    return xs, np.asarray(steps), times, series


def _columns(path: Path, *names: str) -> list[np.ndarray]:
    """The named columns of a CSV file; DataError when one is missing."""
    cols = read_csv(path)
    missing = [name for name in names if name not in cols]
    if missing:
        raise DataError(f"{path} has no column {', '.join(missing)}")
    return [cols[name] for name in names]


def _grid_from_nodes(xs: np.ndarray) -> Grid1D:
    return Grid1D(lower=float(xs[0]), upper=float(xs[-1]),
                  spacing=float(xs[1] - xs[0]))


def _write_summary(out_dir: Path, summary: str, manifest: RunManifest) -> None:
    """Write ``summary.txt`` and then the manifest, which lists it; echo the summary."""
    path = out_dir / "summary.txt"
    path.write_text(summary + "\n")
    manifest.add_output(out_dir, path)
    manifest.write(out_dir)
    click.echo(summary)


@main.command()
@_with_config_options
@click.option("--a", "dir_a", type=click.Path(exists=True), default=None,
              help="first snapshot directory")
@click.option("--b", "dir_b", type=click.Path(exists=True), default=None,
              help="second snapshot directory")
@click.option("--seed", type=int, default=None,
              help="seed (required when regenerating from --config)")
@_out_option("compare-out")
@click.option("--snapshot-stride", type=click.IntRange(min=1), default=None,
              help=_SNAPSHOT_STRIDE_HELP)
@_workers_option
@_handle_errors
def compare(dir_a, dir_b, seed, out_dir, snapshot_stride, **cfg_kwargs):
    """Compare two snapshot directories, or regenerate both estimators and
    the PDE reference from a config and compare everything."""
    if dir_a is None and dir_b is None:
        if seed is None:
            raise click.UsageError("compare needs --a and --b, or --seed to regenerate the runs")
    elif dir_a is None or dir_b is None:
        raise click.UsageError("--a and --b go together: give both snapshot directories")
    else:  # the two runs are read as they are: a flag that would regenerate them is refused
        given = {"--config": cfg_kwargs["config_path"], "--seed": seed,
                 "--snapshot-stride": snapshot_stride,
                 **{flag: cfg_kwargs[key.replace(".", "__")] for flag, key, *_ in _CONFIG_FLAGS}}
        ignored = [flag for flag, value in given.items() if value is not None]
        if ignored:
            raise click.UsageError(f"--a/--b compare two runs as they are; "
                                   f"{', '.join(ignored)} would be ignored")
    manifest = RunManifest(command="compare", config={})
    if dir_a is not None:
        xa, sa, ta, ua = _load_snapshot_series(Path(dir_a))
        xb, sb, tb, ub = _load_snapshot_series(Path(dir_b))
        if xa.shape != xb.shape or not np.array_equal(xa, xb):
            raise DataError(f"grids of {dir_a} and {dir_b} do not match")
        if len(ua) != len(ub) or not np.array_equal(sa, sb):
            raise DataError(f"snapshot steps of {dir_a} and {dir_b} do not match")
        if not np.array_equal(ta, tb):
            raise DataError(f"{Path(dir_a) / 'run.csv'} and {Path(dir_b) / 'run.csv'} "
                            "hold different times")
        reports = {"report": compare_series(ta, ua, ub, _grid_from_nodes(xa),
                                            {"a": str(dir_a), "b": str(dir_b)})}
    else:
        cfg = _build_config(seed=seed, **cfg_kwargs)
        manifest.config = cfg.to_dict()
        fk, kl = run_simulations([replace(cfg, mode="feynman-kac"), replace(cfg, mode="killed")],
                                 snapshot_stride=snapshot_stride)
        ref = solve_pde(cfg, snapshot_stride=snapshot_stride)
        grid = cfg.grid
        target = [mollify_grid_function(v, grid, cfg.kernel.bandwidth)
                  for v in ref.densities]
        reports = {
            "report_fk_vs_kill": compare_series(fk.times, fk.densities, kl.densities, grid,
                                                {"a": "feynman-kac", "b": "killed"}),
            "report_fk_vs_pde": compare_series(fk.times, fk.densities, target, grid,
                                               {"a": "feynman-kac", "b": "K*v"}),
            "report_kill_vs_pde": compare_series(kl.times, kl.densities, target, grid,
                                                 {"a": "killed", "b": "K*v"}),
        }
    for name, report in reports.items():
        path = write_csv(out_dir / f"{name}.csv", ["t", "l1", "l2", "sup", "mass_a", "mass_b"],
                         [report.times, report.l1, report.l2, report.sup,
                          report.mass_a, report.mass_b])
        manifest.add_output(out_dir, path)
    _write_summary(out_dir, "\n\n".join(r.summary() for r in reports.values()), manifest)


def _ensemble_sizes(ctx, param, value: str) -> list[int]:
    try:
        sizes = [int(v) for v in value.split(",") if v]
    except ValueError:
        raise click.BadParameter(
            f"{value!r} is not a comma-separated list of integers") from None
    if not sizes or min(sizes) < 1:
        raise click.BadParameter(f"{value!r} must list at least one size, each >= 1")
    repeated = sorted({n for n in sizes if sizes.count(n) > 1})
    if repeated:
        raise click.BadParameter(f"{value!r} lists the size {repeated[0]} more than once")
    return sizes


@main.command()
@_with_config_options
@click.option("--n", "n_values", default="250,1000,4000", show_default=True,
              callback=_ensemble_sizes, help="comma-separated ensemble sizes")
@click.option("--seeds", "seeds_per_n", type=click.IntRange(min=1), default=8,
              show_default=True)
@click.option("--seed", type=int, required=True, help="base seed (required)")
@_out_option("convergence-out")
@_workers_option
@_handle_errors
def convergence(n_values, seeds_per_n, seed, out_dir, **cfg_kwargs):
    """Estimator-vs-reference error table across ensemble sizes."""
    cfg = _build_config(seed=seed, **cfg_kwargs)
    table = convergence_study(cfg, n_values, seeds_per_n)
    manifest = RunManifest(command="convergence", config=cfg.to_dict(),
                           diagnostics={"monotone_fk": table.monotone_fk,
                                        "monotone_kill": table.monotone_kill})
    path = write_csv(
        out_dir / "convergence.csv",
        ["n", "fk_mean_l1", "fk_stderr", "kill_mean_l1", "kill_stderr"],
        [np.array([r.n for r in table.rows]),
         np.array([r.fk_mean_l1 for r in table.rows]),
         np.array([r.fk_stderr for r in table.rows]),
         np.array([r.kill_mean_l1 for r in table.rows]),
         np.array([r.kill_stderr for r in table.rows])],
    )
    manifest.add_output(out_dir, path)
    _write_summary(out_dir, table.summary(), manifest)


def _tolerance(ctx, param, value: float) -> float:
    if not 0.0 <= value < float("inf"):  # 0 is valid: the map can reach it exactly
        raise click.BadParameter(f"{value} is not a finite number >= 0")
    return value


@main.command()
@_with_config_options
@click.option("--archive", "archive_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="trajectory archive from simulate --archive")
@click.option("--tol", type=float, default=1e-10, show_default=True, callback=_tolerance,
              help="stop once the sup distance of two iterates is at most this")
@click.option("--max-iters", type=click.IntRange(min=2), default=50, show_default=True)
@_out_option("fixedpoint-out")
@_handle_errors
def fixedpoint(archive_path, tol, max_iters, out_dir, **cfg_kwargs):
    """Picard iteration of the discounted-kernel map on an archived run."""
    cfg = _build_config(**cfg_kwargs)
    archive = read_archive(archive_path)
    # the map runs on the archive's time steps and ensemble: a flag that says
    # otherwise is an error, and the manifest records what the archive holds
    held = {"horizon": archive.dt * (len(archive) - 1), "step": archive.dt,
            "particles": archive.n_total}
    for key, value in held.items():
        if (flag := cfg_kwargs[key]) is not None and abs(flag - value) > 1e-12 * abs(value):
            raise DataError(f"--{key} {flag} contradicts the archive, which holds {key} {value}")
    cfg = replace(cfg, **held)
    result = picard_solve(archive, cfg.grid, cfg.kernel.bandwidth, cfg.physical,
                          max_iters=max_iters, tol=tol)
    manifest = RunManifest(command="fixedpoint", config=cfg.to_dict(),
                           diagnostics={"converged": result.converged,
                                        "iterations": result.iterations})
    iters = np.arange(1, len(result.distances) + 1)
    path = write_csv(out_dir / "trace.csv", ["iteration", "sup_distance", "ratio"],
                     [iters, result.distances, result.ratios])
    manifest.add_output(out_dir, path)
    path = write_csv(out_dir / "fixedpoint_final.csv", ["x", "u"],
                     [cfg.grid.nodes(), result.fixed_point[-1]])
    manifest.add_output(out_dir, path)
    if result.converged:
        summary = (f"fixed point reached after iteration {result.iterations - 1} "
                   f"(confirming distance {result.distances[-1]:.3g} <= tol {tol:g})")
    else:
        summary = (f"no convergence within {result.iterations} iterations; "
                   f"last distance {result.distances[-1]:.3g}")
    _write_summary(out_dir, summary, manifest)


@main.command("emit-plots")
@click.option("--run", "run_dir", type=click.Path(exists=True), required=True,
              help="output directory of a previous command")
@click.option("--render/--no-render", default=True, show_default=True,
              help="execute the emitted scripts to produce PNGs")
@_handle_errors
def emit_plots(run_dir, render):
    """Emit self-contained plot scripts for a run directory and render them."""
    scripts = emit_plot_scripts(run_dir)
    click.echo("emitted: " + ", ".join(s.name for s in scripts))
    if render:
        import subprocess  # only a render starts processes

        try:
            pngs = render_scripts(scripts)
        except subprocess.CalledProcessError as err:
            stderr = err.stderr.decode(errors="replace").strip()
            raise DataError(f"rendering {Path(err.cmd[-1]).name} failed:\n{stderr}") from err
        click.echo("rendered: " + ", ".join(p.name for p in pngs))


if __name__ == "__main__":
    main()
