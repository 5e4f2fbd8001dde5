"""Error norms, mass accounting, and estimator comparison studies."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import Grid1D, SimConfig, validate_config
from .particles import run_simulations
from .pde import mollify_grid_function, solve_pde

NORMS = ("l1", "l2", "sup")

# the runs of a convergence study, of every ensemble size, step together up to
# this many particles: the stack's gain over solo runs is gone by then, and
# beyond it only memory grows
STACK_PARTICLES = 1 << 16


def density_distance(a: np.ndarray, b: np.ndarray, grid: Grid1D, norm: str = "l1") -> float:
    """Trapezoid L1/L2 or nodewise sup distance between two grid densities."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.shape != (grid.n_nodes,):
        raise ValueError("density fields must share the grid")
    diff = a - b
    if norm == "l1":
        return float(np.trapezoid(np.abs(diff), dx=grid.spacing))
    if norm == "l2":
        return float(np.sqrt(np.trapezoid(diff * diff, dx=grid.spacing)))
    if norm == "sup":
        return float(np.max(np.abs(diff)))
    raise ValueError(f"norm must be one of {NORMS}, got {norm!r}")


def total_mass(u: np.ndarray, grid: Grid1D) -> float:
    """Trapezoid mass of a grid density."""
    return float(np.trapezoid(np.asarray(u, dtype=float), dx=grid.spacing))


@dataclass
class ComparisonReport:
    """Per-time distances between two density series on a shared grid."""

    times: np.ndarray
    l1: np.ndarray
    l2: np.ndarray
    sup: np.ndarray
    mass_a: np.ndarray
    mass_b: np.ndarray
    metadata: dict

    def summary(self) -> str:
        lines = [
            "comparison: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.metadata.items())),
            f"  times: {len(self.times)}  final t={self.times[-1]:g}",
            f"  final L1={self.l1[-1]:.6g}  L2={self.l2[-1]:.6g}  sup={self.sup[-1]:.6g}",
            f"  max over time: L1={self.l1.max():.6g}  sup={self.sup.max():.6g}",
            f"  final mass: a={self.mass_a[-1]:.6g}  b={self.mass_b[-1]:.6g}",
        ]
        return "\n".join(lines)


def compare_series(
    times: np.ndarray,
    fields_a: list[np.ndarray],
    fields_b: list[np.ndarray],
    grid: Grid1D,
    metadata: dict | None = None,
) -> ComparisonReport:
    if len(fields_a) != len(fields_b) or len(fields_a) != len(times):
        raise ValueError("snapshot series must have matching lengths")
    l1 = np.array([density_distance(a, b, grid, "l1") for a, b in zip(fields_a, fields_b)])
    l2 = np.array([density_distance(a, b, grid, "l2") for a, b in zip(fields_a, fields_b)])
    sup = np.array([density_distance(a, b, grid, "sup") for a, b in zip(fields_a, fields_b)])
    return ComparisonReport(
        times=np.asarray(times),
        l1=l1,
        l2=l2,
        sup=sup,
        mass_a=np.array([total_mass(a, grid) for a in fields_a]),
        mass_b=np.array([total_mass(b, grid) for b in fields_b]),
        metadata=metadata or {},
    )


@dataclass
class ConvergenceRow:
    n: int
    fk_mean_l1: float
    fk_stderr: float
    kill_mean_l1: float
    kill_stderr: float


@dataclass
class ConvergenceTable:
    rows: list[ConvergenceRow]
    monotone_fk: bool
    monotone_kill: bool

    def summary(self) -> str:
        lines = ["N        fk_mean_l1   fk_se        kill_mean_l1 kill_se"]
        for r in self.rows:
            lines.append(
                f"{r.n:<8d} {r.fk_mean_l1:<12.6g} {r.fk_stderr:<12.6g} "
                f"{r.kill_mean_l1:<12.6g} {r.kill_stderr:<12.6g}"
            )
        lines.append(
            f"monotone non-increasing within 2 SE: fk={self.monotone_fk} kill={self.monotone_kill}"
        )
        return "\n".join(lines)


def _monotone_within_2se(means: list[float], ses: list[float]) -> bool:
    for k in range(len(means) - 1):
        slack = 2.0 * np.hypot(ses[k], ses[k + 1])
        if means[k + 1] > means[k] + slack:
            return False
    return True


def _mean_and_stderr(values: list[float]) -> tuple[float, float]:
    """Sample mean and its standard error (0 for a single value)."""
    x = np.array(values)
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(len(x))) if len(x) > 1 else 0.0


def convergence_study(
    config: SimConfig,
    n_values: list[int],
    seeds_per_n: int,
) -> ConvergenceTable:
    """Final-time L1 error of both estimators against the mollified PDE
    reference, across ensemble sizes, one row per N in increasing order.

    The reference is solved once; each N runs both modes at the seeds
    ``config.seed`` .. ``config.seed + seeds_per_n - 1``.  The runs of all
    sizes, in increasing N, step in stacks of at most ``STACK_PARTICLES``
    particles (at least one run each), which give each run's solo outputs.
    The comparison target is K*v, the PDE solution mollified with the
    same kernel, so that the kernel bias is excluded from the reported
    Monte Carlo error.  ValueError for a size given twice.
    """
    repeated = sorted({n for n in n_values if n_values.count(n) > 1})
    if repeated:
        raise ValueError(f"ensemble sizes {repeated} are given more than once")
    config = validate_config(config.with_grid())
    grid = config.grid

    ref = solve_pde(config, snapshot_stride=config.n_steps)
    target = mollify_grid_function(ref.densities[-1], grid, config.kernel.bandwidth)

    seeds = [int(config.seed) + j for j in range(seeds_per_n)]
    runs = [replace(config, particles=n, seed=s, mode=mode) for n in sorted(n_values)
            for s in seeds for mode in ("feynman-kac", "killed")]
    stacks: list[list[SimConfig]] = []
    for run in runs:
        if stacks and sum(c.particles for c in stacks[-1]) + run.particles <= STACK_PARTICLES:
            stacks[-1].append(run)
        else:
            stacks.append([run])
    errors: dict[tuple[int, str], list[float]] = {}
    for stack in stacks:
        for cfg, out in zip(stack, run_simulations(stack, snapshot_stride=config.n_steps)):
            errors.setdefault((cfg.particles, cfg.mode), []).append(
                density_distance(out.densities[-1], target, grid, "l1"))
    rows = [ConvergenceRow(n, *_mean_and_stderr(errors[n, "feynman-kac"]),
                           *_mean_and_stderr(errors[n, "killed"])) for n in sorted(n_values)]
    return ConvergenceTable(
        rows=rows,
        monotone_fk=_monotone_within_2se([r.fk_mean_l1 for r in rows], [r.fk_stderr for r in rows]),
        monotone_kill=_monotone_within_2se(
            [r.kill_mean_l1 for r in rows], [r.kill_stderr for r in rows]
        ),
    )
