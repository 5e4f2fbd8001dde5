"""Domain types, configuration loading, and validation.

Every simulation entry point takes a :class:`SimConfig`.  Configs are
immutable after validation and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

MODES = ("feynman-kac", "killed")
FIELD_MODES = ("grid-accumulator", "exact-history")
INITIAL_FAMILIES = ("gaussian-bump", "truncated-cosine-bump", "tabulated")

# dt must divide the horizon to within this relative tolerance
DT_DIVISION_RTOL = 1e-12


class ConfigError(ValueError):
    """Raised by :func:`validate_config`; carries the full violation list."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


@dataclass(frozen=True)
class PhysicalParams:
    """Reaction and porosity constants.

    ``lam`` is the reaction rate (1/time), ``c0`` the initial calcite
    density (constant in space), ``phi0``/``phi1`` the affine porosity
    coefficients with upper bound ``phi_bar``, and ``s0`` the sup bound
    required of the initial density.
    """

    lam: float = 1.0
    c0: float = 1.0
    phi0: float = 0.3
    phi1: float = 0.7
    phi_bar: float = 2.0
    s0: float = 1.0

    def violations(self) -> list[str]:
        out = []
        if not (self.lam >= 0.0):
            out.append(f"lambda must be >= 0, got {self.lam}")
        if not (self.c0 > 0.0):
            out.append(f"c0 must be > 0, got {self.c0}")
        if not (0.0 < self.phi0 < self.phi_bar):
            out.append(
                f"porosity positivity violated: phi0={self.phi0} not in (0, {self.phi_bar})"
            )
        if not (0.0 < self.phi0 + self.phi1 * self.c0 < self.phi_bar):
            out.append(
                "porosity positivity violated: phi0 + phi1*c0 = "
                f"{self.phi0 + self.phi1 * self.c0} not in (0, {self.phi_bar})"
            )
        if not (0.0 < self.s0 <= 1.0):
            out.append(f"s0 must be in (0, 1], got {self.s0}")
        return out


@dataclass(frozen=True)
class KernelSpec:
    """Smoothing kernel: Gaussian with bandwidth ``bandwidth`` (> 0)."""

    bandwidth: float = 0.3
    shape: str = "gaussian"

    def violations(self) -> list[str]:
        out = []
        if not (0.0 < self.bandwidth < math.inf):
            out.append(f"kernel bandwidth must be finite and > 0, got {self.bandwidth}")
        if self.shape != "gaussian":
            out.append(f"kernel shape must be 'gaussian', got {self.shape!r}")
        return out


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-d grid on [lower, upper] with spacing ``spacing``."""

    lower: float
    upper: float
    spacing: float

    @property
    def n_nodes(self) -> int:
        return int(round((self.upper - self.lower) / self.spacing)) + 1

    def nodes(self) -> np.ndarray:
        return self.lower + self.spacing * np.arange(self.n_nodes)

    def violations(self) -> list[str]:
        out = []
        if not (self.spacing > 0.0):
            out.append(f"grid spacing must be > 0, got {self.spacing}")
            return out
        if not (self.upper > self.lower):
            out.append(f"grid upper must exceed lower, got [{self.lower}, {self.upper}]")
            return out
        m = (self.upper - self.lower) / self.spacing
        if abs(m - round(m)) > 1e-9 * max(1.0, abs(m)):
            out.append(
                f"grid spacing {self.spacing} does not divide [{self.lower}, {self.upper}]"
            )
        if self.n_nodes < 3:
            out.append(f"grid needs at least 3 nodes, got {self.n_nodes}")
        return out


@dataclass(frozen=True)
class InitialDensitySpec:
    """Initial particle law.  ``family`` is one of

    - ``gaussian-bump``: normal density with mean ``center`` and std ``width``
    - ``truncated-cosine-bump``: raised cosine on [center-width, center+width]
    - ``tabulated``: piecewise-linear density through (table_x, table_p)

    ``normalize`` rescales a tabulated density to unit mass before use.
    """

    family: str = "gaussian-bump"
    center: float = 0.0
    width: float = 1.0
    normalize: bool = True
    table_x: tuple[float, ...] | None = None
    table_p: tuple[float, ...] | None = None


@dataclass(frozen=True)
class SimConfig:
    """Full run description shared by the particle and PDE solvers."""

    physical: PhysicalParams = field(default_factory=PhysicalParams)
    kernel: KernelSpec = field(default_factory=KernelSpec)
    grid: Grid1D | None = None
    horizon: float = 0.5
    step: float = 1e-3
    particles: int = 10_000
    mode: str = "feynman-kac"
    seed: int = 0
    field_mode: str = "grid-accumulator"
    initial: InitialDensitySpec = field(default_factory=InitialDensitySpec)

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.step))

    def resolved_grid(self) -> Grid1D:
        if self.grid is not None:
            return self.grid
        return derive_grid(self.horizon, self.kernel.bandwidth, self.initial)

    def with_grid(self) -> "SimConfig":
        """Materialize the default grid so the config is fully explicit."""
        if self.grid is not None:
            return self
        return replace(self, grid=self.resolved_grid())

    def to_dict(self) -> dict:
        g = self.resolved_grid()
        ini = self.initial
        d = {
            "physical": {
                "lambda": self.physical.lam,
                "c0": self.physical.c0,
                "phi0": self.physical.phi0,
                "phi1": self.physical.phi1,
                "phi_bar": self.physical.phi_bar,
                "s0": self.physical.s0,
            },
            "kernel": {"bandwidth": self.kernel.bandwidth, "shape": self.kernel.shape},
            "grid": {"lower": g.lower, "upper": g.upper, "spacing": g.spacing},
            "horizon": self.horizon,
            "step": self.step,
            "particles": self.particles,
            "mode": self.mode,
            "seed": self.seed,
            "field_mode": self.field_mode,
            "initial": {
                "family": ini.family,
                "center": ini.center,
                "width": ini.width,
                "normalize": ini.normalize,
            },
        }
        if ini.table_x is not None:
            d["initial"]["table_x"] = list(ini.table_x)
            d["initial"]["table_p"] = list(ini.table_p)
        return d


def derive_grid(
    horizon: float,
    bandwidth: float,
    initial: InitialDensitySpec,
    spacing: float = 0.05,
) -> Grid1D:
    """Default symmetric grid: half-width 6*sqrt(2T) + support radius + 8*delta.

    Brownian excursions beyond that half-width are exponentially unlikely
    at the scales this artifact targets; escaped mass is still counted.
    """
    from .initial import support_radius

    radius = support_radius(initial) if initial.family in INITIAL_FAMILIES else math.nan
    if not (0.0 < horizon < math.inf and 0.0 < bandwidth < math.inf and math.isfinite(radius)):
        raise ConfigError([
            "the default grid needs a finite horizon > 0, bandwidth > 0 and initial support "
            f"radius, got {horizon}, {bandwidth} and {radius}"
        ])
    half = 6.0 * math.sqrt(2.0 * horizon) + radius + 8.0 * bandwidth
    n_half = int(math.ceil(half / spacing))
    return Grid1D(lower=-n_half * spacing, upper=n_half * spacing, spacing=spacing)


def config_violations(config: SimConfig) -> list[str]:
    """Collect every invariant violation of ``config`` (empty list = valid)."""
    from .initial import initial_violations

    out: list[str] = []
    out.extend(config.physical.violations())
    out.extend(config.kernel.violations())
    horizon_ok = 0.0 < config.horizon < math.inf
    step_ok = 0.0 < config.step < math.inf
    try:
        grid = config.resolved_grid()
    except ConfigError:  # no default grid from a bad horizon, bandwidth or initial law
        grid = None
    if grid is not None:
        out.extend(grid.violations())

    if not horizon_ok:
        out.append(f"horizon must be finite and > 0, got {config.horizon}")
    if not step_ok:
        out.append(f"step must be finite and > 0, got {config.step}")
    if horizon_ok and step_ok:
        k = round(config.horizon / config.step)
        if k < 1 or abs(config.horizon - k * config.step) > DT_DIVISION_RTOL * config.horizon:
            out.append(
                f"step {config.step} does not divide horizon {config.horizon}"
            )
        # explicit-scheme stability for the shared PDE config
        if grid is not None and not grid.violations():
            cfl = grid.spacing**2 / 2.0
            if config.step > cfl * (1.0 + 1e-12):
                out.append(
                    f"CFL violation: step {config.step} exceeds spacing^2/2 = {cfl}"
                )
    if config.particles < 1:
        out.append(f"particles must be >= 1, got {config.particles}")
    if config.mode not in MODES:
        out.append(f"mode must be one of {MODES}, got {config.mode!r}")
    if config.field_mode not in FIELD_MODES:
        out.append(f"field-mode must be one of {FIELD_MODES}, got {config.field_mode!r}")
    if not (0 <= int(config.seed) < 2**64):
        out.append(f"seed must be a 64-bit unsigned integer, got {config.seed}")
    out.extend(initial_violations(config.initial, config.physical.s0))
    return out


def validate_config(config: SimConfig) -> SimConfig:
    """Return ``config`` unchanged iff every invariant holds.

    Raises :class:`ConfigError` carrying the full list of violations
    otherwise.  Validation is idempotent: a validated config validates
    again to itself.
    """
    violations = config_violations(config)
    if violations:
        raise ConfigError(violations)
    return config


def _initial_from_dict(d: dict) -> InitialDensitySpec:
    table_x = d.get("table_x")
    table_p = d.get("table_p")
    return InitialDensitySpec(
        family=d.get("family", "gaussian-bump"),
        center=float(d.get("center", 0.0)),
        width=float(d.get("width", 1.0)),
        normalize=bool(d.get("normalize", True)),
        table_x=tuple(float(v) for v in table_x) if table_x is not None else None,
        table_p=tuple(float(v) for v in table_p) if table_p is not None else None,
    )


def config_from_dict(d: dict) -> SimConfig:
    """Build a :class:`SimConfig` from a nested dict (YAML layout)."""
    phys = d.get("physical", {})
    kern = d.get("kernel", {})
    grid_d = d.get("grid")
    grid = None
    if grid_d:
        grid = Grid1D(
            lower=float(grid_d["lower"]),
            upper=float(grid_d["upper"]),
            spacing=float(grid_d["spacing"]),
        )
    return SimConfig(
        physical=PhysicalParams(
            lam=float(phys.get("lambda", 1.0)),
            c0=float(phys.get("c0", 1.0)),
            phi0=float(phys.get("phi0", 0.3)),
            phi1=float(phys.get("phi1", 0.7)),
            phi_bar=float(phys.get("phi_bar", 2.0)),
            s0=float(phys.get("s0", 1.0)),
        ),
        kernel=KernelSpec(
            bandwidth=float(kern.get("bandwidth", 0.3)),
            shape=kern.get("shape", "gaussian"),
        ),
        grid=grid,
        horizon=float(d.get("horizon", 0.5)),
        step=float(d.get("step", 1e-3)),
        particles=int(d.get("particles", 10_000)),
        mode=str(d.get("mode", "feynman-kac")),
        seed=int(d.get("seed", 0)),
        field_mode=str(d.get("field_mode", d.get("field-mode", "grid-accumulator"))),
        initial=_initial_from_dict(d.get("initial", {})),
    )


def load_config(path: str | Path) -> SimConfig:
    """Load a config from a YAML file (key/value with nested sections)."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh) or {}
    except yaml.YAMLError as err:
        raise ConfigError([f"config file {path} is not valid YAML: {err}"]) from err
    if not isinstance(data, dict):
        raise ConfigError([f"config file {path} does not contain a mapping"])
    return config_from_dict(data)
