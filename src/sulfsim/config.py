"""Domain types, configuration loading, and validation.

Every simulation entry point takes a :class:`SimConfig`.  Configs are
immutable after validation.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import yaml

MODES = ("feynman-kac", "killed")
INITIAL_FAMILIES = ("gaussian-bump", "truncated-cosine-bump", "tabulated")

# dt must divide the horizon to within this relative tolerance
DT_DIVISION_RTOL = 1e-12

# more grid nodes than this are refused before any array is allocated
MAX_GRID_NODES = 10**7

# more time steps than this are refused: the step loops have no other bound
MAX_STEPS = 10**7

# a grid spacing above this many kernel bandwidths is refused: the deposit's
# Taylor stencils and the PDE's kernel taps no longer resolve the kernel
MAX_SPACING_PER_BANDWIDTH = 2.0

# a kernel bandwidth above this many grid spacings is refused: the deposit's
# block matrix and the PDE's taps grow with the 8-bandwidth reach in nodes
MAX_BANDWIDTH_PER_SPACING = 1024.0

# libyaml's loader where PyYAML was built with it: about 10x faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# field name -> YAML key, where the two differ
_YAML_KEYS = {"lam": "lambda"}


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
        bad = [f.name for f in fields(self) if not math.isfinite(getattr(self, f.name))]
        if bad:
            return [f"physical {', '.join(_YAML_KEYS.get(b, b) for b in bad)} must be finite"]
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

    def violations(self) -> list[str]:
        if not (0.0 < self.bandwidth < math.inf):
            return [f"kernel bandwidth must be finite and > 0, got {self.bandwidth}"]
        return []


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
        if not all(map(math.isfinite, (self.lower, self.upper, self.spacing))):
            return [f"grid lower, upper and spacing must be finite, got "
                    f"[{self.lower}, {self.upper}] and {self.spacing}"]
        if not (self.spacing > 0.0):
            return [f"grid spacing must be > 0, got {self.spacing}"]
        if not (self.upper > self.lower):
            return [f"grid upper must exceed lower, got [{self.lower}, {self.upper}]"]
        m = (self.upper - self.lower) / self.spacing
        if not math.isfinite(m) or self.n_nodes > MAX_GRID_NODES:  # n_nodes cannot round inf
            return [f"grid [{self.lower}, {self.upper}] at spacing {self.spacing} has more "
                    f"than {MAX_GRID_NODES} nodes"]
        out = []
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
    initial: InitialDensitySpec = field(default_factory=InitialDensitySpec)

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.step))

    def recording_stride(self, stride: int | None) -> int:
        """Steps between recorded snapshots: ``stride``, or about ten per run."""
        return stride or max(1, self.n_steps // 10)

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
        """The config in YAML layout, grid included; None values are left out."""
        return asdict(self.with_grid(), dict_factory=lambda items: {
            _YAML_KEYS.get(name, name): value for name, value in items if value is not None})


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
    half = (6.0 * math.sqrt(2.0 * horizon) + radius + 8.0 * bandwidth) / spacing
    n_half = int(math.ceil(half)) if half < math.inf else half  # an infinite grid is refused
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
    grid_ok = False
    if grid is not None:
        grid_errors = grid.violations()
        out.extend(grid_errors)
        grid_ok = not grid_errors
    bandwidth = config.kernel.bandwidth
    if grid_ok and 0.0 < bandwidth < math.inf:
        if grid.spacing > MAX_SPACING_PER_BANDWIDTH * bandwidth:
            out.append(f"grid spacing {grid.spacing} exceeds {MAX_SPACING_PER_BANDWIDTH:g} "
                       f"times the kernel bandwidth {bandwidth}")
        elif bandwidth > MAX_BANDWIDTH_PER_SPACING * grid.spacing:
            out.append(f"kernel bandwidth {bandwidth} exceeds {MAX_BANDWIDTH_PER_SPACING:g} "
                       f"times the grid spacing {grid.spacing}")

    if not horizon_ok:
        out.append(f"horizon must be finite and > 0, got {config.horizon}")
    if not step_ok:
        out.append(f"step must be finite and > 0, got {config.step}")
    if horizon_ok and step_ok:
        ratio = config.horizon / config.step
        k = round(ratio) if math.isfinite(ratio) else math.inf
        if k > MAX_STEPS:
            out.append(f"horizon {config.horizon} at step {config.step} takes {ratio:.4g} "
                       f"steps, more than {MAX_STEPS}")
        elif k < 1 or abs(config.horizon - k * config.step) > DT_DIVISION_RTOL * config.horizon:
            out.append(f"step {config.step} does not divide horizon {config.horizon}")
        # explicit-scheme stability for the shared PDE config
        if grid_ok:
            cfl = grid.spacing**2 / 2.0
            if config.step > cfl * (1.0 + 1e-12):
                out.append(
                    f"CFL violation: step {config.step} exceeds spacing^2/2 = {cfl}"
                )
    if config.particles < 1:
        out.append(f"particles must be >= 1, got {config.particles}")
    if config.mode not in MODES:
        out.append(f"mode must be one of {MODES}, got {config.mode!r}")
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


_field_types = functools.cache(typing.get_type_hints)  # dataclass -> {field: type}
_KIND_NAMES = {float: "a number", int: "an integer", str: "a string", bool: "true or false"}


def _read(kind, value, path: str, errors: list[str]):
    """``value`` read as a ``kind``; a dataclass is read as the dict of the
    fields given.  Appends why to ``errors`` and returns None when it is not
    one."""
    if is_dataclass(kind):
        if not isinstance(value, dict):
            errors.append(f"{path or 'config'} must be a mapping, got {value!r}")
            return None
        names = {_YAML_KEYS.get(f.name, f.name): f.name for f in fields(kind)}
        types = _field_types(kind)
        given = {}
        for key, item in value.items():
            where = f"{path}.{key}" if path else str(key)
            if key in names:
                given[names[key]] = _read(types[names[key]], item, where, errors)
            else:
                errors.append(f"{where} is not a config key")
        return given
    args = typing.get_args(kind)
    if type(None) in args:  # X | None
        if value is None:
            return None
        (kind,) = (a for a in args if a is not type(None))
        return _read(kind, value, path, errors)
    if typing.get_origin(kind) is tuple:  # tuple[float, ...]
        if not isinstance(value, (list, tuple)):
            errors.append(f"{path} must be a list of numbers, got {value!r}")
            return None
        return tuple(_read(args[0], v, f"{path}[{i}]", errors) for i, v in enumerate(value))
    if isinstance(value, bool) is (kind is bool):  # bool is an int, but not a number here
        if kind is float and isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, kind):
            return value
    errors.append(f"{path} must be {_KIND_NAMES[kind]}, got {value!r}")
    return None


def config_from_dict(d: dict, overrides: dict | None = None) -> SimConfig:
    """Build a :class:`SimConfig` from a nested dict (YAML layout), with the
    values of ``overrides`` (same layout) laid over those of ``d``.

    Missing keys take the dataclass defaults.  Raises :class:`ConfigError`
    naming every unknown key and every value of the wrong type, in either
    dict, by its key path.  A grid block that gives only some of lower,
    upper and spacing takes the others from the grid derived from the rest
    of the config, at its spacing when that is finite and > 0.
    """
    errors: list[str] = []
    given = _read(SimConfig, d, "", errors)
    laid_over = _read(SimConfig, overrides or {}, "", errors)
    if errors:
        raise ConfigError(errors)
    given = _merged(given, laid_over)
    grid = given.pop("grid", None)
    types = _field_types(SimConfig)
    config = SimConfig(**{name: types[name](**value) if isinstance(value, dict) else value
                          for name, value in given.items()})
    if grid:
        if len(grid) < len(fields(Grid1D)):
            spacing = grid.get("spacing", math.nan)  # a bad one is left to validation
            at = {"spacing": spacing} if 0.0 < spacing < math.inf else {}
            derived = derive_grid(config.horizon, config.kernel.bandwidth, config.initial, **at)
            grid = {**asdict(derived), **grid}
        config = replace(config, grid=Grid1D(**grid))
    return config


def _merged(base: dict, overrides: dict) -> dict:
    """``base`` with ``overrides`` laid over it key by key, nested dicts merged."""
    out = dict(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            value = _merged(out[key], value)
        out[key] = value
    return out


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> SimConfig:
    """Load a config from a YAML file (key/value with nested sections), or
    the defaults without one, with ``overrides`` (same layout) merged over it
    by :func:`config_from_dict`."""
    data: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = yaml.load(fh, Loader=_YAML_LOADER) or {}
        except yaml.YAMLError as err:
            raise ConfigError([f"config file {path} is not valid YAML: {err}"]) from err
        if not isinstance(data, dict):
            raise ConfigError([f"config file {path} does not contain a mapping"])
    return config_from_dict(data, overrides)
