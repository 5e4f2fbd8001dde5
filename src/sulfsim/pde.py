"""Explicit finite-difference solver for the regularized nonlocal PDE.

The density v evolves under diffusion, the porosity-gradient advection
driven by the accumulated convolutions A = int K*v dr and G = int d/dx
(K*v) dr, and the reaction sink rate(A) * v.  Space: central second
difference plus conservative first-order upwinding (interface fluxes,
sign-selected); time: forward Euler under the CFL bound dt <= h^2/2.

Every step reports its mass ledger (sink, boundary flux, clamped mass),
telescoped from the scheme itself so the discrete mass balance closes to
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import Grid1D, PhysicalParams, SimConfig, validate_config
from .dynamics import drift_b, reaction_rate, recover_calcite
from .initial import density as initial_density
from .kernel import CUTOFF_BANDWIDTHS, kernel_grad, kernel_value


class CflError(RuntimeError):
    pass


class NonFinitePdeStateError(RuntimeError):
    """The density v holds a non-finite value."""


def convolution_stencils(delta: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid taps for K*v and (K*v)' with the 8-bandwidth cutoff.

    Tap i corresponds to offset o = i - half; convolving v with these taps
    approximates the integral against K (resp. K') sampled on the grid,
    with half weights at the window ends.
    """
    half = int(np.ceil(CUTOFF_BANDWIDTHS * delta / h))
    offs = np.arange(-half, half + 1) * h
    k_taps = kernel_value(offs, delta) * h
    g_taps = kernel_grad(offs, delta) * h
    k_taps[0] *= 0.5
    k_taps[-1] *= 0.5
    g_taps[0] *= 0.5
    g_taps[-1] *= 0.5
    return k_taps, g_taps


def convolve_density(v: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """(taps * v)(x_g) with zero extension beyond the grid."""
    # slice the full convolution ourselves: mode="same" follows the longer
    # operand, which is the stencil on very small grids
    half = (taps.size - 1) // 2
    full = np.convolve(v, taps)
    return full[half : half + v.size]


def mollify_grid_function(v: np.ndarray, grid: Grid1D, delta: float) -> np.ndarray:
    """K * v on the grid: the mollified reference the estimators target."""
    k_taps, _ = convolution_stencils(delta, grid.spacing)
    return convolve_density(v, k_taps)


@dataclass
class PdeState:
    grid: Grid1D
    delta: float
    v: np.ndarray
    A: np.ndarray = field(default=None)  # type: ignore[assignment]
    G: np.ndarray = field(default=None)  # type: ignore[assignment]
    t: float = 0.0

    def __post_init__(self):
        m = self.grid.n_nodes
        if self.A is None:
            self.A = np.zeros(m)
        if self.G is None:
            self.G = np.zeros(m)
        self._k_taps, self._g_taps = convolution_stencils(self.delta, self.grid.spacing)


@dataclass
class StepLedger:
    """Per-step mass bookkeeping telescoped from the explicit scheme."""

    sink: float = 0.0  # dt * quadrature of rate(A) v
    boundary_flux: float = 0.0  # dt * (diffusive + advective outflow)
    clamped: float = 0.0  # mass added by clamping negatives


def init_state(config: SimConfig) -> PdeState:
    config = validate_config(config.with_grid())
    grid = config.grid
    nodes = grid.nodes()
    v = initial_density(config.initial, nodes)
    v = v.copy()
    v[0] = 0.0
    v[-1] = 0.0  # Dirichlet truncation
    return PdeState(grid=grid, delta=config.kernel.bandwidth, v=v)


def pde_step(state: PdeState, params: PhysicalParams, dt: float) -> StepLedger:
    """Advance v by one explicit step with the state's kernel taps; returns the
    step's mass ledger."""
    grid = state.grid
    h = grid.spacing
    if dt > h * h / 2.0 * (1.0 + 1e-12):
        raise CflError(f"dt={dt} violates the stability bound h^2/2={h*h/2.0}")
    v = state.v
    if not np.isfinite(v).all():
        raise NonFinitePdeStateError(f"non-finite PDE state at t={state.t}")

    u = convolve_density(v, state._k_taps)
    du = convolve_density(v, state._g_taps)
    state.A += dt * u
    state.G += dt * du

    A = np.maximum(state.A, 0.0)  # A and G are finite: v is, and only v enters them
    b = drift_b(A, state.G, params)
    rate = reaction_rate(A, params)

    # conservative upwind fluxes at interfaces g+1/2
    b_half = 0.5 * (b[:-1] + b[1:])
    flux = np.where(b_half > 0.0, b_half * v[:-1], b_half * v[1:])

    lap = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    div = (flux[1:] - flux[:-1]) / h
    react = rate[1:-1] * v[1:-1]

    new = v.copy()
    raw = v[1:-1] + dt * (lap - div - react)
    clamped = np.maximum(raw, 0.0)
    new[1:-1] = clamped
    new[0] = 0.0
    new[-1] = 0.0

    ledger = StepLedger()
    ledger.sink = dt * h * float(np.sum(react))
    # telescoped boundary terms: sum_h lap -> -(v_1 + v_{M-2})/h,
    # sum_h div -> flux at the outermost interfaces
    ledger.boundary_flux = dt * ((v[1] + v[-2]) / h + float(flux[-1] - flux[0]))
    ledger.clamped = h * float(np.sum(clamped - raw))

    state.v = new
    state.t += dt
    return ledger


@dataclass
class PdeOutput:
    config: SimConfig
    times: np.ndarray
    steps_recorded: np.ndarray
    densities: list[np.ndarray]
    calcite: list[np.ndarray]
    mass: np.ndarray
    sink: np.ndarray  # per-step dt * reaction sink
    boundary_flux: np.ndarray  # per-step dt * outflow
    clamped: np.ndarray  # per-step clamped mass
    residual: np.ndarray  # per-step mass-balance residual


def solve_pde(config: SimConfig, snapshot_stride: int | None = None) -> PdeOutput:
    """Iterate :func:`pde_step` over the horizon, recording snapshots.

    The per-step residual m_{k+1} - m_k + sink + boundary_flux - clamped
    is reported; it telescopes to rounding error when the ledger is
    consistent with the scheme.
    """
    config = validate_config(config.with_grid())
    state = init_state(config)
    params = config.physical
    dt = config.step
    h = state.grid.spacing
    n_steps = config.n_steps
    stride = config.recording_stride(snapshot_stride)

    times, steps_rec, densities, calcite = [], [], [], []
    mass_series, sink_s, flux_s, clamp_s, resid_s = [], [], [], [], []

    def record(k: int, mass: float) -> None:
        times.append(k * dt)
        steps_rec.append(k)
        densities.append(state.v.copy())
        calcite.append(np.asarray(recover_calcite(np.maximum(state.A, 0.0), params)))
        mass_series.append(mass)

    m_before = float(np.trapezoid(state.v, dx=h))
    record(0, m_before)
    for k in range(n_steps):
        ledger = pde_step(state, params, dt)
        m_after = float(np.trapezoid(state.v, dx=h))
        sink_s.append(ledger.sink)
        flux_s.append(ledger.boundary_flux)
        clamp_s.append(ledger.clamped)
        resid_s.append(m_after - m_before + ledger.sink + ledger.boundary_flux - ledger.clamped)
        if (k + 1) % stride == 0 or k + 1 == n_steps:
            record(k + 1, m_after)
        m_before = m_after

    return PdeOutput(
        config=config,
        times=np.asarray(times),
        steps_recorded=np.asarray(steps_rec, dtype=int),
        densities=densities,
        calcite=calcite,
        mass=np.asarray(mass_series),
        sink=np.asarray(sink_s),
        boundary_flux=np.asarray(flux_s),
        clamped=np.asarray(clamp_s),
        residual=np.asarray(resid_s),
    )
