import numpy as np
import pytest
from dataclasses import replace

from sulfsim import Grid1D, PhysicalParams, SimConfig, pde_step, solve_pde
from sulfsim.kernel import kernel_grad, kernel_value
from sulfsim.pde import (
    CflError,
    PdeState,
    convolution_stencils,
    convolve_density,
    init_state,
    mollify_grid_function,
)


def _heat_config(h=0.05, horizon=0.5):
    return SimConfig(
        physical=PhysicalParams(lam=0.0),
        grid=Grid1D(-8.0, 8.0, h),
        horizon=horizon,
        step=h * h / 2.0,
    )


def test_convolution_stencil_mass():
    k_taps, g_taps = convolution_stencils(0.3, 0.02)
    assert k_taps.sum() == pytest.approx(1.0, abs=1e-9)
    assert g_taps.sum() == pytest.approx(0.0, abs=1e-12)


def test_convolution_of_spike_reproduces_kernel():
    grid = Grid1D(-4.0, 4.0, 0.02)
    v = np.zeros(grid.n_nodes)
    mid = grid.n_nodes // 2
    v[mid] = 1.0 / grid.spacing  # unit-mass spike at x=0
    k_taps, g_taps = convolution_stencils(0.3, grid.spacing)
    u = convolve_density(v, k_taps)
    du = convolve_density(v, g_taps)
    x = grid.nodes()
    keep = np.abs(x) < 2.0
    assert np.max(np.abs(u[keep] - kernel_value(x[keep], 0.3))) < 1e-10
    assert np.max(np.abs(du[keep] - kernel_grad(x[keep], 0.3))) < 1e-8


def test_heat_equation_matches_closed_form():
    cfg = _heat_config()
    res = solve_pde(cfg, snapshot_stride=cfg.n_steps)
    x = cfg.grid.nodes()
    var = 1.0 + 2.0 * cfg.horizon
    oracle = np.exp(-(x**2) / (2 * var)) / np.sqrt(2 * np.pi * var)
    assert np.max(np.abs(res.densities[-1] - oracle)) < 1e-4


def test_zero_density_is_fixed_point(default_params):
    grid = Grid1D(-2.0, 2.0, 0.1)
    state = PdeState(grid=grid, delta=0.3, v=np.zeros(grid.n_nodes))
    pde_step(state, default_params, 0.004)
    assert np.all(state.v == 0.0)


def test_single_step_no_drift_formula(default_params):
    # phi1 = 0: update is v + dt (lap - rate(A) v); after one accumulate
    # A = dt K*v, so rate differs from lambda c0 by O(dt): check both
    p = PhysicalParams(lam=1.0, c0=1.0, phi0=0.3, phi1=0.0, phi_bar=2.0)
    cfg = SimConfig(physical=p, grid=Grid1D(-8.0, 8.0, 0.1), horizon=0.004, step=0.004)
    state = init_state(cfg)
    v0 = state.v.copy()
    h = 0.1
    dt = 0.004
    pde_step(state, p, dt)
    lap = (v0[2:] - 2 * v0[1:-1] + v0[:-2]) / h**2
    approx = v0[1:-1] + dt * (lap - p.lam * p.c0 * v0[1:-1])
    # exact up to the O(dt^2) reaction-argument shift
    assert np.max(np.abs(state.v[1:-1] - approx)) <= 2 * dt**2 * np.max(v0)
    # and exactly the heat step when lam = 0
    p0 = PhysicalParams(lam=0.0, phi1=0.0)
    state0 = init_state(replace(cfg, physical=p0))
    pde_step(state0, p0, dt)
    assert np.array_equal(state0.v[1:-1], v0[1:-1] + dt * lap)


def test_lambda_zero_drift_and_reaction_vanish_identically():
    cfg = _heat_config(h=0.1, horizon=0.1)
    plain = solve_pde(cfg, snapshot_stride=cfg.n_steps)
    flat = solve_pde(
        replace(cfg, physical=PhysicalParams(lam=0.0, phi1=0.0)),
        snapshot_stride=cfg.n_steps,
    )
    assert np.array_equal(plain.densities[-1], flat.densities[-1])


def test_mass_at_zero_and_mass_balance(default_params):
    cfg = SimConfig(grid=Grid1D(-14.0, 14.0, 0.05), horizon=0.1, step=1e-3)
    res = solve_pde(cfg)
    assert res.mass[0] == pytest.approx(1.0, abs=1e-6)
    assert np.max(np.abs(res.residual)) < 1e-12
    assert not res.clamped.any()
    assert np.all(res.densities[-1] >= 0.0)


def test_calcite_bounded_and_nonincreasing():
    cfg = SimConfig(grid=Grid1D(-14.0, 14.0, 0.05), horizon=0.1, step=1e-3)
    res = solve_pde(cfg, snapshot_stride=20)
    c0 = cfg.physical.c0
    stack = np.stack(res.calcite)
    assert np.all(stack > 0.0) and np.all(stack <= c0)
    assert np.all(np.diff(stack, axis=0) <= 1e-15)


def test_cfl_violation_raises(default_params):
    grid = Grid1D(-2.0, 2.0, 0.1)
    state = PdeState(grid=grid, delta=0.3, v=np.zeros(grid.n_nodes))
    with pytest.raises(CflError):
        pde_step(state, default_params, 0.01)


def test_mollified_reference_has_same_mass():
    cfg = _heat_config(h=0.05, horizon=0.1)
    res = solve_pde(cfg, snapshot_stride=cfg.n_steps)
    target = mollify_grid_function(res.densities[-1], cfg.grid, 0.3)
    m_raw = np.trapezoid(res.densities[-1], dx=0.05)
    m_mol = np.trapezoid(target, dx=0.05)
    assert m_mol == pytest.approx(m_raw, abs=1e-6)
