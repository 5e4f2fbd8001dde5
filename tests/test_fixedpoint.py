import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sulfsim import (
    Grid1D,
    PhysicalParams,
    SimConfig,
    WeightedPointCloud,
    apply_mkfk_map,
    picard_solve,
    run_simulation,
)
from sulfsim.io import STACK_POSITIONS, read_archive
from sulfsim.kernel import grid_density

from oracles import archive_paths, inner_integral, whole_lattice_map, write_paths_archive


def _toy_archive(tmp_path, rng, n=20, steps=15, dt=0.01):
    paths, pos = [], rng.normal(0, 1, n)
    for _ in range(steps + 1):
        paths.append(pos)
        pos = pos + np.sqrt(2 * dt) * rng.normal(0, 1, n)
    return write_paths_archive(tmp_path / "toy.bin", paths, dt)


GRID = Grid1D(-8.0, 8.0, 0.1)


def _plain(archive, t):
    """Undiscounted deposit of snapshot t, the map's envelope."""
    x = archive_paths(archive)[t]
    return grid_density(WeightedPointCloud(x, np.ones(x.size)), GRID, 0.3, archive.n_total)[0]


def test_zero_input_gives_constant_rate_discount(tmp_path, rng, default_params):
    archive = _toy_archive(tmp_path, rng)
    u0 = np.zeros((len(archive), GRID.n_nodes))
    out = apply_mkfk_map(u0, archive, GRID, 0.3, default_params)
    lam_c0 = default_params.lam * default_params.c0
    for t in range(len(archive)):
        expected = np.exp(-lam_c0 * t * archive.dt) * _plain(archive, t)
        assert np.max(np.abs(out[t] - expected)) < 1e-14


def test_output_at_time_zero_independent_of_input(tmp_path, rng, default_params):
    archive = _toy_archive(tmp_path, rng)
    shape = (len(archive), GRID.n_nodes)
    a = apply_mkfk_map(np.zeros(shape), archive, GRID, 0.3, default_params)
    b = apply_mkfk_map(np.full(shape, 0.37), archive, GRID, 0.3, default_params)
    initial = _plain(archive, 0)
    assert np.array_equal(a[0], b[0])
    assert np.max(np.abs(a[0] - initial)) < 1e-15


def test_lambda_zero_map_ignores_input(tmp_path, rng):
    archive = _toy_archive(tmp_path, rng)
    p0 = PhysicalParams(lam=0.0)
    shape = (len(archive), GRID.n_nodes)
    a = apply_mkfk_map(np.zeros(shape), archive, GRID, 0.3, p0)
    b = apply_mkfk_map(np.full(shape, 1.3), archive, GRID, 0.3, p0)
    assert np.array_equal(a, b)


def test_lambda_zero_picard_converges_after_one_iteration(tmp_path, rng):
    archive = _toy_archive(tmp_path, rng)
    res = picard_solve(archive, GRID, 0.3, PhysicalParams(lam=0.0))
    assert res.converged
    assert res.iterations == 2  # d_1 > 0 computed, d_2 = 0 confirms
    assert res.distances[1] == 0.0


def test_map_is_monotone_increasing_in_u(tmp_path, rng, default_params):
    # larger u -> faster calcite depletion -> lower later rate -> larger
    # discount, so the map preserves pointwise order
    archive = _toy_archive(tmp_path, rng)
    shape = (len(archive), GRID.n_nodes)
    lo = apply_mkfk_map(np.zeros(shape), archive, GRID, 0.3, default_params)
    hi = apply_mkfk_map(np.full(shape, 0.5), archive, GRID, 0.3, default_params)
    assert np.all(hi >= lo)


def test_iterates_respect_kernel_envelope(tmp_path, rng, default_params):
    archive = _toy_archive(tmp_path, rng)
    envelope = np.stack([_plain(archive, t) for t in range(len(archive))])
    u = np.zeros_like(envelope)
    for _ in range(3):
        u = apply_mkfk_map(u, archive, GRID, 0.3, default_params)
        assert np.all(u >= 0.0)
        assert np.all(u <= envelope + 1e-15)


def test_picard_contraction_and_determinism(tmp_path, rng, default_params):
    archive = _toy_archive(tmp_path, rng, n=30, steps=25)
    a = picard_solve(archive, GRID, 0.3, default_params)
    b = picard_solve(archive, GRID, 0.3, default_params)
    assert np.array_equal(a.fixed_point, b.fixed_point)
    assert np.array_equal(a.distances, b.distances)
    assert a.converged
    assert np.all(a.ratios[1:] < 1.0)


def test_shape_mismatch_rejected(tmp_path, rng, default_params):
    archive = _toy_archive(tmp_path, rng)
    with pytest.raises(ValueError):
        apply_mkfk_map(np.zeros((3, 3)), archive, GRID, 0.3, default_params)


def test_map_holds_no_time_by_particle_array(tmp_path, default_params):
    n_times, n = 201, 4000
    r = np.random.default_rng(5)
    paths, pos = [], r.normal(0.0, 1.0, n)
    for _ in range(n_times):
        paths.append(pos)
        pos = pos + np.sqrt(2e-3) * r.normal(0.0, 1.0, n)
    path = write_paths_archive(tmp_path / "a.bin", paths, 1e-3).path
    del paths
    u = np.full((n_times, GRID.n_nodes), 0.1)
    apply_mkfk_map(u, read_archive(path), GRID, 0.3, default_params)  # fills the stencil cache
    tracemalloc.start()
    try:
        apply_mkfk_map(u, read_archive(path), GRID, 0.3, default_params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file is the only copy of the paths: the check pass and the map hold
    # a row at a time: a quarter of one (S, N) float64 array (6.1 MiB) is ample
    assert peak < n_times * n * 8 // 4


def test_map_memory_is_a_few_stacks_whatever_the_snapshot_count(tmp_path, default_params):
    # N = 500 reads stacks of 16 snapshots; the paths do not spread with time, so
    # the deposit's occupied blocks, and its moments, do not grow with S either
    n_times, n = 401, 500
    assert STACK_POSITIONS // n == 16
    paths = np.random.default_rng(6).normal(0.0, 1.0, (n_times, n))
    archive = write_paths_archive(tmp_path / "a.bin", paths, 1e-3)
    del paths
    u = np.full((n_times, GRID.n_nodes), 0.1)
    apply_mkfk_map(u, archive, GRID, 0.3, default_params)  # fills the stencil cache
    tracemalloc.start()
    try:
        out = apply_mkfk_map(u, archive, GRID, 0.3, default_params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # besides its (S, m) output the map holds one stack's reads, sums and deposit
    # (about 0.77 MB here): within 16 float64 arrays of a full stack (1 MiB) at
    # any S, below the 1.6 MB of the (S, N) paths
    assert peak - out.nbytes < 16 * STACK_POSITIONS * 8


def test_max_iters_too_small_rejected(tmp_path, rng, default_params):
    archive = _toy_archive(tmp_path, rng)
    with pytest.raises(ValueError):
        picard_solve(archive, GRID, 0.3, default_params, max_iters=1)


def test_fixed_point_consistent_with_fk_run(tmp_path):
    cfg = SimConfig(
        particles=100,
        horizon=0.1,
        step=1e-3,
        seed=31,
        grid=Grid1D(-10.0, 10.0, 0.05),
    )
    sim = run_simulation(cfg, archive_path=tmp_path / "a.bin", snapshot_stride=1)
    res = picard_solve(read_archive(tmp_path / "a.bin"), cfg.grid, cfg.kernel.bandwidth,
                       cfg.physical, tol=1e-10)
    assert res.converged
    gap = max(
        float(np.max(np.abs(res.fixed_point[k] - sim.densities[k])))
        for k in range(len(sim.densities))
    )
    assert gap <= 1e-10 + 2 * cfg.step


@st.composite
def _map_case(draw):
    """Random grid, archive and lattice; one path always crosses the grid."""
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.integers(3, 40))
    spacing = draw(st.sampled_from([0.05, 0.1, 0.25, 0.5]))
    lower = draw(st.floats(-3.0, 0.0))
    grid = Grid1D(lower, lower + spacing * (m - 1), spacing)
    n_times = draw(st.integers(1, 9))
    n = draw(st.integers(1, 6))
    dt = draw(st.floats(1e-3, 0.1))
    r = np.random.default_rng(seed)
    span = grid.upper - grid.lower
    paths = grid.lower - 2.0 + (span + 4.0) * r.random((n_times, n))
    crossing = np.linspace(grid.lower - 1.0, grid.upper + 1.0, n_times)
    paths = np.column_stack([paths, crossing])
    u = draw(st.floats(0.0, 3.0)) * r.random((n_times, grid.n_nodes))
    return grid, paths, dt, u


def _old_inner(u, paths, grid, dt):
    """Explicit double sum dt * sum_{r<s} lerp(u_r, X_s), re-interpolating
    every lattice row at every time."""
    m = grid.n_nodes
    inner = np.zeros(paths.shape)
    for s in range(1, len(paths)):
        pos = np.clip((paths[s] - grid.lower) / grid.spacing, 0.0, m - 1)
        j = np.minimum(pos.astype(np.int64), m - 2)
        frac = pos - j
        rows = u[:, j] * (1.0 - frac) + u[:, j + 1] * frac
        inner[s] = dt * rows[:s].sum(axis=0)
    return inner


@settings(max_examples=60, deadline=None)
@given(_map_case())
def test_prefix_sum_inner_integral_matches_double_sum(case):
    grid, paths, dt, u = case
    new = inner_integral(u, paths, grid, dt)
    old = _old_inner(u, paths, grid, dt)
    # the terms are nonnegative, so their sum bounds every rounding error;
    # below the smallest normal float only absolute accuracy is defined
    scale = dt * np.concatenate([[0.0], np.cumsum(u.max(axis=1))[:-1]])
    assert np.all(np.abs(new - old) <= 1e-12 * scale[:, None] + np.finfo(float).tiny)


@settings(max_examples=30, deadline=None)
@given(_map_case(), st.floats(0.0, 3.0), st.floats(0.5, 2.0), st.floats(0.1, 1.0))
def test_output_rows_are_deposits_of_discounted_cloud(case, lam, c0, delta):
    grid, paths, dt, u = case
    n = paths.shape[1]
    with tempfile.TemporaryDirectory() as tmp:
        archive = write_paths_archive(Path(tmp) / "a.bin", paths, dt)
        out = apply_mkfk_map(u, archive, grid, delta, PhysicalParams(lam=lam, c0=c0))
    inner = _old_inner(u, paths, grid, dt)
    hazard = np.zeros(paths.shape)
    for t in range(1, len(paths)):
        hazard[t] = lam * c0 * dt * np.exp(-lam * inner[:t]).sum(axis=0)
    for t, x in enumerate(paths):
        cloud = WeightedPointCloud(x, np.exp(-hazard[t]))
        expected = grid_density(cloud, grid, delta, n)[0]
        assert np.all(np.abs(out[t] - expected) <= 1e-12 * expected.max())


def _small_case(n_times, n):
    """A fixed map case on a 5-node grid whose paths run on and off it."""
    grid = Grid1D(-1.0, 1.0, 0.5)
    paths = np.linspace(-2.0, 2.0, n_times * n).reshape(n_times, n)
    return grid, paths, 0.05, np.linspace(0.0, 2.0, n_times * 5).reshape(n_times, 5)


@settings(max_examples=60, deadline=None)
@given(_map_case(), st.integers(1, 7), st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
       st.floats(0.5, 2.0), st.floats(0.1, 1.0))
@example(case=_small_case(1, 1), keep=1, lam=1.0, c0=1.0, delta=0.3)
@example(case=_small_case(4, 1), keep=1, lam=0.0, c0=1.0, delta=0.3)
@example(case=_small_case(1, 3), keep=3, lam=0.0, c0=2.0, delta=0.5)
# stacks of 2, 2 and 1 snapshots; one snapshot a stack, just past the budget
@example(case=_small_case(5, STACK_POSITIONS // 2), keep=STACK_POSITIONS // 2, lam=1.0,
         c0=1.0, delta=0.3)
@example(case=_small_case(3, STACK_POSITIONS + 1), keep=STACK_POSITIONS + 1, lam=1.0,
         c0=1.0, delta=0.3)
def test_streaming_map_equals_whole_lattice_oracle(case, keep, lam, c0, delta):
    grid, paths, dt, u = case
    paths = paths[:, -keep:]  # the last path crosses the grid and leaves it
    params = PhysicalParams(lam=lam, c0=c0)
    with tempfile.TemporaryDirectory() as tmp:
        archive = write_paths_archive(Path(tmp) / "a.bin", paths, dt)
        streamed = apply_mkfk_map(u, archive, grid, delta, params)
        assert np.array_equal(streamed, whole_lattice_map(u, archive, grid, delta, params))
