import numpy as np
import pytest

from sulfsim import Grid1D, WeightedPointCloud, accumulate_step
from sulfsim.fields import AccumulatedFields

from oracles import accumulate_from_archive, exact_history_args


def _single_particle_cloud():
    return WeightedPointCloud(np.array([0.0]), np.array([1.0]))


def test_accumulate_single_particle_example():
    grid = Grid1D(-8.0, 8.0, 0.05)
    fields = AccumulatedFields(grid=grid, delta=1.0)
    accumulate_step(fields, _single_particle_cloud(), 1, 0.1)
    mid = grid.n_nodes // 2
    assert grid.nodes()[mid] == 0.0
    assert fields.A[mid] == pytest.approx(0.03989422804, abs=1e-10)


def test_accumulate_zero_weights_leaves_fields():
    grid = Grid1D(-4.0, 4.0, 0.1)
    fields = AccumulatedFields(grid=grid, delta=0.5)
    cloud = WeightedPointCloud(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    accumulate_step(fields, cloud, 2, 0.1)
    assert np.all(fields.A == 0.0) and np.all(fields.G == 0.0)


def test_static_cloud_doubles_exactly(rng):
    grid = Grid1D(-6.0, 6.0, 0.1)
    cloud = WeightedPointCloud(rng.normal(0, 1, 50), rng.random(50))
    one = AccumulatedFields(grid=grid, delta=0.4)
    accumulate_step(one, cloud, 50, 0.01)
    two = AccumulatedFields(grid=grid, delta=0.4)
    accumulate_step(two, cloud, 50, 0.01)
    accumulate_step(two, cloud, 50, 0.01)
    assert np.array_equal(two.A, 2.0 * one.A)
    assert np.array_equal(two.G, 2.0 * one.G)


def test_interpolate_exact_at_nodes_and_midpoints():
    grid = Grid1D(0.0, 1.0, 0.25)
    fields = AccumulatedFields(grid=grid, delta=1.0)
    fields.A = np.array([0.0, 1.0, 4.0, 9.0, 16.0])
    fields.G = np.zeros(5)
    I = fields.args_at(fields.coords_at([0.5, 0.375])).I
    assert I[0] == 4.0
    assert I[1] == pytest.approx((1.0 + 4.0) / 2.0)


def test_interpolate_reproduces_affine_exactly():
    grid = Grid1D(-1.0, 1.0, 0.1)
    fields = AccumulatedFields(grid=grid, delta=1.0)
    fields.A = 3.0 + 2.0 * grid.nodes()
    x = np.linspace(-1.0, 1.0, 101)
    out = fields.args_at(fields.coords_at(x))
    assert np.max(np.abs(out.I - (3.0 + 2.0 * x))) < 1e-12


def test_interpolate_out_of_domain_returns_boundary_and_counts():
    grid = Grid1D(-1.0, 1.0, 0.5)
    fields = AccumulatedFields(grid=grid, delta=1.0)
    fields.A = np.array([5.0, 0.0, 0.0, 0.0, 7.0])
    out = fields.args_at(fields.coords_at(np.array([-3.0, 3.0, 0.0])))
    assert out.I[0] == 5.0 and out.I[1] == 7.0
    assert fields.out_of_domain == 2


def test_exact_history_single_snapshot():
    out = exact_history_args([_single_particle_cloud()], 0.1, 0.0, 1.0, 1)
    assert out.I == pytest.approx(0.1 * 0.3989422804, abs=1e-10)


def test_exact_history_zero_weights():
    cloud = WeightedPointCloud(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    out = exact_history_args([cloud, cloud], 0.1, np.array([0.0, 0.5]), 1.0, 2)
    assert np.all(out.I == 0.0) and np.all(out.J == 0.0)


def test_exact_history_empty_archive_rejected():
    with pytest.raises(ValueError):
        exact_history_args([], 0.1, 0.0, 1.0, 1)


def test_grid_accumulator_matches_exact_history_at_nodes(rng):
    # same quadrature, different bookkeeping: sup-relative gap <= 1e-12
    grid = Grid1D(-6.0, 6.0, 0.1)
    delta, n, dt = 0.3, 40, 0.01
    clouds = []
    pos = rng.normal(0, 1, n)
    fields = AccumulatedFields(grid=grid, delta=delta)
    for _ in range(30):
        cloud = WeightedPointCloud(pos, rng.random(n))
        clouds.append(cloud)
        accumulate_step(fields, cloud, n, dt)
        pos = pos + rng.normal(0, 0.1, n)
    nodes = grid.nodes()
    exact = exact_history_args(clouds, dt, nodes, delta, n)
    assert np.max(np.abs(fields.A - exact.I)) <= 1e-12 * np.max(fields.A)
    assert np.max(np.abs(fields.G - exact.J)) <= 1e-12 * np.max(np.abs(exact.J))
    assert np.all(fields.A >= 0.0)


def test_accumulated_density_monotone_in_time(rng):
    grid = Grid1D(-4.0, 4.0, 0.1)
    fields = AccumulatedFields(grid=grid, delta=0.3)
    prev = fields.A.copy()
    for _ in range(5):
        cloud = WeightedPointCloud(rng.normal(0, 1, 20), rng.random(20))
        accumulate_step(fields, cloud, 20, 0.05)
        assert np.all(fields.A >= prev)
        prev = fields.A.copy()


def test_replayed_accumulator_equals_online(rng):
    grid = Grid1D(-5.0, 5.0, 0.1)
    delta, n, dt = 0.4, 25, 0.02
    clouds = []
    fields = AccumulatedFields(grid=grid, delta=delta)
    pos = rng.normal(0, 1, n)
    for _ in range(10):
        cloud = WeightedPointCloud(pos, np.ones(n))
        clouds.append(cloud)
        accumulate_step(fields, cloud, n, dt)
        pos = pos + rng.normal(0, 0.05, n)
    replay = accumulate_from_archive(clouds, dt, grid, delta, n)
    assert np.array_equal(replay.A, fields.A)
    assert np.array_equal(replay.G, fields.G)
