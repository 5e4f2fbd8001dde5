import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sulfsim import Grid1D, WeightedPointCloud, kernel_grad, kernel_value
import sulfsim.kernel
from sulfsim.kernel import SLICE_COLUMNS, _BLOCK, _block_matrix, _stencils, grid_density

from oracles import mollify, mollify_grad, run_python


def test_kernel_value_closed_forms():
    assert kernel_value(0.0, 1.0) == pytest.approx(0.3989422804, abs=1e-10)
    assert kernel_value(1.0, 1.0) == pytest.approx(0.2419707245, abs=1e-10)


def test_kernel_even_symmetry(rng):
    x = rng.normal(0, 2, 100)
    assert np.array_equal(kernel_value(x, 0.7), kernel_value(-x, 0.7))


def test_kernel_grad_closed_forms():
    assert kernel_grad(0.0, 1.0) == 0.0
    assert kernel_grad(1.0, 1.0) == pytest.approx(-0.2419707245, abs=1e-10)


def test_kernel_grad_finite_difference_oracle():
    h = 1e-5
    fd = (kernel_value(0.5 + h, 1.0) - kernel_value(0.5 - h, 1.0)) / (2 * h)
    assert kernel_grad(0.5, 1.0) == pytest.approx(fd, abs=1e-8)


def test_kernel_integrates_to_one_and_grad_to_zero():
    x = np.linspace(-8.0, 8.0, 32001)
    assert np.trapezoid(kernel_value(x, 1.0), x) == pytest.approx(1.0, abs=1e-6)
    assert np.trapezoid(kernel_grad(x, 1.0), x) == pytest.approx(0.0, abs=1e-6)


def test_mollify_single_particle():
    cloud = WeightedPointCloud(np.array([0.0]), np.array([1.0]))
    assert mollify(cloud, 1.0, 0.0, 1) == pytest.approx(0.3989422804, abs=1e-10)


def test_mollify_zero_weights():
    cloud = WeightedPointCloud(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    q = np.linspace(-2, 2, 11)
    assert np.all(mollify(cloud, 1.0, q, 2) == 0.0)


def test_mollify_symmetry():
    cloud = WeightedPointCloud(np.array([-0.7, 0.7]), np.array([0.5, 0.5]))
    assert mollify(cloud, 1.0, 0.7, 2) == pytest.approx(mollify(cloud, 1.0, -0.7, 2), rel=1e-14)


def test_mollify_grad_odd_symmetry():
    cloud = WeightedPointCloud(np.array([0.0]), np.array([1.0]))
    assert mollify_grad(cloud, 1.0, 0.0, 1) == 0.0
    sym = WeightedPointCloud(np.array([-1.2, 1.2]), np.array([0.4, 0.4]))
    assert mollify_grad(sym, 1.0, 0.0, 2) == pytest.approx(0.0, abs=1e-15)


def test_mollify_grad_matches_finite_difference(rng):
    cloud = WeightedPointCloud(rng.normal(0, 1, 50), rng.random(50))
    h = 1e-5
    fd = (mollify(cloud, 1.0, 0.3 + h, 50) - mollify(cloud, 1.0, 0.3 - h, 50)) / (2 * h)
    assert mollify_grad(cloud, 1.0, 0.3, 50) == pytest.approx(fd, abs=1e-6)


def test_mollify_mass_equals_weight_mass(rng):
    cloud = WeightedPointCloud(rng.normal(0, 1, 40), rng.random(40))
    delta = 0.5
    lo = cloud.positions.min() - 8 * delta
    hi = cloud.positions.max() + 8 * delta
    x = np.linspace(lo, hi, 40001)
    mass = np.trapezoid(mollify(cloud, delta, x, 40), x)
    assert mass == pytest.approx(cloud.weights.sum() / 40, abs=1e-6)


def test_mollify_linear_in_weights_exactly(rng):
    pos = rng.normal(0, 1, 30)
    w = rng.random(30) * 0.5
    q = np.linspace(-3, 3, 17)
    one = mollify(WeightedPointCloud(pos, w), 0.4, q, 30)
    two = mollify(WeightedPointCloud(pos, 2 * w), 0.4, q, 30)
    assert np.array_equal(two, 2 * one)


def test_cloud_validation():
    with pytest.raises(ValueError):
        WeightedPointCloud(np.array([0.0, np.inf]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        WeightedPointCloud(np.array([0.0]), np.array([1.5]))
    with pytest.raises(ValueError):
        WeightedPointCloud(np.array([0.0, 1.0]), np.array([1.0]))


def test_mollify_requires_positive_divisor():
    cloud = WeightedPointCloud(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        mollify(cloud, 1.0, 0.0, 0)


def test_grid_density_matches_mollify(rng):
    cloud = WeightedPointCloud(rng.normal(0, 1, 500), rng.random(500))
    grid = Grid1D(-6.0, 6.0, 0.05)
    u, du = grid_density(cloud, grid, 0.3, 500)
    nodes = grid.nodes()
    u_ref = mollify(cloud, 0.3, nodes, 500)
    du_ref = mollify_grad(cloud, 0.3, nodes, 500)
    assert np.max(np.abs(u - u_ref)) <= 1e-12 * np.max(u_ref)
    assert np.max(np.abs(du - du_ref)) <= 1e-12 * np.max(np.abs(du_ref))


def test_stencils_refuse_a_bandwidth_the_grid_cannot_resolve(monkeypatch):
    assert _stencils(0.05, 0.005).shape[1] == 123  # spacing/bandwidth = 10
    with pytest.raises(ValueError, match="Taylor order above"):
        _stencils(0.05, 0.0025)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="Taylor order above"):
        _stencils(0.05, 1e-6)  # the remainder overflows
    # with the order uncapped, s_max^p overflows in the tail
    monkeypatch.setattr(sulfsim.kernel, "_MAX_ORDER", 10**4)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="tail overflows"):
        _stencils(0.05, 0.0025)


def _offset_deposit(cloud, grid, delta, n_total):
    """Reference deposit: one exact kernel evaluation per particle and node
    offset, the same nearest-node truncation as grid_density."""
    m, h = grid.n_nodes, grid.spacing
    j = np.floor((cloud.positions - grid.lower) / h + 0.5).astype(np.int64)
    r = cloud.positions - (grid.lower + j * h)
    half = math.ceil(8.0 * delta / h + 0.5)
    u, du = np.zeros(m), np.zeros(m)
    for o in range(-half, half + 1):
        arg = o * h - r
        kv = cloud.weights * kernel_value(arg, delta)
        idx = j + o
        ok = (idx >= 0) & (idx < m)
        u += np.bincount(idx[ok], weights=kv[ok], minlength=m)
        du += np.bincount(idx[ok], weights=(-arg / delta**2 * kv)[ok], minlength=m)
    return u / n_total, du / n_total


def _assert_matches_offset_deposit(cloud, grid, delta, widen=False):
    """grid_density against _offset_deposit, within 1e-14 of the peak u and
    |u'| and with the same zero pattern; returns (u, du).  With ``widen`` the peaks
    are read on the grid widened by 2*half + 2*_BLOCK nodes at each end, so
    that a cloud the grid sees only the tail of is held to its own scale."""
    n, h = len(cloud), grid.spacing
    u, du = grid_density(cloud, grid, delta, n)
    u_ref, du_ref = _offset_deposit(cloud, grid, delta, n)
    u_peak, du_peak = u_ref, du_ref
    if widen:
        pad = (2 * math.ceil(8.0 * delta / h + 0.5) + 2 * _BLOCK) * h
        u_peak, du_peak = _offset_deposit(
            cloud, Grid1D(grid.lower - pad, grid.upper + pad, h), delta, n)
    assert np.max(np.abs(u - u_ref)) <= 1e-14 * np.max(u_peak)
    assert np.max(np.abs(du - du_ref)) <= 1e-14 * np.max(np.abs(du_peak))
    assert np.array_equal(u == 0.0, u_ref == 0.0)
    return u, du


def test_grid_density_matches_offset_deposit_at_default_grid(rng):
    n = 10_000
    cloud = WeightedPointCloud(rng.normal(0, 1.5, n), rng.random(n))
    grid = Grid1D(-14.4, 14.4, 0.05)
    u, du = grid_density(cloud, grid, 0.3, n)
    u_ref, du_ref = _offset_deposit(cloud, grid, 0.3, n)
    assert np.max(np.abs(u - u_ref)) <= 1e-14 * np.max(u_ref)
    assert np.max(np.abs(du - du_ref)) <= 1e-14 * np.max(np.abs(du_ref))
    assert np.array_equal(u == 0.0, u_ref == 0.0)


@pytest.mark.parametrize("span", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
@pytest.mark.parametrize("where", ["inside", "past-lower", "past-upper", "past-both",
                                   "lowest-cell", "beyond-lower", "beyond-upper"])
def test_grid_density_block_edges_match_offset_deposit(rng, span, where):
    # clouds whose nearest nodes cover `span` cells, so that the cells they
    # reach start and end at every offset inside a block of the product.
    # The product numbers the cells j - first + half; with the first reached
    # node clamped to 0 ("lowest-cell"), the lowest occupied cell j + half
    # takes every block and phase up to 2*half; some of these clouds reach
    # the grid with their tails only.  "beyond-*" clouds lie wholly past one
    # end of the grid and reach into it.
    grid, delta = Grid1D(-3.0, 3.0, 0.05), 0.3
    m, half = grid.n_nodes, math.ceil(8.0 * delta / grid.spacing + 0.5)
    start = {"inside": 40, "past-lower": -half // 2, "past-upper": m - span + 3,
             "past-both": -half // 2, "lowest-cell": -half,
             "beyond-lower": 1 - span - _BLOCK, "beyond-upper": m}[where]
    if where == "past-both":
        span += m + half
    for shift in range(2 * half + 1 if where == "lowest-cell" else _BLOCK):
        cells = start + shift + rng.integers(0, span, 200)
        cells[:2] = start + shift, start + shift + span - 1
        pos = grid.lower + (cells + rng.uniform(-0.5, 0.5, cells.size)) * grid.spacing
        _assert_matches_offset_deposit(WeightedPointCloud(pos, rng.random(pos.size)), grid, delta,
                                       widen=where == "lowest-cell")


def test_grid_density_single_particle_matches_offset_deposit(rng):
    # one particle in every cell it can reach the grid from, and beyond
    grid, delta = Grid1D(-3.0, 3.0, 0.05), 0.3
    half = math.ceil(8.0 * delta / grid.spacing + 0.5)
    for cell in range(-half - 2, grid.n_nodes + half + 2):
        pos = grid.lower + (cell + rng.uniform(-0.5, 0.5, 1)) * grid.spacing
        u, _ = _assert_matches_offset_deposit(WeightedPointCloud(pos, rng.uniform(0.5, 1.0, 1)),
                                              grid, delta, widen=True)
        assert u.any() == (-half <= cell < grid.n_nodes + half)


_DEPOSIT_DIGEST = """
import hashlib
import numpy as np
from sulfsim import Grid1D, WeightedPointCloud
from sulfsim.kernel import grid_density

digest = hashlib.sha256()
rng = np.random.default_rng(11)
for n, bound, h, delta in ((250, 14.4, 0.05, 0.3), (20000, 14.4, 0.05, 0.3), (3000, 4.0, 0.01, 0.2)):
    cloud = WeightedPointCloud(rng.normal(0.0, 2.0, n), rng.random(n))
    for values in grid_density(cloud, Grid1D(-bound, bound, h), delta, n):
        digest.update(values.tobytes())
print(digest.hexdigest())
"""


def _csv_digests(root: Path) -> dict:
    return {p.relative_to(root): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*.csv"))}


def _tiny_config(tmp_path: Path) -> Path:
    path = tmp_path / "tiny.yaml"
    path.write_text("grid: {lower: -6.0, upper: 6.0, spacing: 0.05}\n"
                    "horizon: 0.02\nstep: 0.001\nparticles: 500\n")
    return path


def test_deposit_and_simulate_bits_do_not_depend_on_blas_threads(tmp_path):
    deposits = {threads: run_python(["-c", _DEPOSIT_DIGEST], tmp_path, threads)
                for threads in (1, 2)}
    assert deposits[1] == deposits[2]
    cfg = _tiny_config(tmp_path)
    for threads in (1, 2):
        run_python(["-m", "sulfsim.cli", "simulate", "--config", str(cfg), "--mode", "kill",
                    "--seed", "4", "--out", str(tmp_path / f"sim{threads}")], tmp_path, threads)
    assert _csv_digests(tmp_path / "sim1") == _csv_digests(tmp_path / "sim2")


def test_convergence_bits_do_not_depend_on_workers(tmp_path):
    cfg = _tiny_config(tmp_path)
    for workers in (1, 2):
        run_python(["-m", "sulfsim.cli", "convergence", "--config", str(cfg), "--n", "100,300",
                    "--seeds", "3", "--seed", "5", "--workers", str(workers),
                    "--out", str(tmp_path / f"conv{workers}")], tmp_path)
    digests = _csv_digests(tmp_path / "conv1")
    assert digests and digests == _csv_digests(tmp_path / "conv2")


def test_grid_density_stencil_cache_keeps_bits(rng):
    cloud = WeightedPointCloud(rng.normal(0, 1, 2000), rng.random(2000))
    grid_a, grid_b = Grid1D(-8.0, 8.0, 0.05), Grid1D(-8.0, 8.0, 0.1)
    _block_matrix.cache_clear()
    u1, g1 = grid_density(cloud, grid_a, 0.3, 2000)
    grid_density(cloud, grid_b, 0.45, 2000)
    u2, g2 = grid_density(cloud, grid_a, 0.3, 2000)
    assert np.array_equal(u1, u2) and np.array_equal(g1, g2)


@st.composite
def _deposit_case(draw):
    """Random bandwidth, grid with h/delta in [0.05, 1.5] and cloud: one
    weight-1 particle on the grid, some on cell boundaries, some off the
    grid inside and beyond the half-cell padding, some with weight 0."""
    seed = draw(st.integers(0, 2**32 - 1))
    delta = draw(st.floats(0.1, 1.0))
    h = draw(st.floats(0.05, 1.5)) * delta
    m = draw(st.integers(3, 60))
    lower = draw(st.floats(-5.0, 5.0))
    grid = Grid1D(lower, lower + h * (m - 1), h)
    half = math.ceil(8.0 * delta / h + 0.5)
    r = np.random.default_rng(seed)
    n_free, n_edge = draw(st.integers(0, 30)), draw(st.integers(0, 10))
    free = r.uniform(lower - (half + 4) * h, grid.upper + (half + 4) * h, n_free)
    edge = lower + (r.integers(-half - 3, m + half + 3, n_edge) + 0.5) * h
    pos = np.concatenate([[r.uniform(lower, grid.upper)], free, edge])
    w = np.where(r.random(pos.size) < 0.2, 0.0, r.random(pos.size))
    w[0] = 1.0
    return WeightedPointCloud(pos, w), grid, delta, half


@settings(max_examples=80, deadline=None)
@given(_deposit_case())
def test_grid_density_properties(case):
    cloud, grid, delta, half = case
    n = len(cloud) + 3  # the divisor may exceed the cloud
    u, du = grid_density(cloud, grid, delta, n)
    nodes = grid.nodes()
    diff = nodes[:, None] - cloud.positions[None, :]
    # the oracle cuts pairs beyond 8 bandwidths, the deposit beyond half node
    # offsets; pairs between the two cuts may differ by no more than their size
    beyond = np.abs(diff) > 8.0 * delta
    for got, ref, kernel in ((u, mollify(cloud, delta, nodes, n), kernel_value),
                             (du, mollify_grad(cloud, delta, nodes, n), kernel_grad)):
        dropped = (np.abs(kernel(diff, delta)) * beyond * cloud.weights).sum(axis=1) / n
        assert np.all(np.abs(got - ref) <= 1e-12 * np.max(np.abs(ref)) + dropped)
    assert np.all(u >= 0.0)
    # a particle reaches only the nodes within half spacings of its nearest node
    far = np.all(np.abs(diff) > (half + 1) * grid.spacing, axis=1)
    assert np.all(u[far] == 0.0) and np.all(du[far] == 0.0)


@settings(max_examples=20, deadline=None)
@given(_deposit_case())
def test_grid_density_of_massless_cloud_is_zero(case):
    cloud, grid, delta, _ = case
    for empty in (WeightedPointCloud(np.array([]), np.array([])),
                  WeightedPointCloud(cloud.positions, np.zeros(len(cloud)))):
        u, du = grid_density(empty, grid, delta, 7)
        assert np.all(u == 0.0) and np.all(du == 0.0)


def _stacked_deposit(rows, weights, grid, delta, divisors, gradient=True):
    """The deposit of 1-d rows laid end to end, one divisor each."""
    bounds = np.cumsum([0] + [len(x) for x in rows])
    cloud = WeightedPointCloud.unchecked(np.concatenate(rows), np.concatenate(weights))
    return grid_density(cloud, grid, delta, divisors, gradient, bounds=bounds)


def _assert_rows_are_solo_deposits(rows, weights, grid, delta, divisors):
    u, du = _stacked_deposit(rows, weights, grid, delta, divisors)
    assert u.shape == du.shape == (len(rows), grid.n_nodes)
    for r, (x, w, n) in enumerate(zip(rows, weights, divisors)):
        u_row, du_row = grid_density(WeightedPointCloud(x, w), grid, delta, n)
        assert np.array_equal(u[r], u_row) and np.array_equal(du[r], du_row), r
    return u, du


@settings(max_examples=60, deadline=None)
@given(_deposit_case(), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_grid_density_of_a_stack_equals_its_rows(case, n_rows, seed):
    # row 0 is the case's cloud, the others a part of that cloud of their own
    # size, some of them empty, squeezed (into one block of cells, some of
    # them) and shifted, some of them past the deposit's reach; each row has
    # its own divisor
    cloud, grid, delta, half = case
    r = np.random.default_rng(seed)
    reach = grid.upper - grid.lower + 2.0 * (half + 1) * grid.spacing
    rows, weights = [cloud.positions], [cloud.weights]
    for _ in range(n_rows - 1):
        part = r.permutation(len(cloud))[: r.integers(0, len(cloud) + 1)]
        rows.append(cloud.positions[part] * r.choice([1.0, 1e-3]) + r.uniform(-1.5, 1.5) * reach)
        weights.append(cloud.weights[r.permutation(part)])
    _assert_rows_are_solo_deposits(rows, weights, grid, delta,
                                   [len(x) + r.integers(1, 4) for x in rows])


@settings(max_examples=40, deadline=None)
@given(_deposit_case(), st.integers(0, 3), st.booleans(), st.integers(0, 2**32 - 1))
def test_grid_density_without_gradient_keeps_the_bits_of_u(case, n_rows, tiled, seed):
    # n_rows 0 is the 1-d cloud; a stack's row 1 lies wholly past the deposit's
    # reach, the others are shifted copies; ``tiled`` repeats the cloud past one
    # slice
    cloud, grid, delta, half = case
    r = np.random.default_rng(seed)
    pos, w = cloud.positions, cloud.weights
    if tiled:
        reps = SLICE_COLUMNS // pos.size + 1
        pos = np.tile(pos, reps) + r.normal(0.0, grid.spacing, reps * pos.size)
        w = np.tile(w, reps)
    n = pos.size + 1
    if not n_rows:
        cloud = WeightedPointCloud.unchecked(pos, w)
        u, du = grid_density(cloud, grid, delta, n, gradient=False)
        assert du is None
        assert np.array_equal(u, grid_density(cloud, grid, delta, n)[0])
        return
    reach = grid.upper - grid.lower + 2.0 * (half + 1) * grid.spacing
    shift = r.uniform(-0.5, 0.5, n_rows) * reach
    shift[0] = 0.0
    shift[1:2] = 2.0 * reach
    rows, weights = [pos + dx for dx in shift], [r.permutation(w) for _ in shift]
    u, du = _stacked_deposit(rows, weights, grid, delta, [n] * n_rows, gradient=False)
    assert du is None
    assert np.array_equal(u, _stacked_deposit(rows, weights, grid, delta, [n] * n_rows)[0])


@pytest.mark.parametrize("shape", [[6000] * 4, [SLICE_COLUMNS + 3] * 2,
                                   [SLICE_COLUMNS + 3, 5, "beyond", 7000, 2 * SLICE_COLUMNS]])
def test_sliced_deposit_rows_of_a_stack_equal_their_solo_deposits(shape):
    # a pass cuts each row where its solo deposit does, at SLICE_COLUMNS of its
    # own columns, and packs short rows and the ends of long ones together;
    # cutting the stack at SLICE_COLUMNS of its columns changes the rows' bits
    r = np.random.default_rng(len(shape))
    grid = Grid1D(-14.4, 14.4, 0.05)
    rows = [r.uniform(40.0, 50.0, 9) if n == "beyond" else r.normal(r.uniform(-3.0, 3.0), 1.5, n)
            for n in shape]
    weights = [r.random(x.size) for x in rows]
    u, du = _assert_rows_are_solo_deposits(rows, weights, grid, 0.3, [x.size for x in rows])
    if "beyond" in shape:
        beyond = shape.index("beyond")
        assert not u[beyond].any() and not du[beyond].any()


@pytest.mark.parametrize("where", ["inside", "beyond-both", "boundaries"])
def test_multi_slice_deposit_matches_offset_deposit(rng, where):
    # clouds of three slices; "beyond-both" scatters particles past the
    # deposit's reach below and above the grid over every slice, and
    # "boundaries" puts every particle on a cell boundary
    grid, delta = Grid1D(-3.0, 3.0, 0.05), 0.3
    m, h, half = grid.n_nodes, grid.spacing, math.ceil(8.0 * delta / grid.spacing + 0.5)
    n = 2 * SLICE_COLUMNS + 3
    pos = rng.normal(0.0, 1.0, n)
    if where == "beyond-both":
        far = rng.choice(n, 2000, replace=False)
        pos[far] = grid.lower + rng.choice([-1.0, 1.0], far.size) * (m + 2 * half) * h
        pos[:3] = grid.lower - (half + 2) * h, grid.upper + (half + 2) * h, pos[-1]
    elif where == "boundaries":
        pos = grid.lower + (np.floor((pos - grid.lower) / h) + 0.5) * h
    _assert_matches_offset_deposit(WeightedPointCloud(pos, rng.random(n)), grid, delta)


def test_multi_slice_stack_with_a_row_out_of_reach_matches_offset_deposit(rng):
    # rows inside the grid, wholly past its reach, and partly past it on both sides
    grid, delta = Grid1D(-3.0, 3.0, 0.05), 0.3
    n = 2 * SLICE_COLUMNS + 3
    rows = [rng.normal(0.0, 1.0, n), rng.uniform(20.0, 30.0, n), rng.normal(2.0, 4.0, n)]
    weights = [rng.random(n) for _ in rows]
    u, du = _stacked_deposit(rows, weights, grid, delta, [n] * len(rows))
    for row, (x, w) in enumerate(zip(rows, weights)):
        u_row, du_row = _assert_matches_offset_deposit(WeightedPointCloud(x, w), grid, delta)
        assert np.array_equal(u[row], u_row) and np.array_equal(du[row], du_row)
    assert not u[1].any() and not du[1].any()
