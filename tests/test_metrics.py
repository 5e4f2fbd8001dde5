import numpy as np
import pytest
from dataclasses import replace

from sulfsim import (
    Grid1D,
    PhysicalParams,
    SimConfig,
    convergence_study,
    density_distance,
    run_simulation,
    total_mass,
)
import sulfsim.metrics
from sulfsim.metrics import ConvergenceRow, _mean_and_stderr, compare_series
from sulfsim.pde import mollify_grid_function, solve_pde

from oracles import hold_fields_at_zero

GRID = Grid1D(-5.0, 5.0, 0.1)


def test_identical_fields_have_zero_distance(rng):
    a = rng.random(GRID.n_nodes)
    for norm in ("l1", "l2", "sup"):
        assert density_distance(a, a, GRID, norm) == 0.0


def test_l1_against_zero_is_mass(rng):
    a = rng.random(GRID.n_nodes)
    zero = np.zeros_like(a)
    assert density_distance(a, zero, GRID, "l1") == pytest.approx(total_mass(a, GRID))


def test_triangle_inequality_spot_check(rng):
    for _ in range(20):
        a, b, c = (rng.random(GRID.n_nodes) for _ in range(3))
        for norm in ("l1", "l2", "sup"):
            dab = density_distance(a, b, GRID, norm)
            dbc = density_distance(b, c, GRID, norm)
            dac = density_distance(a, c, GRID, norm)
            assert dac <= dab + dbc + 1e-12


def test_grid_mismatch_rejected(rng):
    a = rng.random(GRID.n_nodes)
    with pytest.raises(ValueError):
        density_distance(a, a[:-1], GRID)
    with pytest.raises(ValueError):
        density_distance(a, a, GRID, "wasserstein")


def test_estimator_mass_equals_mean_weight(small_config):
    sim = run_simulation(small_config, snapshot_stride=small_config.n_steps)
    for u, mw in zip(sim.densities, sim.weight_or_alive):
        assert total_mass(u, small_config.grid) == pytest.approx(mw, abs=1e-6)


def test_lambda_zero_mass_stays_one(small_config):
    cfg = replace(small_config, physical=PhysicalParams(lam=0.0), particles=2000)
    sim = run_simulation(cfg)
    assert np.all(np.abs(sim.mass + sim.escaped - 1.0) < 1e-6)


def test_constant_rate_mass_matches_survival(monkeypatch):
    cfg = SimConfig(
        particles=20_000,
        horizon=1.0,
        step=0.01,
        seed=17,
        grid=Grid1D(-16.0, 16.0, 0.2),
        mode="killed",
    )
    hold_fields_at_zero(monkeypatch)
    sim = run_simulation(cfg, snapshot_stride=cfg.n_steps)
    p = np.exp(-1.0)
    se = np.sqrt(p * (1 - p) / cfg.particles)
    assert abs(sim.weight_or_alive[-1] - p) <= 3 * se


def test_compare_series_reports(rng):
    times = np.array([0.0, 0.1])
    a = [rng.random(GRID.n_nodes) for _ in range(2)]
    b = [x + 0.01 for x in a]
    rep = compare_series(times, a, b, GRID, {"case": "unit"})
    assert np.all(rep.l1 > 0) and np.all(rep.sup >= 0.01 - 1e-12)
    assert "case=unit" in rep.summary()


def _tiny_study_config():
    return SimConfig(
        physical=PhysicalParams(lam=0.0),
        particles=100,
        horizon=0.1,
        step=1e-3,
        seed=2,
        grid=Grid1D(-10.0, 10.0, 0.05),
    )


def test_convergence_study_lambda_zero():
    cfg = _tiny_study_config()
    table = convergence_study(replace(cfg, seed=50), [100, 400], seeds_per_n=3)
    assert [r.n for r in table.rows] == [100, 400]
    # lambda=0: modes coincide exactly, so the columns match
    for row in table.rows:
        assert row.fk_mean_l1 == row.kill_mean_l1
    assert table.rows[1].fk_mean_l1 < table.rows[0].fk_mean_l1
    assert table.monotone_fk and table.monotone_kill


def test_convergence_study_reproducible():
    cfg = _tiny_study_config()
    a = convergence_study(replace(cfg, seed=9), [100, 200], seeds_per_n=2)
    b = convergence_study(replace(cfg, seed=9), [100, 200], seeds_per_n=2)
    assert [r.fk_mean_l1 for r in a.rows] == [r.fk_mean_l1 for r in b.rows]
    assert [r.kill_stderr for r in a.rows] == [r.kill_stderr for r in b.rows]


def _solo_rows(cfg, n_values, seeds_per_n):
    """The convergence rows built from one run at a time."""
    grid = cfg.grid
    ref = solve_pde(cfg, snapshot_stride=cfg.n_steps)
    target = mollify_grid_function(ref.densities[-1], grid, cfg.kernel.bandwidth)
    rows = []
    for n in n_values:
        stats = []
        for mode in ("feynman-kac", "killed"):
            runs = [run_simulation(replace(cfg, particles=n, seed=cfg.seed + j, mode=mode),
                                   snapshot_stride=cfg.n_steps) for j in range(seeds_per_n)]
            stats += _mean_and_stderr([density_distance(out.densities[-1], target, grid, "l1")
                                       for out in runs])
        rows.append(ConvergenceRow(n, *stats))
    return rows


@pytest.mark.parametrize("stack_particles", [None, 10])
def test_convergence_study_stacks_every_size(monkeypatch, stack_particles):
    # one stack for all runs, in increasing N; with stacks of at most 10
    # particles they split, some stack holding two sizes; the table is the
    # same, and equals the one built from solo runs
    cfg = replace(_tiny_study_config(), physical=PhysicalParams(lam=1.0), horizon=0.02, seed=4)
    if stack_particles is not None:
        monkeypatch.setattr(sulfsim.metrics, "STACK_PARTICLES", stack_particles)
    stacks = []
    run = sulfsim.metrics.run_simulations

    def counted(configs, **options):
        stacks.append([c.particles for c in configs])
        return run(configs, **options)

    monkeypatch.setattr(sulfsim.metrics, "run_simulations", counted)
    table = convergence_study(cfg, [7, 3], seeds_per_n=2)
    if stack_particles is None:
        assert stacks == [[3, 3, 3, 3, 7, 7, 7, 7]]
    else:
        assert stacks == [[3, 3, 3], [3, 7], [7], [7], [7]]
    assert table.rows == _solo_rows(cfg, [3, 7], 2)


def test_convergence_study_refuses_a_size_given_twice():
    with pytest.raises(ValueError, match=r"sizes \[3\] are given more than once"):
        convergence_study(_tiny_study_config(), [3, 7, 3], seeds_per_n=1)


def test_default_scenario_errors_decrease_with_n():
    # full-physics sanity at small scale, both estimators vs K*v
    cfg = SimConfig(
        particles=200,  # replaced per run
        horizon=0.2,
        step=1e-3,
        seed=100,
        grid=Grid1D(-12.0, 12.0, 0.05),
    )
    table = convergence_study(cfg, [200, 800], seeds_per_n=4)
    assert table.monotone_fk and table.monotone_kill
    assert table.rows[1].fk_mean_l1 < table.rows[0].fk_mean_l1
    assert table.rows[1].kill_mean_l1 < table.rows[0].kill_mean_l1
