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
from sulfsim.metrics import compare_series

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
