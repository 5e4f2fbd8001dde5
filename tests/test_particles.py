import numpy as np
import pytest
from dataclasses import replace
from types import SimpleNamespace
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sulfsim import (
    Grid1D,
    InitialDensitySpec,
    ParticleEnsemble,
    PhysicalParams,
    SimConfig,
    init_ensemble,
    run_simulation,
    run_simulations,
)
from sulfsim.config import validate_config
from sulfsim.dynamics import drift_b, reaction_rate
import sulfsim.fields
import sulfsim.particles
from sulfsim.fields import AccumulatedFields, accumulate_step
from sulfsim.io import read_archive
from sulfsim.kernel import WeightedPointCloud
from sulfsim.particles import NonFiniteStateError, _slice_step
from sulfsim.streams import ParticleStreams

from oracles import (
    accumulate_from_archive,
    exact_history_args,
    hold_fields_at_zero,
    run_with_clouds,
    run_with_coupled_readout,
    run_with_hazard_digests,
)


def test_init_ensemble_state(small_config):
    ens = init_ensemble(small_config)
    assert ens.weights.mean() == 1.0
    assert ens.alive.all()
    assert np.all(ens.hazards == 0.0)
    assert ens.thresholds is None
    killed = init_ensemble(replace(small_config, mode="killed"))
    assert killed.thresholds.shape == (small_config.particles,)
    assert np.all(killed.thresholds > 0)


def test_init_thresholds_exponential_moments():
    cfg = SimConfig(particles=100_000, mode="killed", grid=Grid1D(-10, 10, 0.05), seed=21)
    ens = init_ensemble(cfg)
    assert abs(ens.thresholds.mean() - 1.0) <= 3.0 / np.sqrt(cfg.particles)


def test_init_same_seed_identical(small_config):
    a = init_ensemble(small_config)
    b = init_ensemble(small_config)
    assert np.array_equal(a.positions, b.positions)


def test_em_step_pure_diffusion_variance():
    # lambda=0: increment is sqrt(2 dt) xi; sample variance within 3 SE of 2 dt
    n, dt = 100_000, 0.01
    cfg = SimConfig(
        physical=PhysicalParams(lam=0.0),
        particles=n,
        horizon=dt,
        step=dt,
        seed=77,
        grid=Grid1D(-16.0, 16.0, 0.2),
    )
    streams = ParticleStreams(cfg.seed, n)
    ens = init_ensemble(cfg, streams)
    before = ens.positions.copy()
    fields = AccumulatedFields(grid=cfg.grid, delta=cfg.kernel.bandwidth)
    _slice_step(ens, fields, streams.normals(), dt, cfg.physical, np.zeros((), np.int64))
    inc = ens.positions - before
    se = 2 * dt * np.sqrt(2.0 / n)
    assert abs(inc.var() - 2 * dt) <= 3 * se
    assert abs(inc.mean()) <= 3 * np.sqrt(2 * dt / n)


def test_em_step_zero_fields_is_pure_noise(small_config):
    streams = ParticleStreams(small_config.seed, small_config.particles)
    ens = init_ensemble(small_config, streams)
    start = ens.positions.copy()
    fields = AccumulatedFields(grid=small_config.grid, delta=0.3)
    streams_copy = ParticleStreams(small_config.seed, small_config.particles)
    _ = streams_copy.initial_uniforms()
    noise = streams_copy.normals()
    dt = small_config.step
    _slice_step(ens, fields, streams.normals(), dt, small_config.physical,
                np.zeros((), np.int64))
    expected = start + np.sqrt(2 * small_config.step) * noise
    assert np.array_equal(ens.positions, expected)


def test_em_step_nonfinite_position_aborts(small_config):
    bad = np.zeros(small_config.particles)
    bad[3] = np.inf
    ens = init_ensemble(small_config)
    fields = AccumulatedFields(grid=small_config.grid, delta=0.3)
    dt = small_config.step
    hazards = ens.hazards.copy()
    coords = _slice_step(ens, fields, bad, dt, small_config.physical, np.zeros((), np.int64))
    assert coords is None
    assert np.flatnonzero(~np.isfinite(ens.positions)).tolist() == [3]
    assert np.array_equal(ens.hazards, hazards)  # the hazard update did not run


def test_step_counts_alive_reads_only_and_leaves_the_dead(small_config):
    cfg = replace(small_config, mode="killed")
    streams = ParticleStreams(cfg.seed, cfg.particles)
    ens = init_ensemble(cfg, streams)
    ens.hazards[::2] = ens.thresholds[::2]  # 100 of 200 dead
    ens.positions[:50] = cfg.grid.upper + 1.0  # 50 off the grid, 25 of them alive
    dead = ~ens.alive
    assert np.count_nonzero(dead) == 100
    frozen = {name: getattr(ens, name)[dead].copy() for name in ("positions", "hazards")}
    negative_A = np.full(cfg.grid.n_nodes, -1.0)  # every read of I is clamped
    fields = AccumulatedFields(grid=cfg.grid, delta=cfg.kernel.bandwidth, A=negative_A)
    negative_I = np.zeros((), np.int64)
    _slice_step(ens, fields, streams.normals(), cfg.step, cfg.physical, negative_I)
    # two reads (X_k, then X_{k+1}) of 100 alive particles, 25 of them off the grid
    assert (negative_I, fields.out_of_domain) == (200, 50)
    for name, before in frozen.items():
        assert np.array_equal(getattr(ens, name)[dead], before), name
    assert np.all(ens.hazards[~dead] > 0.0)


def _reference_steps(cfg):
    """Steps the ensemble with one full field read per use: (I, J) through
    ``args_at(coords_at(x))`` at the alive positions for the drift, and again
    at the new positions for the hazard, each clamped at I >= 0.  It keeps
    its own weights, alive mask and death steps, updated after each step."""
    cfg = validate_config(cfg.with_grid())
    n, dt, params = cfg.particles, cfg.step, cfg.physical
    streams = ParticleStreams(cfg.seed, n)
    init = init_ensemble(cfg, streams)
    ens = SimpleNamespace(positions=init.positions, hazards=init.hazards, weights=np.ones(n),
                          alive=np.ones(n, dtype=bool), death_steps=np.full(n, -1))
    acc = AccumulatedFields(grid=cfg.grid, delta=cfg.kernel.bandwidth)
    negative = 0

    def clamped_I_J(x):
        nonlocal negative
        args = acc.args_at(acc.coords_at(x))
        negative += int(np.count_nonzero(args.I < 0.0))
        return np.maximum(args.I, 0.0), args.J

    for k in range(cfg.n_steps):
        weights = ens.alive.astype(float) if cfg.mode == "killed" else ens.weights
        accumulate_step(acc, WeightedPointCloud(ens.positions, weights), n, dt)
        noise = streams.normals()
        alive = ens.alive.copy()
        I, J = clamped_I_J(ens.positions[alive])
        b = drift_b(I, J, params)
        ens.positions[alive] = ens.positions[alive] + b * dt + np.sqrt(2.0 * dt) * noise[alive]
        I, _ = clamped_I_J(ens.positions[alive])
        ens.hazards[alive] += dt * reaction_rate(I, params)
        ens.weights[alive] = np.exp(-ens.hazards[alive])
        if cfg.mode == "killed":
            dead_now = alive & (ens.hazards >= init.thresholds)
            ens.alive[dead_now] = False
            ens.death_steps[dead_now] = k + 1
    return ens, acc.out_of_domain, negative


@pytest.mark.parametrize("mode, lower, upper, lam", [
    ("feynman-kac", -10.0, 10.0, 1.0),
    ("killed", -1.2, 1.2, 8.0),  # deaths every few steps, many reads off the grid
    ("killed", -1.2, 1.2, 40.0),  # most of the ensemble dies: mostly zero increments
])
def test_run_matches_reference_steps_bit_for_bit(mode, lower, upper, lam):
    cfg = SimConfig(particles=400, horizon=0.08, step=1e-3, seed=99, mode=mode,
                    physical=PhysicalParams(lam=lam), grid=Grid1D(lower, upper, 0.05))
    sim = run_simulation(cfg)
    ref, out_of_domain, negative_I = _reference_steps(cfg)
    ens = sim.ensemble
    # the run's weights and alive mask, read off its hazards, are the stored ones
    for name in ("positions", "hazards", "weights", "alive"):
        assert np.array_equal(getattr(ens, name), getattr(ref, name)), name
    assert sim.diagnostics["out_of_domain"] == out_of_domain
    assert sim.diagnostics["negative_I"] == negative_I
    if mode == "killed":
        dead = ~ens.alive
        assert 0 < dead.sum() < cfg.particles
        assert len(np.unique(ref.death_steps[dead])) > 5  # deaths spread over the run
        assert out_of_domain > 0
        assert np.any(np.abs(ens.positions[ens.alive]) > upper)  # survivors read off-grid
        if lam == 40.0:
            assert dead.sum() > 0.75 * cfg.particles


def test_dead_particles_stay_at_their_death_position(small_config, monkeypatch):
    cfg = replace(small_config, mode="killed", particles=500, horizon=0.05,
                  physical=PhysicalParams(lam=20.0))
    sim, clouds = run_with_clouds(monkeypatch, run_simulation, cfg)
    positions = np.stack([c.positions for c in clouds])
    weights = np.stack([c.weights for c in clouds])
    ens = sim.ensemble
    dead = np.flatnonzero(~ens.alive)
    assert dead.size > cfg.particles // 4
    assert np.all(weights[-1, dead] == 0.0)
    death_steps = np.argmax(weights[:, dead] == 0.0, axis=0)  # the first row of weight 0
    assert len(np.unique(death_steps)) > 5
    for i, k in zip(dead, death_steps):
        assert ens.positions[i] == positions[k, i]
        # every later snapshot holds the same position, with weight 0
        assert np.all(positions[k:, i] == ens.positions[i])
        assert weights[k, i] == 0.0


def test_constant_rate_weights_exact(monkeypatch, small_config):
    # fields held at zero: Lambda = lambda c0 t for every particle, bit-identical
    hold_fields_at_zero(monkeypatch)
    sim = run_simulation(small_config, snapshot_stride=20)
    w = sim.ensemble.weights
    assert np.all(w == w[0])
    t = small_config.horizon
    assert w[0] == pytest.approx(np.exp(-t), rel=1e-12)
    for t_k, mw in zip(sim.times, sim.weight_or_alive):
        assert mw == pytest.approx(np.exp(-t_k), rel=1e-12)


def test_constant_rate_killed_survival_band(monkeypatch):
    cfg = SimConfig(
        particles=20_000,
        mode="killed",
        horizon=1.0,
        step=0.01,
        seed=5,
        grid=Grid1D(-16.0, 16.0, 0.2),
    )
    hold_fields_at_zero(monkeypatch)
    sim = run_simulation(cfg, snapshot_stride=10)
    p = np.exp(-sim.times)
    band = 3.0 * np.sqrt(p * (1 - p) / cfg.particles)
    exceed = np.sum(np.abs(sim.weight_or_alive - p) > band)
    assert exceed <= max(1, int(0.05 * len(sim.times)))


def test_fk_run_mass_monotone_and_bounded(small_config):
    sim = run_simulation(small_config)
    assert np.all(np.diff(sim.weight_or_alive) <= 0)
    floor = np.exp(-small_config.physical.lam * small_config.physical.c0 * sim.times)
    assert np.all(sim.weight_or_alive >= floor - 1e-12)
    assert np.all(sim.ensemble.weights > 0)
    assert sim.mass[0] == pytest.approx(1.0, abs=1e-6)


def test_killed_run_alive_fraction(small_config):
    cfg = replace(small_config, mode="killed", particles=2000)
    sim = run_simulation(cfg)
    assert np.all(np.diff(sim.weight_or_alive) <= 0)
    # in expectation bounded below by exp(-lam c0 t); allow 3 binomial SEs
    p_floor = np.exp(-cfg.physical.lam * cfg.physical.c0 * sim.times[-1])
    se = np.sqrt(p_floor * (1 - p_floor) / cfg.particles)
    assert sim.weight_or_alive[-1] >= p_floor - 3 * se
    assert sim.mass[0] == pytest.approx(1.0, abs=1e-6)


def test_killed_dead_particles_frozen_and_excluded(small_config):
    cfg = replace(small_config, mode="killed", particles=500, horizon=0.1)
    sim = run_simulation(cfg)
    ens = sim.ensemble
    dead = ~ens.alive
    if not dead.any():
        pytest.skip("no deaths in this scenario")
    cloud = ens.cloud()
    assert np.all(cloud.weights[dead] == 0.0)
    assert np.all(cloud.weights[~dead] == 1.0)
    assert sim.diagnostics["deaths"] == np.count_nonzero(dead)
    assert sim.weight_or_alive[-1] == np.count_nonzero(~dead) / cfg.particles


def test_same_seed_bitwise_reproducible(small_config):
    for mode in ("feynman-kac", "killed"):
        cfg = replace(small_config, mode=mode)
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        assert np.array_equal(a.ensemble.positions, b.ensemble.positions)
        assert np.array_equal(a.ensemble.hazards, b.ensemble.hazards)
        for ua, ub in zip(a.densities, b.densities):
            assert np.array_equal(ua, ub)


def test_archive_snapshot_count(small_config, tmp_path):
    run_simulation(small_config, archive_path=tmp_path / "a.bin")
    archive = read_archive(tmp_path / "a.bin")
    assert len(archive) == small_config.n_steps + 1
    assert archive.dt == small_config.step
    assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]  # the partial file is renamed


class _ExactHistoryView:
    """Field view reading (I, J) straight off the stored clouds, with no
    grid; its coordinates are a copy of the positions."""

    def __init__(self, clouds, dt, delta, n_total):
        self.clouds, self.dt, self.delta, self.n_total = clouds, dt, delta, n_total

    def coords_at(self, x, offsets=None):
        return np.array(x, dtype=float)

    def args_at(self, x, gradient=True, bounds=None):
        return exact_history_args(self.clouds, self.dt, x, self.delta, self.n_total)


def test_exact_history_mode_matches_grid_mode_loosely(small_config):
    # same dynamics up to interpolation error of the accumulated fields:
    # the engine's step loop, with the fields read from the exact-history oracle
    cfg = replace(small_config, particles=50, horizon=0.05)
    grid_run = run_simulation(cfg)
    streams = ParticleStreams(cfg.seed, cfg.particles)
    ens = init_ensemble(cfg, streams)
    clouds = []
    view = _ExactHistoryView(clouds, cfg.step, cfg.kernel.bandwidth, cfg.particles)
    coords, negative_I = None, np.zeros((), np.int64)
    for _ in range(cfg.n_steps):
        cloud = ens.cloud()  # its positions are a view of the state, which the step moves
        clouds.append(WeightedPointCloud(cloud.positions.copy(), cloud.weights.copy()))
        coords = _slice_step(ens, view, streams.normals(), cfg.step, cfg.physical,
                             negative_I, coords)
    gap = np.max(np.abs(grid_run.ensemble.positions - ens.positions))
    assert gap < 1e-4  # O(h^2) interpolation error accumulated over 50 steps


def test_coupled_run_matches_fk_and_bernoulli_band(monkeypatch, small_config):
    cfg = replace(small_config, particles=5000)
    fk, fk_digests = run_with_hazard_digests(monkeypatch, run_simulation, cfg)
    (cp, alive, band), cp_digests = run_with_hazard_digests(
        monkeypatch, run_with_coupled_readout, monkeypatch, cfg)
    assert len(fk_digests) == cfg.n_steps
    assert cp_digests == fk_digests  # the readout leaves the run's paths as they are
    assert alive[0] == 1.0 and band[0] == 0.0
    diff = np.abs(cp.weight_or_alive - alive)
    exceed = np.sum(diff > band)
    assert exceed <= max(1, int(0.05 * len(diff)))


def test_modes_identical_when_lambda_zero(small_config):
    cfg = replace(small_config, physical=PhysicalParams(lam=0.0), particles=300)
    fk = run_simulation(cfg)
    kl = run_simulation(replace(cfg, mode="killed"))
    assert np.array_equal(fk.ensemble.positions, kl.ensemble.positions)
    for ua, ub in zip(fk.densities, kl.densities):
        assert np.array_equal(ua, ub)
    assert kl.weight_or_alive[-1] == 1.0


@pytest.mark.parametrize("mode", ["feynman-kac", "killed"])
def test_run_deposits_each_cloud_once(monkeypatch, small_config, mode):
    calls = []
    for module in (sulfsim.fields, sulfsim.particles):
        deposit = module.grid_density

        def counted(*args, _deposit=deposit, **kwargs):
            calls.append(args[0])
            return _deposit(*args, **kwargs)

        monkeypatch.setattr(module, "grid_density", counted)
    cfg = replace(small_config, mode=mode, horizon=0.02)
    sim = run_simulation(cfg, snapshot_stride=1)
    assert len(sim.densities) == cfg.n_steps + 1
    assert len(calls) == cfg.n_steps + 1


@pytest.mark.parametrize("mode", ["feynman-kac", "killed"])
def test_field_snapshots_hold_fields_before_their_step(small_config, mode, monkeypatch):
    cfg = replace(small_config, mode=mode, horizon=0.02,
                  physical=PhysicalParams(lam=8.0))  # deaths in the killed run
    sim, clouds = run_with_clouds(monkeypatch, run_simulation, cfg, snapshot_stride=2,
                                  fields_stride=3)
    steps = [s for s, _, _ in sim.field_snaps]
    assert steps == [0, 6, 12, 18, cfg.n_steps]
    _, a0, g0 = sim.field_snaps[0]
    assert not a0.any() and not g0.any()
    for s, a, g in sim.field_snaps:
        replay = accumulate_from_archive(clouds, cfg.step, cfg.grid, cfg.kernel.bandwidth,
                                         cfg.particles, steps=s)
        assert np.array_equal(a, replay.A), s
        assert np.array_equal(g, replay.G), s
    if mode == "killed":
        assert not sim.ensemble.alive.all()


def test_killed_run_continues_after_every_particle_dies(monkeypatch, small_config):
    # with the fields held at zero the rate stays lambda c0: 10 per step
    cfg = replace(small_config, mode="killed", horizon=0.01, physical=PhysicalParams(lam=1e4))
    hold_fields_at_zero(monkeypatch)
    sim = run_simulation(cfg, snapshot_stride=1)
    assert not sim.ensemble.alive.any()
    assert sim.diagnostics["deaths"] == cfg.particles
    assert np.all(sim.weight_or_alive[1:] == 0.0)
    assert not np.any(sim.densities[-1])


def _assert_same_run(got, ref):
    """Every recorded series, diagnostic, field and final array of two runs
    is bit for bit the same."""
    for name in ("times", "steps_recorded", "mass", "weight_or_alive", "escaped"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    assert len(got.densities) == len(ref.densities)
    for a, b in zip(got.densities, ref.densities):
        assert np.array_equal(a, b)
    assert got.diagnostics == ref.diagnostics
    for name in ("positions", "hazards"):
        assert np.array_equal(getattr(got.ensemble, name), getattr(ref.ensemble, name)), name
    assert (got.ensemble.thresholds is None) == (ref.ensemble.thresholds is None)
    if ref.ensemble.thresholds is not None:
        assert np.array_equal(got.ensemble.thresholds, ref.ensemble.thresholds)
    assert np.array_equal(got.fields.A, ref.fields.A) and np.array_equal(got.fields.G, ref.fields.G)
    assert [k for k, _, _ in got.field_snaps] == [k for k, _, _ in ref.field_snaps]
    for (_, a, g), (_, a_ref, g_ref) in zip(got.field_snaps, ref.field_snaps):
        assert np.array_equal(a, a_ref) and np.array_equal(g, g_ref)


def _stack_equals_solo_runs(configs, **options):
    stacked = run_simulations(configs, **options)
    assert len(stacked) == len(configs)
    for cfg, got in zip(configs, stacked):
        assert got.config == cfg
        _assert_same_run(got, run_simulation(cfg, **options))
    return stacked


# a grid far narrower than the initial law: reads off the grid, and clouds of
# two particles that may all lie beyond the deposit's reach (|x| > 1 + 2.45)
_NARROW = SimConfig(particles=2, horizon=0.01, step=1e-3, physical=PhysicalParams(lam=300.0),
                    grid=Grid1D(-1.0, 1.0, 0.05), initial=InitialDensitySpec(width=6.0))


@settings(max_examples=30, deadline=None)
@given(replicas=st.lists(st.tuples(st.integers(0, 3), st.sampled_from(["feynman-kac", "killed"]),
                                   st.integers(1, 60)), min_size=1, max_size=5),
       lam=st.sampled_from([0.0, 1.0, 300.0]), width=st.sampled_from([0.5, 1.0, 6.0]))
@example(replicas=[(3, "feynman-kac", 2), (0, "killed", 2), (2, "killed", 2),
                   (1, "feynman-kac", 2)], lam=300.0, width=6.0)
@example(replicas=[(1, "killed", 60), (1, "feynman-kac", 1), (2, "killed", 2),
                   (1, "feynman-kac", 60), (2, "feynman-kac", 1)], lam=1.0, width=1.0)
def test_stacked_run_equals_solo_runs_bit_for_bit(replicas, lam, width):
    base = replace(_NARROW, physical=PhysicalParams(lam=lam),
                   initial=InitialDensitySpec(width=width))
    _stack_equals_solo_runs([replace(base, seed=s, mode=m, particles=n) for s, m, n in replicas],
                            snapshot_stride=3, fields_stride=2)


def test_stack_holds_a_dead_replica_and_one_beyond_the_deposit():
    configs = [replace(_NARROW, seed=s, mode=m)
               for s, m in [(3, "feynman-kac"), (0, "killed"), (2, "killed"), (1, "feynman-kac")]]
    beyond, dead, off_grid, _ = _stack_equals_solo_runs(configs, snapshot_stride=1)
    assert np.all(np.abs(beyond.ensemble.positions) > 3.45)
    assert not any(u.any() for u in beyond.densities)  # nothing reached the grid
    assert dead.diagnostics["deaths"] == 2 and not dead.densities[-1].any()
    assert off_grid.diagnostics["out_of_domain"] > 0 and 0 < off_grid.diagnostics["deaths"] < 2


@pytest.mark.parametrize("change", [
    {"horizon": 0.2},
    {"physical": PhysicalParams(lam=2.0)},
    {"grid": Grid1D(-8.0, 8.0, 0.05)},
    {"initial": InitialDensitySpec(width=0.5)},
])
def test_run_simulations_refuses_configs_that_differ_beyond_seed_and_mode(small_config, change):
    with pytest.raises(ValueError, match="particles, seed and mode"):
        run_simulations([small_config, replace(small_config, particles=201, seed=5,
                                                mode="killed", **change)])


@pytest.mark.parametrize("option", ["archive_path"])
def test_run_simulations_keeps_archive_and_coupling_to_one_config(small_config, option,
                                                                   tmp_path):
    with pytest.raises(ValueError, match="single config"):
        run_simulations([small_config, replace(small_config, seed=5)],
                        **{option: tmp_path / "a.bin"})
    assert not any(tmp_path.iterdir())


def test_one_replica_stack_and_identity_streams_copy_nothing(small_config):
    streams = ParticleStreams(small_config.seed, small_config.particles)
    assert streams.indices == range(small_config.particles)  # no index array
    n = small_config.particles
    for mode in ("feynman-kac", "killed"):
        member = init_ensemble(replace(small_config, mode=mode), streams)
        assert member.bounds.tolist() == [0, n] and member.killed.tolist() == [mode == "killed"]
        stack = ParticleEnsemble.stack([member])
        for name in ("positions", "hazards", "thresholds"):
            got, own = getattr(stack, name), getattr(member, name)
            if own is None:
                assert got is None, name
            else:
                assert got.shape == (n,) and np.shares_memory(got, own), name


def test_a_stack_lays_its_replicas_end_to_end(small_config):
    # each seed draws once, sized to its largest replica; a smaller replica of
    # that seed reads the first N_r values, which are its solo run's
    replicas = [(1, 7, "killed"), (2, 3, "feynman-kac"), (1, 4, "feynman-kac")]
    members = [init_ensemble(replace(small_config, seed=seed, particles=n, mode=mode))
               for seed, n, mode in replicas]
    stack = ParticleEnsemble.stack(members)
    assert stack.bounds.tolist() == [0, 7, 10, 14]
    assert stack.killed.tolist() == [True, False, False]
    for r, member in enumerate(members):
        row = stack.row(r)
        for name in ("positions", "hazards", "thresholds"):
            got, own = getattr(row, name), getattr(member, name)
            assert (got is None) == (own is None), name
            assert own is None or np.array_equal(got, own) and not np.shares_memory(got, own), name
    assert np.array_equal(stack.thresholds[7:], np.full(7, np.inf))
    assert np.array_equal(members[2].positions, members[0].positions[:4])  # prefix-stable
    big = init_ensemble(replace(small_config, seed=1, particles=7, mode="killed"))
    assert np.array_equal(big.head(4, False).positions, members[2].positions)
    assert big.head(4, False).thresholds is None


def _sliced(monkeypatch, slice_particles, configs, **options):
    """``run_simulations`` with slices of at most ``slice_particles``
    particles, and the replica bounds within each of its ``_slice_step`` calls."""
    shapes = []
    step = sulfsim.particles._slice_step

    def counted(part, *args, **kwargs):
        assert part.bounds[-1] == part.positions.size
        shapes.append(part.bounds.tolist())
        return step(part, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(sulfsim.particles, "SLICE_PARTICLES", slice_particles)
        m.setattr(sulfsim.particles, "_slice_step", counted)
        return run_simulations(configs, **options), shapes


def _negative_fields(monkeypatch):
    """Lower A by 1e-3 after every accumulation, so that reads of I clamp."""
    accumulate = sulfsim.particles.accumulate_step

    def lowered(fields, *args, **kwargs):
        u = accumulate(fields, *args, **kwargs)
        fields.A -= 1e-3
        return u

    monkeypatch.setattr(sulfsim.particles, "accumulate_step", lowered)


_WIDE = SimConfig(particles=40, horizon=0.02, step=1e-3, seed=5, grid=Grid1D(-10.0, 10.0, 0.05),
                  physical=PhysicalParams(lam=40.0))  # about half the killed particles die


@pytest.mark.parametrize("case", ["fk", "killed", "stacked-pair", "off-grid", "negative-I",
                                  "ragged"])
def test_sliced_sweep_equals_one_slice_bit_for_bit(monkeypatch, case):
    base = replace(_NARROW, particles=41) if case == "off-grid" else _WIDE
    modes = {"fk": ["feynman-kac"], "killed": ["killed"]}.get(case, ["feynman-kac", "killed"])
    configs = [replace(base, seed=3, mode=m) for m in modes]
    if case == "ragged":  # slices of 7 cut replica 0 at 35, span 0 and 1, cut at 49 between 1 and 2
        configs = [replace(base, seed=s, mode=m, particles=n)
                   for s, m, n in [(3, "feynman-kac", 40), (4, "killed", 9), (3, "killed", 23)]]
    if case == "negative-I":
        _negative_fields(monkeypatch)
    options = dict(snapshot_stride=3, fields_stride=2)
    whole, whole_bounds = _sliced(monkeypatch, 1 << 14, configs, **options)
    sliced, slice_bounds = _sliced(monkeypatch, 7, configs, **options)
    bounds = np.cumsum([0] + [c.particles for c in configs])
    total = int(bounds[-1])
    assert whole_bounds == [bounds.tolist()] * base.n_steps  # one slice: the whole ensemble
    assert slice_bounds == [np.clip(bounds - lo, 0, min(7, total - lo)).tolist()
                            for lo in range(0, total, 7)] * base.n_steps
    if case == "ragged":
        assert 49 in bounds and 40 in bounds and 40 % 7
    for got, ref in zip(sliced, whole):
        _assert_same_run(got, ref)
    diagnostics = [out.diagnostics for out in whole]
    if "killed" in modes:
        assert 0 < diagnostics[-1]["deaths"] < configs[-1].particles
    if case == "off-grid":
        assert all(d["out_of_domain"] > 0 for d in diagnostics)
    assert all((d["negative_I"] > 0) == (case == "negative-I") for d in diagnostics)


def test_sliced_sweep_names_every_non_finite_particle_of_the_step(monkeypatch):
    # rows 0 and 1 draw from seeds 1 and 2; step 2 poisons column 30 of row 0,
    # in the eleventh slice, and column 2 of row 1, in the first
    configs = [replace(_WIDE, seed=1), replace(_WIDE, seed=2, mode="killed")]
    normals = ParticleStreams.normals

    def abort(slice_particles):
        poison = [30, 2]

        def poisoned(self):
            z = normals(self)
            if self._step == 3:
                z[poison.pop(0)] = np.inf
            return z

        with monkeypatch.context() as m:
            m.setattr(ParticleStreams, "normals", poisoned)
            with pytest.raises(NonFiniteStateError) as err:
                _sliced(monkeypatch, slice_particles, configs)
        return err.value

    whole, sliced = abort(1 << 14), abort(7)
    assert whole.step == sliced.step == 2
    assert whole.indices.tolist() == sliced.indices.tolist() == [30, 2]


@pytest.mark.parametrize("case", ["fk", "killed", "stacked-pair"])
def test_one_slice_hands_its_coordinates_to_the_next_drift(monkeypatch, case):
    # one slice: the coordinates of X_{k+1} serve the next step's drift, so a
    # run computes n_steps + 1 of them; k slices compute 2 per slice and step
    modes = {"fk": ["feynman-kac"], "killed": ["killed"]}.get(case, ["feynman-kac", "killed"])
    configs = [replace(_WIDE, seed=3, mode=m) for m in modes]
    calls = []
    coords_at = AccumulatedFields.coords_at

    def counted(fields, x, offsets=None):
        calls.append(1)
        return coords_at(fields, x, offsets)

    monkeypatch.setattr(AccumulatedFields, "coords_at", counted)
    _, shapes = _sliced(monkeypatch, 1 << 14, configs)
    assert len(shapes) == _WIDE.n_steps and len(calls) == _WIDE.n_steps + 1
    calls.clear()
    _, shapes = _sliced(monkeypatch, 7, configs)
    slices = len(shapes) // _WIDE.n_steps
    assert slices > 1 and len(calls) == 2 * slices * _WIDE.n_steps
