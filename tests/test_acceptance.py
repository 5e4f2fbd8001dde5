"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
full suite takes a few minutes, dominated by the convergence study.
"""

import hashlib
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from sulfsim import (
    Grid1D,
    PhysicalParams,
    SimConfig,
    convergence_study,
    density_distance,
    picard_solve,
    run_simulation,
    solve_pde,
)
from sulfsim.cli import main
from sulfsim.io import read_archive
from oracles import (
    accumulate_from_archive,
    exact_history_args,
    hold_fields_at_zero,
    run_with_clouds,
    run_with_coupled_readout,
    run_with_hazard_digests,
)


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {label} {detail}"


def test_criterion_1_conservative_limit():
    # lambda=0 weighted estimator vs closed-form N(0, s0^2 + 2t + delta^2)
    cfg = SimConfig(physical=PhysicalParams(lam=0.0), particles=10_000, seed=123)
    t0 = time.monotonic()
    sim = run_simulation(cfg, snapshot_stride=cfg.n_steps)
    runtime = time.monotonic() - t0
    grid = sim.config.grid
    x = grid.nodes()
    var = 1.0 + 2.0 * cfg.horizon + cfg.kernel.bandwidth**2
    oracle = np.exp(-(x**2) / (2 * var)) / np.sqrt(2 * np.pi * var)
    sup = float(np.max(np.abs(sim.densities[-1] - oracle)))
    l1 = density_distance(sim.densities[-1], oracle, grid, "l1")
    _report(
        1,
        "conservative limit vs heat-kernel oracle",
        sup <= 0.05 and l1 <= 0.05 and runtime <= 60.0,
        f"sup={sup:.4f} l1={l1:.4f} runtime={runtime:.1f}s",
    )


def test_criterion_2_constant_rate_survival(monkeypatch):
    # fields held at zero: rate is exactly lambda*c0, survival exactly exp(-t)
    hold_fields_at_zero(monkeypatch)
    base = SimConfig(
        particles=100_000,
        horizon=1.0,
        step=0.01,
        seed=5,
        grid=Grid1D(-16.0, 16.0, 0.2),
    )
    fk = run_simulation(base, snapshot_stride=5)
    ok_fk = all(
        abs(mw - np.exp(-t_k)) <= 1e-12 * np.exp(-t_k)
        for t_k, mw in zip(fk.times, fk.weight_or_alive)
    )
    w = fk.ensemble.weights
    ok_fk = ok_fk and bool(np.all(w == w[0]))

    kl = run_simulation(replace(base, mode="killed"), snapshot_stride=5)
    p = np.exp(-kl.times)
    band = 3.0 * np.sqrt(p * (1.0 - p) / base.particles)
    diff = np.abs(kl.weight_or_alive - p)
    exceed = int(np.sum(diff > band))
    quota = int(0.05 * len(kl.times))
    _report(
        2,
        "constant-rate survival (weights exact, killed within 3 sigma)",
        ok_fk and exceed <= quota,
        f"exceedances={exceed}/{len(kl.times)} quota={quota} final_w={w[0]:.10f}",
    )


def test_criterion_3_estimator_coupling(monkeypatch):
    # shared-path coupling on the default full scenario: hazards bit-equal
    # after every step, survival readout inside the conditional-Bernoulli band
    cfg = SimConfig(particles=10_000, seed=99)
    fk, fk_digests = run_with_hazard_digests(monkeypatch, run_simulation, cfg,
                                             snapshot_stride=25)
    (cp, alive, band), cp_digests = run_with_hazard_digests(
        monkeypatch, run_with_coupled_readout, monkeypatch, cfg, snapshot_stride=25)
    bit_exact = len(fk_digests) == cfg.n_steps and cp_digests == fk_digests
    diff = np.abs(cp.weight_or_alive - alive)
    exceed = int(np.sum(diff > band))
    quota = int(0.05 * len(diff))
    _report(
        3,
        "estimator coupling (bit-exact hazards, Bernoulli band)",
        bit_exact and exceed <= quota,
        f"exceedances={exceed}/{len(diff)} quota={quota}",
    )


def test_criterion_4_pde_refinement():
    p0 = PhysicalParams(lam=0.0)
    sups = []
    for h in (0.05, 0.025, 0.0125):
        cfg = SimConfig(physical=p0, grid=Grid1D(-8.0, 8.0, h), horizon=0.5, step=h * h / 2)
        res = solve_pde(cfg, snapshot_stride=cfg.n_steps)
        x = cfg.grid.nodes()
        var = 1.0 + 2.0 * cfg.horizon
        oracle = np.exp(-(x**2) / (2 * var)) / np.sqrt(2 * np.pi * var)
        sups.append(float(np.max(np.abs(res.densities[-1] - oracle))))
    r1 = sups[0] / sups[1]
    r2 = sups[1] / sups[2]
    _report(
        4,
        "PDE sup error shrinks ~4x per halving of h",
        3.5 <= r1 <= 4.5 and 3.5 <= r2 <= 4.5,
        f"ratios={r1:.2f},{r2:.2f} sups={sups[0]:.2e},{sups[1]:.2e},{sups[2]:.2e}",
    )


def test_criterion_5_pde_mass_balance():
    cfg = SimConfig(grid=Grid1D(-14.4, 14.4, 0.02), horizon=0.5, step=2e-4)
    res = solve_pde(cfg, snapshot_stride=cfg.n_steps)
    worst = float(np.max(np.abs(res.residual)))
    _report(
        5,
        "per-step mass balance closes (sink + boundary flux + clamps)",
        worst <= 1e-8,
        f"max|residual|={worst:.2e}",
    )


def test_criterion_6_estimator_vs_pde_convergence():
    cfg = SimConfig(physical=PhysicalParams(lam=0.0), particles=1000, seed=0)
    t0 = time.monotonic()
    table = convergence_study(cfg, [250, 1000, 4000], seeds_per_n=8)
    runtime = time.monotonic() - t0
    fk = [r.fk_mean_l1 for r in table.rows]
    kl = [r.kill_mean_l1 for r in table.rows]
    ratios = [fk[0] / fk[1], fk[1] / fk[2], kl[0] / kl[1], kl[1] / kl[2]]
    ratios_ok = all(1.5 <= r <= 2.8 for r in ratios)
    _report(
        6,
        "estimator-vs-PDE error non-increasing in N, ~N^(-1/2) rate",
        table.monotone_fk and table.monotone_kill and ratios_ok and runtime <= 900.0,
        f"ratios={[f'{r:.2f}' for r in ratios]} runtime={runtime:.0f}s",
    )


def test_criterion_7_field_oracle_equivalence(monkeypatch):
    cfg = SimConfig(
        particles=100,
        horizon=0.4,
        step=2e-3,
        seed=11,
        grid=Grid1D(-12.0, 12.0, 0.1),
    )
    delta = cfg.kernel.bandwidth
    sim, clouds = run_with_clouds(monkeypatch, run_simulation, cfg)
    nodes = cfg.grid.nodes()
    exact = exact_history_args(clouds, cfg.step, nodes, delta, cfg.particles, steps=cfg.n_steps)
    rel_a = float(np.max(np.abs(sim.fields.A - exact.I)) / np.max(sim.fields.A))
    rel_g = float(np.max(np.abs(sim.fields.G - exact.J)) / np.max(np.abs(exact.J)))

    probes = np.linspace(-3.0, 3.0, 1601) + 0.0123456
    probe_exact = exact_history_args(clouds, cfg.step, probes, delta, cfg.particles,
                                     steps=cfg.n_steps)
    gaps = []
    for h in (0.2, 0.1, 0.05):
        fields = accumulate_from_archive(
            clouds, cfg.step, Grid1D(-12.0, 12.0, h), delta, cfg.particles, steps=cfg.n_steps
        )
        ip = fields.args_at(fields.coords_at(probes))
        gaps.append(float(np.max(np.abs(ip.I - probe_exact.I))))
    r1, r2 = gaps[0] / gaps[1], gaps[1] / gaps[2]
    _report(
        7,
        "grid accumulator vs exact history (nodes 1e-12, interp ~4x/halving)",
        rel_a <= 1e-12 and rel_g <= 1e-12 and 3.5 <= r1 <= 4.5 and 3.5 <= r2 <= 4.5,
        f"relA={rel_a:.1e} relG={rel_g:.1e} ratios={r1:.2f},{r2:.2f}",
    )


def test_criterion_8_fixed_point_contraction(tmp_path):
    cfg = SimConfig(
        particles=200,
        horizon=0.25,
        step=1e-3,
        seed=31,
        grid=Grid1D(-10.0, 10.0, 0.05),
    )
    tol = 1e-10
    sim = run_simulation(cfg, archive_path=tmp_path / "a.bin", snapshot_stride=1)
    res = picard_solve(read_archive(tmp_path / "a.bin"), cfg.grid, cfg.kernel.bandwidth,
                       cfg.physical, tol=tol)
    ratios_ok = res.converged and bool(np.all(res.ratios[1:] < 1.0))

    gap = max(
        float(np.max(np.abs(res.fixed_point[k] - sim.densities[k])))
        for k in range(len(sim.densities))
    )
    consistency_ok = gap <= tol + 2.0 * cfg.step

    cfg0 = replace(cfg, physical=PhysicalParams(lam=0.0))
    run_simulation(cfg0, archive_path=tmp_path / "a0.bin", snapshot_stride=1)
    res0 = picard_solve(read_archive(tmp_path / "a0.bin"), cfg0.grid, cfg0.kernel.bandwidth,
                        cfg0.physical, tol=tol)
    lam0_ok = res0.converged and res0.iterations == 2 and res0.distances[1] == 0.0
    _report(
        8,
        "Picard contraction, lambda=0 one-shot, fixed point matches run",
        ratios_ok and consistency_ok and lam0_ok,
        f"iters={res.iterations} worst_ratio={np.nanmax(res.ratios[1:]):.2e} gap={gap:.2e}",
    )


def _output_digests(root: Path) -> dict:
    """The sha256 of every CSV under ``root`` and of its archive, if any."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*.csv")) + sorted(root.glob("archive.bin"))
    }


def test_criterion_9_cli_determinism(tmp_path):
    cfg = {
        "grid": {"lower": -10.0, "upper": 10.0, "spacing": 0.05},
        "horizon": 0.05,
        "step": 1e-3,
        "particles": 300,
    }
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    runner = CliRunner()

    matrix = [
        ("sim-fk", ["simulate", "--config", str(cfg_path), "--mode", "fk", "--seed", "7",
                    "--archive"]),
        ("sim-kill", ["simulate", "--config", str(cfg_path), "--mode", "kill", "--seed", "7"]),
        ("pde", ["pde", "--config", str(cfg_path)]),
        ("conv", ["convergence", "--config", str(cfg_path), "--n", "50,100", "--seeds", "2",
                  "--seed", "3"]),
    ]
    all_ok = True
    for name, args in matrix:
        digests = []
        for rep, workers in ((0, 1), (1, 4)):
            out = tmp_path / f"{name}-{rep}"
            extra = [] if name == "pde" else ["--workers", str(workers)]
            res = runner.invoke(main, args + ["--out", str(out)] + extra)
            assert res.exit_code == 0, res.output
            digests.append(_output_digests(out))
        all_ok &= digests[0] == digests[1]

    # fixedpoint on the archived run, twice
    digests = []
    for rep in range(2):
        out = tmp_path / f"fp-{rep}"
        res = runner.invoke(
            main,
            ["fixedpoint", "--archive", str(tmp_path / "sim-fk-0" / "archive.bin"),
             "--config", str(cfg_path), "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        digests.append(_output_digests(out))
    all_ok &= digests[0] == digests[1]
    _report(9, "CLI outputs byte-identical across reruns and worker counts", all_ok)
