import atexit
import contextlib
import gc
import hashlib
import json
import signal
import time
from pathlib import Path

import struct

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sulfsim.cli import main
from sulfsim.config import MAX_STEPS, InitialDensitySpec, derive_grid
from sulfsim.io import ARCHIVE_HEADER, ARCHIVE_HEADER_BYTES, read_csv

from oracles import run_python, write_paths_archive


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def cfg_file(tmp_path):
    cfg = {
        "physical": {"lambda": 1.0, "c0": 1.0, "phi0": 0.3, "phi1": 0.7, "phi_bar": 2.0},
        "kernel": {"bandwidth": 0.3},
        "grid": {"lower": -10.0, "upper": 10.0, "spacing": 0.05},
        "horizon": 0.05,
        "step": 1e-3,
        "particles": 300,
        "initial": {"family": "gaussian-bump", "center": 0.0, "width": 1.0},
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def _csv_digests(root: Path) -> dict:
    return {
        p.relative_to(root): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*.csv"))
    }


def test_simulate_repeat_is_byte_identical(runner, cfg_file, tmp_path):
    for name, workers in (("r1", "1"), ("r2", "4")):
        res = runner.invoke(
            main,
            ["simulate", "--config", str(cfg_file), "--mode", "fk", "--seed", "7",
             "--out", str(tmp_path / name), "--workers", workers],
        )
        assert res.exit_code == 0, res.output
    assert _csv_digests(tmp_path / "r1") == _csv_digests(tmp_path / "r2")


@pytest.mark.parametrize("args", [["pde"], ["compare", "--seed", "3"]], ids=["pde", "compare"])
def test_workers_is_accepted_and_ignored(runner, cfg_file, tmp_path, args):
    for workers in ("1", "3"):
        res = runner.invoke(main, [*args, "--config", str(cfg_file), "--workers", workers,
                                   "--out", str(tmp_path / workers)])
        assert res.exit_code == 0, res.output
    digests = _csv_digests(tmp_path / "1")
    assert digests and digests == _csv_digests(tmp_path / "3")


def test_simulate_missing_seed_exits_2(runner, cfg_file, tmp_path):
    res = runner.invoke(
        main, ["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "x")]
    )
    assert res.exit_code == 2
    assert "--seed" in res.output


@pytest.mark.parametrize("args, option", [
    (["simulate", "--seed", "1", "--snapshot-stride", "-1"], "--snapshot-stride"),
    (["simulate", "--seed", "1", "--snapshot-stride", "0"], "--snapshot-stride"),
    (["simulate", "--seed", "1", "--fields-stride", "-3"], "--fields-stride"),
    (["pde", "--snapshot-stride", "-1"], "--snapshot-stride"),
    (["compare", "--seed", "1", "--snapshot-stride", "-1"], "--snapshot-stride"),
    (["convergence", "--seed", "1", "--seeds", "0"], "--seeds"),
    (["convergence", "--seed", "1", "--n", ""], "--n"),
    (["convergence", "--seed", "1", "--n", "250,abc"], "--n"),
    (["convergence", "--seed", "1", "--n", "250,0"], "--n"),
    (["fixedpoint", "--archive", __file__, "--max-iters", "1"], "--max-iters"),
    (["fixedpoint", "--archive", "{dir}"], "--archive"),
    (["simulate", "--seed", "1", "--config", "{dir}"], "--config"),
    (["pde", "--config", "{dir}"], "--config"),
    (["compare", "--seed", "1", "--config", "{dir}"], "--config"),
    (["convergence", "--seed", "1", "--config", "{dir}"], "--config"),
    (["fixedpoint", "--archive", __file__, "--config", "{dir}"], "--config"),
], ids=["snapshot-neg", "snapshot-zero", "fields-neg", "pde-snapshot", "compare-snapshot",
        "seeds-zero", "n-empty", "n-not-int", "n-zero", "max-iters-one", "archive-dir",
        "simulate-config-dir", "pde-config-dir", "compare-config-dir",
        "convergence-config-dir", "fixedpoint-config-dir"])
def test_out_of_range_option_exits_2(runner, cfg_file, tmp_path, args, option):
    # the config file goes first, so that a case's own --config overrides it
    command, *rest = [a.format(dir=tmp_path) for a in args]
    res = runner.invoke(main, [command, "--config", str(cfg_file), *rest,
                               "--out", str(tmp_path / "x")])
    assert res.exit_code == 2, res.output
    assert option in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


_REQUIRED = {"simulate": ["--seed", "1"], "pde": [], "compare": ["--seed", "1"],
             "convergence": ["--seed", "1"], "fixedpoint": ["--archive", __file__]}


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("command", list(_REQUIRED))
def test_out_naming_a_file_exits_2(runner, cfg_file, tmp_path, command, via):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    flag = ["--out", str(taken)] if via == "flag" else []
    env = {"SULFSIM_OUTDIR": str(taken)} if via == "env" else {}
    res = runner.invoke(main, [command, "--config", str(cfg_file), *_REQUIRED[command], *flag],
                        env=env)
    assert res.exit_code == 2, res.output
    assert "--out" in res.output and "is a file" in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


def _refuse_work(monkeypatch):
    import sulfsim.cli

    def refused(*args, **kwargs):
        raise AssertionError("the command ran before its --out was checked")

    for name in ("run_simulation", "solve_pde"):
        monkeypatch.setattr(sulfsim.cli, name, refused)


@pytest.mark.parametrize("command", ["simulate", "pde"])
def test_out_under_a_file_exits_2_before_any_work(runner, cfg_file, tmp_path, monkeypatch,
                                                   command):
    _refuse_work(monkeypatch)
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    res = runner.invoke(main, [command, "--config", str(cfg_file), *_REQUIRED[command],
                               "--out", str(taken / "sub" / "deeper")])
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)
    assert f"lies under {taken}, which is not a directory" in res.output
    assert taken.read_text() == "a file, not a directory\n"


@pytest.mark.parametrize("command", ["simulate", "pde"])
def test_out_in_an_unwritable_directory_exits_2_before_any_work(runner, cfg_file, tmp_path,
                                                                monkeypatch, command):
    import sulfsim.cli

    _refuse_work(monkeypatch)
    locked = tmp_path / "locked"
    locked.mkdir()
    locked.chmod(0o555)
    # root writes whatever the mode bits say, so the access check is told what they say
    access = sulfsim.cli.os.access
    monkeypatch.setattr(sulfsim.cli.os, "access", lambda path, mode: access(path, mode) and not (
        Path(path) == locked and mode & sulfsim.cli.os.W_OK))
    try:
        for out in (locked, locked / "sub"):
            res = runner.invoke(main, [command, "--config", str(cfg_file), *_REQUIRED[command],
                                       "--out", str(out)])
            assert res.exit_code == 2, res.output
            assert f"{locked} is a directory that cannot be written" in res.output
            assert not (locked / "sub").exists()
    finally:
        locked.chmod(0o755)


def test_out_flag_beats_the_environment_and_an_empty_variable_is_unset(runner, cfg_file,
                                                                      tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for env, written in (({"SULFSIM_OUTDIR": str(tmp_path / "env")}, "flag"),
                         ({"SULFSIM_OUTDIR": ""}, "pde-out")):
        flag = ["--out", str(tmp_path / "flag")] if written == "flag" else []
        res = runner.invoke(main, ["pde", "--config", str(cfg_file), *flag], env=env)
        assert res.exit_code == 0, res.output
        assert (tmp_path / written / "manifest.json").is_file()
    assert not (tmp_path / "env").exists()


def test_simulate_invalid_config_exits_2(runner, cfg_file, tmp_path):
    res = runner.invoke(
        main,
        ["simulate", "--config", str(cfg_file), "--seed", "1", "--phi1", "-0.4",
         "--out", str(tmp_path / "x")],
    )
    assert res.exit_code == 2
    assert "porosity" in res.output


@pytest.mark.parametrize("body, key", [
    ("kernel: {bandwidth: .nan}", "bandwidth"),
    ("kernel: {bandwidth: .inf}", "bandwidth"),
    ("kernel: {bandwidth: -0.3}", "bandwidth"),
    ("horizon: .nan", "horizon"),
    ("horizon: .inf", "horizon"),
    ("horizon: -0.5", "horizon"),
    ("step: .nan", "step"),
    ("step: .inf", "step"),
    ("{grid: {lower: -5, upper: 5, spacing: 0.05}, horizon: .inf}", "horizon"),
    ("initial: {family: tabulated}", "table_x"),
    ("initial: {family: bogus}", "initial family"),
    ("horizon: abc", "horizon"),
    ("horizon: [1, 2]", "horizon"),
    ("physical: 3", "physical"),
    ("particles: 1.5", "particles"),
    ("particles: true", "particles"),
    ('initial: {normalize: "no"}', "initial.normalize"),
    ("initial: {table_x: 5}", "initial.table_x"),
    ("bogus_key: 1", "bogus_key"),
    ("grid: {spacing: 0.1, bogus: 1}", "grid.bogus"),
    ("field_mode: grid-accumulator", "field_mode"),
    ("kernel: {shape: gaussian}", "kernel.shape"),
    ("kernel: {bandwidth: 0.0025}", "bandwidth"),
    ("kernel: {bandwidth: 1.0e-6}", "bandwidth"),
], ids=["bandwidth-nan", "bandwidth-inf", "bandwidth-neg", "horizon-nan", "horizon-inf",
        "horizon-neg", "step-nan", "step-inf", "grid-horizon-inf", "tabulated-no-table",
        "unknown-family", "horizon-str", "horizon-list", "physical-scalar", "particles-float",
        "particles-bool", "normalize-str", "table-scalar", "unknown-key", "grid-unknown-key",
        "field-mode-removed", "kernel-shape-removed", "bandwidth-unresolved",
        "bandwidth-tiny"])
def test_bad_grid_input_exits_2(runner, tmp_path, body, key):
    # with no grid block the default grid is derived from the horizon, the
    # bandwidth and the initial law's support; a value of the wrong type or
    # an unknown key is named by its key path
    path = tmp_path / "bad.yaml"
    path.write_text(body + "\n")
    res = runner.invoke(main, ["simulate", "--config", str(path), "--seed", "1",
                               "--out", str(tmp_path / "x")])
    assert res.exit_code == 2, res.output
    assert "invalid config" in res.output and key in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


def _manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


def test_partial_grid_is_completed_from_the_derived_grid(runner, tmp_path):
    path = tmp_path / "g.yaml"
    path.write_text("grid: {spacing: 0.1}\nparticles: 100\nhorizon: 0.01\n")
    res = runner.invoke(main, ["simulate", "--config", str(path), "--seed", "1",
                               "--out", str(tmp_path / "s")])
    assert res.exit_code == 0, res.output
    derived = derive_grid(0.01, 0.3, InitialDensitySpec(), spacing=0.1)
    assert _manifest(tmp_path / "s")["config"]["grid"] == {
        "lower": derived.lower, "upper": derived.upper, "spacing": 0.1}
    # the flags are merged before the missing grid values are derived
    res = runner.invoke(main, ["pde", "--horizon", "2", "--step", "0.001", "--lower", "-9",
                               "--out", str(tmp_path / "p")])
    assert res.exit_code == 0, res.output
    grid = _manifest(tmp_path / "p")["config"]["grid"]
    assert grid["lower"] == -9.0
    assert grid["upper"] == derive_grid(2.0, 0.3, InitialDensitySpec()).upper


def test_simulate_mode_falls_back_to_the_config(runner, cfg_file, tmp_path):
    cfg = yaml.safe_load(cfg_file.read_text())
    cfg["mode"] = "killed"
    cfg_file.write_text(yaml.safe_dump(cfg))
    res = runner.invoke(main, ["simulate", "--config", str(cfg_file), "--seed", "1",
                               "--out", str(tmp_path / "k")])
    assert res.exit_code == 0, res.output
    manifest = _manifest(tmp_path / "k")
    assert manifest["config"]["mode"] == "killed" and "deaths" in manifest["diagnostics"]


def test_simulate_numerical_abort_exits_3(runner, cfg_file, tmp_path, monkeypatch):
    from sulfsim.particles import NonFiniteStateError
    import sulfsim.cli as cli_mod

    def boom(*args, **kwargs):
        raise NonFiniteStateError(12, np.array([3]))

    monkeypatch.setattr(cli_mod, "run_simulation", boom)
    res = runner.invoke(
        main,
        ["simulate", "--config", str(cfg_file), "--seed", "1", "--out", str(tmp_path / "x")],
    )
    assert res.exit_code == 3
    assert "step 12" in res.output


@pytest.mark.parametrize("name, mode", [("A", "fk"), ("G", "kill")])
def test_simulate_non_finite_field_exits_3(runner, cfg_file, tmp_path, monkeypatch, name, mode):
    # a NaN written into A or G at the middle node, which particles near x = 0
    # read, right after step 3's term: step 3's positions become non-finite
    import sulfsim.particles

    accumulate, calls = sulfsim.particles.accumulate_step, []

    def poisoned(fields, *args, **kwargs):
        u = accumulate(fields, *args, **kwargs)
        calls.append(None)
        if len(calls) == 4:
            values = getattr(fields, name)
            values[..., values.shape[-1] // 2] = np.nan
        return u

    monkeypatch.setattr(sulfsim.particles, "accumulate_step", poisoned)
    archive = ["--archive"] if mode == "fk" else []  # only an fk run is archived
    res = runner.invoke(main, ["simulate", "--config", str(cfg_file), "--mode", mode,
                               "--seed", "1", "--out", str(tmp_path / "x"), *archive])
    assert res.exit_code == 3, res.output
    assert "numerical abort: non-finite particle state at step 3," in res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    # an archive is written as the run goes, to a partial file that the abort
    # removed with the directory it had created for it
    assert not (tmp_path / "x").exists()


def test_simulate_killed_archive_exits_2(runner, cfg_file, tmp_path):
    res = runner.invoke(main, ["simulate", "--config", str(cfg_file), "--mode", "kill",
                               "--seed", "1", "--out", str(tmp_path / "x"), "--archive"])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    assert "invalid config" in res.output and "feynman-kac" in res.output
    assert not (tmp_path / "x").exists()  # refused before anything was written


@pytest.mark.parametrize("command", ["simulate", "pde", "compare", "convergence"])
def test_huge_horizon_exits_2_at_once(runner, cfg_file, tmp_path, command):
    seed = [] if command == "pde" else ["--seed", "1"]
    start = time.monotonic()
    with _wall_limit(5.0):  # an unbounded step count would run for ever
        res = runner.invoke(main, [command, "--config", str(cfg_file), *seed,
                                   "--horizon", "1e300", "--out", str(tmp_path / "o")])
    assert time.monotonic() - start < 1.0
    assert res.exit_code == 2, res.output
    assert f"takes 1e+303 steps, more than {MAX_STEPS}" in res.output


def test_kill_mode_lambda_zero_alive_fraction_one(runner, cfg_file, tmp_path):
    out = tmp_path / "kz"
    res = runner.invoke(
        main,
        ["simulate", "--config", str(cfg_file), "--mode", "kill", "--seed", "3",
         "--lambda", "0.0", "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    cols = read_csv(out / "run.csv")
    assert cols["alive_fraction_or_mean_weight"][-1] == 1.0


def test_simulate_manifest_lists_outputs(runner, cfg_file, tmp_path):
    out = tmp_path / "m"
    res = runner.invoke(
        main,
        ["simulate", "--config", str(cfg_file), "--seed", "5", "--out", str(out),
         "--archive"],
    )
    assert res.exit_code == 0, res.output
    manifest = json.loads((out / "manifest.json").read_text())
    names = {o["path"] for o in manifest["outputs"]}
    assert "run.csv" in names and "archive.bin" in names
    from sulfsim.io import sha256_file

    for entry in manifest["outputs"]:
        assert sha256_file(out / entry["path"]) == entry["sha256"]


def test_simulate_fields_stride_exports(runner, cfg_file, tmp_path):
    out = tmp_path / "flds"
    res = runner.invoke(
        main,
        ["simulate", "--config", str(cfg_file), "--seed", "5", "--out", str(out),
         "--fields-stride", "25"],
    )
    assert res.exit_code == 0, res.output
    files = sorted((out / "fields").glob("af_*.csv"))
    assert files
    cols = read_csv(files[-1])
    assert set(cols) == {"x", "A", "G"}
    assert np.all(cols["A"] >= 0.0)


def test_pde_command_and_mass(runner, cfg_file, tmp_path):
    out = tmp_path / "pde"
    res = runner.invoke(main, ["pde", "--config", str(cfg_file), "--out", str(out)])
    assert res.exit_code == 0, res.output
    cols = read_csv(out / "run.csv")
    assert abs(cols["mass"][0] - 1.0) < 1e-6
    ledger = read_csv(out / "ledger.csv")
    assert np.max(np.abs(ledger["residual"])) < 1e-10


def test_compare_run_against_itself_is_zero(runner, cfg_file, tmp_path):
    out = tmp_path / "one"
    runner.invoke(
        main,
        ["simulate", "--config", str(cfg_file), "--seed", "7", "--out", str(out)],
    )
    cmp_out = tmp_path / "cmp"
    res = runner.invoke(
        main,
        ["compare", "--a", str(out), "--b", str(out), "--out", str(cmp_out)],
    )
    assert res.exit_code == 0, res.output
    cols = read_csv(cmp_out / "report.csv")
    assert np.all(cols["l1"] == 0.0) and np.all(cols["sup"] == 0.0)


def test_compare_grid_mismatch_exits_4(runner, cfg_file, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    runner.invoke(main, ["simulate", "--config", str(cfg_file), "--seed", "1", "--out", str(a)])
    runner.invoke(
        main,
        ["simulate", "--config", str(cfg_file), "--seed", "1", "--spacing", "0.1",
         "--out", str(b)],
    )
    res = runner.invoke(main, ["compare", "--a", str(a), "--b", str(b), "--out", str(tmp_path / "c")])
    assert res.exit_code == 4


def _stray_snapshot(a: Path) -> Path:
    bad = a / "snapshots" / "u_old.csv"
    bad.write_text((a / "snapshots" / "u_000000.csv").read_text())
    return bad


def _edit_snapshot(a: Path, edit, which: int = -1) -> Path:
    bad = sorted((a / "snapshots").glob("u_*.csv"))[which]
    lines = bad.read_text().splitlines()
    bad.write_text("\n".join(edit(lines)) + "\n")
    return bad


def _short_run_csv(a: Path) -> Path:
    run = a / "run.csv"
    run.write_text("\n".join(run.read_text().splitlines()[:3]) + "\n")
    return run


def _missing_snapshot(a: Path) -> Path:
    # run.csv keeps a row for the deleted snapshot, so its times no longer line up
    sorted((a / "snapshots").glob("u_*.csv"))[1].unlink()
    return a / "run.csv"


def _move_node_4(a: Path) -> Path:
    # every snapshot alike, so that the grids of all snapshots still agree
    files = sorted((a / "snapshots").glob("u_*.csv"))
    for which in range(len(files)):
        _edit_snapshot(a, lambda ls: ls[:5] + [_shifted(ls[5])] + ls[6:], which)
    return files[0]


def _shifted(row: str) -> str:
    x, u = row.split(",")
    return f"{float(x) + 0.02!r},{u}"


def _nan_density(a: Path) -> Path:
    return _edit_snapshot(a, lambda ls: ls[:5] + [ls[5].split(",")[0] + ",nan"] + ls[6:])


def _nan_time(a: Path) -> Path:
    run = a / "run.csv"
    lines = run.read_text().splitlines()
    lines[2] = "nan," + lines[2].split(",", 1)[1]
    run.write_text("\n".join(lines) + "\n")
    return run


# each malforms a run directory and returns the file its error must name
_MALFORMED = {
    "stray file": _stray_snapshot,
    "non-numeric cell": lambda a: _edit_snapshot(a, lambda ls: ls[:5] + ["0.1,abc"] + ls[6:]),
    "header without u": lambda a: _edit_snapshot(a, lambda ls: ["x,v"] + ls[1:]),
    "short run.csv": _short_run_csv,
    "missing snapshot": _missing_snapshot,
    "ragged row": lambda a: _edit_snapshot(a, lambda ls: ls[:5] + ["0.1"] + ls[6:]),
    "one grid node": lambda a: _edit_snapshot(a, lambda ls: ls[:2], 0),
    "non-uniform x": _move_node_4,
    "non-finite density": _nan_density,
    "non-finite time": _nan_time,
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_compare_malformed_snapshot_dir_exits_4(runner, cfg_file, tmp_path, case):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        res = runner.invoke(main, ["simulate", "--config", str(cfg_file), "--seed", "1",
                                   "--out", str(d)])
        assert res.exit_code == 0, res.output
    bad = _MALFORMED[case](a)
    for other in (b, a):  # also against itself, where the grids agree
        res = runner.invoke(main, ["compare", "--a", str(a), "--b", str(other),
                                   "--out", str(tmp_path / "c")])
        assert res.exit_code == 4, (case, res.output)
        assert str(bad) in res.output, case
        assert not (tmp_path / "c").exists()


def test_compare_dir_without_snapshots_exits_4_and_writes_nothing(runner, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    res = runner.invoke(main, ["compare", "--a", str(empty), "--b", str(empty),
                               "--out", str(tmp_path / "c")])
    assert res.exit_code == 4, res.output
    assert f"no snapshots under {empty}" in res.output
    assert not (tmp_path / "c").exists()


def test_compare_runs_at_different_times_exits_4(runner, cfg_file, tmp_path):
    # 50 steps of 0.001 and of 0.0005: the same step labels at different times
    a, b = tmp_path / "a", tmp_path / "b"
    for d, flags in ((a, []), (b, ["--step", "0.0005", "--horizon", "0.025"])):
        res = runner.invoke(main, ["simulate", "--config", str(cfg_file), "--seed", "1",
                                   "--out", str(d), *flags])
        assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["compare", "--a", str(a), "--b", str(b),
                               "--out", str(tmp_path / "c")])
    assert res.exit_code == 4, res.output
    assert str(a / "run.csv") in res.output and str(b / "run.csv") in res.output
    assert not (tmp_path / "c").exists()


def test_compare_regenerates_from_config(runner, cfg_file, tmp_path):
    out = tmp_path / "regen"
    res = runner.invoke(
        main,
        ["compare", "--config", str(cfg_file), "--seed", "11", "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    for name in ("report_fk_vs_kill.csv", "report_fk_vs_pde.csv", "report_kill_vs_pde.csv"):
        assert (out / name).is_file()


@pytest.mark.parametrize("args, named", [
    ([], ["--a", "--b", "--seed"]),
    (["--config", "{cfg}"], ["--seed"]),
    (["--particles", "10"], ["--seed"]),
    (["--a", "{run}"], ["--a", "--b"]),
    (["--b", "{run}"], ["--a", "--b"]),
    (["--a", "{run}", "--config", "{cfg}", "--seed", "1"], ["--a", "--b"]),
    (["--a", "{run}", "--b", "{run}", "--config", "{cfg}", "--seed", "1"], ["--config", "--seed"]),
    (["--a", "{run}", "--b", "{run}", "--seed", "1"], ["--seed"]),
    (["--a", "{run}", "--b", "{run}", "--config", "{cfg}"], ["--config"]),
    (["--a", "{run}", "--b", "{run}", "--particles", "10", "--lambda", "2"],
     ["--particles", "--lambda"]),
    (["--a", "{run}", "--b", "{run}", "--no-normalize"], ["--normalize/--no-normalize"]),
    (["--a", "{run}", "--b", "{run}", "--snapshot-stride", "2"], ["--snapshot-stride"]),
], ids=["no-runs", "config-without-seed", "flag-without-seed", "a-alone", "b-alone", "a-with-config", "ab-config-seed", "ab-seed", "ab-config",
        "ab-physical", "ab-normalize", "ab-snapshot-stride"])
def test_compare_refuses_flags_it_would_ignore(runner, cfg_file, tmp_path, args, named):
    run = tmp_path / "run"
    run.mkdir()
    args = [a.format(run=run, cfg=cfg_file) for a in args]
    res = runner.invoke(main, ["compare", *args, "--out", str(tmp_path / "c")])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    for flag in named:
        assert flag in res.output, flag
    assert not (tmp_path / "c").exists()


def test_convergence_table_shape(runner, cfg_file, tmp_path):
    out = tmp_path / "conv"
    res = runner.invoke(
        main,
        ["convergence", "--config", str(cfg_file), "--n", "50,100,200", "--seeds", "2",
         "--seed", "3", "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    cols = read_csv(out / "convergence.csv")
    assert list(cols["n"]) == [50.0, 100.0, 200.0]
    assert len(cols["fk_stderr"]) == 3


def test_convergence_rows_are_in_increasing_n_whatever_the_order_of_n(runner, cfg_file,
                                                                      tmp_path):
    # the monotone flags read the rows in order, so both must follow N
    got = {}
    for order in ("100,25", "25,100"):
        out = tmp_path / order.replace(",", "-")
        res = runner.invoke(main, ["convergence", "--config", str(cfg_file), "--n", order,
                                   "--seeds", "2", "--seed", "1", "--out", str(out)])
        assert res.exit_code == 0, res.output
        got[order] = ((out / "convergence.csv").read_bytes(),
                      json.loads((out / "manifest.json").read_text())["diagnostics"])
    assert got["100,25"] == got["25,100"]
    assert read_csv(tmp_path / "100-25" / "convergence.csv")["n"].tolist() == [25.0, 100.0]


def test_convergence_refuses_a_size_given_twice(runner, cfg_file, tmp_path):
    res = runner.invoke(main, ["convergence", "--config", str(cfg_file), "--n", "3,3",
                               "--seed", "1", "--out", str(tmp_path / "conv")])
    assert res.exit_code == 2, res.output
    assert "--n" in res.output and "size 3 more than once" in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert not (tmp_path / "conv").exists()


def test_fixedpoint_lambda_zero_converges_iteration_one(runner, cfg_file, tmp_path):
    run_dir = tmp_path / "arch"
    res = runner.invoke(
        main,
        ["simulate", "--config", str(cfg_file), "--seed", "2", "--lambda", "0.0",
         "--out", str(run_dir), "--archive"],
    )
    assert res.exit_code == 0, res.output
    fp_dir = tmp_path / "fp"
    res = runner.invoke(
        main,
        ["fixedpoint", "--archive", str(run_dir / "archive.bin"), "--config", str(cfg_file),
         "--lambda", "0.0", "--out", str(fp_dir)],
    )
    assert res.exit_code == 0, res.output
    assert "after iteration 1" in res.output
    trace = read_csv(fp_dir / "trace.csv")
    assert trace["sup_distance"][-1] == 0.0


def test_emit_plots_and_render(runner, cfg_file, tmp_path):
    out = tmp_path / "plotrun"
    runner.invoke(main, ["simulate", "--config", str(cfg_file), "--seed", "4", "--out", str(out)])
    res = runner.invoke(main, ["emit-plots", "--run", str(out)])
    assert res.exit_code == 0, res.output
    assert (out / "plot_density.py").is_file()
    assert (out / "plot_mass.py").is_file()
    assert (out / "density_snapshots.png").is_file()
    assert (out / "mass_decay.png").is_file()
    script = (out / "plot_density.py").read_text()
    assert "snapshots/u_" in script and "read_csv" in script


def test_fixedpoint_cut_archive_exits_4(runner, cfg_file, tmp_path):
    run_dir = tmp_path / "arch"
    res = runner.invoke(
        main,
        ["simulate", "--config", str(cfg_file), "--seed", "2", "--out", str(run_dir),
         "--archive"],
    )
    assert res.exit_code == 0, res.output
    archive = run_dir / "archive.bin"
    archive.write_bytes(archive.read_bytes()[:-16])
    res = runner.invoke(
        main,
        ["fixedpoint", "--archive", str(archive), "--config", str(cfg_file),
         "--out", str(tmp_path / "fp")],
    )
    assert res.exit_code == 4, res.output
    assert "needs exactly" in res.output


def test_fixedpoint_nonfinite_archive_exits_4(runner, cfg_file, tmp_path):
    run_dir = tmp_path / "arch"
    res = runner.invoke(
        main,
        ["simulate", "--config", str(cfg_file), "--seed", "2", "--out", str(run_dir),
         "--archive"],
    )
    assert res.exit_code == 0, res.output
    archive = run_dir / "archive.bin"
    data = bytearray(archive.read_bytes())
    data[ARCHIVE_HEADER_BYTES : ARCHIVE_HEADER_BYTES + 8] = struct.pack("<d", float("nan"))
    archive.write_bytes(bytes(data))
    res = runner.invoke(
        main,
        ["fixedpoint", "--archive", str(archive), "--config", str(cfg_file),
         "--out", str(tmp_path / "fp")],
    )
    assert res.exit_code == 4, res.output
    assert "non-finite positions" in res.output


def _last_row(data: bytes, value: float) -> bytes:
    """The archive of a run of N = 300 with ``value`` at particle 0 of its
    last snapshot."""
    at = len(data) - 8 * 300
    return data[:at] + struct.pack("<d", value) + data[at + 8:]


@pytest.mark.parametrize("mutate, message", [
    (lambda data: _last_row(data, float("nan")), "non-finite positions"),
    (lambda data: data[: -8 * 300 - 8 * 150], "needs exactly"),
], ids=["last-row-position-nan", "cut-mid-row"])
def test_fixedpoint_bad_last_row_exits_4_before_any_map(runner, cfg_file, tmp_path,
                                                        monkeypatch, mutate, message):
    import sulfsim.fixedpoint

    archive = _archive_run(runner, cfg_file, tmp_path / "arch")
    archive.write_bytes(mutate(archive.read_bytes()))

    def no_map(*args, **kwargs):
        raise AssertionError("a Picard map ran on an archive that fails its checks")

    monkeypatch.setattr(sulfsim.fixedpoint, "apply_mkfk_map", no_map)
    res = runner.invoke(main, ["fixedpoint", "--archive", str(archive), "--config",
                               str(cfg_file), "--out", str(tmp_path / "fp")])
    assert res.exit_code == 4, res.output
    assert message in res.output
    assert not (tmp_path / "fp").exists()


def test_fixedpoint_empty_archive_exits_4(runner, cfg_file, tmp_path):
    from sulfsim.io import ARCHIVE_MAGIC, ARCHIVE_VERSION

    archive = tmp_path / "empty.bin"
    archive.write_bytes(ARCHIVE_HEADER.pack(ARCHIVE_MAGIC, ARCHIVE_VERSION, 0, 5, 1e-3))
    res = runner.invoke(
        main,
        ["fixedpoint", "--archive", str(archive), "--config", str(cfg_file),
         "--out", str(tmp_path / "fp")],
    )
    assert res.exit_code == 4, res.output
    assert "both must be positive" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("version", [1, 2, 3], ids=["version-1", "version-2", "version-3"])
def test_fixedpoint_old_archive_version_exits_4(runner, cfg_file, tmp_path, version,
                                                monkeypatch):
    import sulfsim.fixedpoint

    # versions 1 to 3 held each row's weights after its positions, and
    # version 2 a mode word after dt
    archive = _archive_run(runner, cfg_file, tmp_path / "arch")
    rows = np.fromfile(archive, dtype="<f8", offset=ARCHIVE_HEADER_BYTES).reshape(51, 1, 300)
    mode_word = struct.pack("<Q", 0) if version == 2 else b""
    archive.write_bytes(b"SSAR" + struct.pack("<IQQd", version, 300, 51, 1e-3) + mode_word
                        + np.concatenate([rows, np.ones_like(rows)], axis=1).tobytes())
    monkeypatch.setattr(sulfsim.fixedpoint, "apply_mkfk_map", None)  # no map may run
    res = runner.invoke(main, ["fixedpoint", "--archive", str(archive), "--config",
                               str(cfg_file), "--out", str(tmp_path / "fp")])
    assert res.exit_code == 4, res.output
    assert f"version {version} archive" in res.output and "simulate --archive" in res.output
    assert not (tmp_path / "fp").exists()


def _small_archive_bytes(path: Path) -> bytes:
    """A valid feynman-kac archive of 3 particles and 4 snapshots."""
    paths = [np.array([-1.0, 0.0, 1.0]) * k for k in range(4)]
    return write_paths_archive(path, paths, 0.01).path.read_bytes()


def _set_value(data: bytes, snapshot: int, particle: int, value: float) -> bytes:
    at = ARCHIVE_HEADER_BYTES + 8 * (3 * snapshot + particle)
    return data[:at] + struct.pack("<d", value) + data[at + 8:]


# each mutation turns the valid archive into one that must be refused
_ARCHIVE_MUTATIONS = st.one_of(
    st.integers(1, 127).map(lambda cut: lambda data: data[:-cut]),
    st.binary(min_size=1, max_size=64).map(lambda tail: lambda data: data + tail),
    st.integers(0, 2**32 - 1).filter(lambda v: v != 4).map(
        lambda v: lambda data: data[:4] + struct.pack("<I", v) + data[8:]),
    st.sampled_from([0.0, -0.01, float("inf"), float("nan")]).map(
        lambda dt: lambda data: data[:24] + struct.pack("<d", dt) + data[32:]),
    st.tuples(st.integers(0, 3), st.integers(0, 2),
              st.sampled_from([float("nan"), float("inf"), -float("inf")])).map(
        lambda a: lambda data: _set_value(data, *a)),
)


@settings(max_examples=80, deadline=None)
@given(_ARCHIVE_MUTATIONS)
def test_fixedpoint_refuses_every_malformed_archive(tmp_path_factory, mutate):
    root = tmp_path_factory.mktemp("fuzz")
    archive = root / "archive.bin"
    archive.write_bytes(mutate(_small_archive_bytes(archive)))
    res = CliRunner().invoke(main, ["fixedpoint", "--archive", str(archive),
                                    "--out", str(root / "fp")])
    assert res.exit_code == 4, res.output
    assert isinstance(res.exception, SystemExit) and "data error" in res.output
    assert not (root / "fp").exists()


def _archive_run(runner, cfg_file, run_dir, *flags):
    res = runner.invoke(main, ["simulate", "--config", str(cfg_file), "--seed", "2",
                               "--out", str(run_dir), "--archive", *flags])
    assert res.exit_code == 0, res.output
    return run_dir / "archive.bin"


@pytest.mark.parametrize("flag, value, held", [
    ("--horizon", "0.1", "0.05"),
    ("--step", "0.0005", "0.001"),
    ("--particles", "7", "300"),
])
def test_fixedpoint_flag_contradicting_archive_exits_4(runner, cfg_file, tmp_path,
                                                         flag, value, held):
    archive = _archive_run(runner, cfg_file, tmp_path / "arch")  # horizon 0.05, N = 300
    res = runner.invoke(
        main,
        ["fixedpoint", "--archive", str(archive), "--config", str(cfg_file), flag, value,
         "--out", str(tmp_path / "fp")],
    )
    assert res.exit_code == 4, res.output
    assert f"{flag} {value} contradicts the archive" in res.output
    assert held in res.output
    assert not (tmp_path / "fp" / "manifest.json").exists()


def test_fixedpoint_takes_run_values_from_archive_not_config(runner, cfg_file, tmp_path):
    archive = _archive_run(runner, cfg_file, tmp_path / "arch",
                           "--horizon", "0.02", "--particles", "100")
    for name, flags in (("fp", []), ("fp-flags", ["--horizon", "0.02", "--particles", "100"])):
        res = runner.invoke(
            main,
            ["fixedpoint", "--archive", str(archive), "--config", str(cfg_file), *flags,
             "--out", str(tmp_path / name)],
        )
        assert res.exit_code == 0, res.output  # the config file says 0.05 and 300
        config = json.loads((tmp_path / name / "manifest.json").read_text())["config"]
        assert config["horizon"] == pytest.approx(0.02, rel=1e-12)
        assert config["step"] == 1e-3
        assert config["particles"] == 100


def test_main_freezes_nothing_in_process_and_registers_the_exit_freeze_once(
        runner, cfg_file, tmp_path, monkeypatch):
    # the handlers atexit holds from here on, kept as atexit keeps them:
    # unregister drops every registration of a function
    handlers = []
    register, unregister = atexit.register, atexit.unregister

    def recording_register(fn, *args, **kwargs):
        handlers.append(fn)
        return register(fn, *args, **kwargs)

    def recording_unregister(fn):
        handlers[:] = [h for h in handlers if h != fn]
        unregister(fn)

    monkeypatch.setattr(atexit, "register", recording_register)
    monkeypatch.setattr(atexit, "unregister", recording_unregister)
    frozen = gc.get_freeze_count()
    for name in ("a", "b"):
        res = runner.invoke(main, ["pde", "--config", str(cfg_file), "--horizon", "0.005",
                                   "--out", str(tmp_path / name)])
        assert res.exit_code == 0, res.output
    assert gc.get_freeze_count() == frozen  # the caller keeps collecting its cycles
    assert handlers == [gc.freeze]


# atexit runs its handlers last in, first out: the probe, registered first, runs
# after anything sulfsim registered
_EXIT_FREEZE_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
import sulfsim.cli
if sys.argv[1:]:
    sulfsim.cli.main(args=sys.argv[1:], prog_name="sulfsim")
"""


@pytest.mark.parametrize("command", [False, True], ids=["import-only", "pde"])
def test_a_cli_process_freezes_the_collector_at_exit(cfg_file, tmp_path, command):
    out = tmp_path / "pde"
    args = ["pde", "--config", str(cfg_file), "--horizon", "0.005", "--out", str(out)]
    stdout = run_python(["-c", _EXIT_FREEZE_PROBE, *(args if command else [])])
    assert stdout.splitlines()[-1] == f"frozen at exit: {command}"
    assert (out / "manifest.json").is_file() == command


def _assert_manifest_outputs_whole(out: Path) -> list[dict]:
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert outputs
    for entry in outputs:
        data = (out / entry["path"]).read_bytes()
        assert len(data) == entry["bytes"], entry["path"]
        assert hashlib.sha256(data).hexdigest() == entry["sha256"], entry["path"]
    return outputs


def test_archive_then_fixedpoint_processes_leave_every_listed_output_whole(cfg_file, tmp_path):
    sim, fp = tmp_path / "sim", tmp_path / "fp"
    stdout = run_python(["-m", "sulfsim.cli", "simulate", "--config", str(cfg_file),
                         "--seed", "2", "--archive", "--out", str(sim)])
    outputs = _assert_manifest_outputs_whole(sim)
    assert stdout.strip() == f"simulate: wrote {len(outputs)} files to {sim}"
    assert "archive.bin" in [entry["path"] for entry in outputs]
    stdout = run_python(["-m", "sulfsim.cli", "fixedpoint", "--archive", str(sim / "archive.bin"),
                         "--config", str(cfg_file), "--out", str(fp)])
    _assert_manifest_outputs_whole(fp)
    assert stdout.startswith("fixed point reached after iteration ")
    assert stdout.strip() == (fp / "summary.txt").read_text().strip()


def test_pde_nonfinite_state_exits_3(runner, cfg_file, tmp_path, monkeypatch):
    import sulfsim.pde as pde_mod

    monkeypatch.setattr(pde_mod, "initial_density", lambda spec, x: np.full_like(x, np.nan))
    res = runner.invoke(main, ["pde", "--config", str(cfg_file), "--out", str(tmp_path / "p")])
    assert res.exit_code == 3, res.output
    assert "non-finite PDE state" in res.output
    assert isinstance(res.exception, SystemExit)


def test_emit_plots_render_failure_exits_4(runner, cfg_file, tmp_path, monkeypatch):
    import sulfsim.cli as cli_mod

    out = tmp_path / "plotrun"
    out.mkdir()
    script = out / "plot_broken.py"
    script.write_text("import sys\nsys.exit('no plotting backend here')\n")
    monkeypatch.setattr(cli_mod, "emit_plot_scripts", lambda run_dir: [script])
    res = runner.invoke(main, ["emit-plots", "--run", str(out)])
    assert res.exit_code == 4, res.output
    assert "plot_broken.py" in res.output
    assert "no plotting backend here" in res.output


def test_emit_plots_empty_dir_exits_4(runner, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    res = runner.invoke(main, ["emit-plots", "--run", str(empty)])
    assert res.exit_code == 4


@pytest.mark.parametrize("command", ["fixedpoint", "compare"])
def test_emit_plots_on_a_directory_without_plottable_csvs_exits_4(runner, cfg_file, tmp_path,
                                                                  command):
    out = tmp_path / command
    if command == "fixedpoint":
        sim = tmp_path / "sim"
        res = runner.invoke(main, ["simulate", "--config", str(cfg_file), "--seed", "4",
                                   "--archive", "--out", str(sim)])
        assert res.exit_code == 0, res.output
        args = ["fixedpoint", "--archive", str(sim / "archive.bin")]
    else:
        args = ["compare", "--seed", "4"]
    res = runner.invoke(main, [*args, "--config", str(cfg_file), "--out", str(out)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["emit-plots", "--run", str(out), "--no-render"])
    assert res.exit_code == 4, res.output
    assert "simulate, pde and convergence directories" in res.output
    assert "missing: snapshots/*.csv, run.csv, convergence.csv" in res.output
    assert not list(out.glob("plot_*.py"))


@pytest.mark.parametrize("manifest", ["{not json", '{"config": {"physical": 3}}', "[1, 2]",
                                      '{"config": {"physical": {"lambda": "fast"}}}'],
                         ids=["not-json", "physical-not-a-mapping", "not-an-object",
                              "lambda-not-a-number"])
def test_emit_plots_malformed_manifest_exits_4(runner, cfg_file, tmp_path, manifest):
    out = tmp_path / "run"
    res = runner.invoke(main, ["simulate", "--config", str(cfg_file), "--seed", "4",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    (out / "manifest.json").write_text(manifest)
    res = runner.invoke(main, ["emit-plots", "--run", str(out), "--no-render"])
    assert res.exit_code == 4, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    assert f"data error: {out / 'manifest.json'}" in res.output


def test_emit_plots_convergence_script(runner, cfg_file, tmp_path):
    out = tmp_path / "convplot"
    runner.invoke(
        main,
        ["convergence", "--config", str(cfg_file), "--n", "50,100", "--seeds", "2",
         "--seed", "3", "--out", str(out)],
    )
    res = runner.invoke(main, ["emit-plots", "--run", str(out), "--no-render"])
    assert res.exit_code == 0, res.output
    script = (out / "plot_convergence.py").read_text()
    assert "N^(-1/2)" in script


def test_emitted_plot_scripts_compile(runner, cfg_file, tmp_path):
    # no render, so no matplotlib: each script must at least be valid Python
    out = tmp_path / "run"
    for cmd in (["simulate", "--seed", "4"], ["convergence", "--n", "50,100", "--seeds", "2",
                                               "--seed", "3"]):
        res = runner.invoke(main, [*cmd, "--config", str(cfg_file), "--out", str(out)])
        assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["emit-plots", "--run", str(out), "--no-render"])
    assert res.exit_code == 0, res.output
    scripts = sorted(out.glob("plot_*.py"))
    assert [s.name for s in scripts] == ["plot_convergence.py", "plot_density.py",
                                         "plot_mass.py"]
    for script in scripts:
        compile(script.read_text(), script.name, "exec")


@contextlib.contextmanager
def _wall_limit(seconds: float):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass, so
    that a hang fails the example instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"example ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


_NON_FINITE = ["nan", "inf", "-inf"]
# 0, negative, non-finite, non-integer, tiny and huge iteration counts
_MAX_ITERS = st.one_of(st.integers(-2**70, 0), st.integers(1, 3), st.integers(2**31, 2**70),
                    st.sampled_from(_NON_FINITE + ["1.5", "1e3", ""])).map(str)
# ensemble sizes and seeds are capped: a large valid size is more work, not bad input
_SIZES = st.one_of(st.integers(-2**70, 0), st.integers(1, 64),
                   st.sampled_from(_NON_FINITE + ["1.5", "1e3", ""])).map(str)
_SEEDS = st.one_of(st.integers(-2**70, 0), st.integers(1, 3),
                   st.sampled_from(_NON_FINITE + ["1.5", ""])).map(str)
_TOLERANCES = st.one_of(st.floats().map(repr), st.sampled_from(
    ["0", "-0.0", "5e-324", "1e-300", "1e300", "1e999", "-1e999", "tiny"]))


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return float("nan")


def _assert_clean_exit(res):
    event(f"exit {res.exit_code}")
    assert res.exit_code in (0, 2, 3, 4), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)
    assert "Traceback" not in res.output


@settings(max_examples=60, deadline=None)
@given(tol=_TOLERANCES, max_iters=_MAX_ITERS)
def test_fixedpoint_numeric_flags_exit_cleanly(tmp_path_factory, tol, max_iters):
    root = tmp_path_factory.mktemp("fp-flags")
    archive = root / "archive.bin"
    _small_archive_bytes(archive)  # the map reaches distance 0 within 3 iterations
    with _wall_limit(20.0):
        res = CliRunner().invoke(main, ["fixedpoint", "--archive", str(archive), "--tol", tol,
                                        "--max-iters", max_iters, "--out", str(root / "fp")])
    _assert_clean_exit(res)
    valid_tol = 0.0 <= _number(tol) < float("inf")
    valid_iters = max_iters.lstrip("-").isdigit() and int(max_iters) >= 2
    assert (res.exit_code == 0) == (valid_tol and valid_iters), res.output


@settings(max_examples=40, deadline=None)
@given(n=st.lists(_SIZES, min_size=1, max_size=3).map(",".join), seeds=_SEEDS)
def test_convergence_numeric_flags_exit_cleanly(tmp_path_factory, n, seeds):
    root = tmp_path_factory.mktemp("conv-flags")
    with _wall_limit(30.0):
        res = CliRunner().invoke(main, ["convergence", "--horizon", "0.003", "--n", n,
                                        "--seeds", seeds, "--seed", "1",
                                        "--out", str(root / "conv")])
    _assert_clean_exit(res)
    sizes = [v for v in n.split(",") if v]  # --n skips empty entries
    valid = (bool(sizes) and all(v.isdigit() and int(v) >= 1 for v in sizes)
             and len({int(v) for v in sizes}) == len(sizes)  # no size twice
             and seeds.isdigit() and int(seeds) >= 1)
    assert (res.exit_code == 0) == valid, res.output


# 10^12 particles: the ensemble's first array alone would take 7.3 TiB, so the
# allocation fails at once and nothing is committed
_UNALLOCATABLE = "1000000000000"


@pytest.mark.parametrize("args", [
    ["simulate", "--particles", _UNALLOCATABLE, "--seed", "1"],
    ["compare", "--particles", _UNALLOCATABLE, "--seed", "1"],
    ["convergence", "--n", _UNALLOCATABLE, "--seeds", "1", "--seed", "1"],
], ids=["simulate", "compare", "convergence"])
def test_unallocatable_ensemble_exits_2(runner, cfg_file, tmp_path, args):
    res = runner.invoke(main, [*args, "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    assert f"out of memory: an ensemble of {_UNALLOCATABLE} particles" in res.output


# every combination of the valid values is a valid run of _FUZZ_CONFIG that
# takes at most 8 steps of at most 64 particles; the other values are 0,
# negative, non-finite, non-numeric, tiny, huge and non-dividing, none of them
# a valid run of many steps or nodes (a horizon or step that asks for more than
# MAX_STEPS steps is refused, as a grid of too many nodes is)
_FUZZ_CONFIG = {"grid": {"lower": -6.0, "upper": 6.0, "spacing": 0.05}, "horizon": 0.002,
                "step": 1e-3, "particles": 16}
_BAD_FLOATS = ["0", "-0.0", "-1", "nan", "inf", "-inf", "1e999", "-1e999", "tiny", ""]
_BAD_COUNTS = st.one_of(st.integers(-2**70, 0).map(str),
                        st.sampled_from(["nan", "inf", "1.5", "1e3", ""]))
_NUMERIC_FLAGS = {  # flag: (valid values, other values)
    "--particles": (["1", "7", "64"], st.one_of(_BAD_COUNTS, st.just(_UNALLOCATABLE))),
    "--horizon": (["0.002", "0.004"], st.sampled_from(_BAD_FLOATS + ["5e-324", "1e300"])),
    "--step": (["0.001", "0.0005"],
               st.sampled_from(_BAD_FLOATS + ["5e-324", "1e-300", "1e300", "0.0007", "0.002"])),
    "--bandwidth": (["0.3", "0.5", "2"],
                    st.sampled_from(_BAD_FLOATS + ["5e-324", "1e-6", "1e6", "1e300"])),
    "--spacing": (["0.05", "0.1"],
                  st.sampled_from(_BAD_FLOATS + ["5e-324", "1e-300", "0.07", "1e300"])),
    "--snapshot-stride": (["1", "3", str(2**70)], _BAD_COUNTS),
    "--fields-stride": (["0", "2", str(2**70)],
                        st.one_of(st.integers(-2**70, -1).map(str),
                                  st.sampled_from(["nan", "1.5", ""]))),
}
_COMMAND_FLAGS = {
    "simulate": list(_NUMERIC_FLAGS),
    "pde": [f for f in _NUMERIC_FLAGS if f != "--fields-stride"],
    "compare": [f for f in _NUMERIC_FLAGS if f != "--fields-stride"],
}


@st.composite
def _numeric_flags(draw):
    """A command, its flags, and whether every value is valid: at most two
    flags take other values, the rest a valid one or none."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    flags = _COMMAND_FLAGS[command]
    others = draw(st.sets(st.sampled_from(flags), max_size=2))
    given, valid = [], True
    for flag in flags:
        good, bad = _NUMERIC_FLAGS[flag]
        value = draw(bad if flag in others else st.one_of(st.none(), st.sampled_from(good)))
        if value is not None:
            given += [flag, value]
            valid &= value in good
    return command, given, valid


@settings(max_examples=60, deadline=None)
@given(case=_numeric_flags())
def test_simulate_pde_compare_numeric_flags_exit_cleanly(tmp_path_factory, case):
    command, flags, valid = case
    root = tmp_path_factory.mktemp("numeric-flags")
    cfg = root / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(_FUZZ_CONFIG))
    seed = [] if command == "pde" else ["--seed", "1"]
    with _wall_limit(30.0):
        res = CliRunner().invoke(main, [command, "--config", str(cfg), *seed, *flags,
                                        "--out", str(root / "out")])
    _assert_clean_exit(res)
    if valid:
        assert res.exit_code == 0, res.output
