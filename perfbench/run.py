"""Benchmark for sulfsim: four CLI workloads, timed end to end, plus a traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fk-default --seed 1 --seconds 30 --trace 0

Each repetition of a workload runs its ``sulfsim`` commands one at a time,
each in a fresh child process (``perfbench/child.py``) with ``--workers 1``
and BLAS/OpenMP threads pinned to the cores this process may use.  The
seed goes to ``sulfsim --seed``; every workload does the same work for any
seed.  With ``--trace 0`` the run reports end-to-end metrics (medians over
repetitions); with ``--trace 1`` it runs the workload once untraced and
then traced, and reports per-layer metrics plus the tracing overhead.
Every child's outputs are checked (``checks.py``); failures count against
the attempts.  The last line of standard output is one JSON object; a
fuller record, with the machine, goes under ``.perfbench_work/results``.
See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

ROOT = Path.cwd()
CONFIG = "configs/default.yaml"
WORK = ROOT / ".perfbench_work"
HARD_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = (3, 7)  # set-up samples per untraced run: at least, at most
ODD_GRACE = 0.2  # share of --seconds an even repetition count may overrun
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Command:
    """One sulfsim invocation of a workload; ``out`` names its output dir."""

    out: str
    args: list[str]
    checks: list = field(default_factory=list)  # callables (rep_dir, ref_dir) -> results


def _simulate(mode, out, seed, *extra):
    return ["simulate", "--mode", mode, "--config", CONFIG, "--seed", str(seed),
            "--workers", "1", "--out", out, *extra]


def _outputs(name):
    return [lambda d, ref: checks.manifest_checks(d / name),
            lambda d, ref: checks.density_checks(d / name)]


@dataclass
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    commands: object  # (seed, rep_dir) -> list[Command]
    particle_steps: int  # sum of N * n_steps over the particle runs
    reference: bool = False  # needs the PDE reference at the default config


WORKLOADS = {
    "fk-default": Workload(
        commands=lambda seed, d: [Command(
            "fk", _simulate("fk", str(d / "fk"), seed),
            _outputs("fk") + [lambda d, ref: checks.fk_error_checks(
                d / "fk", ref / "pde", 10_000, 0.3)])],
        particle_steps=10_000 * 500,
        reference=True,
    ),
    "kill-wide": Workload(
        commands=lambda seed, d: [Command(
            "kill", _simulate("kill", str(d / "kill"), seed, "--particles", "100000",
                              "--horizon", "0.01"),
            _outputs("kill"))],
        particle_steps=100_000 * 10,
    ),
    "picard": Workload(
        commands=lambda seed, d: [
            Command("sim", _simulate("fk", str(d / "sim"), seed, "--archive",
                                     "--particles", "1000", "--horizon", "0.1"),
                    _outputs("sim")),
            Command("fp", ["fixedpoint", "--archive", str(d / "sim" / "archive.bin"),
                           "--config", CONFIG, "--tol", "1e-10", "--out", str(d / "fp")],
                    _outputs("fp") + [lambda d, ref: checks.picard_checks(d / "fp", 1e-10)]),
        ],
        particle_steps=1_000 * 100,
    ),
    "convergence-small": Workload(
        commands=lambda seed, d: [Command(
            "conv", ["convergence", "--config", CONFIG, "--n", "250,1000", "--seeds", "2",
                     "--seed", str(seed), "--workers", "1", "--out", str(d / "conv")],
            [lambda d, ref: checks.manifest_checks(d / "conv"),
             lambda d, ref: checks.convergence_checks(d / "conv")])],
        particle_steps=2 * 2 * (250 + 1000) * 500,
        reference=True,
    ),
}


class Runner:
    """Spawns children one at a time and tallies attempts and failures."""

    def __init__(self, work: Path, hard_end: float):
        self.work = work
        self.hard_end = hard_end
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.check_log: list[tuple[str, bool, str]] = []
        ncpu = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.env.update({v: str(ncpu) for v in THREAD_VARS})

    def child(self, mode: str, args: list[str]) -> dict | None:
        """Run one child; its stamp plus parent-side wall and set-up times."""
        stamp_path = self.work / "stamp.json"
        stamp_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(stamp_path), "--", *args]
        self.attempted += 1
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.hard_end - t0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return self._fail(f"timeout: {' '.join(args)}")
        wall = time.monotonic() - t0
        if proc.returncode != 0 or not stamp_path.is_file():
            return self._fail(f"exit {proc.returncode}: {' '.join(args)}: {err.strip()[-500:]}")
        with open(stamp_path) as fh:
            stamp = json.load(fh)
        if "first_step" not in stamp:
            return self._fail(f"no time step or Picard map seen: {' '.join(args)}")
        stamp["wall_s"] = wall
        stamp["setup_s"] = stamp["first_step"] - t0
        return stamp

    def _fail(self, why: str) -> None:
        self.failed += 1
        self.failures.append(why)
        return None

    def check(self, results) -> None:
        for name, passed, detail in results:
            self.attempted += 1
            self.check_log.append((name, passed, detail))
            if not passed:
                self.failed += 1
                self.failures.append(f"check failed: {name}: {detail}")

    def run_checks(self, cmd: Command, rep_dir: Path, ref: Path) -> None:
        for fn in cmd.checks:
            try:
                results = fn(rep_dir, ref)
            except (OSError, ValueError, KeyError, IndexError) as err:
                results = [(f"{cmd.out} outputs readable", False, repr(err))]
            self.check(results)


def run_rep(runner: Runner, wl: Workload, seed: int, rep_dir: Path, ref: Path,
            mode: str, keep: Path | None = None) -> list[dict] | None:
    """One repetition: every command of the workload in order.

    ``mode`` is plain, trace or setup.  Set-up-only repetitions reuse the
    outputs in ``keep`` (a finished repetition) where a later command
    reads an earlier one's files.
    """
    rep_dir.mkdir(parents=True)
    stamps = []
    for i, cmd in enumerate(wl.commands(seed, rep_dir)):
        if mode == "setup" and i > 0:
            args = [a.replace(str(rep_dir), str(keep)) for a in cmd.args]
            args[args.index("--out") + 1] = str(rep_dir / cmd.out)
        else:
            args = cmd.args
        stamp = runner.child(mode, args)
        if stamp is None:
            return None
        stamps.append(stamp)
        if mode != "setup":
            runner.run_checks(cmd, rep_dir, ref)
    return stamps


def make_reference(runner: Runner, ref: Path) -> None:
    """The PDE at the default config: K*v for the L1 check, and its ledger."""
    if runner.child("plain", ["pde", "--config", CONFIG, "--workers", "1",
                              "--out", str(ref / "pde")]) is not None:
        runner.check(checks.manifest_checks(ref / "pde") + checks.density_checks(ref / "pde")
                     + checks.ledger_checks(ref / "pde"))


def median(xs):
    return statistics.median(xs) if xs else 0.0


def end_to_end(wl: Workload, reps: list[list[dict]], setups: list[list[dict]]) -> dict:
    walls = [sum(s["wall_s"] for s in r) for r in reps]
    setup = [sum(s["setup_s"] for s in r) for r in reps + setups]
    rates = [wl.particle_steps / (w - sum(s["setup_s"] for s in r)) for w, r in zip(walls, reps)]
    rss = [max(s["peak_rss_mb"] for s in r) for r in reps]
    return {"wall_s": (walls, "s"), "setup_s": (setup, "s"),
            "particle_steps_per_s": (rates, "1/s"), "peak_rss_mb": (rss, "MiB")}


# per-layer metric -> (span name, field); "_self_s" metrics are self time,
# other "_s" metrics include the span's children.
SPAN_METRICS = {
    "kernel.deposit_step_s": ("kernel.deposit_step", "total_s"),
    "kernel.deposit_record_s": ("kernel.deposit_record", "total_s"),
    "kernel.mollify_s": ("kernel.mollify", "total_s"),
    "kernel.mollify_calls": ("kernel.mollify", "calls"),
    "streams.construct_s": ("streams.construct", "total_s"),
    "streams.thresholds_s": ("streams.thresholds", "total_s"),
    "streams.normals_s": ("streams.normals", "total_s"),
    "streams.normals_calls": ("streams.normals", "calls"),
    "initial.transform_s": ("initial.transform", "total_s"),
    "fields.interpolate_s": ("fields.interpolate", "total_s"),
    "fields.interpolate_calls": ("fields.interpolate", "calls"),
    "fields.accumulate_self_s": ("fields.accumulate", "self_s"),
    "fields.archive_append_s": ("fields.archive_append", "total_s"),
    "dynamics.drift_s": ("dynamics.drift", "total_s"),
    "dynamics.rate_s": ("dynamics.rate", "total_s"),
    "particles.em_step_self_s": ("particles.em_step", "self_s"),
    "particles.update_hazards_self_s": ("particles.update_hazards", "self_s"),
    "particles.steps": ("particles.em_step", "calls"),
    "fixedpoint.map_s": ("fixedpoint.map", "total_s"),
    "fixedpoint.map_calls": ("fixedpoint.map", "calls"),
    "fixedpoint.interp_lattice_s": ("fixedpoint.interp_lattice", "total_s"),
    "pde.solve_s": ("pde.solve", "total_s"),
    "pde.steps": ("pde.step", "calls"),
    "metrics.convergence_study_self_s": ("metrics.convergence_study", "self_s"),
    "metrics.runs": ("metrics.run_simulation", "calls"),
    "io.write_csv_s": ("io.write_csv", "total_s"),
    "io.write_archive_s": ("io.write_archive", "total_s"),
    "io.read_archive_s": ("io.read_archive", "total_s"),
    "io.sha256_s": ("io.sha256", "total_s"),
    "config.build_s": ("config.build", "total_s"),
}
# Counts computed from call arguments and file sizes: they repeat exactly
# for a given seed and say how much work was asked for, not how long it took.
COMPUTED = ("kernel.offset_passes", "kernel.deposit_particles", "kernel.mollify_pairs",
            "io.archive_bytes", "io.csv_bytes", "streams.generators", "fixedpoint.iterations")


def unit_of(name: str) -> str:
    if name.endswith("_bytes"):
        return "bytes"
    return "s" if name.endswith("_s") else "count"


def per_layer(stamps: list[dict]) -> dict:
    """Per-layer metrics of one traced repetition (summed over its children)."""
    def span(name, key):
        return sum(s["spans"].get(name, {}).get(key, 0) for s in stamps)

    out = {m: (span(n, k), unit_of(m)) for m, (n, k) in SPAN_METRICS.items()}
    calls = span("kernel.deposit_step", "calls") + span("kernel.deposit_record", "calls")
    dep_s = out["kernel.deposit_step_s"][0] + out["kernel.deposit_record_s"][0]
    out["kernel.deposit_calls"] = (calls, "count")
    out["kernel.deposit_us_per_call"] = (1e6 * dep_s / calls if calls else 0.0, "us")
    out["pde.max_residual"] = (max(s["maxima"].get("pde.max_residual", 0.0) for s in stamps),
                               "mass")
    out["cli.import_s"] = (sum(s["import_s"] for s in stamps), "s")
    picard = [s["spans"]["fixedpoint.solve"]["last_end"]
              - s["spans"]["io.read_archive"]["first_start"]
              for s in stamps
              if "fixedpoint.solve" in s["spans"] and "io.read_archive" in s["spans"]]
    out["fixedpoint.picard_s"] = (sum(picard), "s")
    for c in COMPUTED:
        out[c] = (sum(s["counts"].get(c, 0) for s in stamps), unit_of(c))
    return out


def machine(seed: int) -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "seed": seed,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "threads_in_children": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                      if ln.startswith("model name")), "unknown")
    except OSError:
        info["cpu_model"] = "unknown"
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            if level in ("2", "3"):
                info[f"l{level}_cache"] = (idx / "size").read_text().strip()
        except OSError:
            pass
    for mod in ("numpy", "scipy"):
        try:
            info[mod] = __import__(mod).__version__
        except ImportError:
            info[mod] = None
    try:
        info["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        info["git_commit"] = "unknown"
    return info


def measure(runner: Runner, wl: Workload, seed: int, seconds: float, trace: bool):
    """Repetitions of the workload within the time budget."""
    work = runner.work
    ref = work / "ref"
    if wl.reference:
        make_reference(runner, ref)
    counter = iter(range(10**6))

    def rep(mode, keep=None):
        d = work / f"rep{next(counter)}"
        return d, run_rep(runner, wl, seed, d, ref, mode, keep)

    deadline = time.monotonic() + seconds
    if trace:
        _, plain = rep("plain")
        traced = []
        while plain is not None:
            _, t = rep("trace")
            if t is None:
                break
            traced.append(t)
            if time.monotonic() + sum(s["wall_s"] for s in t) > deadline:
                break
        return {"plain": [plain] if plain else [], "traced": traced}

    def rep_median(key, rs):
        return median([sum(s[key] for s in r) for r in rs])

    reps, setups, keep = [], [], None
    while True:
        d, r = rep("plain")
        if r is None:
            break
        if keep is not None:
            shutil.rmtree(d)
        else:
            keep = d
        reps.append(r)
        # project with the fastest repetition; an even count may overrun the
        # budget a little for one more, so a single slow repetition cannot
        # set the median
        end = time.monotonic() + min(sum(s["wall_s"] for s in x) for x in reps)
        if end > deadline + (ODD_GRACE * seconds if len(reps) % 2 == 0 else 0.0):
            break
    # set-up-only repetitions: up to the minimum always, then while time is left
    while reps and len(reps) + len(setups) < SETUP_SAMPLES[1]:
        if (len(reps) + len(setups) >= SETUP_SAMPLES[0]
                and time.monotonic() + rep_median("setup_s", reps + setups) > deadline):
            break
        d, s = rep("setup", keep)
        shutil.rmtree(d)
        if s is None:
            break
        setups.append(s)
    return {"plain": reps, "setup": setups}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()

    if not (ROOT / "src" / "sulfsim" / "cli.py").is_file() or not (ROOT / CONFIG).is_file():
        print(f"no sulfsim sources under {ROOT}: run from the repository root",
              file=sys.stderr)
        return 2
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, start + HARD_LIMIT_S)
    try:
        # warm-up: compiles bytecode and fills the page cache, as on any later run
        warm = subprocess.run([sys.executable, "-c", "import sulfsim.cli"], cwd=ROOT,
                              env=runner.env, capture_output=True, text=True, timeout=120)
        if warm.returncode != 0:
            print(f"cannot import sulfsim: {warm.stderr.strip()[-500:]}", file=sys.stderr)
            return 3
        wl = WORKLOADS[args.workload]
        runs = measure(runner, wl, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        if not runs["traced"] or not runs["plain"]:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
        layers = [per_layer(t) for t in runs["traced"]]
        samples = {k: ([lay[k][0] for lay in layers], layers[0][k][1]) for k in layers[0]}
        untraced = sum(s["wall_s"] for s in runs["plain"][0])
        samples["trace.overhead_s"] = (
            [sum(s["wall_s"] for s in t) - untraced for t in runs["traced"]], "s")
    else:
        if not runs["plain"]:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
        samples = end_to_end(wl, runs["plain"], runs["setup"])
    metrics = {k: (median(xs), u, len(xs)) for k, (xs, u) in samples.items()}

    correct = runner.failed == 0
    for name, (value, unit, n) in sorted(metrics.items()):
        label = " (computed)" if name in COMPUTED else ""
        print(f"{args.workload} {name} = {value:.6g} {unit}  [median of {n}]{label}")
    print(f"{args.workload} failed_ratio = {runner.failed / max(1, runner.attempted):.6g}  "
          f"[{runner.failed} of {runner.attempted} runs and checks]")
    for why in runner.failures:
        print(f"FAILED: {why}")
    info = machine(args.seed)
    print("machine: " + json.dumps(info, sort_keys=True))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": info,
        "metrics": {k: {"value": v, "unit": u, "samples": samples[k][0]}
                    for k, (v, u, _) in metrics.items()},
        "attempted": runner.attempted, "failed": runner.failed,
        "checks": runner.check_log, "failures": runner.failures,
        "elapsed_s": time.monotonic() - start,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
