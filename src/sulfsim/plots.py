"""Plot-script emission and figure rendering.

Each emitted script is self-contained: it reads the run's CSVs by
relative path (never embedding data) and saves a PNG next to them.
Rendering simply executes the emitted scripts in the run directory, so
the scripts stay the single source of plotting truth.
"""

from __future__ import annotations

import sys
from pathlib import Path

# what every emitted script starts with: the headless backend and a CSV reader
_PREAMBLE = '''\
import csv
import glob
import math

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    return {name: [float(r[i]) for r in data] for i, name in enumerate(header)}


'''


def _script(doc: str, body: str) -> str:
    return f'"""{doc}"""\n' + _PREAMBLE + body


_DENSITY_SCRIPT = _script(
    "Density snapshots over time; reads snapshot CSVs by relative path.", '''\
files = sorted(glob.glob("snapshots/{prefix}_*.csv"))
if not files:
    raise SystemExit("no snapshot CSVs found")
fig, ax = plt.subplots(figsize=(8, 5))
cmap = plt.get_cmap("viridis")
for k, path in enumerate(files):
    cols = read_csv(path)
    color = cmap(k / max(len(files) - 1, 1))
    ax.plot(cols["x"], cols["u"], color=color, lw=1.2,
            label=path.split("/")[-1].rsplit(".", 1)[0])
ax.set_xlabel("x")
ax.set_ylabel("density")
ax.set_title("density snapshots ({n_frames} frames)")
if len(files) <= 12:
    ax.legend(fontsize=7)
fig.tight_layout()
fig.savefig("density_snapshots.png", dpi=150)
''')

_MASS_SCRIPT = _script(
    "Mass decay against the constant-rate envelope exp(-lambda c0 t).", '''\
cols = read_csv("run.csv")
rate = {rate}
fig, ax = plt.subplots(figsize=(8, 5))
ax.plot(cols["t"], cols["mass"], "o-", ms=3, label="estimated mass")
if "alive_fraction_or_mean_weight" in cols:
    ax.plot(cols["t"], cols["alive_fraction_or_mean_weight"], "s--", ms=3,
            label="mean weight / alive fraction")
envelope = [math.exp(-rate * t) for t in cols["t"]]
ax.plot(cols["t"], envelope, "k:", label="exp(-lambda c0 t) envelope")
ax.set_xlabel("t")
ax.set_ylabel("mass")
ax.set_ylim(bottom=0)
ax.legend()
fig.tight_layout()
fig.savefig("mass_decay.png", dpi=150)
''')

_CONVERGENCE_SCRIPT = _script(
    "Log-log convergence of both estimators with an N^(-1/2) guide line.", '''\
cols = read_csv("convergence.csv")
n = cols["n"]
fig, ax = plt.subplots(figsize=(7, 5))
ax.errorbar(n, cols["fk_mean_l1"], yerr=cols["fk_stderr"], fmt="o-",
            label="weighted estimator")
ax.errorbar(n, cols["kill_mean_l1"], yerr=cols["kill_stderr"], fmt="s-",
            label="killed estimator")
anchor = cols["fk_mean_l1"][0]
guide = [anchor * (n[0] / v) ** 0.5 for v in n]
ax.plot(n, guide, "k:", label="N^(-1/2) guide")
ax.set_xscale("log")
ax.set_yscale("log")
ax.set_xlabel("N")
ax.set_ylabel("final-time L1 error")
ax.legend()
fig.tight_layout()
fig.savefig("convergence.png", dpi=150)
''')


def emit_plot_scripts(run_dir: str | Path) -> list[Path]:
    """Write the plot scripts matching the CSVs present in ``run_dir``.

    Returns the script paths.  Raises FileNotFoundError when the
    directory holds none of the expected CSV inputs.
    """
    run_dir = Path(run_dir)
    written: list[Path] = []
    missing: list[str] = []

    snap_dir = run_dir / "snapshots"
    prefixes = sorted({p.name.rsplit("_", 1)[0] for p in snap_dir.glob("*_*.csv")})
    if prefixes:
        frames = len(list(snap_dir.glob(f"{prefixes[0]}_*.csv")))
        script = _DENSITY_SCRIPT.replace("{prefix}", prefixes[0]).replace(
            "{n_frames}", str(frames)
        )
        path = run_dir / "plot_density.py"
        path.write_text(script)
        written.append(path)
    else:
        missing.append("snapshots/*.csv")

    run_csv = run_dir / "run.csv"
    if run_csv.is_file():
        rate = _envelope_rate(run_dir)
        path = run_dir / "plot_mass.py"
        path.write_text(_MASS_SCRIPT.replace("{rate}", repr(rate)))
        written.append(path)
    else:
        missing.append("run.csv")

    conv_csv = run_dir / "convergence.csv"
    if conv_csv.is_file():
        path = run_dir / "plot_convergence.py"
        path.write_text(_CONVERGENCE_SCRIPT)
        written.append(path)

    if not written:
        raise FileNotFoundError(
            "no plottable CSVs found; missing: " + ", ".join(missing)
        )
    return written


def _envelope_rate(run_dir: Path) -> float:
    """lambda * c0 from the run manifest, each falling back to 1.0; DataError,
    naming the manifest, when it is not JSON or its ``config.physical`` is
    not a mapping of numbers."""
    from .io import DataError, load_manifest

    manifest = run_dir / "manifest.json"
    if not manifest.is_file():
        return 1.0
    try:
        phys = load_manifest(manifest).get("config", {}).get("physical", {})
        return float(phys.get("lambda", 1.0)) * float(phys.get("c0", 1.0))
    except (ValueError, TypeError, AttributeError) as err:  # JSONDecodeError is a ValueError
        raise DataError(f"{manifest} holds no readable config.physical: {err}") from err


def render_scripts(scripts: list[Path]) -> list[Path]:
    """Execute emitted plot scripts in place; returns the PNGs produced."""
    import subprocess  # kept out of every other command's imports

    pngs: list[Path] = []
    for script in scripts:
        before = set(script.parent.glob("*.png"))
        subprocess.run(
            [sys.executable, script.name],
            cwd=script.parent,
            check=True,
            capture_output=True,
        )
        pngs.extend(sorted(set(script.parent.glob("*.png")) - before))
    return pngs
