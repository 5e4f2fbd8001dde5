"""Output checks that hold for any correct sulfsim, whatever its random bits.

No check compares digests against stored values: later changes to the
deposit or the streams alter output bits on purpose.  Each function
returns a list of (check name, passed, detail) tuples.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Rounding slack on "mass <= 1": a sum of N weights <= 1 divided by N can
# land a few ulps above one in any summation order.
MASS_ROUNDING = 1e-12
# The explicit FD ledger telescopes exactly; only rounding remains.
LEDGER_TOL = 1e-12
# The feynman-kac final-time L1 error against K*v is a Monte Carlo error
# of mean about 1.0 to 1.3 / sqrt(N) at the default config (N = 250, 1000
# and 10^4; at 10^4, 16 seeds gave 0.008 to 0.018).  4 / sqrt(N) is three
# times that mean, about ten seed-to-seed standard deviations above it, and
# well below the error of a wrong discount, drift or deposit (0.1 or more).
L1_CONSTANT = 4.0


def l1_bound(n: int) -> float:
    return L1_CONSTANT / math.sqrt(n)


def read_columns(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) for r in body]) for i, name in enumerate(header)}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def manifest_checks(out: Path) -> list[tuple[str, bool, str]]:
    """Every file the manifest lists exists and has the recorded sha256."""
    path = out / "manifest.json"
    if not path.is_file():
        return [("manifest present", False, str(path))]
    with open(path) as fh:
        outputs = json.load(fh)["outputs"]
    bad = [o["path"] for o in outputs
           if not (out / o["path"]).is_file() or _sha256(out / o["path"]) != o["sha256"]]
    return [("manifest sha256", not bad and bool(outputs), f"{len(outputs)} files, bad: {bad}")]


def _trapezoid(u: np.ndarray, h: float) -> float:
    return float(h * (u.sum() - 0.5 * (u[0] + u[-1])))


def density_checks(out: Path) -> list[tuple[str, bool, str]]:
    """Every snapshot density is finite and every mass lies in [0, 1]."""
    results = []
    files = sorted((out / "snapshots").glob("u_*.csv"))
    if (out / "fixedpoint_final.csv").is_file():
        files.append(out / "fixedpoint_final.csv")
    masses = []
    finite = bool(files)
    for f in files:
        cols = read_columns(f)
        finite &= bool(np.all(np.isfinite(cols["u"])))
        masses.append(_trapezoid(cols["u"], float(cols["x"][1] - cols["x"][0])))
    if (out / "run.csv").is_file():
        masses.extend(read_columns(out / "run.csv")["mass"].tolist())
    results.append(("densities finite", finite, f"{len(files)} files"))
    ok = bool(masses) and all(0.0 <= m <= 1.0 + MASS_ROUNDING for m in masses)
    lo, hi = (min(masses), max(masses)) if masses else (math.nan, math.nan)
    results.append(("mass in [0, 1]", ok, f"{len(masses)} values in [{lo!r}, {hi!r}]"))
    return results


def ledger_checks(out: Path) -> list[tuple[str, bool, str]]:
    resid = np.abs(read_columns(out / "ledger.csv")["residual"])
    worst = float(resid.max()) if resid.size else math.nan
    return [("pde ledger |residual| <= 1e-12", bool(resid.size) and worst <= LEDGER_TOL,
             f"max {worst!r} over {resid.size} steps")]


def picard_checks(out: Path, tol: float) -> list[tuple[str, bool, str]]:
    with open(out / "manifest.json") as fh:
        converged = json.load(fh)["diagnostics"]["converged"]
    last = float(read_columns(out / "trace.csv")["sup_distance"][-1])
    return [("picard converged", converged is True and last <= tol,
             f"converged={converged}, last distance {last!r}, tol {tol!r}")]


def mollified_reference(v: np.ndarray, h: float, delta: float) -> np.ndarray:
    """K*v on the grid by the trapezoid rule, cut at 8 bandwidths."""
    half = int(math.ceil(8.0 * delta / h))
    offs = np.arange(-half, half + 1) * h
    taps = np.exp(-0.5 * (offs / delta) ** 2) / (delta * math.sqrt(2.0 * math.pi)) * h
    taps[[0, -1]] *= 0.5
    return np.convolve(v, taps)[half : half + v.size]


def fk_error_checks(fk_out: Path, pde_out: Path, n: int, delta: float):
    """Final-time L1 distance of the feynman-kac density from K*v."""
    u_file = sorted((fk_out / "snapshots").glob("u_*.csv"))[-1]
    v_file = sorted((pde_out / "snapshots").glob("u_*.csv"))[-1]
    u, v = read_columns(u_file), read_columns(v_file)
    if u_file.name != v_file.name or not np.array_equal(u["x"], v["x"]):
        return [("fk L1 vs K*v", False, f"{u_file.name} and {v_file.name} differ in time or grid")]
    h = float(u["x"][1] - u["x"][0])
    err = _trapezoid(np.abs(u["u"] - mollified_reference(v["u"], h, delta)), h)
    return [("fk L1 vs K*v", err < l1_bound(n),
             f"L1 {err:.5g} < bound {l1_bound(n):.5g} at N={n}")]


def convergence_checks(out: Path) -> list[tuple[str, bool, str]]:
    """The table's feynman-kac errors stay under the bound at every N."""
    cols = read_columns(out / "convergence.csv")
    rows = list(zip(cols["n"].astype(int), cols["fk_mean_l1"]))
    ok = bool(rows) and all(np.isfinite(e) and 0.0 < e < l1_bound(n) for n, e in rows)
    detail = ", ".join(f"N={n}: {e:.5g} < {l1_bound(n):.5g}" for n, e in rows)
    return [("fk mean L1 vs K*v", ok, detail)]
