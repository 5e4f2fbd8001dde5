"""CSV and binary interchange plus run manifests.

CSV is the single interchange format: one header row, comma separators,
full-precision (shortest round-trip) decimal floats.  Trajectory archives
use a small binary layout documented in the README: an ASCII magic, a
version word, ensemble size, snapshot count, dt and a mode word, then per
snapshot the positions and weights as little-endian 64-bit floats.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .fields import TrajectoryArchive

ARCHIVE_MAGIC = b"SSAR"
ARCHIVE_VERSION = 2  # version 1 had no mode word
ARCHIVE_HEADER = struct.Struct("<4sIQQdQ")  # magic, version, n, snapshots, dt, mode
ARCHIVE_HEADER_BYTES = ARCHIVE_HEADER.size
ARCHIVE_MODES = ("feynman-kac", "killed")  # the mode word indexes this


def column_text(column: np.ndarray | list[str]) -> list[str]:
    """The values of a column as CSV fields: ``repr`` (shortest round-trip)
    for a float column, ``str`` for any other; a list is already fields."""
    if isinstance(column, list):
        return column
    column = np.asarray(column)
    return list(map(repr if column.dtype.kind == "f" else str, column.tolist()))


def write_csv(path: str | Path, header: list[str], columns: list) -> Path:
    """Write columns (arrays, or the fields of :func:`column_text`) to a CSV
    file with full-precision floats."""
    path = Path(path)
    rows = zip(*map(column_text, columns))
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)
    return path


class DataError(RuntimeError):
    """An input file does not hold what its reader needs."""


def read_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Read a CSV written by :func:`write_csv` into named float columns;
    DataError, naming the file, for a ragged row or a non-numeric cell."""
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = [line.strip().split(",") for line in fh if line.strip()]
    for row in data:
        if len(row) != len(header):
            raise DataError(f"{path} has a row of {len(row)} fields under a header of "
                            f"{len(header)}: {','.join(row)[:80]}")
    try:
        return {name: np.array([float(row[i]) for row in data]) for i, name in enumerate(header)}
    except ValueError as err:
        raise DataError(f"{path}: {err}") from err


def snapshot_name(prefix: str, step: int) -> str:
    return f"{prefix}_{step:06d}.csv"


def write_archive(path: str | Path, archive: TrajectoryArchive) -> Path:
    """Dump an archive: header then the (snapshots, 2, n) float payload."""
    path = Path(path)
    snaps = len(archive)
    with open(path, "wb") as fh:
        fh.write(ARCHIVE_HEADER.pack(ARCHIVE_MAGIC, ARCHIVE_VERSION, archive.n_total, snaps,
                                     archive.dt, ARCHIVE_MODES.index(archive.mode)))
        archive.payload[:snaps].astype("<f8", copy=False).tofile(fh)
    return path


def read_archive(path: str | Path) -> TrajectoryArchive:
    """Load an archive; ValueError unless the file is exactly one archive of
    the current version, of a known mode, with finite positions and weights
    in [0, 1]."""
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(ARCHIVE_HEADER_BYTES)
        if header[:4] != ARCHIVE_MAGIC or len(header) < ARCHIVE_HEADER_BYTES:
            raise ValueError(f"{path} does not start with a trajectory archive header")
        _, version, n, snaps, dt, mode = ARCHIVE_HEADER.unpack(header)
        if version != ARCHIVE_VERSION:
            raise ValueError(f"{path} is a version {version} archive; only version "
                             f"{ARCHIVE_VERSION}, which records the run's mode, is read: "
                             "re-run `simulate --archive`")
        if mode >= len(ARCHIVE_MODES):
            raise ValueError(f"{path} has the unknown mode word {mode}")
        if n == 0 or snaps == 0:
            raise ValueError(f"{path} declares {n} particles and {snaps} snapshots; "
                             "both must be positive")
        if not 0.0 < dt < np.inf:
            raise ValueError(f"{path} declares the time step {dt}; it must be positive and finite")
        size = os.fstat(fh.fileno()).st_size
        expected = ARCHIVE_HEADER_BYTES + 16 * n * snaps
        if size != expected:
            raise ValueError(f"{path} has {size} bytes; its header needs exactly {expected}")
        payload = np.fromfile(fh, dtype="<f8", count=2 * n * snaps).reshape(snaps, 2, n)
    archive = TrajectoryArchive(dt=dt, n_total=int(n), mode=ARCHIVE_MODES[mode],
                                payload=payload, filled=int(snaps))
    if not np.isfinite(archive.positions).all():
        raise ValueError(f"{path} holds non-finite positions")
    weights = archive.weights
    if not (weights.min() >= 0.0 and weights.max() <= 1.0):  # false for a NaN weight
        raise ValueError(f"{path} holds weights outside [0, 1]")
    return archive


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    """Resolved config, output listing with checksums, and diagnostics."""

    command: str
    config: dict
    outputs: list[dict] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    artifact_version: str = "0.1.0"
    created: str = ""

    def add_output(self, root: Path, path: Path) -> None:
        self.outputs.append(
            {
                "path": str(path.relative_to(root)),
                "sha256": sha256_file(path),
                "bytes": path.stat().st_size,
            }
        )

    def write(self, root: Path) -> Path:
        self.created = datetime.now(timezone.utc).isoformat()
        out = Path(root) / "manifest.json"
        with open(out, "w") as fh:
            json.dump(
                {
                    "artifact_version": self.artifact_version,
                    "created": self.created,
                    "command": self.command,
                    "config": self.config,
                    "outputs": self.outputs,
                    "diagnostics": self.diagnostics,
                },
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
        return out


def load_manifest(path: str | Path) -> dict:
    with open(path) as fh:
        return json.load(fh)
