"""CSV and binary interchange plus run manifests.

CSV is the single interchange format: one header row, comma separators,
full-precision (shortest round-trip) decimal floats.  Trajectory archives
use a small binary layout documented in the README: an ASCII magic, a
version word, ensemble size, snapshot count, dt, then per snapshot the
positions and weights as little-endian 64-bit floats.
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
ARCHIVE_VERSION = 1
ARCHIVE_HEADER_BYTES = 32  # magic, version, n, snapshots, dt


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


def read_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Read a CSV written by :func:`write_csv` into named float columns."""
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = [line.strip().split(",") for line in fh if line.strip()]
    cols = {name: np.array([float(row[i]) for row in data]) for i, name in enumerate(header)}
    return cols


def snapshot_name(prefix: str, step: int) -> str:
    return f"{prefix}_{step:06d}.csv"


def write_archive(path: str | Path, archive: TrajectoryArchive) -> Path:
    """Dump an archive: header then the (snapshots, 2, n) float payload."""
    path = Path(path)
    n = archive.n_total
    snaps = len(archive)
    payload = np.stack([archive.positions, archive.weights], axis=1) if snaps else np.empty(0)
    with open(path, "wb") as fh:
        fh.write(ARCHIVE_MAGIC)
        fh.write(struct.pack("<IQQd", ARCHIVE_VERSION, n, snaps, archive.dt))
        payload.astype("<f8", copy=False).tofile(fh)
    return path


def read_archive(path: str | Path) -> TrajectoryArchive:
    """Load an archive; ValueError unless the file is exactly one archive of
    finite positions and weights in [0, 1]."""
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(ARCHIVE_HEADER_BYTES)
        if header[:4] != ARCHIVE_MAGIC or len(header) < ARCHIVE_HEADER_BYTES:
            raise ValueError(f"{path} does not start with a trajectory archive header")
        version, n, snaps, dt = struct.unpack("<IQQd", header[4:])
        if version != ARCHIVE_VERSION:
            raise ValueError(f"unsupported archive version {version}")
        if n == 0 or snaps == 0:
            raise ValueError(f"{path} declares {n} particles and {snaps} snapshots; "
                             "both must be positive")
        size = os.fstat(fh.fileno()).st_size
        expected = ARCHIVE_HEADER_BYTES + 16 * n * snaps
        if size != expected:
            raise ValueError(f"{path} has {size} bytes; its header needs exactly {expected}")
        payload = np.fromfile(fh, dtype="<f8", count=2 * n * snaps).reshape(snaps, 2, n)
    positions, weights = payload[:, 0], payload[:, 1]
    if not np.isfinite(positions).all():
        raise ValueError(f"{path} holds non-finite positions")
    if not (weights.min() >= 0.0 and weights.max() <= 1.0):  # false for a NaN weight
        raise ValueError(f"{path} holds weights outside [0, 1]")
    return TrajectoryArchive(dt=dt, n_total=int(n), positions=list(positions),
                             weights=list(weights))


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
