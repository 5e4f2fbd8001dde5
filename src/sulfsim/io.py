"""CSV and binary interchange plus run manifests.

CSV is the single interchange format: one header row, comma separators,
full-precision (shortest round-trip) decimal floats.  Trajectory archives
use a small binary layout documented in the README: an ASCII magic, a
version word, ensemble size, snapshot count and dt, then per snapshot the
positions as little-endian 64-bit floats.  An archive is written one
snapshot at a time and read in stacks of snapshots; its file is the only
copy.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from collections.abc import Callable, Iterator
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

ARCHIVE_MAGIC = b"SSAR"
ARCHIVE_VERSION = 4  # version 3 held each row's weights after its positions
ARCHIVE_HEADER = struct.Struct("<4sIQQd")  # magic, version, n, snapshots, dt
ARCHIVE_HEADER_BYTES = ARCHIVE_HEADER.size

# positions per stack of an archive read: as many snapshots as fit, at least one
STACK_POSITIONS = 1 << 13


def column_text(column: np.ndarray | list[str]) -> list[str]:
    """The values of a column as CSV fields: ``repr`` (shortest round-trip)
    for a float column, ``str`` for any other; a list is already fields."""
    if isinstance(column, list):
        return column
    column = np.asarray(column)
    return list(map(repr if column.dtype.kind == "f" else str, column.tolist()))


def write_csv(path: str | Path, header: list[str], columns: list) -> Path:
    """Write columns (arrays, or the fields of :func:`column_text`) to a CSV
    file with full-precision floats, creating its directory if need be."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
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


@dataclass(frozen=True)
class TrajectoryArchive:
    """The per-step snapshots of a feynman-kac run, held in its archive file.

    Snapshot k is the ensemble's positions at time k*dt: row k of the
    file's payload, N floats.  The file is the only copy of the snapshots:
    :attr:`stacks` reads them in order in stacks of up to 2^13 positions
    (max(1, STACK_POSITIONS // N) snapshots) into one buffer, which each
    stack overwrites, so a reader holds O(N) memory whatever the snapshot
    count.
    :func:`read_archive` checks a file and returns its archive;
    :func:`archive_writer` writes one.
    """

    path: Path
    dt: float
    n_total: int
    snapshots: int

    def __len__(self) -> int:
        return self.snapshots

    @property
    def stacks(self) -> Iterator[np.ndarray]:
        """The snapshots in order as (rows, N) views of one reused buffer,
        rows = max(1, STACK_POSITIONS // N); the last stack holds the rest."""
        rows = max(1, STACK_POSITIONS // self.n_total)
        buf = np.empty((min(rows, self.snapshots), self.n_total), dtype="<f8")
        with open(self.path, "rb") as fh:
            fh.seek(ARCHIVE_HEADER_BYTES)
            for k in range(0, self.snapshots, rows):
                stack = buf[: self.snapshots - k]
                if fh.readinto(stack) != stack.nbytes:
                    raise DataError(f"{self.path} ends inside snapshots {k} to "
                                    f"{k + len(stack) - 1}: it was cut after it was checked")
                yield stack


@contextmanager
def archive_writer(path: str | Path, n_total: int, snapshots: int,
                   dt: float) -> Iterator[Callable[[np.ndarray], None]]:
    """Write an archive one snapshot at a time: yields ``append(positions)``.

    The header and rows go to ``path`` + ".partial", whose directory is
    created if need be, and which is renamed to ``path`` once the block ends
    with all ``snapshots`` rows written; when the block raises, the partial
    file and the directories created for it are removed, so an aborted run
    leaves no archive and no empty directory.  ValueError for a row that is
    not N positions, or for more or fewer rows than ``snapshots``.
    """
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    created = [d for d in (path.parent, *path.parent.parents) if not d.exists()]  # deepest first
    written = 0

    def append(positions: np.ndarray) -> None:
        nonlocal written
        if written == snapshots:
            raise ValueError(f"{path} declares {snapshots} snapshots; no more fit")
        row = np.ascontiguousarray(positions, dtype="<f8")  # no copy for a float64 row
        if row.size != n_total:
            raise ValueError(f"a snapshot of {row.size} positions for an archive of "
                             f"{n_total} particles")
        fh.write(row)
        written += 1

    try:
        partial.parent.mkdir(parents=True, exist_ok=True)
        with open(partial, "wb") as fh:
            fh.write(ARCHIVE_HEADER.pack(ARCHIVE_MAGIC, ARCHIVE_VERSION, n_total, snapshots, dt))
            yield append
        if written != snapshots:
            raise ValueError(f"{path} declares {snapshots} snapshots but got {written}")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        with suppress(OSError):  # a directory something else wrote into stays
            for directory in created:
                directory.rmdir()
        raise


def read_archive(path: str | Path) -> TrajectoryArchive:
    """Check an archive file and return it; DataError unless the file is
    exactly one archive of the current version, with finite positions.  The
    values are checked in one pass over the stacks of
    :attr:`TrajectoryArchive.stacks`, which holds one stack in memory."""
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(ARCHIVE_HEADER_BYTES)
        if header[:4] != ARCHIVE_MAGIC or len(header) < ARCHIVE_HEADER_BYTES:
            raise DataError(f"{path} does not start with a trajectory archive header")
        _, version, n, snaps, dt = ARCHIVE_HEADER.unpack(header)
        if version != ARCHIVE_VERSION:
            raise DataError(f"{path} is a version {version} archive; only version "
                            f"{ARCHIVE_VERSION} is read: re-run `simulate --archive`")
        if n == 0 or snaps == 0:
            raise DataError(f"{path} declares {n} particles and {snaps} snapshots; "
                            "both must be positive")
        if not 0.0 < dt < np.inf:
            raise DataError(f"{path} declares the time step {dt}; it must be positive and finite")
        size = os.fstat(fh.fileno()).st_size
        expected = ARCHIVE_HEADER_BYTES + 8 * n * snaps
        if size != expected:
            raise DataError(f"{path} has {size} bytes; its header needs exactly {expected}")
    archive = TrajectoryArchive(path, dt, int(n), int(snaps))
    for positions in archive.stacks:
        if not np.isfinite(positions).all():
            raise DataError(f"{path} holds non-finite positions")
    return archive


def sha256_file(path: str | Path) -> str:
    """The file's sha256, read through one reused 64 KiB buffer."""
    digest = hashlib.sha256()
    buf = memoryview(bytearray(1 << 16))
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            digest.update(buf[:n])
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
