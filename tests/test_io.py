import hashlib
import struct

import numpy as np
import pytest

from sulfsim.io import (
    ARCHIVE_HEADER,
    ARCHIVE_HEADER_BYTES,
    ARCHIVE_MAGIC,
    ARCHIVE_VERSION,
    STACK_POSITIONS,
    DataError,
    RunManifest,
    archive_writer,
    column_text,
    read_archive,
    read_csv,
    sha256_file,
    snapshot_name,
    write_csv,
)

from oracles import archive_paths, write_paths_archive


def test_csv_roundtrip_full_precision(tmp_path, rng):
    x = rng.normal(0, 1, 50)
    u = rng.random(50) * 1e-7
    path = write_csv(tmp_path / "t.csv", ["x", "u"], [x, u])
    cols = read_csv(path)
    assert np.array_equal(cols["x"], x)
    assert np.array_equal(cols["u"], u)


def test_csv_header(tmp_path):
    path = write_csv(tmp_path / "h.csv", ["a", "b"], [np.array([1.0]), np.array([2.0])])
    first = path.read_text().splitlines()[0]
    assert first == "a,b"


def test_csv_columns_format_like_per_value_path(tmp_path):
    def fmt(value):  # the per-value formatting the column path replaced
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return str(value)

    columns = [np.array([3, -1, 0, 2**62]),
               np.array([True, False, True, False]),
               np.array([-0.0, 5e-324, 1e300, np.nan]),
               np.array([0.1, -np.inf, 1.0, 2.5e-7], dtype=np.float32)]
    path = write_csv(tmp_path / "c.csv", ["i", "b", "f", "g"], columns)
    rows = ["i,b,f,g"] + [",".join(fmt(v) for v in row) for row in zip(*columns)]
    assert path.read_text() == "\n".join(rows) + "\n"
    assert rows[1] == "3,True,-0.0,0.10000000149011612"
    assert rows[2] == "-1,False,5e-324,-inf"
    # columns formatted once ahead (as the CLI does for the node column) write the same bytes
    text = write_csv(tmp_path / "t.csv", ["i", "b", "f", "g"], [column_text(c) for c in columns])
    assert text.read_bytes() == path.read_bytes()


def test_snapshot_name_padding():
    assert snapshot_name("u", 7) == "u_000007.csv"


def test_archive_roundtrip_bit_exact(tmp_path, rng):
    paths = rng.normal(0, 1, (5, 8))
    loaded = write_paths_archive(tmp_path / "a.bin", paths, 0.01)
    assert loaded.dt == 0.01 and loaded.n_total == 8
    assert len(loaded) == 5
    assert np.array_equal(archive_paths(loaded), paths)
    assert loaded.path.stat().st_size == 32 + 8 * 8 * 5
    assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]  # the partial file is renamed


def test_archive_writer_creates_its_directory(tmp_path, rng):
    paths = rng.normal(0, 1, (5, 8))
    loaded = write_paths_archive(tmp_path / "new" / "a.bin", paths, 0.01)
    assert np.array_equal(archive_paths(loaded), paths)


@pytest.mark.parametrize("n, heights", [(8, [5]), (STACK_POSITIONS // 2, [2, 2, 1]),
                                        (STACK_POSITIONS + 1, [1] * 5)],
                         ids=["one-stack", "part-filled-last", "one-row-each"])
def test_archive_reads_stacks_into_one_buffer(tmp_path, rng, n, heights):
    # max(1, STACK_POSITIONS // N) snapshots a stack, the last one part-filled
    loaded = write_paths_archive(tmp_path / "a.bin", rng.normal(0, 1, (5, n)), 0.01)
    positions = archive_paths(loaded)
    seen, k = [], 0
    for x in loaded.stacks:
        assert x.shape == (len(x), n) and np.array_equal(x, positions[k : k + len(x)])
        seen.append(x)
        k += len(x)
    assert [len(x) for x in seen] == heights
    assert all(np.shares_memory(x, seen[0]) for x in seen)


@pytest.mark.parametrize("rows, size", [(4, 8), (6, 8), (5, 7)],
                         ids=["too-few-rows", "too-many-rows", "short-row"])
def test_archive_writer_refuses_wrong_rows_and_leaves_no_file(tmp_path, rng, rows, size):
    with pytest.raises(ValueError):
        with archive_writer(tmp_path / "a.bin", 8, 5, 0.01) as write_row:
            for _ in range(rows):
                write_row(rng.normal(0, 1, size))
    assert not any(tmp_path.iterdir())


def test_archive_writer_removes_partial_file_when_the_run_raises(tmp_path, rng):
    with pytest.raises(RuntimeError, match="abort"):
        with archive_writer(tmp_path / "a.bin", 8, 5, 0.01) as write_row:
            write_row(rng.normal(0, 1, 8))
            assert (tmp_path / "a.bin.partial").is_file() and not (tmp_path / "a.bin").exists()
            raise RuntimeError("abort")
    assert not any(tmp_path.iterdir())


def test_archive_writer_removes_the_directories_it_created_when_the_run_raises(tmp_path, rng):
    # tmp_path was there before the writer, so it stays
    with pytest.raises(RuntimeError, match="abort"):
        with archive_writer(tmp_path / "new" / "deeper" / "a.bin", 8, 5, 0.01) as write_row:
            write_row(rng.normal(0, 1, 8))
            raise RuntimeError("abort")
    assert tmp_path.is_dir() and not any(tmp_path.iterdir())


def test_archive_writer_keeps_a_created_directory_that_holds_another_file(tmp_path, rng):
    with pytest.raises(RuntimeError, match="abort"):
        with archive_writer(tmp_path / "new" / "a.bin", 8, 5, 0.01):
            (tmp_path / "new" / "other.txt").write_text("not the writer's\n")
            raise RuntimeError("abort")
    assert [p.name for p in (tmp_path / "new").iterdir()] == ["other.txt"]


def test_archive_rejects_bad_magic(tmp_path):
    bad = tmp_path / "junk.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(DataError):
        read_archive(bad)


def _archive_path(tmp_path, rng):
    return write_paths_archive(tmp_path / "a.bin", rng.normal(0, 1, (5, 8)), 0.01).path


def _archive_bytes(tmp_path, rng):
    return _archive_path(tmp_path, rng).read_bytes()


@pytest.mark.parametrize("cut", [8, 16, 64, 192])  # 192: three rows
def test_archive_rejects_cut_file(tmp_path, rng, cut):
    data = _archive_bytes(tmp_path, rng)
    assert len(data) == 32 + 8 * 8 * 5
    bad = tmp_path / "cut.bin"
    bad.write_bytes(data[:-cut])
    with pytest.raises(DataError, match="needs exactly"):
        read_archive(bad)


def test_archive_rejects_trailing_bytes(tmp_path, rng):
    bad = tmp_path / "long.bin"
    bad.write_bytes(_archive_bytes(tmp_path, rng) + b"\x00" * 24)
    with pytest.raises(DataError, match="needs exactly"):
        read_archive(bad)


@pytest.mark.parametrize("value, snapshot", [(np.nan, 0), (-np.inf, 0), (np.nan, 4)],
                         ids=["position-nan", "position-inf", "last-row-position-nan"])
def test_archive_rejects_bad_values(tmp_path, rng, value, snapshot):
    data = bytearray(_archive_bytes(tmp_path, rng))
    at = ARCHIVE_HEADER_BYTES + 8 * (8 * snapshot + 3)  # particle 3
    data[at : at + 8] = struct.pack("<d", value)
    bad = tmp_path / "values.bin"
    bad.write_bytes(bytes(data))
    with pytest.raises(DataError, match="non-finite positions"):
        read_archive(bad)


def _bare_header(n, snaps, version=ARCHIVE_VERSION, dt=0.01):
    # an empty archive's bare header has exactly the length it declares
    return ARCHIVE_HEADER.pack(ARCHIVE_MAGIC, version, n, snaps, dt)


def _weighted_payload(data):
    """The payload of the same archive with each row's unit weights after its
    positions, as versions 1 to 3 held it."""
    rows = np.frombuffer(data, dtype="<f8", offset=ARCHIVE_HEADER_BYTES).reshape(5, 1, 8)
    return np.concatenate([rows, np.ones_like(rows)], axis=1).tobytes()


def _old_version(version):
    """The layout of the same archive in ``version``: the 32-byte header of
    versions 1 and 3, with a mode word after dt in version 2."""
    def make(data):
        mode = struct.pack("<Q", 0) if version == 2 else b""
        return (ARCHIVE_MAGIC + struct.pack("<IQQd", version, 8, 5, 0.01) + mode
                + _weighted_payload(data))
    return make


@pytest.mark.parametrize(
    "make, match",
    [(lambda data: data[:20], "archive header"),
     (lambda data: _bare_header(0, 5), "both must be positive"),
     (lambda data: _bare_header(8, 0), "both must be positive"),
     (lambda data: _bare_header(8, 5, dt=0.0) + data[ARCHIVE_HEADER_BYTES:], "time step"),
     (lambda data: _bare_header(8, 5, dt=np.nan) + data[ARCHIVE_HEADER_BYTES:], "time step"),
     *((_old_version(v), f"version {v} archive.*re-run `simulate --archive`")
       for v in (1, 2, 3))],
    ids=["cut", "no-particles", "no-snapshots", "dt-zero", "dt-nan",
         "version-1", "version-2", "version-3"],
)
def test_archive_rejects_bad_header(tmp_path, rng, make, match):
    bad = tmp_path / "head.bin"
    bad.write_bytes(make(_archive_bytes(tmp_path, rng)))
    with pytest.raises(DataError, match=match):
        read_archive(bad)


@pytest.mark.parametrize("size", [0, 1, 1 << 16, 200_001])
def test_sha256_file_matches_hashlib(tmp_path, size):
    data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    path = tmp_path / "blob"
    path.write_bytes(data)
    assert sha256_file(path) == hashlib.sha256(data).hexdigest()


def test_manifest_checksums_match(tmp_path):
    f = tmp_path / "data.csv"
    write_csv(f, ["v"], [np.array([1.0, 2.0])])
    manifest = RunManifest(command="unit", config={"x": 1})
    manifest.add_output(tmp_path, f)
    out = manifest.write(tmp_path)
    import json

    loaded = json.loads(out.read_text())
    assert loaded["outputs"][0]["path"] == "data.csv"
    assert loaded["outputs"][0]["sha256"] == sha256_file(f)
    assert loaded["config"] == {"x": 1}
