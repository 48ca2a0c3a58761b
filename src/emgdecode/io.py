"""File formats: raw binary signals with JSON sidecars, CSV tables
(trajectories among them), and dataset directories.

Signals are stored as little-endian float32, row-major (sample-major), with
a sidecar header ``{fs, n_samples, n_channels, grids, dtype: "f32le"}``.
Trajectories are CSV with header ``t,thumb,index,middle,ring,little`` in
degrees. All writes go through a temp file plus rename, so partial files
never appear under their final name.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
import types
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import InvalidInputError
from .signal_core import GridLayout, SignalMatrix, Trajectory


def _atomic_bytes(path: Path, payload: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    _atomic_bytes(Path(path), text.encode("utf-8"))


def csv_text(header, rows) -> str:
    """CSV text of ``header`` then ``rows``, one ``\\n``-ended line each. Fields
    holding a comma, a quote, a line feed or a carriage return are quoted;
    floats are written as their shortest round-trip text."""
    lines: list[str] = []
    # csv quotes a field holding any character of the line terminator, so
    # "\r\n" makes it quote a lone "\r" too; the writer hands over one row per
    # write, and each row then ends in "\n" alone
    writer = csv.writer(types.SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return "".join([line[:-2] + "\n" for line in lines])


def save_json(obj, path) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise InvalidInputError(f"{path}: not valid JSON: {exc}") from exc


def _require_keys(obj, keys: tuple[str, ...], where) -> dict:
    """``obj`` if it is a JSON object holding ``keys``; else an error naming ``where``."""
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise InvalidInputError(f"{where}: missing key {key!r}")
    return obj


# signal header key -> (what its value must be, its test); JSON gives exact
# ints and floats, and ``type(True)`` is bool, not int
_COUNT = ("an int >= 0", lambda v: type(v) is int and v >= 0)
_HEADER_RULES = {
    "n_samples": _COUNT,
    "n_channels": _COUNT,
    "fs": ("a finite real > 0", lambda v: type(v) in (int, float) and math.isfinite(v) and v > 0),
    "grids": ("a list", lambda v: isinstance(v, list)),
}


# ---------------------------------------------------------------------------
# signals


def save_signal(x: SignalMatrix, base) -> tuple[Path, Path]:
    """Write ``base``.f32 (raw samples) and ``base``.json (header)."""
    base = Path(base)
    bin_path = base.with_suffix(".f32")
    hdr_path = base.with_suffix(".json")
    header = {
        "fs": x.fs,
        "n_samples": x.n_samples,
        "n_channels": x.n_channels,
        "grids": [
            {
                "name": g.name,
                "n_rows": g.n_rows,
                "n_cols": g.n_cols,
                "channel_offset": g.channel_offset,
            }
            for g in x.grids
        ],
        "dtype": "f32le",
    }
    _atomic_bytes(bin_path, np.ascontiguousarray(x.data, dtype="<f4").tobytes())
    save_json(header, hdr_path)
    return bin_path, hdr_path


def load_signal(base) -> SignalMatrix:
    base = Path(base)
    hdr_path = base.with_suffix(".json")
    hdr = _require_keys(load_json(hdr_path), ("fs", "n_samples", "n_channels", "grids", "dtype"), hdr_path)
    if hdr["dtype"] != "f32le":
        raise InvalidInputError(f"{hdr_path}: unsupported signal dtype {hdr['dtype']!r}")
    for key, (rule, ok) in _HEADER_RULES.items():
        if not ok(hdr[key]):
            raise InvalidInputError(f"{hdr_path}: header {key!r} must be {rule}, got {hdr[key]!r}")
    raw = np.fromfile(base.with_suffix(".f32"), dtype="<f4")
    shape = (hdr["n_samples"], hdr["n_channels"])
    if raw.size != shape[0] * shape[1]:
        raise InvalidInputError(
            f"{base.with_suffix('.f32')}: signal payload has {raw.size} values, "
            f"header promises {shape[0] * shape[1]}"
        )
    grid_keys = ("name", "n_rows", "n_cols", "channel_offset")
    grids = tuple(
        GridLayout(*(_require_keys(g, grid_keys, f"{hdr_path} grid {i}")[k] for k in grid_keys))
        for i, g in enumerate(hdr["grids"])
    )
    return SignalMatrix(data=raw.reshape(shape).astype(np.float64), fs=hdr["fs"], grids=grids)


# ---------------------------------------------------------------------------
# trajectories


def save_trajectory(traj: Trajectory, path) -> Path:
    path = Path(path)
    rows = np.column_stack([traj.times, traj.angles]).tolist()
    atomic_write_text(path, csv_text(("t", *traj.labels), rows))
    return path


def load_trajectory(path) -> Trajectory:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not header or header[0] != "t":
            raise InvalidInputError(f"{path}: trajectory CSV must start with a 't' column")
        labels = tuple(header[1:])
        times, rows = [], []
        try:
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, the header has {len(header)}")
                times.append(float(row[0]))
                rows.append([float(v) for v in row[1:]])
        except ValueError as exc:
            raise InvalidInputError(f"{path} line {reader.line_num}: {exc}") from exc
    if len(rows) < 2:
        raise InvalidInputError(f"{path}: trajectory CSV needs at least two rows")
    # Trajectory keeps no time offset or per-sample stamps, so the stamps
    # must be exactly 0, dt, 2 dt, ... for the angles to keep their times.
    t = np.asarray(times)
    step = (t[-1] - t[0]) / (len(t) - 1)
    if not step > 0:
        raise InvalidInputError(
            f"{path}: trajectory time stamps must increase (first {times[0]!r}, last {times[-1]!r})"
        )
    expected = np.arange(len(t)) * step
    bad = np.flatnonzero(~(np.abs(t - expected) <= 1e-9 * step))
    if bad.size:
        k = bad[0]
        raise InvalidInputError(
            f"{path}: trajectory time stamps must start at 0 and be uniformly spaced: "
            f"row {k} has t={times[k]!r}, expected {float(expected[k])!r}"
        )
    fs_kin = (len(t) - 1) / (t[-1] - t[0])
    return Trajectory(angles=np.asarray(rows), fs_kin=float(fs_kin), labels=labels)


# ---------------------------------------------------------------------------
# dataset directories


def save_dataset(directory, tasks, extra_manifest: dict | None = None) -> Path:
    """Write ``task_XX`` signal pairs and trajectory CSVs plus manifest.json."""
    directory = Path(directory)
    entries = []
    for i, (x, traj) in enumerate(tasks):
        stem = f"task_{i:02d}"
        save_signal(x, directory / stem)
        save_trajectory(traj, directory / f"{stem}_angles.csv")
        entries.append(
            {"signal": stem, "trajectory": f"{stem}_angles.csv", "n_samples": x.n_samples}
        )
    manifest = {"tasks": entries}
    if extra_manifest:
        manifest.update(extra_manifest)
    save_json(manifest, directory / "manifest.json")
    return directory


def iter_dataset(directory) -> Iterator[tuple[SignalMatrix, Trajectory]]:
    """Lazily yield (signal, trajectory) pairs in manifest order."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    manifest = _require_keys(load_json(manifest_path), ("tasks",), manifest_path)
    if not isinstance(manifest["tasks"], list):
        raise InvalidInputError(f"{manifest_path}: 'tasks' must be a list, got {manifest['tasks']!r}")
    for i, entry in enumerate(manifest["tasks"]):
        entry = _require_keys(entry, ("signal", "trajectory"), f"{manifest_path} task {i}")
        yield (
            load_signal(directory / entry["signal"]),
            load_trajectory(directory / entry["trajectory"]),
        )
