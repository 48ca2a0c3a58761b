"""File formats: raw binary signals with JSON sidecars, trajectory CSVs,
binary feature tensors, and dataset directories.

Signals are stored as little-endian float32, row-major (sample-major), with
a sidecar header ``{fs, n_samples, n_channels, grids, dtype: "f32le"}``.
Trajectories are CSV with header ``t,thumb,index,middle,ring,little`` in
degrees. All writes go through a temp file plus rename, so partial files
never appear under their final name.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from pathlib import Path
from typing import Iterator

import numpy as np

from .descriptors import FeatureTensor
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


def save_json(obj, path) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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
    hdr = load_json(base.with_suffix(".json"))
    if hdr.get("dtype") != "f32le":
        raise InvalidInputError(f"unsupported signal dtype {hdr.get('dtype')!r}")
    raw = np.fromfile(base.with_suffix(".f32"), dtype="<f4")
    shape = (hdr["n_samples"], hdr["n_channels"])
    if raw.size != shape[0] * shape[1]:
        raise InvalidInputError(
            f"signal payload has {raw.size} values, header promises {shape[0] * shape[1]}"
        )
    grids = tuple(
        GridLayout(g["name"], g["n_rows"], g["n_cols"], g["channel_offset"])
        for g in hdr["grids"]
    )
    return SignalMatrix(data=raw.reshape(shape).astype(np.float64), fs=hdr["fs"], grids=grids)


# ---------------------------------------------------------------------------
# trajectories


def save_trajectory(traj: Trajectory, path) -> Path:
    path = Path(path)
    lines = ["t," + ",".join(traj.labels)]
    times = traj.times
    for i in range(traj.angles.shape[0]):
        lines.append(
            repr(float(times[i])) + "," + ",".join(repr(float(v)) for v in traj.angles[i])
        )
    atomic_write_text(path, "\n".join(lines) + "\n")
    return path


def load_trajectory(path) -> Trajectory:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[0] != "t":
            raise InvalidInputError("trajectory CSV must start with a 't' column")
        labels = tuple(header[1:])
        times, rows = [], []
        for row in reader:
            if not row:
                continue
            times.append(float(row[0]))
            rows.append([float(v) for v in row[1:]])
    if len(rows) < 2:
        raise InvalidInputError("trajectory CSV needs at least two rows")
    # Trajectory keeps no time offset or per-sample stamps, so the stamps
    # must be exactly 0, dt, 2 dt, ... for the angles to keep their times.
    t = np.asarray(times)
    step = (t[-1] - t[0]) / (len(t) - 1)
    if not step > 0:
        raise InvalidInputError(f"trajectory time stamps must increase (first {times[0]!r}, last {times[-1]!r})")
    expected = np.arange(len(t)) * step
    bad = np.flatnonzero(~(np.abs(t - expected) <= 1e-9 * step))
    if bad.size:
        k = bad[0]
        raise InvalidInputError(
            f"trajectory time stamps must start at 0 and be uniformly spaced: "
            f"row {k} has t={times[k]!r}, expected {float(expected[k])!r}"
        )
    fs_kin = (len(t) - 1) / (t[-1] - t[0])
    return Trajectory(angles=np.asarray(rows), fs_kin=float(fs_kin), labels=labels)


# ---------------------------------------------------------------------------
# feature tensors


def save_features_binary(tensor: FeatureTensor, base) -> tuple[Path, Path]:
    """Binary f32le payload plus JSON sidecar with shape and column names."""
    base = Path(base)
    bin_path = base.with_suffix(".f32")
    hdr_path = base.with_suffix(".json")
    _atomic_bytes(bin_path, np.ascontiguousarray(tensor.values, dtype="<f4").tobytes())
    save_json(
        {
            "n_windows": tensor.n_windows,
            "n_features": tensor.n_features,
            "columns": list(tensor.columns),
            "dtype": "f32le",
        },
        hdr_path,
    )
    return bin_path, hdr_path


def load_features_binary(base) -> FeatureTensor:
    base = Path(base)
    hdr = load_json(base.with_suffix(".json"))
    raw = np.fromfile(base.with_suffix(".f32"), dtype="<f4")
    values = raw.reshape((hdr["n_windows"], hdr["n_features"])).astype(np.float64)
    return FeatureTensor(values=values, columns=tuple(hdr["columns"]))


# ---------------------------------------------------------------------------
# dataset directories


def save_dataset(directory, tasks, extra_manifest: dict | None = None) -> Path:
    """Write ``task_XX`` signal pairs and trajectory CSVs plus manifest.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
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
    manifest = load_json(directory / "manifest.json")
    for entry in manifest["tasks"]:
        yield (
            load_signal(directory / entry["signal"]),
            load_trajectory(directory / entry["trajectory"]),
        )
