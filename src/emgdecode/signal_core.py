"""Signal containers, zero-phase IIR filtering, cropping, target resampling,
and temporal train/test splitting.

Conventions: signal arrays are (samples, channels) float64, angles are in
degrees, and all containers are frozen dataclasses meant to be shared
read-only between threads.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy import signal as sps

from .errors import (
    AlignmentError,
    InvalidInputError,
    InvalidRangeError,
    InvalidSpecError,
    OutOfRangeError,
)

FINGER_LABELS = ("thumb", "index", "middle", "ring", "little")


@dataclass(frozen=True)
class GridLayout:
    """Rectangular electrode grid mapped row-major onto a channel range."""

    name: str
    n_rows: int = 8
    n_cols: int = 8
    channel_offset: int = 0

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise InvalidSpecError("grid dimensions must be positive")
        if self.channel_offset < 0:
            raise InvalidSpecError("channel_offset must be non-negative")

    @property
    def n_channels(self) -> int:
        return self.n_rows * self.n_cols

    def channel_index(self, row: int, col: int) -> int:
        """Absolute channel index of electrode (row, col), row-major."""
        if not (0 <= row < self.n_rows and 0 <= col < self.n_cols):
            raise InvalidRangeError(f"(row={row}, col={col}) outside grid {self.name!r}")
        return self.channel_offset + row * self.n_cols + col


def default_grids() -> tuple[GridLayout, GridLayout]:
    """Two 8x8 arrays over the extensor (EDC) and flexor (FDS) muscles."""
    return (GridLayout("EDC", 8, 8, 0), GridLayout("FDS", 8, 8, 64))


@dataclass(frozen=True)
class SignalMatrix:
    """Multichannel recording: (samples, channels) data plus grid metadata.

    ``t0`` is the recording time of the first sample, so cropped signals keep
    their alignment with kinematics recorded on the same clock.
    """

    data: np.ndarray
    fs: float
    grids: tuple[GridLayout, ...]
    t0: float = 0.0

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "grids", tuple(self.grids))
        if data.ndim != 2 or data.shape[0] < 1:
            raise InvalidInputError("signal data must be a (samples, channels) matrix with S >= 1")
        if self.fs <= 0:
            raise InvalidSpecError("sampling rate must be positive")
        spans = sorted((g.channel_offset, g.channel_offset + g.n_channels) for g in self.grids)
        covered = 0
        for lo, hi in spans:
            if lo != covered:
                raise InvalidSpecError("grid channel ranges must partition the channels exactly")
            covered = hi
        if covered != data.shape[1]:
            raise InvalidSpecError(
                f"grids cover {covered} channels but data has {data.shape[1]}"
            )

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    @property
    def duration(self) -> float:
        return self.n_samples / self.fs


def require_finite(x: SignalMatrix) -> None:
    """Raise ``InvalidInputError`` naming the first (sample, channel) of ``x``
    that is NaN or infinite."""
    finite = np.isfinite(x.data)
    if not finite.all():
        s, c = np.argwhere(~finite)[0]
        raise InvalidInputError(f"signal value at sample {s}, channel {c} is not finite ({x.data[s, c]})")


@dataclass(frozen=True)
class Trajectory:
    """Finger joint-angle recording: (samples, fingers) matrix in degrees."""

    angles: np.ndarray
    fs_kin: float
    labels: tuple[str, ...] = FINGER_LABELS

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=np.float64)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "labels", tuple(self.labels))
        if angles.ndim != 2 or angles.shape[0] < 2:
            raise InvalidInputError("trajectory must be a (T, D) matrix with T >= 2")
        if angles.shape[1] != len(self.labels):
            raise InvalidInputError("number of labels must match number of angle columns")
        if len(set(self.labels)) != len(self.labels):
            raise InvalidInputError("trajectory labels must be unique")
        if self.fs_kin <= 0:
            raise InvalidSpecError("kinematic sampling rate must be positive")

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.angles.shape[0]) / self.fs_kin

    @property
    def duration(self) -> float:
        return (self.angles.shape[0] - 1) / self.fs_kin


@dataclass(frozen=True)
class FilterSpec:
    """IIR filter request. ``band`` is (low, high) for bandpass, a scalar
    cutoff for lowpass, or the center frequency for a notch (with ``q``)."""

    kind: str
    order: int = 4
    band: tuple[float, float] | float = 0.0
    q: float | None = None

    def __post_init__(self):
        if self.kind not in ("bandpass", "notch", "lowpass"):
            raise InvalidSpecError(f"unknown filter kind {self.kind!r}")
        if self.order < 1:
            raise InvalidSpecError("filter order must be a positive integer")
        if self.kind == "notch" and (self.q is None or self.q <= 0):
            raise InvalidSpecError("notch filter requires a positive quality factor")


@dataclass(frozen=True)
class IIRCoefficients:
    """Second-order sections plus the pole count used for edge padding."""

    sos: np.ndarray
    n_poles: int


def design_butterworth(spec: FilterSpec, fs: float) -> IIRCoefficients:
    """Design the requested filter for sampling rate ``fs``.

    Butterworth low/bandpass filters come from the bilinear transform with
    frequency prewarping; the notch is a single biquad from (f0, Q). Cutoffs
    must lie strictly inside (0, fs/2).
    """
    nyq = fs / 2.0
    if spec.kind == "bandpass":
        lo, hi = spec.band  # type: ignore[misc]
        if not (0.0 < lo < hi < nyq):
            raise InvalidSpecError(
                f"bandpass cutoffs ({lo}, {hi}) must satisfy 0 < low < high < fs/2 = {nyq}"
            )
        sos = sps.butter(spec.order, [lo, hi], btype="bandpass", fs=fs, output="sos")
        return IIRCoefficients(sos=sos, n_poles=2 * spec.order)
    if spec.kind == "lowpass":
        cutoff = float(spec.band)  # type: ignore[arg-type]
        if not (0.0 < cutoff < nyq):
            raise InvalidSpecError(f"lowpass cutoff {cutoff} must lie strictly inside (0, {nyq})")
        sos = sps.butter(spec.order, cutoff, btype="lowpass", fs=fs, output="sos")
        return IIRCoefficients(sos=sos, n_poles=spec.order)
    # notch
    f0 = float(spec.band)  # type: ignore[arg-type]
    if not (0.0 < f0 < nyq):
        raise InvalidSpecError(f"notch frequency {f0} must lie strictly inside (0, {nyq})")
    b, a = sps.iirnotch(f0, spec.q, fs=fs)
    sos = sps.tf2sos(b, a)
    return IIRCoefficients(sos=sos, n_poles=2)


def frequency_response(coeffs: IIRCoefficients, freqs, fs: float) -> np.ndarray:
    """|H| of a single pass at the given frequencies (Hz)."""
    _, h = sps.sosfreqz(coeffs.sos, worN=np.atleast_1d(np.asarray(freqs, dtype=float)), fs=fs)
    return np.abs(h)


def apply_filtfilt(coeffs: IIRCoefficients, values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Forward-backward filtering with odd reflective padding of 3x the pole count."""
    values = np.asarray(values, dtype=np.float64)
    padlen = 3 * coeffs.n_poles
    if values.shape[axis] <= padlen:
        raise InvalidInputError(
            f"signal too short for zero-phase filtering: need more than {padlen} samples"
        )
    return sps.sosfiltfilt(coeffs.sos, values, axis=axis, padtype="odd", padlen=padlen)


# One process-wide pool, shared by ``filtfilt``'s channel chunks, MLD-BFM
# extraction's omega items (one per grid and window chunk, each serving every
# block plan of its call) and ``synth.generate_tasks``'s tasks, created on
# first use and dropped in a forked child, whose copy would wait forever on
# threads that the fork did not copy. It is process-wide because a pool per
# call, though bit-identical and free of this lock and fork hook, filtered
# one 5 s, 128-channel task in 46-47 ms instead of 37-40 ms on 2 cores,
# paying for new threads on every call.
_pool: tuple[int, ThreadPoolExecutor] | None = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only; elsewhere nothing forks
    os.register_at_fork(after_in_child=_forget_pool)


def _worker_pool() -> tuple[int, ThreadPoolExecutor]:
    global _pool
    with _pool_lock:
        if _pool is None:
            if hasattr(os, "sched_getaffinity"):
                workers = len(os.sched_getaffinity(0))
            else:  # platforms without CPU affinity
                workers = os.cpu_count() or 1
            _pool = (workers, ThreadPoolExecutor(workers, thread_name_prefix="emgdecode-worker"))
        return _pool


def filter_workers() -> int:
    """Threads of the process-wide pool that ``filtfilt``, ``extract_mld_bfm``
    and ``generate_tasks`` spread their work over: one per core this process may run on."""
    return _worker_pool()[0]


def filtfilt(x: SignalMatrix, *coeffs: IIRCoefficients) -> SignalMatrix:
    """Zero-phase filtering of every channel by each of ``coeffs`` in turn.

    Chunks of about 2 MB of channel rows, at least one per worker, are
    filtered on the pool's threads (scipy releases the GIL) straight into one
    C-contiguous (C, S) buffer, returned as the usual (S, C) view. Each
    channel is filtered on its own, so the result does not depend on the
    chunking and equals chained ``apply_filtfilt(..., axis=0)`` bit for bit.
    """
    if not coeffs:
        raise InvalidSpecError("filtfilt needs at least one filter")
    rows = x.data.T
    n_chan, n_samp = rows.shape
    workers, pool = _worker_pool()
    n_chunks = max(1, min(n_chan, max(workers, round(n_chan * n_samp / 2**18))))
    bounds = [n_chan * k // n_chunks for k in range(n_chunks + 1)]
    out = np.empty((n_chan, n_samp))

    def filter_chunk(lo: int, hi: int) -> None:
        y = rows[lo:hi]
        for c in coeffs:
            y = apply_filtfilt(c, y, axis=1)
        out[lo:hi] = y

    list(pool.map(filter_chunk, bounds[:-1], bounds[1:]))  # re-raises a worker's error
    return replace(x, data=out.T)


def crop(x: SignalMatrix, t0: float, t1: float) -> SignalMatrix:
    """Keep samples whose time lies in [t0, t1); metadata is preserved.

    Sample k (time k/fs) is kept iff t0 <= k/fs < t1, i.e. indices
    [ceil(t0*fs), ceil(t1*fs)).
    """
    if not (0.0 <= t0 < t1):
        raise InvalidRangeError(f"crop range ({t0}, {t1}) must satisfy 0 <= t0 < t1")
    if t1 > x.duration * (1.0 + 1e-12):
        raise InvalidRangeError(f"crop end {t1} s beyond signal duration {x.duration:.6f} s")
    start = int(math.ceil(t0 * x.fs))
    stop = min(int(math.ceil(t1 * x.fs)), x.n_samples)
    if start >= stop:
        raise InvalidRangeError("crop range contains no samples")
    return replace(x, data=x.data[start:stop], t0=x.t0 + start / x.fs)


def resample_targets(traj: Trajectory, window_plan, fs: float, t_offset: float = 0.0) -> np.ndarray:
    """One target row per feature window, linearly interpolated at the window
    END time (t_w + L)/fs for causal alignment.

    ``t_offset`` is the recording time of the (possibly cropped) signal's
    first sample, so targets are read off the original kinematic clock.
    """
    end_times = t_offset + (window_plan.starts + window_plan.length) / fs
    t_kin = traj.times
    if end_times[-1] > t_kin[-1] * (1.0 + 1e-12) or end_times[0] < t_kin[0]:
        raise OutOfRangeError(
            f"window end {end_times[-1]:.6f} s outside trajectory span "
            f"[{t_kin[0]:.6f}, {t_kin[-1]:.6f}] s"
        )
    out = np.empty((len(end_times), traj.angles.shape[1]))
    for d in range(traj.angles.shape[1]):
        out[:, d] = np.interp(end_times, t_kin, traj.angles[:, d])
    return out


def _as_row_arrays(items) -> list[np.ndarray]:
    arrays = []
    for item in items:
        values = getattr(item, "values", None)
        if values is None:
            values = getattr(item, "angles", item)
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        arrays.append(arr)
    return arrays


def split_chunks(
    features: Sequence, targets: Sequence, ratio: float
) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[tuple[np.ndarray, np.ndarray]]]:
    """Per-task contiguous split at floor(rows * ratio): first part train,
    second part test. Returns (train_chunks, test_chunks) as (X, y) pairs."""
    if not (0.0 < ratio < 1.0):
        raise InvalidSpecError("split ratio must lie in (0, 1)")
    xs = _as_row_arrays(features)
    ys = _as_row_arrays(targets)
    if len(xs) != len(ys):
        raise AlignmentError("features and targets must have the same number of tasks")
    train, test = [], []
    for x, y in zip(xs, ys):
        if x.shape[0] != y.shape[0]:
            raise AlignmentError(
                f"feature rows ({x.shape[0]}) and target rows ({y.shape[0]}) differ"
            )
        n_train = int(math.floor(x.shape[0] * ratio))
        train.append((x[:n_train], y[:n_train]))
        test.append((x[n_train:], y[n_train:]))
    return train, test


@dataclass(frozen=True)
class SplitResult:
    """Assembled train/test sets. Training rows are permuted; test rows stay
    in task order, with ``test_chunk_sizes`` giving per-task row counts."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    test_chunk_sizes: tuple[int, ...]


def assemble_split(train_chunks, test_chunks, seed: int) -> SplitResult:
    """Concatenate per-task chunks and permute the training rows with ``seed``."""
    x_train = np.concatenate([c[0] for c in train_chunks], axis=0)
    y_train = np.concatenate([c[1] for c in train_chunks], axis=0)
    x_test = np.concatenate([c[0] for c in test_chunks], axis=0)
    y_test = np.concatenate([c[1] for c in test_chunks], axis=0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perm = rng.permutation(x_train.shape[0])
    return SplitResult(
        x_train=x_train[perm],
        y_train=y_train[perm],
        x_test=x_test,
        y_test=y_test,
        test_chunk_sizes=tuple(c[0].shape[0] for c in test_chunks),
    )
