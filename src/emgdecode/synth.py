"""Deterministic synthetic HD sEMG and finger-kinematics generator.

Eight movement tasks mirror the recording protocol: each task drives a
subset of the five fingers with a raised-cosine angle profile starting fully
extended, while the inactive fingers carry a small low-frequency coupling
wiggle. Muscle activity is modeled as amplitude-modulated band-limited noise
sources with Gaussian spatial footprints on the two electrode grids: flexor
sources follow the normalized angle, extensor sources its complement.
Sensor noise and a 60 Hz powerline component are added on top.

The model is intentionally simple: windowed RMS is close to linear in the
joint angles, so every regressor in the pool can learn the mapping and
pipeline-level checks have meaningful headroom.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import wait
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError
from .signal_core import (
    FINGER_LABELS,
    FilterSpec,
    GridLayout,
    SignalMatrix,
    Trajectory,
    _worker_pool,
    apply_filtfilt,
    default_grids,
    design_butterworth,
)

# Active fingers per task, indexing (thumb, index, middle, ring, little):
# index F/E; middle F/E; ring+little F/E; thumb opposition; thumb-index
# pinch; thumb-middle pinch; tripod; five-finger grasp.
DEFAULT_TASKS: tuple[tuple[int, ...], ...] = (
    (1,),
    (2,),
    (3, 4),
    (0,),
    (0, 1),
    (0, 2),
    (0, 1, 2),
    (0, 1, 2, 3, 4),
)

# (row, col) source centers per finger, one entry per grid, chosen in the
# proximal-lateral quadrant of each array.
DEFAULT_CENTERS_EDC: tuple[tuple[float, float], ...] = (
    (1.0, 5.5),
    (1.5, 4.0),
    (2.5, 5.5),
    (3.5, 4.5),
    (4.5, 5.5),
)
DEFAULT_CENTERS_FDS: tuple[tuple[float, float], ...] = (
    (2.0, 6.0),
    (2.5, 4.5),
    (3.5, 6.0),
    (4.5, 5.0),
    (5.5, 6.0),
)

# Butterworth order of the carrier bandpass; ``apply_filtfilt`` pads its
# input by 3 x its 2 x order poles, so a signal must be longer than that.
_CARRIER_ORDER = 4
_CARRIER_PADLEN = 3 * 2 * _CARRIER_ORDER


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    fs: float = 2052.52
    fs_kin: float = 100.0
    movement_hz: float = 0.5
    duration_s: float = 45.0
    amplitude_deg: float = 90.0
    spread: float = 1.2
    noise: float = 1.0
    powerline: float = 0.5
    powerline_hz: float = 60.0
    coupling: float = 0.02
    effort: float = 2.0
    effort_spread: float = 6.0
    carrier_band: tuple[float, float] = (20.0, 450.0)
    tasks: tuple[tuple[int, ...], ...] = DEFAULT_TASKS
    centers_edc: tuple[tuple[float, float], ...] = DEFAULT_CENTERS_EDC
    centers_fds: tuple[tuple[float, float], ...] = DEFAULT_CENTERS_FDS

    def __post_init__(self):
        # JSON hands back lists; store tuples so configs compare and hash
        for name in ("tasks", "centers_edc", "centers_fds"):
            object.__setattr__(self, name, tuple(tuple(v) for v in getattr(self, name)))
        object.__setattr__(self, "carrier_band", tuple(self.carrier_band))

        def bad(name: str, rule: str):
            return ConfigError(f"SynthConfig.{name} {rule}, got {getattr(self, name)!r}")

        # `not (x > 0)` also rejects NaN
        positive = ("fs", "fs_kin", "duration_s", "movement_hz", "amplitude_deg", "spread")
        for name in positive + ("effort_spread",):
            if not getattr(self, name) > 0:
                raise bad(name, "must be > 0")
        for name in ("seed", "noise", "powerline", "coupling", "effort"):
            if not getattr(self, name) >= 0:
                raise bad(name, "must be >= 0")
        band = self.carrier_band
        if len(band) != 2 or not 0 < band[0] < band[1] < self.fs / 2:
            raise bad("carrier_band", f"must be (low, high), 0 < low < high < fs/2 = {self.fs / 2}")
        n_kin, n_sig = (int(round(self.duration_s * rate)) for rate in (self.fs_kin, self.fs))
        if n_kin < 2 or n_sig <= _CARRIER_PADLEN:
            raise bad(
                "duration_s",
                f"must give at least 2 samples at fs_kin and more than {_CARRIER_PADLEN} "
                "(the carrier filter's padding) at fs",
            )
        if not 0 < self.powerline_hz < self.fs / 2:
            raise bad("powerline_hz", f"must lie inside (0, fs/2 = {self.fs / 2})")
        n_fingers = len(FINGER_LABELS)
        if not self.tasks or not all(self.tasks):
            raise bad("tasks", "must list at least one task, each with an active finger")
        if any(not 0 <= d < n_fingers for task in self.tasks for d in task):
            raise bad("tasks", f"must index fingers 0..{n_fingers - 1}")
        for name in ("centers_edc", "centers_fds"):
            centers = getattr(self, name)
            if len(centers) != n_fingers or any(len(c) != 2 for c in centers):
                raise bad(name, f"must hold one (row, col) per finger ({n_fingers})")
            if any(not (0 <= r <= 7 and 0 <= c <= 7) for r, c in centers):
                raise bad(name, "must lie within the 8x8 grid")

    def to_jsonable(self) -> dict:
        return dataclasses.asdict(self)


def _task_rng(cfg: SynthConfig, task_index: int) -> np.random.Generator:
    # per-task generator: deterministic regardless of generation order
    return np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(task_index,)))


def _footprint(grid: GridLayout, center: tuple[float, float], spread: float) -> np.ndarray:
    rows, cols = np.divmod(np.arange(grid.n_channels), grid.n_cols)
    d2 = (rows - center[0]) ** 2 + (cols - center[1]) ** 2
    return np.exp(-d2 / (2.0 * spread * spread))


def _angle_params(rng: np.random.Generator, active: Sequence[int]):
    """Inactive fingers wiggle with three low-frequency sinusoids (< 1.5 Hz, so
    angle traces stay band-limited below 2 Hz). Returns the active mask and
    the (fingers, 3) frequencies and phases, drawn finger by finger."""
    draws = np.array(
        [(rng.uniform(0.1, 1.2, 3), rng.uniform(0.0, 2.0 * math.pi, 3)) for _ in FINGER_LABELS]
    )
    return np.isin(np.arange(len(FINGER_LABELS)), active), draws[:, 0], draws[:, 1]


def _angles_at(cfg: SynthConfig, params, t: np.ndarray) -> np.ndarray:
    is_active, freqs, phases = params
    amp = cfg.amplitude_deg
    rise = amp * (1.0 - np.cos(2.0 * math.pi * cfg.movement_hz * t)) / 2.0
    wiggle = np.sin(2.0 * math.pi * freqs * t[:, None, None] + phases).sum(axis=2)
    return np.where(is_active, rise[:, None], (cfg.coupling * amp / 3.0) * wiggle)


def generate_task(cfg: SynthConfig, task_index: int) -> tuple[SignalMatrix, Trajectory]:
    """One task's synchronized recording pair (HD sEMG, joint angles)."""
    return _generate(cfg, task_index)


def _generate(cfg: SynthConfig, task_index: int) -> tuple[SignalMatrix, Trajectory]:
    # ``generate_tasks`` runs this on pool threads, not the public
    # ``generate_task``, which a tracer with a single span stack may wrap
    active = cfg.tasks[task_index]
    rng = _task_rng(cfg, task_index)
    params = _angle_params(rng, active)

    n_kin = int(round(cfg.duration_s * cfg.fs_kin))
    t_kin = np.arange(n_kin) / cfg.fs_kin
    traj = Trajectory(angles=_angles_at(cfg, params, t_kin), fs_kin=cfg.fs_kin)

    n_sig = int(round(cfg.duration_s * cfg.fs))
    t_sig = np.arange(n_sig) / cfg.fs
    theta = _angles_at(cfg, params, t_sig) / cfg.amplitude_deg  # normalized

    drives = [
        (theta[:, d], (cfg.centers_edc[d], cfg.centers_fds[d]), cfg.spread, 1.0)
        for d in range(len(FINGER_LABELS))
    ]
    if cfg.effort > 0:
        # shared common-drive source: broad footprint, tracks overall grip,
        # dominates the RMS variance the way gross contraction intensity does
        drives.append((theta.mean(axis=1), ((3.5, 3.5),) * 2, cfg.effort_spread, cfg.effort))

    grids = default_grids()
    carrier_coeffs = design_butterworth(
        FilterSpec(kind="bandpass", order=_CARRIER_ORDER, band=cfg.carrier_band), fs=cfg.fs
    )
    data = np.empty((n_sig, sum(g.n_channels for g in grids)))
    sources = np.empty((n_sig, len(drives) * len(grids)))
    feet = np.zeros((sources.shape[1], data.shape[1]))
    for d, (level, centers, spread, gain) in enumerate(drives):
        for gi, grid in enumerate(grids):
            j = d * len(grids) + gi
            carrier = apply_filtfilt(carrier_coeffs, rng.standard_normal(n_sig))
            carrier /= carrier.std()
            envelope = (1.0 - level) if grid.name == "EDC" else level
            sources[:, j] = gain * envelope * carrier
            sl = slice(grid.channel_offset, grid.channel_offset + grid.n_channels)
            feet[j, sl] = _footprint(grid, centers[gi], spread)
    _mix(sources, feet, rng, cfg.noise, out=data)
    if cfg.powerline > 0:
        phase = rng.uniform(0.0, 2.0 * math.pi)
        data += cfg.powerline * np.sin(2.0 * math.pi * cfg.powerline_hz * t_sig + phase)[:, None]
    return SignalMatrix(data=data, fs=cfg.fs, grids=grids), traj


def _mix(
    sources: np.ndarray, feet: np.ndarray, rng: np.random.Generator, noise: float, out: np.ndarray
) -> None:
    """``out = sources @ feet`` plus ``noise`` times standard normal draws in
    C order, bit-equal to the whole-array expression.

    It works in even row chunks of about 2 MB of output (``filtfilt``'s
    rule), drawing each chunk's noise into one reused buffer: with tasks
    generated two at a time, whole-array noise temporaries doubled the live
    arrays above eight 10 s recordings, from 24 to 47 MiB; chunked it is 10
    MiB. Even chunks, not fixed ones with a remainder, because numpy
    multiplies a one-row chunk by a matrix-vector route that rounds
    differently from the matrix product."""
    n_rows = out.shape[0]
    n_chunks = max(1, round(out.size / 2**18))
    bounds = [n_rows * k // n_chunks for k in range(n_chunks + 1)]
    buf = np.empty((-(-n_rows // n_chunks), out.shape[1])) if noise > 0 else None
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        np.matmul(sources[lo:hi], feet, out=out[lo:hi])
        if buf is not None:
            draws = rng.standard_normal(out=buf[: hi - lo])
            draws *= noise
            out[lo:hi] += draws


def iter_tasks(cfg: SynthConfig) -> Iterator[tuple[SignalMatrix, Trajectory]]:
    """Lazily generate the tasks in order, one ``generate_task`` call each on
    the calling thread: one raw recording in memory at a time."""
    for i in range(len(cfg.tasks)):
        yield generate_task(cfg, i)


def generate_tasks(cfg: SynthConfig) -> list[tuple[SignalMatrix, Trajectory]]:
    """Every task, generated concurrently: one item per task on
    ``signal_core``'s per-core pool, each drawing from its own per-task
    seed, so the result equals ``[generate_task(cfg, i) ...]`` bit for bit
    on any pool width. It holds all recordings at the end, and while it runs
    up to one task's working arrays (its sources and ~2 MB chunk buffer) per
    worker on top. Waits for every item, then re-raises the first failure
    in task order."""
    _, pool = _worker_pool()
    items = [pool.submit(_generate, cfg, i) for i in range(len(cfg.tasks))]
    wait(items)  # so a failed call leaves no item running behind it
    return [item.result() for item in items]
