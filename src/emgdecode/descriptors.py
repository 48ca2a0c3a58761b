"""Multichannel linear descriptors over block fields.

Three descriptors summarize each (window, block) segment X of shape (L, K):

* sigma — effective field strength, sqrt of the mean integral power per
  channel: sqrt( sum(X^2) / (K*L) ). Equals the pooled RMS of the segment.
* phi — field-strength variation rate in Hz: (1/2pi) * sqrt( sum of squared
  forward differences scaled by fs^2 over the signal power ). A generalized
  frequency: for a pure sinusoid it converges to the sinusoid's frequency.
* omega — spatial complexity: exp of the Shannon entropy of the normalized
  eigenvalues of the second-moment matrix X^T X / L. Ranges from 1 (one
  spatial mode) to K (variance spread uniformly over all modes).

Degenerate segments (zero energy) use the continuity conventions
sigma = 0, phi = 0, omega = 1 so no NaNs propagate.
"""

from __future__ import annotations

import math
from concurrent.futures import Future, wait
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .blocks import BlockPlan, WindowPlan, channel_major, channel_windows, window_diff_sumsq, window_sumsq
from .errors import InvalidInputError
from .signal_core import SignalMatrix, _worker_pool, require_finite

TWO_PI = 2.0 * math.pi


def _as_segment(seg) -> np.ndarray:
    arr = np.asarray(seg, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidInputError("segment must be a (L, K) matrix with L, K >= 1")
    return arr


def sigma(seg) -> float:
    """Effective field strength: pooled RMS over all entries of the segment."""
    arr = _as_segment(seg)
    per_channel = np.einsum("lk,lk->k", arr, arr)
    return float(np.sqrt(per_channel.sum() / arr.size))


def phi(seg, fs: float) -> float:
    """Field-strength variation rate in Hz; 0 for zero-energy segments."""
    arr = _as_segment(seg)
    if arr.shape[0] < 2:
        raise InvalidInputError("phi requires at least two samples")
    d = np.diff(arr, axis=0)
    num = float(np.einsum("lk,lk->", d, d)) * fs * fs
    den = float(np.einsum("lk,lk->", arr, arr))
    if den == 0.0:
        return 0.0
    return math.sqrt(num / den) / TWO_PI


def block_covariance(seg) -> np.ndarray:
    """Second-moment matrix X^T X / L (no mean subtraction); symmetric PSD."""
    arr = _as_segment(seg)
    return (arr.T @ arr) / arr.shape[0]


def spectral_complexity(eigvals) -> np.ndarray | float:
    """Omega from eigenvalues: exp(-sum lam_i * log lam_i) after normalizing
    to unit sum. Negative eigenvalues (numerical noise) are clamped to zero;
    zero total variance yields 1 by convention."""
    ev = np.maximum(np.asarray(eigvals, dtype=np.float64), 0.0)
    scalar = ev.ndim == 1
    if scalar:
        ev = ev[None, :]
    total = ev.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(total > 0.0, ev / np.where(total > 0.0, total, 1.0), 0.0)
        plogp = np.where(p > 0.0, p * np.log(p), 0.0)
    omega_vals = np.exp(-plogp.sum(axis=-1))
    omega_vals = np.where(total[..., 0] > 0.0, omega_vals, 1.0)
    return float(omega_vals[0]) if scalar else omega_vals


def omega(seg) -> float:
    """Spatial complexity of a segment, in [1, K]."""
    return float(spectral_complexity(np.linalg.eigvalsh(block_covariance(seg))))


class MLDTriple(NamedTuple):
    sigma: float
    phi: float
    omega: float


def mld_triple(seg, fs: float) -> MLDTriple:
    """All three descriptors of one segment."""
    return MLDTriple(sigma(seg), phi(seg, fs), omega(seg))


@dataclass(frozen=True)
class FeatureTensor:
    """(windows, features) matrix with one provenance string per column."""

    values: np.ndarray
    columns: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "columns", tuple(self.columns))
        if values.ndim != 2:
            raise InvalidInputError("feature values must be a 2-D matrix")
        if values.shape[1] != len(self.columns):
            raise InvalidInputError("one provenance string required per feature column")
        if len(set(self.columns)) != len(self.columns):
            raise InvalidInputError("feature column provenance must be unique")
        if not np.isfinite(values).all():
            raise InvalidInputError("feature values must be finite (no NaN/Inf)")

    @property
    def n_windows(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


DESCRIPTOR_NAMES = ("sigma", "phi", "omega")


def mld_column_name(block_id: int, descriptor: str) -> str:
    return f"b{block_id:03d}:{descriptor}"


def extract_mld_bfm(
    x: SignalMatrix, block_plan: BlockPlan, window_plan: WindowPlan
) -> FeatureTensor:
    """MLD-BFM feature tensor: W x (3 * n_blocks), columns grouped per block
    as [sigma, phi, omega] in block enumeration order.

    Omega's work (each grid's window Gram matrices ``v @ v'``, the K x K
    gather, ``eigvalsh`` and ``spectral_complexity``) runs on signal_core's
    process-wide pool as items of one grid and one window chunk each, with
    ``ceil(workers / grids)`` chunks per grid. Meanwhile the calling thread
    forms sigma and phi from the window sums, then waits on the items and
    re-raises an item's error. Each matrix comes from the same call on the
    same data whatever the chunking, so the features are bit-identical on
    any pool width."""
    require_finite(x)
    cm = channel_major(x.data)  # (C, S)
    L = window_plan.length
    n_b = block_plan.n_blocks
    K = block_plan.channels_per_block
    idx = np.stack(block_plan.blocks)  # (n_B, K)
    omega_vals = np.ones((window_plan.count, n_b))
    items = [] if K == 1 else _submit_omega(cm, block_plan, window_plan, idx, omega_vals)

    # The window sums stay on this thread: a tracer may wrap them, and its
    # single span stack cannot take spans opened on pool threads.
    sumsq = window_sumsq(cm.T, window_plan)
    diffsq = window_diff_sumsq(cm.T, window_plan)
    block_sumsq = sumsq[:, idx].sum(axis=-1)
    block_diffsq = diffsq[:, idx].sum(axis=-1)

    sig = np.sqrt(block_sumsq / (K * L))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(block_sumsq > 0.0, block_diffsq / np.where(block_sumsq > 0.0, block_sumsq, 1.0), 0.0)
    phi_vals = np.sqrt(ratio) * (x.fs / TWO_PI)

    wait(items)  # so a failed call leaves no item running behind it
    for item in items:
        item.result()  # re-raises an item's error
    values = np.empty((window_plan.count, 3 * n_b))
    values[:, 0::3] = sig
    values[:, 1::3] = phi_vals
    values[:, 2::3] = omega_vals
    columns = tuple(
        mld_column_name(b, d) for b in range(n_b) for d in DESCRIPTOR_NAMES
    )
    return FeatureTensor(values=values, columns=columns)


def _submit_omega(
    cm: np.ndarray, block_plan: BlockPlan, window_plan: WindowPlan, idx: np.ndarray, out: np.ndarray
) -> list[Future]:
    """Queue the omega items; each writes its own (window chunk, grid blocks) cells of ``out``."""
    workers, pool = _worker_pool()
    per_grid: dict[int, list[int]] = {}
    for b, gi in enumerate(block_plan.grid_index):
        per_grid.setdefault(gi, []).append(b)
    # more chunks per grid made large-B items too small to pay for themselves
    # on 2 cores, and filtfilt's cache-sized chunks were slower still
    n_chunks = -(-workers // len(per_grid))
    W, L = window_plan.count, window_plan.length
    bounds = sorted({W * k // n_chunks for k in range(n_chunks + 1)})
    items = []
    for gi, block_ids in per_grid.items():
        g = block_plan.grids[gi]
        rows = cm[g.channel_offset : g.channel_offset + g.n_channels]
        v = channel_windows(rows, window_plan, L).transpose(1, 0, 2)  # (W, G, L)
        local = idx[block_ids] - g.channel_offset  # (n_bg, K)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            items.append(pool.submit(_omega_chunk, v[lo:hi], local, block_ids, L, out[lo:hi]))
    return items


def _omega_chunk(v: np.ndarray, local: np.ndarray, block_ids: list[int], L: int, out: np.ndarray) -> None:
    """Omega of one grid's blocks over a chunk of windows ``v`` (w, G, L), into ``out``'s rows."""
    gram = v @ v.transpose(0, 2, 1)  # (w, G, G) = X^T X per window
    covs = gram[:, local[:, :, None], local[:, None, :]] / L  # (w, n_bg, K, K)
    out[:, block_ids] = spectral_complexity(np.linalg.eigvalsh(covs))
