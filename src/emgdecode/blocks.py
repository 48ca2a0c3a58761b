"""Spatial block partitioning of electrode grids and temporal windowing.

Blocks are contiguous BxB rectangles placed with a fixed step inside each
grid; they never cross grid boundaries. Windows are L-sample segments with
overlap O, advancing by L - O.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidRangeError, InvalidSpecError
from .signal_core import GridLayout, SignalMatrix


@dataclass(frozen=True)
class BlockPlan:
    """Enumerated channel-index blocks: grid order, then row-major by the
    block's top-left corner. ``blocks[b]`` holds K = block_size**2 absolute
    channel indices in row-major order within the block rectangle."""

    block_size: int
    step: int
    blocks: tuple[np.ndarray, ...]
    grid_index: tuple[int, ...]
    origins: tuple[tuple[int, int], ...]
    grids: tuple[GridLayout, ...]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def channels_per_block(self) -> int:
        return self.block_size * self.block_size

    def to_jsonable(self) -> dict:
        return {
            "block_size": self.block_size,
            "step": self.step,
            "n_blocks": self.n_blocks,
            "blocks": [blk.tolist() for blk in self.blocks],
            "grid_index": list(self.grid_index),
            "origins": [list(o) for o in self.origins],
        }


def plan_blocks(grids: Sequence[GridLayout], block_size: int, step: int) -> BlockPlan:
    if step < 1:
        raise InvalidSpecError("block step must be >= 1")
    grids = tuple(grids)
    for g in grids:
        if block_size < 1 or block_size > min(g.n_rows, g.n_cols):
            raise InvalidSpecError(
                f"block size {block_size} does not fit grid {g.name!r} "
                f"({g.n_rows}x{g.n_cols})"
            )
    blocks: list[np.ndarray] = []
    grid_index: list[int] = []
    origins: list[tuple[int, int]] = []
    for gi, g in enumerate(grids):
        for r0 in range(0, g.n_rows - block_size + 1, step):
            for c0 in range(0, g.n_cols - block_size + 1, step):
                idx = np.array(
                    [
                        g.channel_index(r0 + dr, c0 + dc)
                        for dr in range(block_size)
                        for dc in range(block_size)
                    ],
                    dtype=np.intp,
                )
                blocks.append(idx)
                grid_index.append(gi)
                origins.append((r0, c0))
    return BlockPlan(
        block_size=block_size,
        step=step,
        blocks=tuple(blocks),
        grid_index=tuple(grid_index),
        origins=tuple(origins),
        grids=grids,
    )


@dataclass(frozen=True)
class WindowPlan:
    """Temporal segmentation: ``count`` windows of ``length`` samples whose
    starts advance by length - overlap."""

    length: int
    overlap: int
    count: int
    starts: np.ndarray

    @property
    def stride(self) -> int:
        return self.length - self.overlap

    def to_jsonable(self) -> dict:
        return {
            "length": self.length,
            "overlap": self.overlap,
            "count": self.count,
            "stride": self.stride,
        }


def plan_windows(n_samples: int, length: int, overlap: int) -> WindowPlan:
    if length < 1 or length > n_samples:
        raise InvalidSpecError(
            f"window length {length} must lie in [1, {n_samples}] samples"
        )
    if not (0 <= overlap < length):
        raise InvalidSpecError(f"overlap {overlap} must satisfy 0 <= O < L = {length}")
    stride = length - overlap
    count = (n_samples - length) // stride + 1
    starts = np.arange(count, dtype=np.intp) * stride
    return WindowPlan(length=length, overlap=overlap, count=count, starts=starts)


def plan_windows_seconds(
    n_samples: int, fs: float, window_s: float, overlap_s: float
) -> WindowPlan:
    """Windows configured in seconds; rounded to the nearest sample because
    the sampling rate is generally non-integer."""
    return plan_windows(n_samples, int(round(window_s * fs)), int(round(overlap_s * fs)))


def slice_segment(
    x: SignalMatrix, block_plan: BlockPlan, window_plan: WindowPlan, w: int, b: int
) -> np.ndarray:
    """The (L, K) segment of window ``w`` restricted to block ``b``'s channels."""
    if not (0 <= w < window_plan.count):
        raise InvalidRangeError(f"window index {w} out of range [0, {window_plan.count})")
    if not (0 <= b < block_plan.n_blocks):
        raise InvalidRangeError(f"block index {b} out of range [0, {block_plan.n_blocks})")
    t0 = int(window_plan.starts[w])
    return np.array(x.data[t0 : t0 + window_plan.length][:, block_plan.blocks[b]])


def channel_major(values: np.ndarray) -> np.ndarray:
    """(C, S) form of (S, C) ``values``: ``values.T`` when its rows run forward
    in contiguous memory (``filtfilt`` output, cropped or not), else a C-ordered
    copy, so window sums see one layout and never depend on the input's."""
    cm = np.asarray(values, dtype=np.float64).T
    return cm if cm.strides[1] == cm.itemsize else np.ascontiguousarray(cm)


def channel_windows(cm: np.ndarray, plan: WindowPlan, length: int) -> np.ndarray:
    """(C, W, length) strided view of the plan's windows of channel-major ``cm``."""
    return sliding_window_view(cm, length, axis=1)[:, :: plan.stride][:, : plan.count]


def window_sumsq(values: np.ndarray, plan: WindowPlan) -> np.ndarray:
    """(W, C) sum of squared samples per window and channel."""
    v = channel_windows(channel_major(values), plan, plan.length)
    return np.einsum("cwl,cwl->wc", v, v, order="C")


def window_abs_sum(values: np.ndarray, plan: WindowPlan) -> np.ndarray:
    """(W, C) sum of absolute samples per window and channel."""
    v = channel_windows(np.abs(channel_major(values)), plan, plan.length)
    return np.einsum("cwl->wc", v, order="C")


def window_diff_sumsq(values: np.ndarray, plan: WindowPlan) -> np.ndarray:
    """(W, C) sum of squared forward differences (L - 1 terms) per window."""
    v = channel_windows(np.diff(channel_major(values), axis=1), plan, plan.length - 1)
    return np.einsum("cwl,cwl->wc", v, v, order="C")


def window_abs_diff_sum(values: np.ndarray, plan: WindowPlan) -> np.ndarray:
    """(W, C) sum of absolute forward differences (waveform length)."""
    v = channel_windows(np.abs(np.diff(channel_major(values), axis=1)), plan, plan.length - 1)
    return np.einsum("cwl->wc", v, order="C")
