"""Block planning, window planning, window reductions, and segment slicing."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emgdecode import (
    FilterSpec,
    GridLayout,
    InvalidRangeError,
    InvalidSpecError,
    SignalMatrix,
    default_grids,
    design_butterworth,
    extract_mav_wl,
    extract_mld_bfm,
    extract_rms,
    filtfilt,
    plan_blocks,
    plan_windows,
    plan_windows_seconds,
    slice_segment,
)
from emgdecode.blocks import (
    channel_major,
    window_abs_diff_sum,
    window_abs_sum,
    window_diff_sumsq,
    window_sumsq,
)


def brute_force_block_count(n_rows, n_cols, size, step):
    count = 0
    for r in range(0, n_rows):
        for c in range(0, n_cols):
            if r % step == 0 and c % step == 0 and r + size <= n_rows and c + size <= n_cols:
                count += 1
    return count


def brute_force_window_count(n_samples, length, overlap):
    count, start = 0, 0
    while start + length <= n_samples:
        count += 1
        start += length - overlap
    return count


class TestPlanBlocks:
    def test_single_grid_2x2_unit_step(self):
        plan = plan_blocks([GridLayout("g", 8, 8, 0)], 2, 1)
        assert plan.n_blocks == 49

    def test_full_grid_blocks(self):
        plan = plan_blocks(default_grids(), 8, 1)
        assert plan.n_blocks == 2
        assert set(plan.blocks[0].tolist()) == set(range(64))
        assert set(plan.blocks[1].tolist()) == set(range(64, 128))

    def test_3x3_step2(self):
        plan = plan_blocks([GridLayout("g", 8, 8, 0)], 3, 2)
        assert plan.n_blocks == 9

    def test_block_too_large_rejected(self):
        with pytest.raises(InvalidSpecError):
            plan_blocks([GridLayout("g", 8, 8, 0)], 9, 1)

    def test_counts_match_brute_force_exhaustively(self):
        grid = GridLayout("g", 8, 8, 0)
        for size in range(1, 9):
            for step in range(1, 7):
                plan = plan_blocks([grid], size, step)
                assert plan.n_blocks == brute_force_block_count(8, 8, size, step)

    def test_enumeration_order_row_major_grid_first(self):
        plan = plan_blocks(default_grids(), 2, 1)
        assert plan.origins[0] == (0, 0)
        assert plan.origins[1] == (0, 1)
        assert plan.origins[7] == (1, 0)
        assert plan.grid_index[:49] == (0,) * 49
        assert plan.grid_index[49:] == (1,) * 49

    def test_blocks_are_contiguous_rectangles(self):
        plan = plan_blocks(default_grids(), 3, 2)
        for blk, gi, (r0, c0) in zip(plan.blocks, plan.grid_index, plan.origins):
            g = plan.grids[gi]
            expected = [g.channel_index(r0 + dr, c0 + dc) for dr in range(3) for dc in range(3)]
            assert blk.tolist() == expected

    def test_channel_coverage_counts_at_unit_step(self):
        # channel (r, c) appears in exactly min(B, r+1, n_rows-r) * min(B, c+1, n_cols-c) blocks
        grid = GridLayout("g", 8, 8, 0)
        for size in (1, 2, 3, 5):
            plan = plan_blocks([grid], size, 1)
            counts = np.zeros(64, dtype=int)
            for blk in plan.blocks:
                counts[blk] += 1
            for ch in range(64):
                r, c = divmod(ch, 8)
                expected = min(size, r + 1, 8 - r) * min(size, c + 1, 8 - c)
                assert counts[ch] == expected

    def test_full_coverage_when_step_le_size(self):
        # full coverage needs step <= size AND the anchor sequence to reach
        # the far edge, i.e. step | (dim - size); e.g. size=4, step=3 leaves
        # the last row/col uncovered under the anchor-count formula
        grid = GridLayout("g", 8, 8, 0)
        for size, step in [(2, 1), (2, 2), (4, 4), (5, 3), (6, 2)]:
            assert step <= size and (8 - size) % step == 0
            plan = plan_blocks([grid], size, step)
            covered = set()
            for blk in plan.blocks:
                covered.update(blk.tolist())
            assert covered == set(range(64))
        partial = plan_blocks([grid], 4, 3)
        covered = set()
        for blk in partial.blocks:
            covered.update(blk.tolist())
        assert covered == {r * 8 + c for r in range(7) for c in range(7)}


class TestPlanWindows:
    def test_spec_example(self):
        plan = plan_windows(1000, 150, 50)
        assert plan.count == 9
        assert plan.starts.tolist() == list(range(0, 801, 100))

    def test_single_window_when_length_equals_samples(self):
        plan = plan_windows(500, 500, 0)
        assert plan.count == 1
        assert plan.starts.tolist() == [0]

    def test_overlap_equal_length_rejected(self):
        with pytest.raises(InvalidSpecError):
            plan_windows(1000, 150, 150)

    def test_length_exceeding_samples_rejected(self):
        with pytest.raises(InvalidSpecError):
            plan_windows(100, 150, 50)

    def test_counts_match_brute_force_protocol_geometry(self):
        for n_samples in range(308, 5001):
            plan = plan_windows(n_samples, 308, 103)
            assert plan.count == brute_force_window_count(n_samples, 308, 103)

    def test_short_signals_rejected_where_brute_force_finds_none(self):
        for n_samples in range(150, 308):
            assert brute_force_window_count(n_samples, 308, 103) == 0
            with pytest.raises(InvalidSpecError):
                plan_windows(n_samples, 308, 103)

    @settings(max_examples=200, deadline=None)
    @given(
        n_samples=st.integers(10, 4000),
        length=st.integers(1, 500),
        overlap_frac=st.floats(0.0, 0.99),
    )
    def test_counts_match_brute_force_random(self, n_samples, length, overlap_frac):
        if length > n_samples:
            return
        overlap = int(length * overlap_frac)
        plan = plan_windows(n_samples, length, overlap)
        assert plan.count == brute_force_window_count(n_samples, length, overlap)
        assert plan.starts[-1] + length <= n_samples

    def test_no_overlap_tiles_signal(self):
        plan = plan_windows(1000, 100, 0)
        assert np.array_equal(np.diff(plan.starts), np.full(9, 100))

    def test_seconds_conversion_rounds_to_nearest(self):
        plan = plan_windows_seconds(82100, 2052.52, 0.150, 0.050)
        assert plan.length == 308  # round(0.150 * 2052.52) = round(307.878)
        assert plan.overlap == 103  # round(0.050 * 2052.52) = round(102.626)
        assert plan.count == 399


class TestSliceSegment:
    def make_channel_coded_signal(self, n_samples=400):
        grids = default_grids()
        data = np.tile(np.arange(128.0), (n_samples, 1))
        return SignalMatrix(data=data, fs=1000.0, grids=grids)

    def test_columns_follow_block_channel_ids(self):
        x = self.make_channel_coded_signal()
        bp = plan_blocks(x.grids, 2, 1)
        wp = plan_windows(x.n_samples, 100, 0)
        seg = slice_segment(x, bp, wp, w=0, b=0)
        assert seg.shape == (100, 4)
        assert np.array_equal(seg[0], bp.blocks[0].astype(float))
        seg_fds = slice_segment(x, bp, wp, w=1, b=49)
        assert np.array_equal(seg_fds[0], bp.blocks[49].astype(float))

    def test_single_channel_block(self):
        x = self.make_channel_coded_signal()
        bp = plan_blocks(x.grids, 1, 1)
        wp = plan_windows(x.n_samples, 100, 0)
        seg = slice_segment(x, bp, wp, w=2, b=5)
        assert seg.shape == (100, 1)
        assert np.all(seg == 5.0)

    def test_last_window_fits(self):
        x = self.make_channel_coded_signal(n_samples=1000)
        bp = plan_blocks(x.grids, 2, 1)
        wp = plan_windows(1000, 150, 50)
        seg = slice_segment(x, bp, wp, w=wp.count - 1, b=0)
        assert seg.shape == (150, 4)
        assert wp.starts[-1] + wp.length <= x.n_samples

    def test_out_of_range_indices_rejected(self):
        x = self.make_channel_coded_signal()
        bp = plan_blocks(x.grids, 2, 1)
        wp = plan_windows(x.n_samples, 100, 0)
        with pytest.raises(InvalidRangeError):
            slice_segment(x, bp, wp, w=wp.count, b=0)
        with pytest.raises(InvalidRangeError):
            slice_segment(x, bp, wp, w=0, b=bp.n_blocks)


WINDOW_SUMS = (window_sumsq, window_abs_sum, window_diff_sumsq, window_abs_diff_sum)


def fsum_window_sums(values, plan):
    """Exactly rounded (``math.fsum``) reference for each ``WINDOW_SUMS``
    function: (W, C) sums of squares, absolute values, squared and absolute
    forward differences over each window's samples."""
    d = np.diff(values, axis=0)
    terms = {
        window_sumsq: (values * values, plan.length),
        window_abs_sum: (np.abs(values), plan.length),
        window_diff_sumsq: (d * d, plan.length - 1),
        window_abs_diff_sum: (np.abs(d), plan.length - 1),
    }
    out = {}
    for fn, (per_sample, length) in terms.items():
        out[fn] = np.array(
            [[math.fsum(per_sample[s : s + length, c].tolist()) for c in range(values.shape[1])]
             for s in plan.starts]
        )
    return out


@pytest.fixture(scope="module")
def filtered_signal():
    """45 s of band-passed and notched noise on a 2 x 4 grid: long enough
    that a cumulative-sum difference loses ~1e-12 of each window's sum."""
    fs = 2052.52
    rng = np.random.default_rng(17)
    x = SignalMatrix(3.0 * rng.standard_normal((int(45 * fs), 8)), fs, (GridLayout("g", 2, 4),))
    for spec in (FilterSpec("bandpass", 4, (10.0, 500.0)), FilterSpec("notch", band=60.0, q=30.0)):
        x = filtfilt(x, design_butterworth(spec, fs))
    return x


class TestWindowReductions:
    def test_match_fsum_on_filtered_signal(self, filtered_signal):
        x = filtered_signal
        plan = plan_windows_seconds(x.n_samples, x.fs, 0.150, 0.050)
        ref = fsum_window_sums(x.data, plan)
        for fn in WINDOW_SUMS:
            got = fn(x.data, plan)
            assert got.shape == (plan.count, x.n_channels)
            rel = np.abs(got - ref[fn]) / ref[fn]
            assert rel.max() <= 1e-14, fn.__name__

    def test_bit_equal_across_memory_layouts(self, filtered_signal):
        data = filtered_signal.data  # (S, C) view of a channel-major buffer
        a = np.ascontiguousarray(data)
        pad = np.ascontiguousarray(np.vstack([np.ones((5, 8)), a, np.ones((7, 8))]).T).T
        layouts = {
            "C-ordered": a,
            "F-ordered": np.asfortranarray(a),
            "time-reversed": np.ascontiguousarray(a[::-1])[::-1],
            "time-reversed channel-major": np.ascontiguousarray(a.T[:, ::-1])[:, ::-1].T,
            "cropped channel-major": pad[5 : 5 + a.shape[0]],
        }
        # channel-major rows are read in place, cropped or not
        assert np.shares_memory(channel_major(data), data)
        assert np.shares_memory(channel_major(layouts["cropped channel-major"]), pad)
        plan = plan_windows(a.shape[0], 308, 103)
        grids = filtered_signal.grids
        blocks = plan_blocks(grids, 2, 1)
        extractors = {
            **{fn.__name__: (lambda v, fn=fn: fn(v, plan)) for fn in WINDOW_SUMS},
            "extract_mld_bfm": lambda v: extract_mld_bfm(SignalMatrix(v, 2052.52, grids), blocks, plan).values,
            "extract_rms": lambda v: extract_rms(SignalMatrix(v, 2052.52, grids), plan).values,
            "extract_mav_wl": lambda v: extract_mav_wl(SignalMatrix(v, 2052.52, grids), plan).values,
        }
        assert all(np.array_equal(values, a) for values in layouts.values())
        for name, extract in extractors.items():
            expected = extract(a)
            for layout, values in layouts.items():
                assert np.array_equal(extract(values), expected), (name, layout)

    @settings(max_examples=150, deadline=None)
    @given(
        n_samples=st.integers(1, 300),
        length=st.integers(1, 60),
        overlap_frac=st.floats(0.0, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_samples=1, length=1, overlap_frac=0.0, seed=0)
    @example(n_samples=40, length=1, overlap_frac=0.0, seed=1)
    def test_match_fsum_for_any_window_geometry(self, n_samples, length, overlap_frac, seed):
        length = min(length, n_samples)
        plan = plan_windows(n_samples, length, int(length * overlap_frac))
        values = np.random.default_rng(seed).standard_normal((n_samples, 3))
        ref = fsum_window_sums(values, plan)
        for fn in WINDOW_SUMS:
            got = fn(values, plan)
            assert got.shape == (plan.count, 3)
            assert np.all(np.abs(got - ref[fn]) <= 1e-14 * np.abs(ref[fn])), fn.__name__
        if length == 1:
            # a one-sample window holds no forward difference
            assert not window_diff_sumsq(values, plan).any()
            assert not window_abs_diff_sum(values, plan).any()
