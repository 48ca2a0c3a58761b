"""Filtering, cropping, target resampling, and temporal splitting."""

import math
import multiprocessing
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emgdecode import (
    FilterSpec,
    GridLayout,
    InvalidInputError,
    InvalidRangeError,
    InvalidSpecError,
    OutOfRangeError,
    SignalMatrix,
    Trajectory,
    crop,
    default_grids,
    design_butterworth,
    filtfilt,
    frequency_response,
    resample_targets,
)
from emgdecode import signal_core
from emgdecode.blocks import plan_windows
from emgdecode.signal_core import apply_filtfilt, assemble_split, split_chunks

from conftest import pool_of

FS = 2052.52


def single_grid(n_channels=1, name="g"):
    return (GridLayout(name, 1, n_channels, 0),)


def make_signal(data, fs=FS):
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    return SignalMatrix(data=data, fs=fs, grids=single_grid(data.shape[1]))


CASCADE_FILTERS = {
    "bandpass": design_butterworth(FilterSpec("bandpass", 4, (10.0, 500.0)), FS),
    "bandpass2": design_butterworth(FilterSpec("bandpass", 2, (20.0, 450.0)), FS),
    "notch": design_butterworth(FilterSpec("notch", band=50.0, q=30.0), FS),
    "lowpass": design_butterworth(FilterSpec("lowpass", 4, 100.0), FS),
}


def _filter_in_child(x, coeffs, expected):
    if not np.array_equal(filtfilt(x, coeffs).data, expected):
        raise SystemExit(3)


class TestDesignButterworth:
    def test_bandpass_passband_gain(self):
        # oracle: evaluate |H| from the returned coefficients
        coeffs = design_butterworth(FilterSpec("bandpass", 4, (10.0, 500.0)), FS)
        mag = frequency_response(coeffs, [100.0], FS)[0]
        assert abs(mag - 1.0) <= 0.01

    def test_lowpass_cutoff_at_nyquist_rejected(self):
        with pytest.raises(InvalidSpecError):
            design_butterworth(FilterSpec("lowpass", 4, 5.0), fs=10.0)

    def test_notch_response(self):
        coeffs = design_butterworth(FilterSpec("notch", band=60.0, q=30.0), FS)
        at_60, at_50 = frequency_response(coeffs, [60.0, 50.0], FS)
        assert at_60 <= 0.01
        assert at_50 >= 0.9

    def test_bandpass_dc_gain_zero(self):
        coeffs = design_butterworth(FilterSpec("bandpass", 4, (10.0, 500.0)), FS)
        assert frequency_response(coeffs, [1e-9], FS)[0] <= 1e-6

    def test_bandpass_inverted_band_rejected(self):
        with pytest.raises(InvalidSpecError):
            design_butterworth(FilterSpec("bandpass", 4, (500.0, 10.0)), FS)


class TestFiltfilt:
    def test_inband_sinusoid_amplitude_and_zero_lag(self):
        coeffs = design_butterworth(FilterSpec("bandpass", 4, (10.0, 500.0)), FS)
        t = np.arange(int(4 * FS)) / FS
        x = np.sin(2 * np.pi * 100.0 * t)
        y = filtfilt(make_signal(x), coeffs).data[:, 0]
        core = slice(int(0.5 * FS), int(3.5 * FS))
        assert abs(y[core].max() - 1.0) <= 0.02
        # zero-phase oracle: cross-correlation of input and output peaks at lag 0
        lags = range(-5, 6)
        xc = [np.dot(y[core], np.roll(x, lag)[core]) for lag in lags]
        assert list(lags)[int(np.argmax(xc))] == 0

    def test_dc_offset_suppressed(self):
        coeffs = design_butterworth(FilterSpec("bandpass", 4, (10.0, 500.0)), FS)
        x = np.full(int(3 * FS), 5.0)
        y = filtfilt(make_signal(x), coeffs).data[:, 0]
        edge = int(0.5 * FS)
        assert np.abs(y[edge:-edge]).max() <= 0.01

    def test_zero_input_zero_output(self):
        coeffs = design_butterworth(FilterSpec("bandpass", 4, (10.0, 500.0)), FS)
        y = filtfilt(make_signal(np.zeros(1000)), coeffs).data
        assert np.all(y == 0.0)

    def test_too_short_signal_rejected(self):
        # raised by apply_filtfilt inside a pool worker; the pool keeps working
        coeffs = design_butterworth(FilterSpec("bandpass", 4, (10.0, 500.0)), FS)
        for n_channels in (1, 6):
            with pytest.raises(InvalidInputError):
                filtfilt(make_signal(np.ones((24, n_channels))), coeffs)  # needs > 3 * 8 poles
            assert filtfilt(make_signal(np.zeros((25, n_channels))), coeffs).data.shape == (25, n_channels)

    def test_no_filter_rejected(self):
        with pytest.raises(InvalidSpecError):
            filtfilt(make_signal(np.ones(100)))

    def test_channel_major_result_equals_axis0_filtering(self):
        # each channel is filtered along its own row; the result is stored
        # channel-major and equals filtering the (S, C) matrix along axis 0
        coeffs = design_butterworth(FilterSpec("bandpass", 4, (10.0, 500.0)), FS)
        raw = np.random.default_rng(3).standard_normal((3000, 5))
        y = filtfilt(make_signal(raw), coeffs)
        assert y.data.shape == (3000, 5)
        assert y.data.T.flags.c_contiguous
        assert np.array_equal(y.data, apply_filtfilt(coeffs, raw, axis=0))
        again = filtfilt(y, coeffs)
        assert np.array_equal(again.data, apply_filtfilt(coeffs, apply_filtfilt(coeffs, raw), axis=0))

    @settings(max_examples=40, deadline=None)
    @given(
        n_channels=st.integers(1, 130),
        extra=st.integers(1, 3000),
        layout=st.sampled_from(["C", "F", "cropped"]),
        kinds=st.lists(st.sampled_from(list(CASCADE_FILTERS)), min_size=1, max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pool_result_equals_serial_axis0_filtering(self, n_channels, extra, layout, kinds, seed):
        # lengths start just above the longest padlen of the cascade; the
        # real pool and a one-worker pool chunk the rows differently
        coeffs = [CASCADE_FILTERS[kind] for kind in kinds]
        n = 3 * max(c.n_poles for c in coeffs) + extra
        raw = np.random.default_rng(seed).standard_normal((n + 7, n_channels))
        if layout == "C":
            raw = raw[:n].copy()
        elif layout == "F":
            raw = np.asfortranarray(raw[:n])
        else:  # a crop of a channel-major buffer, as ``crop`` leaves it
            raw = np.asfortranarray(raw)[3 : n + 3]
        expected = raw
        for c in coeffs:
            expected = apply_filtfilt(c, expected, axis=0)
        pooled = filtfilt(make_signal(raw), *coeffs).data
        with pool_of(1):
            serial = filtfilt(make_signal(raw), *coeffs).data
        assert pooled.T.flags.c_contiguous and serial.T.flags.c_contiguous
        assert np.array_equal(pooled, expected)
        assert np.array_equal(serial, expected)

    def test_concurrent_callers_share_the_pool(self):
        # callers racing to create the pool and filling it at once each get
        # their own rows back
        coeffs = CASCADE_FILTERS["bandpass"]
        rng = np.random.default_rng(5)
        signals = [make_signal(rng.standard_normal((3000, 40))) for _ in range(6)]
        expected = [apply_filtfilt(coeffs, x.data, axis=0) for x in signals]
        results = [None] * len(signals)

        def run(i):
            results[i] = filtfilt(signals[i], coeffs).data

        interval = sys.getswitchinterval()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(signal_core, "_pool", None)
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=run, args=(i,)) for i in range(len(signals))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
            finally:
                sys.setswitchinterval(interval)
                if signal_core._pool is not None:
                    signal_core._pool[1].shutdown()
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
    )
    def test_forked_child_filters(self):
        # the parent's pool has live threads; a forked child must not reuse it
        coeffs = CASCADE_FILTERS["bandpass"]
        x = make_signal(np.random.default_rng(9).standard_normal((3000, 12)))
        expected = filtfilt(x, coeffs).data
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_filter_in_child, args=(x, coeffs, expected))
        child.start()
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("forked child hung in filtfilt")
        assert child.exitcode == 0

    def test_linearity(self):
        coeffs = design_butterworth(FilterSpec("bandpass", 4, (10.0, 500.0)), FS)
        rng = np.random.default_rng(42)
        x = rng.standard_normal(4000)
        y = rng.standard_normal(4000)
        a, b = 1.7, -0.3
        lhs = apply_filtfilt(coeffs, a * x + b * y)
        rhs = a * apply_filtfilt(coeffs, x) + b * apply_filtfilt(coeffs, y)
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())

    def test_lowpass_never_increases_energy(self):
        coeffs = design_butterworth(FilterSpec("lowpass", 4, 100.0), FS)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.standard_normal(3000)
            once = apply_filtfilt(coeffs, x)
            twice = apply_filtfilt(coeffs, once)
            assert np.sum(once**2) <= np.sum(x**2)
            assert np.sum(twice**2) <= np.sum(once**2)


class TestCrop:
    def test_sample_count_for_protocol_crop(self):
        # oracle: samples k with 4 <= k/fs < 44 are ceil(4*fs) .. ceil(44*fs)-1
        n = int(round(45 * FS))
        expected = math.ceil(44 * FS) - math.ceil(4 * FS)
        assert expected == 82100
        x = make_signal(np.zeros(n))
        out = crop(x, 4.0, 44.0)
        assert out.n_samples == expected
        assert out.t0 == pytest.approx(math.ceil(4 * FS) / FS)

    def test_full_range_is_identity(self):
        x = make_signal(np.arange(1000.0))
        out = crop(x, 0.0, x.duration)
        assert np.array_equal(out.data, x.data)

    def test_inverted_range_rejected(self):
        x = make_signal(np.zeros(1000))
        with pytest.raises(InvalidRangeError):
            crop(x, 10.0, 5.0)

    def test_crop_composes(self):
        # sample-aligned boundaries; fractional ones may differ by one sample
        # under any index rounding rule
        rng = np.random.default_rng(0)
        x = make_signal(rng.standard_normal(5000), fs=1000.0)
        a, b, c = 0.4, 2.0, 1.1
        once = crop(crop(x, a, b), 0.0, c)
        direct = crop(x, a, a + c)
        assert np.array_equal(once.data, direct.data)
        assert once.t0 == pytest.approx(direct.t0)

    def test_end_beyond_duration_rejected(self):
        x = make_signal(np.zeros(1000))
        with pytest.raises(InvalidRangeError):
            crop(x, 0.0, x.duration + 1.0)


class TestResampleTargets:
    def test_constant_angle(self):
        traj = Trajectory(np.full((4500, 5), 30.0), fs_kin=100.0)
        plan = plan_windows(82100, 308, 103)
        out = resample_targets(traj, plan, FS, t_offset=4.0)
        assert out.shape == (plan.count, 5)
        assert np.allclose(out, 30.0)

    def test_linear_ramp_interpolates_at_window_end(self):
        # ramp 0 -> 40 degrees over 40 s, sampled at 100 Hz
        t = np.arange(4001) / 100.0
        traj = Trajectory(np.tile(t[:, None], (1, 5)), fs_kin=100.0)
        fs = 1000.0
        plan = plan_windows(40000, 1000, 0)  # windows end at 1 s, 2 s, ...
        out = resample_targets(traj, plan, fs)
        idx = 19  # window ending at t = 20 s
        assert (plan.starts[idx] + plan.length) / fs == 20.0
        assert out[idx, 0] == pytest.approx(20.0, abs=1e-9)

    def test_window_count_rows(self):
        plan = plan_windows(1000, 150, 50)
        assert plan.count == 9
        traj = Trajectory(np.zeros((200, 5)), fs_kin=100.0)
        out = resample_targets(traj, plan, 1000.0)
        assert out.shape == (9, 5)

    def test_window_end_beyond_trajectory_rejected(self):
        traj = Trajectory(np.zeros((50, 5)), fs_kin=100.0)  # spans 0.49 s
        plan = plan_windows(1000, 600, 0)
        with pytest.raises(OutOfRangeError):
            resample_targets(traj, plan, 1000.0)


def split_then_assemble(features, targets, ratio, seed):
    train_chunks, test_chunks = split_chunks(features, targets, ratio)
    return assemble_split(train_chunks, test_chunks, seed)


class TestTemporalSplit:
    def test_contiguous_halves_and_order(self):
        feats = np.arange(100.0)[:, None]
        targs = np.arange(100.0)[:, None]
        res = split_then_assemble([feats], [targs], ratio=0.5, seed=0)
        assert sorted(res.x_train[:, 0]) == list(map(float, range(50)))
        assert list(res.x_test[:, 0]) == list(map(float, range(50, 100)))
        assert not np.array_equal(res.x_train[:, 0], np.arange(50.0))  # permuted

    def test_same_seed_same_permutation(self):
        feats = np.arange(100.0)[:, None]
        res1 = split_then_assemble([feats], [feats], 0.5, seed=9)
        res2 = split_then_assemble([feats], [feats], 0.5, seed=9)
        assert np.array_equal(res1.x_train, res2.x_train)
        assert np.array_equal(res1.y_train, res2.y_train)

    def test_eight_tasks_counts_and_test_order(self):
        rng = np.random.default_rng(4)
        feats = [rng.standard_normal((100, 3)) + 10 * i for i in range(8)]
        targs = [np.full((100, 2), float(i)) for i in range(8)]
        res = split_then_assemble(feats, targs, 0.5, seed=1)
        assert res.x_train.shape == (400, 3)
        assert res.x_test.shape == (400, 3)
        # test rows remain in task order
        assert list(res.y_test[:, 0]) == [float(i) for i in range(8) for _ in range(50)]
        assert res.test_chunk_sizes == (50,) * 8

    @pytest.mark.parametrize("rows,ratio", [(100, 0.5), (101, 0.5), (99, 0.25), (57, 0.8)])
    def test_split_sizes(self, rows, ratio):
        feats = np.zeros((rows, 2))
        res = split_then_assemble([feats], [feats], ratio, seed=0)
        n_train = int(math.floor(rows * ratio))
        assert res.x_train.shape[0] == n_train
        assert res.x_test.shape[0] == rows - n_train

    def test_misaligned_rows_rejected(self):
        with pytest.raises(Exception):
            split_then_assemble([np.zeros((10, 2))], [np.zeros((9, 1))], 0.5, seed=0)

    def test_bad_ratio_rejected(self):
        feats = np.zeros((10, 2))
        with pytest.raises(InvalidSpecError):
            split_then_assemble([feats], [feats], 1.0, seed=0)


class TestContainers:
    def test_grid_partition_enforced(self):
        with pytest.raises(InvalidSpecError):
            SignalMatrix(np.zeros((10, 5)), fs=100.0, grids=(GridLayout("a", 2, 2, 0),))

    def test_default_grids_cover_128(self):
        grids = default_grids()
        assert sum(g.n_channels for g in grids) == 128
        SignalMatrix(np.zeros((10, 128)), fs=100.0, grids=grids)

    def test_channel_index_row_major(self):
        g = GridLayout("FDS", 8, 8, 64)
        assert g.channel_index(0, 0) == 64
        assert g.channel_index(1, 0) == 72
        assert g.channel_index(7, 7) == 127

    def test_trajectory_unique_labels(self):
        with pytest.raises(InvalidInputError):
            Trajectory(np.zeros((10, 2)), 100.0, labels=("a", "a"))
