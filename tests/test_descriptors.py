"""MLD descriptors: hand-computed values, invariances, and the SVD oracle."""

import math
import sys
import threading

import numpy as np
import pytest

from emgdecode import (
    GridLayout,
    InvalidInputError,
    SignalMatrix,
    block_covariance,
    default_grids,
    extract_mav_wl,
    extract_mld_bfm,
    extract_rms,
    mld_triple,
    omega,
    phi,
    plan_blocks,
    plan_windows,
    sigma,
    slice_segment,
    spectral_complexity,
)
from emgdecode import descriptors, signal_core
from emgdecode.blocks import channel_windows

from conftest import pool_of

FS = 2052.52


def omega_svd_oracle(seg):
    """Independent route: squared singular values of X / sqrt(L)."""
    seg = np.asarray(seg, dtype=float)
    s = np.linalg.svd(seg / math.sqrt(seg.shape[0]), compute_uv=False)
    lam = s**2
    lam = np.concatenate([lam, np.zeros(seg.shape[1] - lam.shape[0])])
    p = lam / lam.sum()
    p = p[p > 0]
    return float(np.exp(-(p * np.log(p)).sum()))


class TestSigma:
    def test_constant_segment(self):
        assert sigma(np.full((50, 4), -3.0)) == pytest.approx(3.0, abs=1e-12)

    def test_single_channel_is_windowed_rms(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(200)
        assert sigma(x[:, None]) == pytest.approx(np.sqrt(np.mean(x**2)), abs=1e-12)

    def test_hand_evaluated_example(self):
        assert sigma(np.array([[3.0, 4.0], [0.0, 0.0]])) == 2.5

    def test_equals_flattened_rms(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            seg = rng.standard_normal((rng.integers(1, 60), rng.integers(1, 9)))
            flat = np.sqrt(np.mean(seg.ravel() ** 2))
            assert abs(sigma(seg) - flat) <= 1e-12 * max(flat, 1.0)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        seg = rng.standard_normal((80, 4))
        for alpha in (-7.0, 0.5, 3.25):
            assert sigma(alpha * seg) == pytest.approx(abs(alpha) * sigma(seg), rel=1e-9)


class TestPhi:
    def test_pure_sinusoid_recovers_frequency(self):
        L = int(round(0.15 * FS))
        t = np.arange(L) / FS
        seg = np.sin(2 * np.pi * 50.0 * t)[:, None]
        assert phi(seg, FS) == pytest.approx(50.0, rel=0.01)

    def test_multichannel_sinusoid(self):
        L = int(round(0.15 * FS))
        t = np.arange(L) / FS
        seg = np.stack([np.sin(2 * np.pi * 50.0 * t + p) for p in (0.0, 0.9, 2.1)], axis=1)
        assert phi(seg, FS) == pytest.approx(50.0, rel=0.01)

    def test_zero_segment_convention(self):
        assert phi(np.zeros((100, 3)), FS) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        seg = rng.standard_normal((120, 5))
        assert phi(7.0 * seg, FS) == pytest.approx(phi(seg, FS), rel=1e-9)


class TestBlockCovariance:
    def test_identical_columns_rank_one(self):
        col = np.random.default_rng(5).standard_normal(60)
        seg = np.stack([col, col, col], axis=1)
        cov = block_covariance(seg)
        ev = np.linalg.eigvalsh(cov)
        assert ev[-1] > 1e-6
        assert np.abs(ev[:-1]).max() <= 1e-10 * ev[-1]

    def test_orthogonal_columns_unit_energy(self):
        L = 8
        seg = np.zeros((L, 3))
        seg[0, 0] = seg[1, 1] = seg[2, 2] = math.sqrt(L)
        assert np.allclose(block_covariance(seg), np.eye(3), atol=1e-12)

    def test_hand_example(self):
        cov = block_covariance(np.eye(2))
        assert np.allclose(cov, 0.5 * np.eye(2), atol=1e-15)

    def test_no_mean_subtraction(self):
        seg = np.full((10, 2), 2.0)
        assert np.allclose(block_covariance(seg), 4.0 * np.ones((2, 2)), atol=1e-12)


class TestEigvalsh:
    """The eigen route omega takes, in omega() and in the stacked extractor."""

    def test_matches_numpy_eigh(self):
        rng = np.random.default_rng(6)
        for k in (2, 3, 5, 8, 16):
            A = rng.standard_normal((k, k))
            sym = A @ A.T
            got = np.linalg.eigvalsh(sym)
            want = np.linalg.eigh(sym)[0]
            assert np.allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(7)
        mats = rng.standard_normal((10, 4, 4, 4))  # (W, n_blocks, K, K) like the extractor
        mats = mats @ mats.transpose(0, 1, 3, 2)
        batch = np.linalg.eigvalsh(mats)
        omegas = spectral_complexity(batch)
        assert omegas.shape == (10, 4)
        for w in range(10):
            for b in range(4):
                assert np.allclose(batch[w, b], np.linalg.eigvalsh(mats[w, b]), atol=1e-12)
                assert omegas[w, b] == pytest.approx(spectral_complexity(batch[w, b]), abs=1e-12)

    def test_zero_matrix(self):
        assert np.array_equal(np.linalg.eigvalsh(np.zeros((3, 3))), np.zeros(3))

    def test_diagonal_matrix(self):
        got = np.linalg.eigvalsh(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(got, np.array([1.0, 2.0, 3.0]))


class TestOmega:
    def test_perfectly_correlated_channels(self):
        col = np.random.default_rng(8).standard_normal(100)
        seg = np.stack([col, 2 * col, -0.5 * col, col], axis=1)
        assert omega(seg) == pytest.approx(1.0, abs=1e-9)

    def test_identity_covariance_gives_k(self):
        L = 4
        seg = math.sqrt(L) * np.eye(4)  # covariance = I_4
        assert omega(seg) == pytest.approx(4.0, abs=1e-12)

    def test_eigenvalue_pair_example(self):
        # scalar evaluation: eigenvalues (0.75, 0.25)
        expected = math.exp(0.75 * math.log(1 / 0.75) + 0.25 * math.log(1 / 0.25))
        got = spectral_complexity(np.array([0.75, 0.25]))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(1.7548, abs=5e-4)

    def test_zero_variance_convention(self):
        assert omega(np.zeros((20, 3))) == 1.0

    def test_bounds_on_random_segments(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            k = int(rng.integers(1, 9))
            seg = rng.standard_normal((int(rng.integers(2, 40)), k))
            val = omega(seg)
            assert 1.0 - 1e-9 <= val <= k + 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(10)
        seg = rng.standard_normal((50, 6))
        assert omega(3.7 * seg) == pytest.approx(omega(seg), rel=1e-9)

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(11)
        for k in (1, 2, 4, 8):
            for _ in range(50):
                seg = rng.standard_normal((int(rng.integers(k, 60)), k))
                assert omega(seg) == pytest.approx(omega_svd_oracle(seg), abs=1e-8)

    def test_channel_permutation_invariance(self):
        rng = np.random.default_rng(12)
        seg = rng.standard_normal((70, 5))
        perm = rng.permutation(5)
        trip_a = mld_triple(seg, FS)
        trip_b = mld_triple(seg[:, perm], FS)
        assert trip_a.sigma == pytest.approx(trip_b.sigma, rel=1e-12)
        assert trip_a.phi == pytest.approx(trip_b.phi, rel=1e-12)
        assert trip_a.omega == pytest.approx(trip_b.omega, rel=1e-9)


def coded_signal(n_samples=1200, seed=13):
    rng = np.random.default_rng(seed)
    grids = default_grids()
    return SignalMatrix(rng.standard_normal((n_samples, 128)), fs=FS, grids=grids)


class TestExtract:
    def test_b1_sigma_equals_rms_and_omega_one(self):
        x = coded_signal()
        wp = plan_windows(x.n_samples, 308, 103)
        bp = plan_blocks(x.grids, 1, 1)
        tensor = extract_mld_bfm(x, bp, wp)
        rms = extract_rms(x, wp)
        assert np.array_equal(tensor.values[:, 0::3], rms.values)  # bit-for-bit
        assert np.all(tensor.values[:, 2::3] == 1.0)

    def test_full_grid_blocks_feature_count(self):
        x = coded_signal(n_samples=700)
        wp = plan_windows(x.n_samples, 308, 103)
        tensor = extract_mld_bfm(x, plan_blocks(x.grids, 8, 1), wp)
        assert tensor.n_features == 6

    def test_default_config_feature_count(self):
        x = coded_signal(n_samples=700)
        wp = plan_windows(x.n_samples, 308, 103)
        tensor = extract_mld_bfm(x, plan_blocks(x.grids, 2, 1), wp)
        assert tensor.n_features == 294
        assert tensor.columns[:4] == ("b000:sigma", "b000:phi", "b000:omega", "b001:sigma")

    @pytest.mark.parametrize("block_size", [2, 4, 8])
    def test_cells_match_segmentwise_descriptors(self, block_size):
        x = coded_signal(n_samples=900, seed=14)
        wp = plan_windows(x.n_samples, 308, 103)
        bp = plan_blocks(x.grids, block_size, 2)
        tensor = extract_mld_bfm(x, bp, wp)
        rng = np.random.default_rng(15)
        for _ in range(12):
            w = int(rng.integers(0, wp.count))
            b = int(rng.integers(0, bp.n_blocks))
            seg = slice_segment(x, bp, wp, w, b)
            trip = mld_triple(seg, x.fs)
            assert tensor.values[w, 3 * b + 0] == pytest.approx(trip.sigma, rel=1e-10)
            assert tensor.values[w, 3 * b + 1] == pytest.approx(trip.phi, rel=1e-10)
            assert tensor.values[w, 3 * b + 2] == pytest.approx(trip.omega, rel=1e-8)

    def test_deterministic(self):
        x = coded_signal(n_samples=800, seed=16)
        wp = plan_windows(x.n_samples, 308, 103)
        bp = plan_blocks(x.grids, 3, 2)
        a = extract_mld_bfm(x, bp, wp)
        b = extract_mld_bfm(x, bp, wp)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("extractor", [1, 2, 4, "rms", "mav-wl"])
    def test_non_finite_sample_named(self, extractor):
        # an integer is the block size of an MLD-BFM extraction
        x = coded_signal(n_samples=700, seed=17)
        x.data[100, 5] = np.nan
        wp = plan_windows(x.n_samples, 308, 103)
        with pytest.raises(InvalidInputError, match=r"sample 100, channel 5 is not finite"):
            if extractor == "rms":
                extract_rms(x, wp)
            elif extractor == "mav-wl":
                extract_mav_wl(x, wp)
            else:
                extract_mld_bfm(x, plan_blocks(x.grids, extractor, 1), wp)

    def test_block_plan_for_other_grids_named(self):
        # more channels than the signal, the same channels in another layout,
        # and fewer: an IndexError, then silently wrong features before
        two_grid = coded_signal(n_samples=700)
        one_grid = one_grid_signal(n_samples=700, seed=18)
        wide = (GridLayout("EDC", 4, 16, 0), GridLayout("FDS", 4, 16, 64))
        for x, grids in ((one_grid, two_grid.grids), (two_grid, wide), (two_grid, one_grid.grids)):
            wp = plan_windows(x.n_samples, 308, 103)
            match = r"block plan \(B=2, step 1\) is for grids .* the signal has"
            with pytest.raises(InvalidInputError, match=match):
                extract_mld_bfm(x, plan_blocks(grids, 2, 1), wp)

    @pytest.mark.parametrize("extractor", [2, "rms", "mav-wl"])
    def test_window_plan_past_the_signal_named(self, extractor):
        # a plan made for twice the samples: numpy's shape error for MLD-BFM,
        # and 5 of 11 windows for RMS, before
        x = coded_signal(n_samples=1200, seed=19)
        wp = plan_windows(2 * x.n_samples, 308, 103)
        assert wp.count == 11
        match = r"window plan \(11 windows of 308 samples, stride 205\) ends at sample 2358, past the signal's 1200"
        with pytest.raises(InvalidInputError, match=match):
            if extractor == "rms":
                extract_rms(x, wp)
            elif extractor == "mav-wl":
                extract_mav_wl(x, wp)
            else:
                extract_mld_bfm(x, plan_blocks(x.grids, extractor, 1), wp)


def serial_omega(x, bp, wp):
    """Reference: omega of every window and block from one Gram product and
    one ``eigvalsh`` call per grid on this thread, as before pooling."""
    out = np.ones((wp.count, bp.n_blocks))
    if bp.channels_per_block == 1:
        return out
    idx = np.stack(bp.blocks)
    cm = np.ascontiguousarray(x.data.T)
    for gi, g in enumerate(bp.grids):
        block_ids = [b for b, i in enumerate(bp.grid_index) if i == gi]
        rows = cm[g.channel_offset : g.channel_offset + g.n_channels]
        v = channel_windows(rows, wp, wp.length).transpose(1, 0, 2)
        gram = v @ v.transpose(0, 2, 1)
        local = idx[block_ids] - g.channel_offset
        covs = gram[:, local[:, :, None], local[:, None, :]] / wp.length
        out[:, block_ids] = spectral_complexity(np.linalg.eigvalsh(covs))
    return out


def one_grid_signal(n_samples, seed):
    rng = np.random.default_rng(seed)
    return SignalMatrix(rng.standard_normal((n_samples, 64)), fs=FS, grids=(GridLayout("EDC", 8, 8, 0),))


class TestPooledExtract:
    @pytest.mark.parametrize("layout", ["one-grid", "two-grid"])
    @pytest.mark.parametrize("block_size", range(1, 9))
    def test_equal_on_every_pool_width(self, layout, block_size):
        # 1, 2, 3 and 5 windows: fewer, as many as and more than the workers
        make = one_grid_signal if layout == "one-grid" else coded_signal
        for n_windows in (1, 2, 3, 5):
            x = make(n_samples=308 + 205 * (n_windows - 1), seed=block_size + n_windows)
            wp = plan_windows(x.n_samples, 308, 103)
            assert wp.count == n_windows
            for step in (1, 2):
                bp = plan_blocks(x.grids, block_size, step)
                pooled = extract_mld_bfm(x, bp, wp).values
                assert np.array_equal(pooled[:, 2::3], serial_omega(x, bp, wp))
                for workers in (1, 3):
                    with pool_of(workers):
                        other = extract_mld_bfm(x, bp, wp).values
                    assert pooled.tobytes() == other.tobytes(), (n_windows, step, workers)

    @pytest.mark.parametrize("layout", ["one-grid", "two-grid"])
    def test_shared_call_equals_each_plan_alone(self, layout):
        make = one_grid_signal if layout == "one-grid" else coded_signal
        x = make(n_samples=308 + 205 * 4, seed=60)
        wp = plan_windows(x.n_samples, 308, 103)
        plans = [plan_blocks(x.grids, size, step) for size in range(1, 9) for step in (1, 2)]
        other = (GridLayout("EDC", 4, 16, 0),)  # a plan for other grids fails alone
        with pool_of(2):
            alone = [extract_mld_bfm(x, bp, wp) for bp in plans]
        for workers in (1, 3):
            with pool_of(workers):
                shared = descriptors._extract_plans(x, [*plans, plan_blocks(other, 2, 1)], wp)
            assert isinstance(shared[-1], InvalidInputError)
            for got, want in zip(shared[:-1], alone):
                assert got.columns == want.columns and got.values.tobytes() == want.values.tobytes()

    def test_concurrent_callers_get_the_serial_result(self):
        rng = np.random.default_rng(40)
        signals = [coded_signal(n_samples=int(rng.integers(308, 2000)), seed=41 + i) for i in range(6)]
        plans = [
            (plan_blocks(x.grids, 2 + i % 3, 1), plan_windows(x.n_samples, 308, 103))
            for i, x in enumerate(signals)
        ]
        with pool_of(1):
            expected = [extract_mld_bfm(x, bp, wp).values for x, (bp, wp) in zip(signals, plans)]
        results = [None] * len(signals)

        def run(i):
            results[i] = extract_mld_bfm(signals[i], *plans[i]).values

        interval = sys.getswitchinterval()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(signal_core, "_pool", None)  # callers also race to create the pool
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
            assert got is not None and got.tobytes() == want.tobytes()

    def test_item_error_reaches_caller_and_pool_keeps_working(self):
        x = coded_signal(n_samples=1500, seed=50)
        wp = plan_windows(x.n_samples, 308, 103)
        bp = plan_blocks(x.grids, 2, 1)

        def fail(*args):
            raise RuntimeError("omega item failed")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(descriptors, "_omega_chunk", fail)
            with pytest.raises(RuntimeError, match="omega item failed"):
                extract_mld_bfm(x, bp, wp)
        assert np.array_equal(extract_mld_bfm(x, bp, wp).values[:, 2::3], serial_omega(x, bp, wp))
