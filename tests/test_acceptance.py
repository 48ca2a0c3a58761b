"""Acceptance gate: one test per criterion, each printing a PASS line.

The full-scale criteria use the default seeded synthetic dataset
(8 tasks x 45 s, cropped to 4-44 s, default generator amplitudes).
"""

import math
import time

import numpy as np
import pytest

from emgdecode import (
    FeatureTensor,
    FilterSpec,
    GridLayout,
    InvalidSpecError,
    RunConfig,
    SynthConfig,
    apply_filtfilt,
    design_butterworth,
    extract_mld_bfm,
    extract_rms,
    fit_knn,
    fit_lasso,
    fit_ridge,
    group_columns_by_block,
    iter_tasks,
    phi,
    plan_blocks,
    plan_windows,
    run_pipeline,
    select_components,
    sfbs_select,
    sigma,
    spectral_complexity,
    sweep,
)
from emgdecode.blocks import plan_windows_seconds
from emgdecode.evaluation import ridge_scorer
from emgdecode.regression import _mlp_forward_backward, _mlp_init
from emgdecode.signal_core import apply_filtfilt as _ff  # noqa: F401

FS = 2052.52

# frozen after the first validated full-scale run (criterion 5):
# Ridge + MLD-BFM, default config, synth seed 0, run seed 0
GOLDEN_R2_VW = 0.9115419579912554

DEFAULT_SYNTH = SynthConfig(seed=0)
DEFAULT_RUN = RunConfig(seed=0)

# reduced dataset for the sensitivity harness (criterion 7): same generator,
# shorter tasks so the 33 sweep cells stay desk-scale
SWEEP_SYNTH = SynthConfig(seed=11, duration_s=8.0)
SWEEP_RUN = RunConfig(seed=11, crop_s=(0.5, 7.5))


def passline(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


@pytest.fixture(scope="module")
def sweep_tasks():
    return list(iter_tasks(SWEEP_SYNTH))


def test_acceptance_1_descriptor_oracle_suite():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    n_checked = 0
    for k in (1, 4, 9, 16):
        for _ in range(250):
            L = int(rng.integers(max(2, k), 80))
            seg = rng.standard_normal((L, k))
            # omega: the extractor's eigvalsh route vs SVD oracle
            cov = (seg.T @ seg) / L
            omega_eig = float(spectral_complexity(np.linalg.eigvalsh(cov)))
            svals = np.linalg.svd(seg / math.sqrt(L), compute_uv=False)
            lam = np.zeros(k)
            lam[: svals.shape[0]] = svals**2
            p = lam / lam.sum()
            p = p[p > 0]
            omega_svd = float(np.exp(-(p * np.log(p)).sum()))
            assert abs(omega_eig - omega_svd) <= 1e-8
            # sigma vs flattened RMS
            flat_rms = float(np.sqrt(np.mean(seg.ravel() ** 2)))
            assert abs(sigma(seg) - flat_rms) <= 1e-12 * max(1.0, flat_rms)
            # phi scale invariance
            base = phi(seg, FS)
            scaled = phi(37.5 * seg, FS)
            assert abs(scaled - base) <= 1e-9 * max(1.0, abs(base))
            n_checked += 1
    elapsed = time.perf_counter() - t0
    assert n_checked == 1000
    assert elapsed < 10.0
    passline(1, f"1000 segments, omega<=1e-8, sigma<=1e-12, phi scale-inv<=1e-9, {elapsed:.1f}s")


def test_acceptance_2_geometry_counts_exhaustive():
    grid = GridLayout("g", 8, 8, 0)
    for size in range(1, 9):
        for step in range(1, 7):
            anchors_r = [r for r in range(0, 8 - size + 1) if r % step == 0]
            anchors_c = [c for c in range(0, 8 - size + 1) if c % step == 0]
            expected = len(anchors_r) * len(anchors_c)
            assert plan_blocks([grid], size, step).n_blocks == expected
    length, overlap = 308, 103
    for n_samples in range(150, 5001):
        count, start = 0, 0
        while start + length <= n_samples:
            count += 1
            start += length - overlap
        if count == 0:
            with pytest.raises(InvalidSpecError):
                plan_windows(n_samples, length, overlap)
        else:
            assert plan_windows(n_samples, length, overlap).count == count
    passline(2, "block counts (B 1-8, e 1-6) and window counts (S 150-5000) match brute force")


def test_acceptance_3_b1_sigma_bitwise_equals_rms():
    n_compared = 0
    for x, _ in iter_tasks(DEFAULT_SYNTH):
        wp = plan_windows_seconds(x.n_samples, x.fs, 0.150, 0.050)
        mld = extract_mld_bfm(x, plan_blocks(x.grids, 1, 1), wp)
        rms = extract_rms(x, wp)
        assert np.array_equal(mld.values[:, 0::3], rms.values)
        n_compared += mld.n_windows * rms.n_features
    passline(3, f"B=1 sigma columns bit-for-bit equal to RMS over {n_compared} cells")


def test_acceptance_4_regressor_correctness():
    rng = np.random.default_rng(7)
    # ridge recovers a planted linear map
    X = rng.standard_normal((500, 8))
    W_true = rng.standard_normal((8, 3))
    model = fit_ridge(X, X @ W_true, alpha=1e-6)
    assert np.abs(model.weights - W_true).max() / np.abs(W_true).max() <= 1e-4
    # lasso matches the orthonormal-design soft-threshold formula
    M = rng.standard_normal((300, 8))
    M -= M.mean(axis=0)
    Q, _ = np.linalg.qr(M)
    Xo = Q[:, :8] * math.sqrt(300)
    Y = rng.standard_normal((300, 3))
    alpha = 0.2
    lasso = fit_lasso(Xo, Y, alpha=alpha, tol=1e-12)
    w_ls = (Xo.T @ Y) / 300
    expected = np.sign(w_ls) * np.maximum(np.abs(w_ls) - alpha, 0.0)
    assert np.abs(lasso.weights - expected).max() <= 1e-6
    # MLP analytic gradients vs central differences
    Xg = rng.standard_normal((5, 4))
    Yg = rng.standard_normal((5, 3))
    params = _mlp_init(4, 6, 3, rng)
    params["b1"] = params["b1"] + 0.3  # keep pre-activations off the ReLU kink
    _, grads = _mlp_forward_backward(params, Xg, Yg)
    eps = 1e-6
    for key in params:
        flat = params[key].ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up, _ = _mlp_forward_backward(params, Xg, Yg)
            flat[idx] = orig - eps
            dn, _ = _mlp_forward_backward(params, Xg, Yg)
            flat[idx] = orig
            numeric = (up - dn) / (2 * eps)
            analytic = grads[key].ravel()[idx]
            assert abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8) <= 1e-5
    # KNN k=1 self-reproduction
    Xk = rng.standard_normal((40, 5))
    Yk = rng.standard_normal((40, 2))
    knn = fit_knn(Xk, Yk, k=1, weights="distance")
    assert np.array_equal(knn.predict(Xk), Yk)
    passline(4, "ridge 1e-4, lasso soft-threshold 1e-6, MLP gradients 1e-5, KNN k=1 exact")


def test_acceptance_5_end_to_end_default_run():
    t0 = time.perf_counter()
    result = run_pipeline(DEFAULT_RUN, iter_tasks(DEFAULT_SYNTH))
    elapsed = time.perf_counter() - t0
    r2 = result.metrics.r2_vw
    assert elapsed < 300.0
    assert r2 >= 0.70
    if GOLDEN_R2_VW is not None:
        assert r2 == pytest.approx(GOLDEN_R2_VW, rel=1e-9)
    passline(5, f"default Ridge+MLD-BFM run: r2_vw={r2:.6f} in {elapsed:.0f}s (golden {GOLDEN_R2_VW})")


def test_acceptance_6_feature_ordering_across_seeds():
    for seed in (0, 1, 2):
        synth = SynthConfig(seed=seed)
        scores = {}
        for feature in ("mld-bfm", "rms", "nmf"):
            config = RunConfig(seed=seed, feature=feature)
            scores[feature] = run_pipeline(config, iter_tasks(synth)).metrics.r2_vw
        assert scores["mld-bfm"] >= scores["rms"] >= scores["nmf"], (seed, scores)
    passline(6, "r2_vw(MLD-BFM) >= r2_vw(RMS) >= r2_vw(NMF) for Ridge on seeds 0, 1, 2")


def test_acceptance_7_sensitivity_harness(sweep_tasks):
    factory = lambda: iter(sweep_tasks)  # noqa: E731
    baseline = run_pipeline(SWEEP_RUN, factory())
    tables = {
        "block_size": sweep("block_size", SWEEP_RUN, factory),
        "block_step": sweep("block_step", SWEEP_RUN, factory),
        "window": sweep("window", SWEEP_RUN, factory),
        "n_win": sweep("n_win", SWEEP_RUN, factory),
    }
    assert [r[1] for r in tables["block_size"].rows] == list(range(1, 9))
    assert [r[1] for r in tables["block_step"].rows] == list(range(1, 7))
    assert [r[1] for r in tables["window"].rows] == [round(0.1 + 0.05 * i, 3) for i in range(9)]
    assert [r[1] for r in tables["n_win"].rows] == list(range(1, 11))
    for name, table in tables.items():
        assert all(row[2] == "ok" for row in table.rows), name
    # control values reproduce the baseline run exactly
    assert tables["block_size"].rows[1][3] == baseline.metrics.r2_vw
    assert tables["block_step"].rows[0][3] == baseline.metrics.r2_vw
    assert tables["window"].rows[1][3] == baseline.metrics.r2_vw  # 0.150 s
    assert tables["n_win"].rows[0][3] == baseline.metrics.r2_vw
    # deterministic CSV bytes on a rerun
    again = sweep("block_step", SWEEP_RUN, factory)
    assert again.to_csv() == tables["block_step"].to_csv()
    passline(7, "block-size/step/window/n_win sweeps complete; control cells equal baseline; CSV deterministic")


def test_acceptance_8_sfbs_self_consistency_and_planted_block():
    # full-scale SFBS at B=2 on the default synthetic dataset
    from emgdecode.evaluation import run_sfbs

    result, maps, plan, _ = run_sfbs(DEFAULT_RUN, iter_tasks(DEFAULT_SYNTH))
    assert len(result.scores) == 98
    assert sorted(result.order) == list(range(98))
    # recompute a sample of steps from scratch on the first-n selected blocks
    cfg = DEFAULT_RUN.replace(feature="mld-bfm", n_win=1)
    from emgdecode.evaluation import featurize, _seed_for, _SEED_SPLIT
    from emgdecode.regression import ScalerPair
    from emgdecode.signal_core import assemble_split, split_chunks

    features, targets, _ = featurize(cfg, iter_tasks(DEFAULT_SYNTH))
    train_chunks, test_chunks = split_chunks(features, targets, cfg.split_ratio)
    split = assemble_split(train_chunks, test_chunks, _seed_for(cfg.seed, _SEED_SPLIT))
    scaler = ScalerPair.fit(split.x_train, split.y_train)
    x_train = scaler.transform_inputs(split.x_train)
    y_train = scaler.transform_outputs(split.y_train)
    x_test = scaler.transform_inputs(split.x_test)
    y_test = scaler.transform_outputs(split.y_test)
    groups = group_columns_by_block(features[0])
    score = ridge_scorer(1.0)
    for step in (1, 2, 5, 20, 98):
        cols = np.concatenate([groups[b] for b in result.order[:step]])
        fresh = score(x_train[:, cols], y_train, x_test[:, cols], y_test)
        assert abs(fresh - result.scores[step - 1]) <= 1e-10
    # a planted informative block is found first in >= 9/10 seeds
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((400, 3)).cumsum(axis=0)
        y = (y - y.mean(axis=0)) / y.std(axis=0)
        blocks = []
        columns = []
        informative = int(rng.integers(0, 12))
        for b in range(12):
            if b == informative:
                base = y @ rng.standard_normal((3, 3)) + 0.05 * rng.standard_normal((400, 3))
            else:
                base = rng.standard_normal((400, 3))
            blocks.append(base)
            columns.extend(f"b{b:03d}:{d}" for d in ("sigma", "phi", "omega"))
        tensor = FeatureTensor(np.concatenate(blocks, axis=1), tuple(columns))
        grp = group_columns_by_block(tensor)
        sel = sfbs_select(
            tensor.values[:200], y[:200], tensor.values[200:], y[200:], grp, alpha=1.0
        )
        hits += sel.order[0] == informative
    assert hits >= 9
    passline(8, f"incremental scores match from-scratch refits to 1e-10; planted block first in {hits}/10 seeds")


def test_acceptance_9_plateau_selection_rank3():
    rng = np.random.default_rng(31)
    basis = rng.standard_normal((3, 20))
    weights = rng.standard_normal((300, 3)) * np.array([10.0, 5.0, 2.0])
    data = FeatureTensor(
        weights @ basis, tuple(f"ch{c:03d}:rms" for c in range(20))
    )
    selection = select_components(data, "pca", seed=0)
    assert selection.n_components == 3
    assert selection.plateau_found
    import inspect

    assert inspect.signature(select_components).parameters["mse_threshold"].default == 1e-6
    passline(9, "rank-3 data -> N*=3 for PCA; default plateau threshold 1e-6")


def test_acceptance_10_notch_filter_quality():
    notch = design_butterworth(FilterSpec("notch", band=60.0, q=30.0), FS)
    t = np.arange(int(6 * FS)) / FS
    interferer = np.sin(2 * np.pi * 60.0 * t)
    out = apply_filtfilt(notch, interferer)
    core = slice(int(1.5 * FS), int(4.5 * FS))
    rms_in = np.sqrt(np.mean(interferer[core] ** 2))
    rms_out = np.sqrt(np.mean(out[core] ** 2))
    attenuation_db = 20.0 * math.log10(rms_out / rms_in)
    assert attenuation_db <= -40.0
    passband = np.sin(2 * np.pi * 100.0 * t)
    out100 = apply_filtfilt(notch, passband)
    loss_db = -20.0 * math.log10(
        np.sqrt(np.mean(out100[core] ** 2)) / np.sqrt(np.mean(passband[core] ** 2))
    )
    assert loss_db <= 0.2
    # zero-phase: cross-correlation of in-band input and output peaks at lag 0
    lags = range(-5, 6)
    xc = [float(np.dot(out100[core], np.roll(passband, lag)[core])) for lag in lags]
    assert list(lags)[int(np.argmax(xc))] == 0
    passline(
        10,
        f"notch: {attenuation_db:.1f} dB at 60 Hz, {loss_db:.3f} dB loss at 100 Hz, zero lag",
    )
