"""Metrics, pipeline-level behavior, sweeps, SFBS, and contribution maps."""

import csv
import io
import json
import os
import shutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emgdecode import (
    ConfigError,
    FeatureTensor,
    FilterSpec,
    GridLayout,
    InvalidInputError,
    InvalidSpecError,
    PipelineError,
    RunConfig,
    SynthConfig,
    Trajectory,
    generate_tasks,
    compute_metrics,
    contribution_map,
    crop,
    decode_features,
    design_butterworth,
    extract_mav_wl,
    extract_mld_bfm,
    extract_rms,
    filtfilt,
    group_columns_by_block,
    mae,
    pearson,
    plan_blocks,
    plan_windows_seconds,
    r2_pred,
    r2_vw,
    resample_targets,
    rmse,
    run_pipeline,
    run_sfbs,
    sfbs_select,
    sweep,
)
from emgdecode import evaluation
from emgdecode.config import SWEEP_FIELDS
from emgdecode.evaluation import SFBSResult, _decompose_stage, _featurize_plans, featurize
from emgdecode.io import save_dataset
from emgdecode.signal_core import assemble_split, split_chunks

from conftest import ridge_scorer


class TestMetrics:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((50, 3))
        rep = compute_metrics(Y, Y.copy())
        assert rep.r2_vw == pytest.approx(1.0, abs=1e-15)
        assert all(r == pytest.approx(1.0) for r in rep.r2)

    def test_mean_prediction_scores_zero(self):
        rng = np.random.default_rng(1)
        Y = rng.standard_normal((50, 2))
        Yhat = np.tile(Y.mean(axis=0), (50, 1))
        assert r2_vw(Y, Yhat) == pytest.approx(0.0, abs=1e-12)

    def test_variance_weighted_arithmetic(self):
        # D=2, Var=(1,3), R2=(1,0) -> 0.25
        n = 1000
        rng = np.random.default_rng(2)
        y0 = rng.standard_normal(n)
        y0 = (y0 - y0.mean()) / y0.std()  # exact unit variance
        y1 = rng.standard_normal(n)
        y1 = (y1 - y1.mean()) / y1.std() * np.sqrt(3.0)
        Y = np.stack([y0, y1], axis=1)
        Yhat = np.stack([y0, np.full(n, y1.mean())], axis=1)
        assert r2_vw(Y, Yhat) == pytest.approx(0.25, abs=1e-12)

    def test_constant_offset_errors(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(100)
        yhat = y + 3.0
        assert rmse(y, yhat) == pytest.approx(3.0, abs=1e-12)
        assert mae(y, yhat) == pytest.approx(3.0, abs=1e-12)
        assert pearson(y, yhat) == pytest.approx(1.0, abs=1e-12)

    def test_negated_prediction_pearson(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(100)
        assert pearson(y, -y) == pytest.approx(-1.0, abs=1e-12)

    def test_equal_variances_reduce_to_mean(self):
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((200, 3))
        Y = (Y - Y.mean(axis=0)) / Y.std(axis=0)
        Yhat = Y + rng.standard_normal((200, 3)) * 0.3
        rep = compute_metrics(Y, Yhat)
        assert rep.rmse_vw == pytest.approx(np.mean(rep.rmse), rel=1e-9)

    def test_single_output_vw_equals_r2(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal((80, 1))
        yhat = y + 0.1 * rng.standard_normal((80, 1))
        assert r2_vw(y, yhat) == pytest.approx(r2_pred(y[:, 0], yhat[:, 0]), rel=1e-12)

    def test_pearson_affine_invariance_rmse_shift(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal(60)
        yhat = y + 0.2 * rng.standard_normal(60)
        assert pearson(y, 2.5 * yhat + 4) == pytest.approx(pearson(y, yhat), rel=1e-12)
        assert rmse(y + 5, yhat + 5) == pytest.approx(rmse(y, yhat), rel=1e-12)

    def test_zero_variance_output_excluded_with_warning(self):
        Y = np.zeros((50, 2))
        Y[:, 1] = np.linspace(0, 1, 50)
        Yhat = Y.copy()
        with pytest.warns(UserWarning):
            score = r2_vw(Y, Yhat)
        assert score == pytest.approx(1.0)

    def test_zero_variance_pearson_missing(self):
        assert np.isnan(pearson(np.ones(10), np.arange(10.0)))


def tasks_from_targets(rng, n_tasks=4, rows=120, n_out=3, noise=0.0):
    """Per-task (features, targets) where features are the targets plus noise."""
    features, targets = [], []
    for _ in range(n_tasks):
        y = rng.standard_normal((rows, n_out)).cumsum(axis=0)
        x = y + noise * rng.standard_normal(y.shape)
        features.append(x)
        targets.append(y)
    return features, targets


class TestDecodeFeatures:
    def test_leakage_sanity_targets_as_features(self):
        rng = np.random.default_rng(8)
        features, targets = tasks_from_targets(rng)
        config = RunConfig(crop_s=None, seed=0)
        res = decode_features(config, features, targets)
        assert res.metrics.r2_vw >= 1.0 - 1e-6

    def test_deterministic_metrics(self):
        rng = np.random.default_rng(9)
        features, targets = tasks_from_targets(rng, noise=0.5)
        config = RunConfig(crop_s=None, seed=4)
        a = decode_features(config, features, targets)
        b = decode_features(config, features, targets)
        assert a.metrics.r2_vw == b.metrics.r2_vw
        assert np.array_equal(a.y_pred, b.y_pred)

    def test_swapping_halves_changes_metrics(self):
        rng = np.random.default_rng(10)
        features, targets = tasks_from_targets(rng, noise=0.8)
        config = RunConfig(crop_s=None, seed=0)
        normal = decode_features(config, features, targets)
        train_chunks, test_chunks = split_chunks(features, targets, 0.5)
        # rebuild per-task arrays with the halves exchanged
        swapped_feats = [np.concatenate([te[0], tr[0]]) for tr, te in zip(train_chunks, test_chunks)]
        swapped_targs = [np.concatenate([te[1], tr[1]]) for tr, te in zip(train_chunks, test_chunks)]
        swapped = decode_features(config, swapped_feats, swapped_targs)
        assert swapped.metrics.r2_vw != normal.metrics.r2_vw

    def test_n_win_sequences_run(self):
        rng = np.random.default_rng(11)
        features, targets = tasks_from_targets(rng, noise=0.3)
        config = RunConfig(crop_s=None, seed=1, n_win=3)
        res = decode_features(config, features, targets)
        assert res.metrics.r2_vw > 0.9
        # sequences shrink each chunk by n_win - 1
        assert res.manifest["stages"]["n_test_rows"] == 4 * (60 - 2)

    def test_cv_failure_reasons_in_manifest(self):
        rng = np.random.default_rng(13)
        features, targets = tasks_from_targets(rng, noise=0.4)
        # 240 training rows: each CV fold trains on 192, fewer than k = 500
        config = RunConfig(crop_s=None, seed=0, model="knn", grid={"k": [500, 5], "weights": ["uniform"]})
        stages = json.loads(json.dumps(decode_features(config, features, targets).manifest))["stages"]
        assert stages["hyperparams"]["k"] == 5
        failures = stages["cv_failures"]
        assert [(f["grid_index"], f["fold"]) for f in failures] == [(0, fold) for fold in range(5)]
        assert all("k=500" in f["reason"] for f in failures)

    @pytest.mark.parametrize("model", ["knn", "lasso", "mlp", "ridge"])
    def test_refit_convergence_in_manifest(self, model):
        rng = np.random.default_rng(14)
        features, targets = tasks_from_targets(rng, noise=0.4)
        res = decode_features(RunConfig(crop_s=None, seed=0, model=model), features, targets)
        stages = json.loads(json.dumps(res.manifest))["stages"]
        fitted = res.model.model
        assert stages["cv_failures"] == []
        # default grids: one solve per fold for ridge and KNN, one per point
        # and fold for Lasso (4 points) and the MLP (6), plus the refit
        assert stages["cv_fits"] == {"ridge": 6, "knn": 6, "lasso": 21, "mlp": 31}[model]
        if model == "lasso":
            assert stages["model_n_iter"] == list(fitted.n_iter) and len(fitted.n_iter) == 3
            assert stages["model_converged"] == list(fitted.converged)
        elif model == "mlp":
            assert stages["model_n_epochs"] == fitted.n_epochs
            assert stages["model_lr_drops"] == list(fitted.lr_drops)
            assert stages["model_converged"] is fitted.converged
            # the epoch cap (max_iter = 200) is the only other way training ends
            assert fitted.converged or fitted.n_epochs == 200
        else:
            assert not any(key.startswith("model_") for key in stages)


class TestPipeline:
    def test_manifest_captures_parameters(self, small_tasks, small_config):
        res = run_pipeline(small_config, iter(small_tasks))
        m = res.manifest
        assert m["config"]["feature"] == "mld-bfm"
        assert m["config"]["seed"] == 3
        assert m["stages"]["window_plan"]["length"] == 308
        assert m["stages"]["block_plan"]["n_blocks"] == 98
        assert m["stages"]["hyperparams"].keys() == {"alpha"}
        assert m["stages"]["postfilter_bypassed"] is True
        assert "wall_time_s" in m

    def test_pipeline_deterministic(self, small_tasks, small_config):
        a = run_pipeline(small_config, iter(small_tasks))
        b = run_pipeline(small_config, iter(small_tasks))
        assert a.metrics.r2_vw == b.metrics.r2_vw

    @pytest.mark.parametrize("n_win", [1, 3])
    def test_run_pipeline_ends_in_decode_features(self, small_tasks, small_config, n_win):
        config = small_config.replace(n_win=n_win)
        full = run_pipeline(config, small_tasks)
        features, targets, info = featurize(config, small_tasks)
        model_stage = decode_features(config, features, targets, info["labels"], info["pred_rate"])
        assert full.metrics.r2_vw == model_stage.metrics.r2_vw
        assert full.y_pred.tobytes() == model_stage.y_pred.tobytes()
        assert full.manifest["stages"]["hyperparams"] == model_stage.manifest["stages"]["hyperparams"]
        assert model_stage.manifest.keys() == {"config", "versions", "stages", "metrics"}
        for manifest in (full.manifest, model_stage.manifest):
            assert manifest["versions"].keys() == {"emgdecode", "numpy", "scipy", "filter_workers"}
            assert manifest["versions"]["filter_workers"] == len(os.sched_getaffinity(0))

    def test_window_count_of_every_task_recorded(self):
        short = generate_tasks(SynthConfig(seed=5, duration_s=2.0, tasks=((1,),)))[0]
        long = generate_tasks(SynthConfig(seed=5, duration_s=3.0, tasks=((2,),)))[0]
        config = RunConfig(crop_s=None, seed=0, block_step=3)
        counts = [plan_windows_seconds(x.n_samples, x.fs, 0.150, 0.050).count for x, _ in (short, long)]
        assert counts[0] < counts[1]
        assert featurize(config, [short, long])[2]["n_windows"] == counts
        assert run_pipeline(config, [short, long]).manifest["stages"]["n_windows"] == counts
        sfbs_manifest = run_sfbs(config, [short, long])[3]
        assert sfbs_manifest["stages"]["n_windows"] == counts
        assert sfbs_manifest["versions"]["filter_workers"] == len(os.sched_getaffinity(0))

    def test_stage_errors_are_tagged(self, small_tasks):
        from emgdecode import PipelineError

        bad = RunConfig(crop_s=(0.5, 100.0), seed=0)  # beyond task duration
        with pytest.raises(PipelineError) as err:
            run_pipeline(bad, iter(small_tasks))
        assert err.value.stage == "extract"


@pytest.fixture(scope="module")
def three_tasks():
    return generate_tasks(SynthConfig(seed=5, duration_s=2.0, tasks=((1,), (2,), (0, 1))))


def with_last_task_changed(tasks, field):
    x, traj = tasks[-1]
    if field == "fs":
        x = replace(x, fs=0.8 * x.fs)
    elif field == "grids":
        edc, fds = x.grids
        x = replace(x, grids=(replace(edc, channel_offset=64), replace(fds, channel_offset=0)))
    else:
        traj = Trajectory(traj.angles[:, ::-1], traj.fs_kin, traj.labels[::-1])
    return [*tasks[:-1], (x, traj)]


class TestCrossTaskChecks:
    @pytest.mark.parametrize("field", ["fs", "grids", "labels"])
    def test_task_unlike_task_0_named(self, three_tasks, field):
        tasks = with_last_task_changed(three_tasks, field)
        with pytest.raises(PipelineError, match=rf"task 2: {field} .* differs from task 0's"):
            run_pipeline(RunConfig(crop_s=(0.25, 1.75), seed=0), tasks)

    def test_non_finite_raw_sample_named(self, three_tasks):
        x, traj = three_tasks[2]
        data = x.data.copy()
        data[3000, 5] = np.nan
        tasks = [*three_tasks[:2], (replace(x, data=data), traj)]
        with pytest.raises(PipelineError, match=r"task 2: .*sample 3000, channel 5 is not finite"):
            run_pipeline(RunConfig(crop_s=(0.25, 1.75), seed=0), tasks)


@pytest.fixture(scope="module")
def sweep_setup(small_tasks):
    config = RunConfig(crop_s=(0.5, 7.5), seed=3)
    return config, small_tasks


class TestSweep:

    def test_block_size_sweep_rows(self, sweep_setup):
        config, tasks = sweep_setup
        table = sweep("block_size", config, tasks=tasks, values=(1, 2, 3))
        assert [row[1] for row in table.rows] == [1, 2, 3]
        assert all(row[2] == "ok" for row in table.rows)

    def test_control_value_reproduces_baseline(self, sweep_setup):
        config, tasks = sweep_setup
        baseline = run_pipeline(config, tasks)
        table = sweep("block_size", config, tasks=tasks, values=(2,))
        assert table.rows[0][3] == baseline.metrics.r2_vw

    def test_sweep_csv_deterministic(self, sweep_setup):
        config, tasks = sweep_setup
        a = sweep("n_win", config, tasks=tasks, values=(1, 2)).to_csv()
        b = sweep("n_win", config, tasks=iter(tasks), values=(1, 2)).to_csv()
        assert a == b
        assert a.startswith("param,value,status,r2_vw,rmse_vw,mae_vw,r_vw\n")

    def test_failed_cell_recorded_not_fatal(self, sweep_setup):
        config, tasks = sweep_setup
        # a 9 s window cannot fit the 7 s cropped tasks -> that cell fails
        table = sweep("window", config, tasks=tasks, values=(0.15, 9.0))
        assert table.rows[0][2] == "ok"
        assert table.rows[1][2].startswith("failed")

    def test_failed_status_with_commas_stays_one_field(self, three_tasks):
        # task 2's grid layout differs, and the error text quotes it with commas
        tasks = with_last_task_changed(three_tasks, "grids")
        table = sweep("block_size", RunConfig(crop_s=(0.25, 1.75), seed=0), tasks=tasks, values=(1, 2))
        rows = list(csv.reader(io.StringIO(table.to_csv())))
        assert rows[0] == list(table.header)
        assert all(len(row) == 7 for row in rows)
        for row, (_, value, status, *_) in zip(rows[1:], table.rows):
            assert "," in status and status.startswith("failed: ")
            assert row[1:3] == [str(value), status]

    def test_invalid_value_raises_before_any_cell(self, sweep_setup):
        config, _ = sweep_setup
        # an empty task list fails every cell that runs, so a raise means none ran
        with pytest.raises(ConfigError, match="RunConfig.block_size "):
            sweep("block_size", config, tasks=[], values=(2, 0))


# four short tasks, small enough to run every sweep cell twice
PASS_SYNTH = SynthConfig(seed=21, duration_s=3.0, tasks=((0,), (1,), (2,), (0, 1, 2, 3, 4)))
PASS_RUN = RunConfig(crop_s=(0.25, 2.75), seed=4, block_step=3)

# values per sweep param; block 9 exceeds the 8 x 8 grids and a 9 s window
# the 2.5 s crop, so those cells fail
PASS_SWEEPS = {
    "block_size": (1, 2, 9),
    "block_step": (1, 3),
    "window": (0.15, 0.3, 9.0),
    "n_win": (1, 3),
}


@pytest.fixture(scope="module")
def pass_tasks():
    return generate_tasks(PASS_SYNTH)


@pytest.fixture(scope="module")
def pass_dataset(pass_tasks, tmp_path_factory):
    return save_dataset(tmp_path_factory.mktemp("pass") / "ds", pass_tasks)


def per_cell_rows(param, config, tasks, values):
    """The sweep as one ``run_pipeline`` per cell, each reading ``tasks``
    afresh: the oracle of the shared featurize pass."""
    rows = []
    for value in values:
        try:
            m = run_pipeline(config.replace(**{SWEEP_FIELDS[param]: value}), tasks).metrics
            rows.append((param, value, "ok", m.r2_vw, m.rmse_vw, m.mae_vw, m.r_vw))
        except Exception as exc:
            rows.append((param, value, f"failed: {exc}", "", "", "", ""))
    return tuple(rows)


def direct_featurize(config, tasks):
    """One config's features and targets straight from the public filter,
    crop, window and extractor functions: an oracle that shares no code with
    ``featurize``'s pass."""
    features, targets = [], []
    for x, traj in tasks:
        bandpass = FilterSpec(kind="bandpass", order=config.band_order, band=config.band_hz)
        notch = FilterSpec(kind="notch", band=config.notch_hz, q=config.notch_q)
        x = filtfilt(x, design_butterworth(bandpass, x.fs), design_butterworth(notch, x.fs))
        x = crop(x, *config.crop_s)
        windows = plan_windows_seconds(x.n_samples, x.fs, config.window_s, config.overlap_s)
        if config.feature == "mld-bfm":
            blocks = plan_blocks(x.grids, config.block_size, config.block_step)
            features.append(extract_mld_bfm(x, blocks, windows))
        else:
            features.append((extract_rms if config.feature == "rms" else extract_mav_wl)(x, windows))
        targets.append(resample_targets(traj, windows, x.fs, t_offset=x.t0))
    return features, targets


def outcome_of(call):
    try:
        return call()
    except Exception as exc:
        return exc


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert not isinstance(got, Exception), got
    (got_f, got_t, got_info), (want_f, want_t, want_info) = got, want
    assert [(f.values.tobytes(), f.columns) for f in got_f] == [(f.values.tobytes(), f.columns) for f in want_f]
    assert [t.tobytes() for t in got_t] == [t.tobytes() for t in want_t]
    # "_block_plan" is the BlockPlan behind "block_plan"'s JSON form
    assert {k: v for k, v in got_info.items() if k != "_block_plan"} == {
        k: v for k, v in want_info.items() if k != "_block_plan"
    }


pass_plans = st.lists(
    st.builds(
        lambda feature, size, step, window: PASS_RUN.replace(
            feature=feature, block_size=size, block_step=step, window_s=window
        ),
        st.sampled_from(["mld-bfm", "mld-bfm", "rms", "mav-wl"]),
        st.integers(1, 9),
        st.integers(1, 4),
        st.sampled_from([0.1, 0.15, 0.3, 9.0]),
    ),
    min_size=1,
    max_size=4,
)


class TestSharedPass:
    @pytest.mark.parametrize("param", sorted(PASS_SWEEPS))
    def test_sweep_equals_per_cell_pipeline(self, pass_tasks, pass_dataset, param):
        values = PASS_SWEEPS[param]
        expected = per_cell_rows(param, PASS_RUN, pass_tasks, values)
        assert sweep(param, PASS_RUN, tasks=pass_tasks, values=values).rows == expected
        assert sweep(param, PASS_RUN, tasks=iter(pass_tasks), values=values).rows == expected
        on_disk = PASS_RUN.replace(dataset=str(pass_dataset))
        assert sweep(param, on_disk, values=values).rows == per_cell_rows(param, on_disk, None, values)
        failed = [row[2] for row in expected if row[2] != "ok"]
        assert len(failed) == (param in ("block_size", "window"))
        assert all(status.startswith("failed: [extract] ") for status in failed)

    def test_task_failure_fails_only_cells_still_running(self, pass_tasks):
        x, traj = pass_tasks[2]
        data = x.data.copy()
        data[100, 7] = np.inf
        tasks = [*pass_tasks[:2], (replace(x, data=data), traj), pass_tasks[3]]
        rows = sweep("block_size", PASS_RUN, tasks=iter(tasks), values=(2, 9)).rows
        assert rows == per_cell_rows("block_size", PASS_RUN, tasks, (2, 9))
        # the block error, met at task 0, wins over task 2's
        assert "task 2: " in rows[0][2] and "block size 9" in rows[1][2]

    def test_unreadable_file_fails_only_cells_still_running(self, pass_dataset, tmp_path):
        bad = tmp_path / "bad"
        shutil.copytree(pass_dataset, bad)
        (bad / "task_02.json").write_text("{")
        config = PASS_RUN.replace(dataset=str(bad))
        rows = sweep("block_size", config, values=(2, 9)).rows
        assert rows == per_cell_rows("block_size", config, None, (2, 9))
        assert "task_02.json" in rows[0][2] and "block size 9" in rows[1][2]

    def test_one_filter_call_per_task_and_one_read_per_sweep(self, pass_tasks, pass_dataset, monkeypatch):
        calls = {"filtfilt": 0, "iter_dataset": 0}

        def counted(name):
            fn = getattr(evaluation, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(evaluation, name, wrapper)

        counted("filtfilt")
        counted("iter_dataset")
        table = sweep("block_size", PASS_RUN.replace(dataset=str(pass_dataset)), values=(1, 2, 3))
        assert [row[2] for row in table.rows] == ["ok"] * 3
        assert calls == {"filtfilt": len(pass_tasks), "iter_dataset": 1}
        table = sweep("n_win", PASS_RUN, tasks=iter(pass_tasks), values=(1, 2))
        assert [row[2] for row in table.rows] == ["ok"] * 2
        assert calls == {"filtfilt": 2 * len(pass_tasks), "iter_dataset": 1}

    @settings(max_examples=15, deadline=None)
    @example(configs=[PASS_RUN.replace(block_size=9), PASS_RUN, PASS_RUN.replace(window_s=9.0), PASS_RUN])
    @given(configs=pass_plans)
    def test_each_plan_equals_featurize(self, pass_tasks, configs):
        tasks = pass_tasks[:2]
        outcomes = _featurize_plans(configs, iter(tasks))
        assert len(outcomes) == len(configs)
        for config, got in zip(configs, outcomes):
            assert_same_outcome(got, outcome_of(lambda: featurize(config, tasks)))
            if not isinstance(got, Exception):
                want = direct_featurize(config, tasks)
                assert [f.values.tobytes() for f in got[0]] == [f.values.tobytes() for f in want[0]]
                assert [t.tobytes() for t in got[1]] == [t.tobytes() for t in want[1]]


def planted_block_data(seed, n_blocks=10, rows=400, informative=4):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((rows, 3)).cumsum(axis=0)
    y = (y - y.mean(axis=0)) / y.std(axis=0)
    columns = []
    blocks = []
    for b in range(n_blocks):
        if b == informative:
            base = y @ rng.standard_normal((3, 3)) + 0.05 * rng.standard_normal((rows, 3))
        else:
            base = rng.standard_normal((rows, 3))
        blocks.append(base)
        columns.extend(f"b{b:03d}:{d}" for d in ("sigma", "phi", "omega"))
    values = np.concatenate(blocks, axis=1)
    return FeatureTensor(values, tuple(columns)), y


class TestSfbs:
    def test_planted_informative_block_selected_first(self):
        hits = 0
        for seed in range(10):
            tensor, y = planted_block_data(seed)
            groups = group_columns_by_block(tensor)
            half = y.shape[0] // 2
            result = sfbs_select(
                tensor.values[:half],
                y[:half],
                tensor.values[half:],
                y[half:],
                groups,
                alpha=1.0,
            )
            hits += result.order[0] == 4
        assert hits >= 9

    def test_scores_length_and_order_is_permutation(self):
        tensor, y = planted_block_data(3)
        groups = group_columns_by_block(tensor)
        half = y.shape[0] // 2
        result = sfbs_select(
            tensor.values[:half], y[:half], tensor.values[half:], y[half:], groups, alpha=1.0
        )
        assert len(result.scores) == 10
        assert sorted(result.order) == list(range(10))

    def test_first_step_score_is_best_single_block(self):
        tensor, y = planted_block_data(5)
        groups = group_columns_by_block(tensor)
        half = y.shape[0] // 2
        score = ridge_scorer(1.0)
        result = sfbs_select(
            tensor.values[:half], y[:half], tensor.values[half:], y[half:], groups, alpha=1.0
        )
        singles = [
            score(tensor.values[:half, cols], y[:half], tensor.values[half:, cols], y[half:])
            for cols in groups.values()
        ]
        assert result.scores[0] == pytest.approx(max(singles), abs=1e-12)

    def test_self_consistency_from_scratch(self):
        tensor, y = planted_block_data(6)
        groups = group_columns_by_block(tensor)
        half = y.shape[0] // 2
        score = ridge_scorer(1.0)
        result = sfbs_select(
            tensor.values[:half], y[:half], tensor.values[half:], y[half:], groups, alpha=1.0
        )
        for step in (1, 3, 10):
            cols = np.concatenate([groups[b] for b in result.order[:step]])
            fresh = score(tensor.values[:half, cols], y[:half], tensor.values[half:, cols], y[half:])
            assert abs(fresh - result.scores[step - 1]) <= 1e-10

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        widths=st.lists(st.integers(1, 4), min_size=1, max_size=6),
        n_train=st.integers(3, 24),
        n_test=st.integers(2, 12),
        n_out=st.integers(2, 4),
        alpha=st.sampled_from([1e-3, 0.5, 1.0, 10.0]),
        duplicate=st.booleans(),
        constant_output=st.booleans(),
    )
    @example(seed=1, widths=[4, 4, 4], n_train=5, n_test=6, n_out=3, alpha=1.0, duplicate=False, constant_output=False)
    @example(seed=2, widths=[1, 3, 2, 4], n_train=20, n_test=8, n_out=2, alpha=0.5, duplicate=False, constant_output=False)
    @example(seed=3, widths=[3, 2, 3], n_train=20, n_test=8, n_out=3, alpha=1.0, duplicate=True, constant_output=False)
    @example(seed=4, widths=[3, 3], n_train=20, n_test=8, n_out=3, alpha=1.0, duplicate=False, constant_output=True)
    # three train rows, alpha 1e-3 and scores near -300: a Gram solve alone is off by ~4e-10
    @example(seed=2_252_941_623, widths=[3, 1, 1, 3, 4, 4], n_train=3, n_test=2, n_out=2, alpha=1e-3, duplicate=False, constant_output=False)
    @pytest.mark.filterwarnings("ignore:zero-variance output")
    def test_gram_path_matches_from_scratch_greedy(
        self, seed, widths, n_train, n_test, n_out, alpha, duplicate, constant_output
    ):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n_train + n_test, sum(widths)))
        y = x[:, : widths[0]] @ rng.standard_normal((widths[0], n_out))
        y += 0.3 * rng.standard_normal(y.shape)
        bounds = np.cumsum([0, *widths])
        groups = {b: np.arange(bounds[b], bounds[b + 1]) for b in range(len(widths))}
        if duplicate:
            # a copy of block 0 ties with it wherever both are candidates
            x = np.hstack([x, x[:, groups[0]]])
            groups[len(widths)] = np.arange(bounds[-1], x.shape[1])
        if constant_output:
            y[n_train:, -1] = 0.0
        split = (x[:n_train], y[:n_train], x[n_train:], y[n_train:])
        result = sfbs_select(*split, groups, alpha=alpha)
        order, scores = greedy_from_scratch(*split, groups, ridge_scorer(alpha))
        assert result.order == order
        assert np.abs(np.array(result.scores) - scores).max() <= 1e-10
        if duplicate:
            assert result.order.index(0) < result.order.index(len(widths))

    @pytest.mark.parametrize("seed, alpha", [(0, 1.0), (1, 1.0), (2, 1e-2)])
    def test_long_run_matches_from_scratch_greedy(self, seed, alpha):
        # 32 blocks of widths 1-4 and a copy of block 3: state carried over
        # 33 steps must not drift from refits, and the copy ties with block 3
        rng = np.random.default_rng(seed)
        widths = rng.integers(1, 5, size=32)
        n_train, n_test = 60, 40
        x = rng.standard_normal((n_train + n_test, widths.sum()))
        bounds = np.cumsum([0, *widths])
        groups = {b: np.arange(bounds[b], bounds[b + 1]) for b in range(len(widths))}
        y = sum(x[:, groups[b]] @ rng.standard_normal((widths[b], 3)) for b in (3, 7, 20))
        y += 0.5 * rng.standard_normal(y.shape)
        x = np.hstack([x, x[:, groups[3]]])
        groups[len(widths)] = np.arange(bounds[-1], x.shape[1])
        split = (x[:n_train], y[:n_train], x[n_train:], y[n_train:])
        result = sfbs_select(*split, groups, alpha=alpha)
        order, scores = greedy_from_scratch(*split, groups, ridge_scorer(alpha))
        assert result.order == order
        assert np.abs(np.array(result.scores) - scores).max() <= 1e-10
        assert result.order.index(3) < result.order.index(len(widths))
        again = sfbs_select(*split, groups, alpha=alpha)
        assert again.order == result.order
        assert np.array_equal(np.array(again.scores), np.array(result.scores))

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
    def test_alpha_must_be_finite_and_positive(self, alpha):
        tensor, y = planted_block_data(0, n_blocks=3, rows=40)
        groups = group_columns_by_block(tensor)
        with pytest.raises(InvalidSpecError, match="alpha"):
            sfbs_select(tensor.values[:20], y[:20], tensor.values[20:], y[20:], groups, alpha=alpha)

    def test_run_sfbs_rejects_alpha_before_extracting(self):
        with pytest.raises(InvalidSpecError, match="alpha"):
            run_sfbs(RunConfig(), tasks=iter(()), alpha=-1.0)

    @pytest.mark.parametrize("defect", ["nan", "shared_columns", "constant_test_targets"])
    def test_bad_input_rejected_up_front(self, defect):
        tensor, y = planted_block_data(0, n_blocks=3, rows=40)
        groups = group_columns_by_block(tensor)
        x = tensor.values.copy()
        if defect == "nan":
            x[25, 4] = np.nan
        elif defect == "shared_columns":
            groups[1] = np.concatenate([groups[1], groups[0][:1]])
        else:
            y = y.copy()
            y[20:] = 1.0
        with pytest.raises(InvalidInputError):
            sfbs_select(x[:20], y[:20], x[20:], y[20:], groups)


def greedy_from_scratch(x_train, y_train, x_test, y_test, groups, score):
    """Reference SFBS: refit ``score`` on every candidate at every step;
    ties go to the first candidate in block-id order."""
    remaining, order, scores = list(groups), [], []
    cols = np.empty(0, dtype=np.intp)
    while remaining:
        trial = [np.concatenate([cols, groups[b]]) for b in remaining]
        fits = [score(x_train[:, c], y_train, x_test[:, c], y_test) for c in trial]
        best = int(np.argmax(fits))
        order.append(remaining.pop(best))
        cols = trial[best]
        scores.append(fits[best])
    return tuple(order), np.array(scores)


class TestContributionMap:
    def test_single_block_top_left(self):
        plan = plan_blocks([GridLayout("g", 8, 8, 0)], 2, 1)
        result = SFBSResult(order=(0,), scores=(0.8,), block_ids=(0,))
        maps = contribution_map(result, plan)
        grid = maps.maps[0]
        assert grid[0, 0] == grid[0, 1] == grid[1, 0] == grid[1, 1] == 1.0
        assert grid.sum() == 4.0
        assert maps.centroids[0] == (1.5, 1.5)

    def test_uniform_contribution_centroid(self):
        plan = plan_blocks([GridLayout("g", 8, 8, 0)], 1, 1)
        order = tuple(range(64))
        scores = tuple(0.01 * (i + 1) for i in range(64))  # equal +0.01 gains
        result = SFBSResult(order=order, scores=scores, block_ids=order)
        maps = contribution_map(result, plan)
        assert np.allclose(maps.maps[0], 1.0)
        assert maps.centroids[0][0] == pytest.approx(4.5)
        assert maps.centroids[0][1] == pytest.approx(4.5)

    def test_peak_normalized_to_one(self):
        plan = plan_blocks([GridLayout("a", 8, 8, 0), GridLayout("b", 8, 8, 64)], 2, 1)
        result = SFBSResult(order=(0, 55, 12), scores=(0.3, 0.7, 0.75), block_ids=(0, 55, 12))
        maps = contribution_map(result, plan)
        assert max(m.max() for m in maps.maps) == 1.0
        for m in maps.maps:
            assert m.min() >= 0.0

    def test_negative_increments_clamped(self):
        plan = plan_blocks([GridLayout("g", 8, 8, 0)], 2, 1)
        result = SFBSResult(order=(0, 1), scores=(0.8, 0.6), block_ids=(0, 1))
        maps = contribution_map(result, plan)
        assert maps.raw_gains == (0.8, 0.0)

    def test_all_zero_map_centroid_missing(self):
        plan = plan_blocks([GridLayout("a", 8, 8, 0), GridLayout("b", 8, 8, 64)], 2, 1)
        result = SFBSResult(order=(0,), scores=(0.5,), block_ids=(0,))
        maps = contribution_map(result, plan)
        assert maps.centroids[0] is not None
        assert maps.centroids[1] is None  # nothing selected on grid b


class TestDecompositionPipeline:
    def test_pca_feature_path(self, small_tasks, small_config):
        res = run_pipeline(small_config.replace(feature="pca"), iter(small_tasks))
        n_comp = res.manifest["stages"]["n_components"]
        assert 1 <= n_comp <= 19
        assert res.manifest["stages"]["n_features"] == n_comp
        assert res.metrics.r2_vw > 0.3

    def test_nmf_convergence_recorded_next_to_curve(self):
        rng = np.random.default_rng(31)
        columns = tuple(f"ch{c:03d}:rms" for c in range(10))
        features = [FeatureTensor(rng.uniform(0.1, 1.0, (40, 10)), columns) for _ in range(3)]
        targets = [rng.standard_normal((40, 5)) for _ in range(3)]
        _, stages = _decompose_stage(RunConfig(feature="nmf", seed=2), features, targets)
        n_iter, converged = stages["component_n_iter"], stages["component_converged"]
        assert len(n_iter) == len(converged) == len(stages["component_curve"]) == 10
        # a factorisation that did not converge ran to max_iter = 500
        assert all(1 <= n <= 500 and (done or n == 500) for n, done in zip(n_iter, converged))
        assert json.loads(json.dumps(stages))["component_converged"] == converged

    def test_pinned_component_count(self, small_tasks, small_config):
        res = run_pipeline(
            small_config.replace(feature="pca", n_components=4), iter(small_tasks)
        )
        assert res.manifest["stages"]["n_components"] == 4
        assert res.manifest["stages"]["n_features"] == 4

    def test_grid_override(self):
        rng = np.random.default_rng(12)
        features, targets = tasks_from_targets(rng, noise=0.4)
        config = RunConfig(crop_s=None, seed=2, grid={"alpha": [0.1]})
        res = decode_features(config, features, targets)
        assert res.manifest["stages"]["hyperparams"] == {"alpha": 0.1}

    def test_mav_wl_feature_path(self, small_tasks, small_config):
        res = run_pipeline(small_config.replace(feature="mav-wl"), iter(small_tasks))
        assert res.manifest["stages"]["n_features"] == 256
        assert res.metrics.r2_vw > 0.5


class TestConfigDefaults:
    def test_control_settings(self):
        cfg = RunConfig()
        assert cfg.block_size == 2
        assert cfg.block_step == 1
        assert cfg.window_s == 0.150
        assert cfg.overlap_s == 0.050
        assert cfg.split_ratio == 0.5
        assert cfg.n_win == 1
        assert cfg.crop_s == (4.0, 44.0)
        assert cfg.band_hz == (10.0, 500.0)
        assert cfg.notch_hz == 60.0 and cfg.notch_q == 30.0
        assert cfg.postfilter_hz == 5.0

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"block_sze": 3})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("window_s", -0.1),
            ("window_s", float("nan")),
            ("overlap_s", 0.15),
            ("overlap_s", 0.2),
            ("block_size", 0),
            ("block_step", 0),
            ("band_order", 0),
            ("notch_q", -1.0),
            ("seed", -1),
            ("n_win", 2.0),
            ("block_size", 2.0),
            ("block_size", True),
            ("split_ratio", 1.0),
            ("crop_s", (3.0, 1.0)),
            ("band_hz", (0.0, 500.0)),
            ("postfilter_hz", 0.0),
            ("n_components", 0),
        ],
    )
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(ConfigError) as info:
            RunConfig(**{field: value})
        assert f"RunConfig.{field} " in str(info.value)
        assert repr(value) in str(info.value)

    def test_numpy_integers_accepted(self):
        cfg = RunConfig(block_size=np.int64(3), block_step=np.int32(2), seed=np.uint8(4), n_win=np.int16(2))
        assert (cfg.block_size, cfg.block_step, cfg.seed, cfg.n_win) == (3, 2, 4, 2)
