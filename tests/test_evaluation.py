"""Metrics, pipeline-level behavior, sweeps, SFBS, and contribution maps."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emgdecode import (
    FeatureTensor,
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
    decode_features,
    group_columns_by_block,
    mae,
    pearson,
    plan_blocks,
    r2_pred,
    r2_vw,
    rmse,
    run_pipeline,
    run_sfbs,
    sfbs_select,
    sweep,
)
from emgdecode.evaluation import SFBSResult, ridge_scorer, _fit_eval
from emgdecode.signal_core import assemble_split, split_chunks


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
    return config, lambda: iter(small_tasks)


class TestSweep:

    def test_block_size_sweep_rows(self, sweep_setup):
        config, factory = sweep_setup
        table = sweep("block_size", config, factory, values=(1, 2, 3))
        assert [row[1] for row in table.rows] == [1, 2, 3]
        assert all(row[2] == "ok" for row in table.rows)

    def test_control_value_reproduces_baseline(self, sweep_setup):
        config, factory = sweep_setup
        baseline = run_pipeline(config, factory())
        table = sweep("block_size", config, factory, values=(2,))
        assert table.rows[0][3] == baseline.metrics.r2_vw

    def test_sweep_csv_deterministic(self, sweep_setup):
        config, factory = sweep_setup
        a = sweep("n_win", config, factory, values=(1, 2)).to_csv()
        b = sweep("n_win", config, factory, values=(1, 2)).to_csv()
        assert a == b
        assert a.startswith("param,value,status,r2_vw,rmse_vw,mae_vw,r_vw\n")

    def test_failed_cell_recorded_not_fatal(self, sweep_setup):
        config, factory = sweep_setup
        # a 9 s window cannot fit the 7 s cropped tasks -> that cell fails
        table = sweep("window", config, factory, values=(0.15, 9.0))
        assert table.rows[0][2] == "ok"
        assert table.rows[1][2].startswith("failed")


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
        from emgdecode import ConfigError

        with pytest.raises(ConfigError):
            RunConfig.from_dict({"block_sze": 3})
