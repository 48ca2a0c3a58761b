"""End-to-end decoding pipeline, single-parameter sensitivity sweeps,
sequential forward block selection, and channel contribution maps."""

from __future__ import annotations

import io as _io
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .baselines import extract_mav_wl, extract_rms, fit_nmf, fit_pca, select_components, transform
from .blocks import BlockPlan, plan_blocks, plan_windows_seconds
from .config import SWEEP_FIELDS, SWEEP_RANGES, RunConfig
from .descriptors import FeatureTensor, extract_mld_bfm
from .errors import AlignmentError, InvalidInputError, InvalidSpecError, PipelineError
from .io import iter_dataset
from .metrics import MetricsReport, compute_metrics, r2_vw
from .regression import (
    FittedRegressor,
    RegressorSpec,
    ScalerPair,
    SequencePlan,
    build_sequences,
    fit_regressor,
    grid_search_cv,
    postprocess,
    reconstruct_series,
)
from .signal_core import (
    FilterSpec,
    assemble_split,
    crop,
    design_butterworth,
    filtfilt,
    require_finite,
    resample_targets,
    split_chunks,
)


def _seed_for(config_seed: int, purpose: int) -> int:
    return int(np.random.SeedSequence(config_seed, spawn_key=(purpose,)).generate_state(1)[0])


_SEED_SPLIT, _SEED_MODEL, _SEED_DECOMP = 0, 1, 2


@dataclass(frozen=True)
class PipelineResult:
    metrics: MetricsReport
    manifest: dict
    model: FittedRegressor
    y_true: np.ndarray
    y_pred: np.ndarray


def featurize(
    config: RunConfig, tasks: Iterable | None = None
) -> tuple[list[FeatureTensor], list[np.ndarray], dict]:
    """Filter, crop, window, and featurize every task; resample its targets
    at the window end times.

    ``tasks`` is an iterable of (SignalMatrix, Trajectory), consumed lazily;
    when omitted the dataset directory named in the config is read. The
    filters and the block plan are designed from task 0, so every task must
    share task 0's ``fs``, grids and trajectory labels; a task that does not,
    or whose raw signal holds a non-finite value, raises an error naming it.
    ``info`` records task 0's window plan, block plan, ``pred_rate`` and
    labels, and the number of tasks.
    """
    if tasks is None:
        if config.dataset is None:
            raise PipelineError("load", "no tasks given and config.dataset is not set")
        tasks = iter_dataset(config.dataset)
    features: list[FeatureTensor] = []
    targets: list[np.ndarray] = []
    info: dict = {}
    for i, (x, traj) in enumerate(tasks):
        layout = {"fs": x.fs, "grids": x.grids, "labels": traj.labels}
        if i == 0:
            first = layout
            specs = [FilterSpec(kind="bandpass", order=config.band_order, band=config.band_hz)]
            if config.notch_hz is not None:
                specs.append(FilterSpec(kind="notch", band=config.notch_hz, q=config.notch_q))
            filters = [design_butterworth(spec, x.fs) for spec in specs]
            if config.feature == "mld-bfm":
                block_plan = plan_blocks(x.grids, config.block_size, config.block_step)
                info["block_plan"] = block_plan.to_jsonable()
                info["_block_plan"] = block_plan
        try:
            require_finite(x)
        except InvalidInputError as exc:
            raise InvalidInputError(f"task {i}: {exc}") from exc
        for field, value in layout.items():
            if value != first[field]:
                raise AlignmentError(f"task {i}: {field} {value!r} differs from task 0's {first[field]!r}")
        for coeffs in filters:
            x = filtfilt(x, coeffs)
        if config.crop_s is not None:
            x = crop(x, config.crop_s[0], config.crop_s[1])
        window_plan = plan_windows_seconds(x.n_samples, x.fs, config.window_s, config.overlap_s)
        if config.feature == "mld-bfm":
            tensor = extract_mld_bfm(x, block_plan, window_plan)
        elif config.feature == "mav-wl":
            tensor = extract_mav_wl(x, window_plan)
        else:
            # rms directly, and the raw input for pca/nmf
            tensor = extract_rms(x, window_plan)
        features.append(tensor)
        targets.append(resample_targets(traj, window_plan, x.fs, t_offset=x.t0))
        info.setdefault("window_plan", window_plan.to_jsonable())
        info.setdefault("pred_rate", x.fs / window_plan.stride)
        info.setdefault("labels", traj.labels)
    if not features:
        raise InvalidInputError("dataset contains no tasks")
    info["n_tasks"] = len(features)
    return features, targets, info


def _decompose_stage(
    config: RunConfig, features: list[FeatureTensor], targets: list[np.ndarray]
) -> tuple[list[FeatureTensor], dict]:
    """Fit PCA/NMF on the training half of the RMS features only, then
    project every task; component count from the plateau rule unless pinned."""
    train_chunks, _ = split_chunks(features, targets, config.split_ratio)
    rms_train = np.concatenate([c[0] for c in train_chunks], axis=0)
    decomp_seed = _seed_for(config.seed, _SEED_DECOMP)
    info: dict = {}
    if config.n_components is None:
        selection = select_components(rms_train, config.feature, seed=decomp_seed)
        n_comp = selection.n_components
        info["component_curve"] = list(selection.curve)
        info["plateau_found"] = selection.plateau_found
    else:
        n_comp = config.n_components
    info["n_components"] = n_comp
    if config.feature == "pca":
        model = fit_pca(rms_train, n_comp)
    else:
        model = fit_nmf(rms_train, n_comp, seed=decomp_seed)
    projected = [transform(model, tensor) for tensor in features]
    return projected, info


def _fit_eval(
    config: RunConfig,
    features: Sequence,
    targets: Sequence,
    labels: Sequence[str],
    pred_rate: float,
):
    """Split, sequence, scale, grid-search fit, predict, reconstruct,
    post-filter, and score. Features/targets are per-task row arrays."""
    train_chunks, test_chunks = split_chunks(features, targets, config.split_ratio)
    n_feat = train_chunks[0][0].shape[1]
    n_out = train_chunks[0][1].shape[1]
    seq_plan = SequencePlan(n_win=config.n_win, n_feat=n_feat, n_out=n_out)
    if config.n_win > 1:
        train_chunks = [build_sequences(x, y, seq_plan) for x, y in train_chunks]
        test_chunks = [build_sequences(x, y, seq_plan) for x, y in test_chunks]
    split = assemble_split(train_chunks, test_chunks, _seed_for(config.seed, _SEED_SPLIT))

    scaler = ScalerPair.fit(split.x_train, split.y_train)
    x_train = scaler.transform_inputs(split.x_train)
    y_train = scaler.transform_outputs(split.y_train)
    x_test = scaler.transform_inputs(split.x_test)

    spec = RegressorSpec(kind=config.model, grid=config.grid, seed=_seed_for(config.seed, _SEED_MODEL))
    fitted = grid_search_cv(spec, x_train, y_train)

    pred_scaled = fitted.predict(x_test)
    pred = scaler.inverse_outputs(pred_scaled)

    # reconstruct + post-filter per contiguous task chunk
    y_true_parts, y_pred_parts = [], []
    bypassed = True
    offset = 0
    for size, (_, y_chunk) in zip(split.test_chunk_sizes, test_chunks):
        chunk_pred = reconstruct_series(pred[offset : offset + size], seq_plan)
        chunk_true = reconstruct_series(y_chunk, seq_plan)
        chunk_pred, bypassed = postprocess(chunk_pred, pred_rate, cutoff_hz=config.postfilter_hz)
        y_true_parts.append(chunk_true)
        y_pred_parts.append(chunk_pred)
        offset += size
    y_true = np.concatenate(y_true_parts, axis=0)
    y_pred = np.concatenate(y_pred_parts, axis=0)
    report = compute_metrics(y_true, y_pred, labels)
    extra = {
        "hyperparams": fitted.hyperparams,
        "cv_mean_scores": list(fitted.mean_scores),
        "n_train_rows": int(split.x_train.shape[0]),
        "n_test_rows": int(split.x_test.shape[0]),
        "n_features": int(n_feat * config.n_win),
        "postfilter_bypassed": bypassed,
    }
    return report, fitted, y_true, y_pred, extra


def decode_features(
    config: RunConfig,
    features: Sequence,
    targets: Sequence,
    labels: Sequence[str] = None,
    pred_rate: float = 10.0,
) -> PipelineResult:
    """Run the modeling half of the pipeline on pre-extracted per-task
    features (useful for oracle checks that bypass signal processing)."""
    if labels is None:
        n_out = np.asarray(getattr(targets[0], "values", targets[0])).shape[1]
        labels = tuple(f"out{d}" for d in range(n_out))
    report, fitted, y_true, y_pred, extra = _fit_eval(config, features, targets, labels, pred_rate)
    manifest = {"config": config.to_dict(), "stages": extra}
    return PipelineResult(metrics=report, manifest=manifest, model=fitted, y_true=y_true, y_pred=y_pred)


def run_pipeline(config: RunConfig, tasks: Iterable | None = None) -> PipelineResult:
    """Full decode: filter, crop, featurize, resample targets, split,
    sequence, scale, grid-search fit, predict, reconstruct, post-filter,
    and score. Emits a manifest capturing every parameter of the run.

    ``tasks`` is an iterable of (SignalMatrix, Trajectory); when omitted the
    dataset directory named in the config is loaded lazily.
    """
    t_start = time.perf_counter()
    try:
        features, targets, info = featurize(config, tasks)
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError("extract", str(exc)) from exc

    decomp_info: dict = {}
    if config.feature in ("pca", "nmf"):
        try:
            features, decomp_info = _decompose_stage(config, features, targets)
        except Exception as exc:
            raise PipelineError("decompose", str(exc)) from exc

    try:
        report, fitted, y_true, y_pred, extra = _fit_eval(
            config, features, targets, info["labels"], info["pred_rate"]
        )
    except Exception as exc:
        raise PipelineError("model", str(exc)) from exc

    manifest = {
        "config": config.to_dict(),
        "versions": _versions(),
        "stages": {
            "window_plan": info.get("window_plan"),
            "block_plan": info.get("block_plan"),
            "n_tasks": info["n_tasks"],
            "pred_rate": info["pred_rate"],
            **decomp_info,
            **extra,
        },
        "metrics": report.to_dict(),
        "wall_time_s": time.perf_counter() - t_start,
    }
    return PipelineResult(metrics=report, manifest=manifest, model=fitted, y_true=y_true, y_pred=y_pred)


def _versions() -> dict:
    import numpy
    import scipy

    from . import __version__

    return {"emgdecode": __version__, "numpy": numpy.__version__, "scipy": scipy.__version__}


# ---------------------------------------------------------------------------
# sensitivity sweeps


@dataclass(frozen=True)
class SweepTable:
    param: str
    header: tuple[str, ...]
    rows: tuple[tuple, ...]

    def to_csv(self) -> str:
        buf = _io.StringIO()
        buf.write(",".join(self.header) + "\n")
        for row in self.rows:
            buf.write(",".join(_csv_cell(v) for v in row) + "\n")
        return buf.getvalue()


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def sweep(
    param: str,
    config: RunConfig,
    tasks_factory: Callable[[], Iterable] | None = None,
    values: Sequence | None = None,
) -> SweepTable:
    """One pipeline run per value of a single parameter, everything else
    fixed at the control settings. A failing cell is recorded, not fatal.

    ``tasks_factory`` supplies a fresh task iterable per cell; when omitted
    the config's dataset directory is re-read for each cell.
    """
    if param not in SWEEP_RANGES:
        raise InvalidSpecError(f"unknown sweep parameter {param!r}; choose from {sorted(SWEEP_RANGES)}")
    sweep_values = tuple(values) if values is not None else SWEEP_RANGES[param]
    field = SWEEP_FIELDS[param]
    header = ("param", "value", "status", "r2_vw", "rmse_vw", "mae_vw", "r_vw")
    rows = []
    for value in sweep_values:
        cfg = config.replace(**{field: value})
        try:
            result = run_pipeline(cfg, tasks_factory() if tasks_factory is not None else None)
            m = result.metrics
            rows.append((param, value, "ok", m.r2_vw, m.rmse_vw, m.mae_vw, m.r_vw))
        except Exception as exc:
            rows.append((param, value, f"failed: {exc}", "", "", "", ""))
    return SweepTable(param=param, header=header, rows=tuple(rows))


# ---------------------------------------------------------------------------
# sequential forward block selection


@dataclass(frozen=True)
class SFBSResult:
    """Greedy selection order over blocks with the test-set score recorded
    after each addition."""

    order: tuple[int, ...]
    scores: tuple[float, ...]
    block_ids: tuple[int, ...]

    @property
    def selected_sizes(self) -> tuple[int, ...]:
        return tuple(range(1, len(self.order) + 1))


def group_columns_by_block(tensor: FeatureTensor) -> dict[int, np.ndarray]:
    """Column indices per block id, parsed from 'b###:desc' provenance."""
    groups: dict[int, list[int]] = {}
    for i, name in enumerate(tensor.columns):
        head, _, _ = name.partition(":")
        if not head.startswith("b"):
            raise InvalidInputError(f"column {name!r} carries no block provenance")
        groups.setdefault(int(head[1:]), []).append(i)
    return {b: np.asarray(cols, dtype=np.intp) for b, cols in sorted(groups.items())}


def sfbs_select(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
    groups: dict[int, np.ndarray],
    fit_score: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], float],
) -> SFBSResult:
    """Greedy loop: at each step fit every remaining candidate block joined
    with the already-selected columns and keep the best test-set score.
    Ties break to the lowest block id; a failing candidate scores -inf."""
    remaining = list(groups)
    selected: list[int] = []
    selected_cols = np.empty(0, dtype=np.intp)
    scores: list[float] = []
    while remaining:
        best_id, best_score, best_cols = None, -np.inf, None
        for block_id in remaining:
            cols = np.concatenate([selected_cols, groups[block_id]])
            try:
                score = fit_score(x_train[:, cols], y_train, x_test[:, cols], y_test)
            except Exception:
                score = -np.inf
            if score > best_score:
                best_id, best_score, best_cols = block_id, score, cols
        selected.append(best_id)
        selected_cols = best_cols
        scores.append(float(best_score))
        remaining.remove(best_id)
    return SFBSResult(order=tuple(selected), scores=tuple(scores), block_ids=tuple(sorted(groups)))


def ridge_scorer(alpha: float = 1.0):
    """Plain ridge fit/score used as the cheap SFBS workhorse."""

    def fit_score(x_tr, y_tr, x_te, y_te) -> float:
        model = fit_regressor("ridge", x_tr, y_tr, {"alpha": alpha})
        return r2_vw(y_te, model.predict(x_te))

    return fit_score


def run_sfbs(
    config: RunConfig,
    tasks: Iterable | None = None,
    alpha: float = 1.0,
) -> tuple[SFBSResult, "ContributionMaps", BlockPlan, dict]:
    """SFBS over the MLD-BFM blocks of a dataset: extract features, split,
    scale once (per-column, so column subsets stay consistent), then run the
    greedy selection with a fixed-alpha ridge scorer."""
    cfg = config.replace(feature="mld-bfm", n_win=1)
    features, targets, info = featurize(cfg, tasks)
    train_chunks, test_chunks = split_chunks(features, targets, cfg.split_ratio)
    split = assemble_split(train_chunks, test_chunks, _seed_for(cfg.seed, _SEED_SPLIT))
    scaler = ScalerPair.fit(split.x_train, split.y_train)
    x_train = scaler.transform_inputs(split.x_train)
    y_train = scaler.transform_outputs(split.y_train)
    x_test = scaler.transform_inputs(split.x_test)
    y_test = scaler.transform_outputs(split.y_test)
    groups = group_columns_by_block(features[0])
    result = sfbs_select(x_train, y_train, x_test, y_test, groups, ridge_scorer(alpha))
    block_plan: BlockPlan = info["_block_plan"]
    maps = contribution_map(result, block_plan)
    manifest = {
        "config": cfg.to_dict(),
        "alpha": alpha,
        "versions": _versions(),
        "stages": {
            "window_plan": info.get("window_plan"),
            "block_plan": info.get("block_plan"),
            "n_tasks": info["n_tasks"],
        },
    }
    return result, maps, block_plan, manifest


@dataclass(frozen=True)
class ContributionMaps:
    """Per-grid channel contribution maps (normalized to a global max of 1)
    plus contribution-weighted centroids in 1-indexed (row, col)."""

    grids: tuple[str, ...]
    maps: tuple[np.ndarray, ...]
    centroids: tuple[tuple[float, float] | None, ...]
    raw_gains: tuple[float, ...]


def contribution_map(result: SFBSResult, plan: BlockPlan) -> ContributionMaps:
    """Spread each selection step's incremental score gain (clamped at zero)
    over the selected block's channels, normalize the combined map so its
    peak is 1.0, and compute per-grid centroids."""
    grid_maps = [np.zeros((g.n_rows, g.n_cols)) for g in plan.grids]
    gains = []
    prev = 0.0
    for block_id, score in zip(result.order, result.scores):
        gain = max(score - prev, 0.0)
        gains.append(gain)
        prev = score
        gi = plan.grid_index[block_id]
        r0, c0 = plan.origins[block_id]
        grid_maps[gi][r0 : r0 + plan.block_size, c0 : c0 + plan.block_size] += gain
    peak = max(float(m.max()) for m in grid_maps)
    if peak > 0.0:
        grid_maps = [m / peak for m in grid_maps]
    centroids = []
    for m in grid_maps:
        total = float(m.sum())
        if total == 0.0:
            centroids.append(None)
            continue
        rows = np.arange(1, m.shape[0] + 1, dtype=np.float64)
        cols = np.arange(1, m.shape[1] + 1, dtype=np.float64)
        centroids.append(
            (
                float((m.sum(axis=1) * rows).sum() / total),
                float((m.sum(axis=0) * cols).sum() / total),
            )
        )
    return ContributionMaps(
        grids=tuple(g.name for g in plan.grids),
        maps=tuple(grid_maps),
        centroids=tuple(centroids),
        raw_gains=tuple(gains),
    )
