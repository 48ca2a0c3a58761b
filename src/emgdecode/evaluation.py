"""End-to-end decoding pipeline, single-parameter sensitivity sweeps,
sequential forward block selection, and channel contribution maps."""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg

from .baselines import extract_mav_wl, extract_rms, fit_nmf, fit_pca, select_components, transform
from .blocks import BlockPlan, plan_blocks, plan_windows_seconds
from .config import SWEEP_FIELDS, SWEEP_RANGES, RunConfig
from .descriptors import FeatureTensor, extract_mld_bfm
from .errors import AlignmentError, InvalidInputError, InvalidSpecError, PipelineError
from .io import csv_text, iter_dataset
from .metrics import MetricsReport, compute_metrics
from .regression import (
    FittedRegressor,
    LinearModel,
    MLPModel,
    RegressorSpec,
    ScalerPair,
    build_sequences,
    grid_search_cv,
    postprocess,
    reconstruct_series,
    ridge_residual,
)
from .signal_core import (
    FilterSpec,
    assemble_split,
    crop,
    design_butterworth,
    filter_workers,
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


def _plan_key(config: RunConfig) -> tuple:
    """What a config's features depend on beyond the shared filtering and
    crop: the extractor, the block size and step for MLD-BFM, the window."""
    if config.feature == "mld-bfm":
        return "mld-bfm", (config.block_size, config.block_step), config.window_s, config.overlap_s
    # rms directly, and the raw input for pca/nmf
    return ("mav-wl" if config.feature == "mav-wl" else "rms"), None, config.window_s, config.overlap_s


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
    labels, the number of tasks, and every task's window count.

    This is the one-config call of the pass that ``sweep`` makes over all
    its cells at once.
    """
    (outcome,) = _featurize_plans([config], tasks)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _featurize_plans(configs: Sequence[RunConfig], tasks: Iterable | None) -> list:
    """``featurize`` for many configs in one pass over ``tasks``.

    Each task is read, checked, filtered and cropped once; then every
    distinct feature plan (extractor, blocks, window) is applied to it, and
    configs with the same plan share one extraction. Only the features and
    targets are kept. Returns, per config, ``(features, targets, info)`` or
    the exception ``featurize(config, tasks)`` raises: a plan that fails
    fails its own configs, a task that fails fails every config not failed
    yet, and the pass stops once every config has failed. The dataset, the
    filters and the crop are the first config's, so the configs must agree on
    them; the returned tensors are shared between configs and must not be
    mutated.
    """
    if not configs:
        return []
    config = configs[0]
    keys = [_plan_key(c) for c in configs]
    plans = {key: ([], [], {}) for key in keys}  # features, targets, info
    failed: dict[tuple, Exception] = {}
    try:
        if tasks is None:
            if config.dataset is None:
                raise PipelineError("load", "no tasks given and config.dataset is not set")
            tasks = iter_dataset(config.dataset)
        for i, (x, traj) in enumerate(tasks):
            layout = {"fs": x.fs, "grids": x.grids, "labels": traj.labels}
            if i == 0:
                first = layout
                specs = [FilterSpec(kind="bandpass", order=config.band_order, band=config.band_hz)]
                if config.notch_hz is not None:
                    specs.append(FilterSpec(kind="notch", band=config.notch_hz, q=config.notch_q))
                filters = [design_butterworth(spec, x.fs) for spec in specs]
                for key, (_, _, info) in plans.items():
                    if key[1] is not None:
                        try:
                            info["_block_plan"] = plan_blocks(x.grids, *key[1])
                        except Exception as exc:
                            failed[key] = exc
                        else:
                            info["block_plan"] = info["_block_plan"].to_jsonable()
            live = [key for key in plans if key not in failed]
            if not live:
                break
            try:
                require_finite(x)
            except InvalidInputError as exc:
                raise InvalidInputError(f"task {i}: {exc}") from exc
            for field, value in layout.items():
                if value != first[field]:
                    raise AlignmentError(f"task {i}: {field} {value!r} differs from task 0's {first[field]!r}")
            x = filtfilt(x, *filters)
            if config.crop_s is not None:
                x = crop(x, config.crop_s[0], config.crop_s[1])
            for key in live:
                kind, _, window_s, overlap_s = key
                features, targets, info = plans[key]
                try:
                    window_plan = plan_windows_seconds(x.n_samples, x.fs, window_s, overlap_s)
                    if kind == "mld-bfm":
                        tensor = extract_mld_bfm(x, info["_block_plan"], window_plan)
                    elif kind == "mav-wl":
                        tensor = extract_mav_wl(x, window_plan)
                    else:
                        tensor = extract_rms(x, window_plan)
                    target = resample_targets(traj, window_plan, x.fs, t_offset=x.t0)
                except Exception as exc:
                    failed[key] = exc
                    continue
                features.append(tensor)
                targets.append(target)
                info.setdefault("window_plan", window_plan.to_jsonable())
                info.setdefault("pred_rate", x.fs / window_plan.stride)
                info.setdefault("labels", traj.labels)
    except Exception as exc:
        for key in plans:
            failed.setdefault(key, exc)
    for key, (features, _, info) in plans.items():
        if not features:
            failed.setdefault(key, InvalidInputError("dataset contains no tasks"))
        info["n_tasks"] = len(features)
        info["n_windows"] = [tensor.n_windows for tensor in features]
    return [
        failed[key] if key in failed else (list(plans[key][0]), list(plans[key][1]), dict(plans[key][2]))
        for key in keys
    ]


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
        info["component_n_iter"] = list(selection.n_iter)
        info["component_converged"] = list(selection.converged)
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


def _scaled_split(config: RunConfig, features: Sequence, targets: Sequence):
    """Per-task contiguous split, ``n_win`` sequences within each task, the
    training rows assembled and permuted, and a scaler fit on them.

    Returns the raw split, the split with inputs and outputs scaled, and the
    scaler."""
    train_chunks, test_chunks = split_chunks(features, targets, config.split_ratio)
    if config.n_win > 1:
        train_chunks = [build_sequences(x, y, config.n_win) for x, y in train_chunks]
        test_chunks = [build_sequences(x, y, config.n_win) for x, y in test_chunks]
    split = assemble_split(train_chunks, test_chunks, _seed_for(config.seed, _SEED_SPLIT))
    scaler = ScalerPair.fit(split.x_train, split.y_train)
    scaled = replace(
        split,
        x_train=scaler.transform_inputs(split.x_train),
        y_train=scaler.transform_outputs(split.y_train),
        x_test=scaler.transform_inputs(split.x_test),
        y_test=scaler.transform_outputs(split.y_test),
    )
    return split, scaled, scaler


def decode_features(
    config: RunConfig,
    features: Sequence,
    targets: Sequence,
    labels: Sequence[str] = None,
    pred_rate: float = 10.0,
) -> PipelineResult:
    """The model stage of ``run_pipeline``, on per-task feature and target
    rows: split, sequence, scale, grid-search fit, predict, reconstruct,
    post-filter each task's test rows at ``pred_rate``, and score. Called
    directly it serves oracle checks that bypass signal processing."""
    split, scaled, scaler = _scaled_split(config, features, targets)
    n_out = split.y_test.shape[1] // config.n_win
    if labels is None:
        labels = tuple(f"out{d}" for d in range(n_out))
    spec = RegressorSpec(kind=config.model, grid=config.grid, seed=_seed_for(config.seed, _SEED_MODEL))
    fitted = grid_search_cv(spec, scaled.x_train, scaled.y_train)
    pred = reconstruct_series(scaler.inverse_outputs(fitted.predict(scaled.x_test)), n_out)
    y_true = reconstruct_series(split.y_test, n_out)
    y_pred_parts, bypassed = [], True
    for chunk in np.split(pred, np.cumsum(split.test_chunk_sizes)[:-1]):
        chunk, bypassed = postprocess(chunk, pred_rate, cutoff_hz=config.postfilter_hz)
        y_pred_parts.append(chunk)
    y_pred = np.concatenate(y_pred_parts, axis=0)
    report = compute_metrics(y_true, y_pred, labels)
    manifest = {
        "config": config.to_dict(),
        "versions": _versions(),
        "stages": {
            "hyperparams": fitted.hyperparams,
            "cv_mean_scores": list(fitted.mean_scores),
            "cv_failures": [
                {"grid_index": gi, "fold": fi, "reason": reason} for gi, fi, reason in fitted.failures
            ],
            "cv_fits": fitted.n_fits,
            **_convergence(fitted.model),
            "n_train_rows": int(split.x_train.shape[0]),
            "n_test_rows": int(split.x_test.shape[0]),
            "n_features": int(split.x_train.shape[1]),
            "postfilter_bypassed": bypassed,
        },
        "metrics": report.to_dict(),
    }
    return PipelineResult(metrics=report, manifest=manifest, model=fitted, y_true=y_true, y_pred=y_pred)


def _convergence(model) -> dict:
    """The manifest entries for how the refit winner's training stopped."""
    if isinstance(model, MLPModel):
        return {
            "model_n_epochs": model.n_epochs,
            "model_lr_drops": list(model.lr_drops),
            "model_converged": model.converged,
        }
    if isinstance(model, LinearModel) and model.kind == "lasso":
        return {"model_n_iter": list(model.n_iter), "model_converged": list(model.converged)}
    return {}


def _featurize_stages(info: dict) -> dict:
    """The manifest entries of ``featurize``'s ``info``."""
    return {key: info.get(key) for key in ("window_plan", "block_plan", "n_tasks", "n_windows", "pred_rate")}


def run_pipeline(config: RunConfig, tasks: Iterable | None = None) -> PipelineResult:
    """Full decode: ``featurize``, PCA/NMF for those features, then
    ``decode_features``. The manifest captures every parameter of the run.

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
    return _decode_featurized(config, features, targets, info, t_start)


def _decode_featurized(
    config: RunConfig, features: list, targets: list, info: dict, t_start: float
) -> PipelineResult:
    """``run_pipeline`` after ``featurize``: PCA/NMF for those features, then
    ``decode_features``; the manifest gains ``info``'s stages and the wall
    time since ``t_start``."""
    decomp_info: dict = {}
    if config.feature in ("pca", "nmf"):
        try:
            features, decomp_info = _decompose_stage(config, features, targets)
        except Exception as exc:
            raise PipelineError("decompose", str(exc)) from exc

    try:
        result = decode_features(config, features, targets, info["labels"], info["pred_rate"])
    except Exception as exc:
        raise PipelineError("model", str(exc)) from exc
    manifest = result.manifest
    manifest["stages"] = {**_featurize_stages(info), **decomp_info, **manifest["stages"]}
    manifest["wall_time_s"] = time.perf_counter() - t_start
    return result


def _versions() -> dict:
    from . import __version__

    return {
        "emgdecode": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "filter_workers": filter_workers(),
    }


# ---------------------------------------------------------------------------
# sensitivity sweeps


@dataclass(frozen=True)
class SweepTable:
    param: str
    header: tuple[str, ...]
    rows: tuple[tuple, ...]

    def to_csv(self) -> str:
        return csv_text(self.header, self.rows)


def sweep(
    param: str,
    config: RunConfig,
    tasks: Iterable | None = None,
    values: Sequence | None = None,
) -> SweepTable:
    """One decode per value of a single parameter, everything else fixed at
    the control settings. Every cell's config is built first, so an invalid
    value raises ``ConfigError`` before any cell runs.

    ``tasks`` (a list, a one-shot iterator, or ``None`` for the config's
    dataset) are read and filtered once: one featurize pass extracts every
    cell's features, then each cell decodes its own. A cell that fails on
    the data is recorded with the status ``run_pipeline``'s error would give
    it, not raised: a plan that fails (a block larger than the grid, a window
    longer than the crop) fails its own cell, a task that fails every cell
    not failed yet.
    """
    if param not in SWEEP_RANGES:
        raise InvalidSpecError(f"unknown sweep parameter {param!r}; choose from {sorted(SWEEP_RANGES)}")
    sweep_values = tuple(values) if values is not None else SWEEP_RANGES[param]
    field = SWEEP_FIELDS[param]
    header = ("param", "value", "status", "r2_vw", "rmse_vw", "mae_vw", "r_vw")
    configs = [config.replace(**{field: value}) for value in sweep_values]
    rows = []
    for value, cfg, outcome in zip(sweep_values, configs, _featurize_plans(configs, tasks)):
        try:
            if isinstance(outcome, PipelineError):
                raise outcome
            if isinstance(outcome, Exception):
                raise PipelineError("extract", str(outcome)) from outcome
            m = _decode_featurized(cfg, *outcome, time.perf_counter()).metrics
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


def group_columns_by_block(tensor: FeatureTensor) -> dict[int, np.ndarray]:
    """Column indices per block id, parsed from 'b###:desc' provenance."""
    groups: dict[int, list[int]] = {}
    for i, name in enumerate(tensor.columns):
        head, _, _ = name.partition(":")
        if not head.startswith("b"):
            raise InvalidInputError(f"column {name!r} carries no block provenance")
        groups.setdefault(int(head[1:]), []).append(i)
    return {b: np.asarray(cols, dtype=np.intp) for b, cols in sorted(groups.items())}


# Relative score gap below which SFBS candidates tie: far above the rounding
# of the carried-state candidate scores (at most 4.4e-15 from fit_ridge refits
# over 7 sampled steps of the 98-block runs at bench and paper scale), far
# below the 1e-10 agreement of recorded scores with refits.
_TIE_TOL = 1e-12


def sfbs_select(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
    groups: dict[int, np.ndarray],
    alpha: float = 1.0,
) -> SFBSResult:
    """Greedy loop: at each step score every remaining candidate block joined
    with the already-selected columns by a ridge fit (``alpha``, unpenalized
    intercept) on the train rows and ``r2_vw`` on the test rows, and keep the
    best. Ties, up to a relative 1e-12, break to the lowest block id.

    The fits run in Gram space on state carried across steps. With
    ``G = Xc'Xc + alpha I``, ``L`` the Cholesky factor of ``G[S, S]`` for the
    selected columns ``S`` and ``P = L^-1 G[S, :]``, the train side keeps the
    Schur complement ``G - P'P`` and ``q = Xc'Yc - P' L^-1 Xc_S'Yc``; the test
    side keeps ``E'E``, ``E'r`` and ``|r|^2``, where ``E = Z - Z_S L^-T P``
    and ``r`` is the selected fit's test residual. A candidate ``C``'s weights
    are ``a = (G - P'P)_CC^-1 q_C`` and its test SSE is
    ``|r|^2 - 2 <a, (E'r)_C> + <a, (E'E)_CC a>``: O(c^2 d) per candidate,
    no rows touched. The winner borders ``L`` and downdates both sides by
    rank c, O(F^2 c) per step for F features. Its recorded score comes from
    weights given one correction against the train residual, on its columns'
    train and test rows, so scores equal ``r2_vw`` of ``fit_ridge(alpha)``
    refits up to rounding.
    """
    alpha = _require_alpha(alpha)
    x_train, x_test = np.asarray(x_train, dtype=np.float64), np.asarray(x_test, dtype=np.float64)
    y_train, y_test = (np.asarray(y, dtype=np.float64) for y in (y_train, y_test))
    y_train, y_test = (y[:, None] if y.ndim == 1 else y for y in (y_train, y_test))
    if x_train.ndim != 2 or x_train.shape[1:] != x_test.shape[1:] or y_train.shape[1] != y_test.shape[1]:
        raise InvalidInputError(
            f"sfbs shapes disagree: x {x_train.shape}/{x_test.shape}, y {y_train.shape}/{y_test.shape}"
        )
    if len(x_train) != len(y_train) or len(x_test) != len(y_test):
        raise AlignmentError("sfbs: x and y row counts differ")
    for name, a in (("x_train", x_train), ("y_train", y_train), ("x_test", x_test), ("y_test", y_test)):
        if not np.isfinite(a).all():
            raise InvalidInputError(f"sfbs requires finite inputs; {name} holds NaN/Inf")
    all_cols = np.concatenate([np.empty(0, dtype=np.intp), *groups.values()])
    if len(np.unique(all_cols)) != len(all_cols):
        raise InvalidInputError("sfbs groups must not share columns")
    # r2_vw weights each output by its test variance, so it equals
    # 1 - sum(SSE) / sum(SST) over the outputs with non-zero variance
    keep = y_test.var(axis=0) > 0.0 if len(y_test) >= 2 else np.zeros(y_test.shape[1], dtype=bool)
    if not keep.any():
        raise InvalidInputError("sfbs needs two or more test rows and a test output with non-zero variance")
    if not keep.all():
        warnings.warn("zero-variance output excluded from variance-weighted R^2")
    sst = float(((y_test[:, keep] - y_test[:, keep].mean(axis=0)) ** 2).sum())

    x_mean, y_mean = x_train.mean(axis=0), y_train.mean(axis=0)
    xc = x_train - x_mean
    yc = (y_train - y_mean)[:, keep]
    z = x_test - x_mean
    resid0 = (y_test - y_mean)[:, keep]
    f = xc.shape[1]
    # [G - P'P | q]: the Schur complement of the selected columns in the
    # augmented Gram [Xc Yc]'[Xc Yc] + alpha I_f, P = L^-1 G[S, :]
    schur = _gram(xc, yc)
    schur[np.arange(f), np.arange(f)] += alpha
    # [E r]'[E r], with E = Z - Z_S L^-T P and r the selected fit's test residual
    test = _gram(z, resid0)

    ids = list(groups)
    widths: dict[int, list[int]] = {}
    for pos, block_id in enumerate(ids):
        widths.setdefault(len(groups[block_id]), []).append(pos)
    # per width: the remaining candidates' positions in ids and their columns
    by_width = {c: (pos, np.array([groups[ids[p]] for p in pos], dtype=np.intp)) for c, pos in widths.items()}
    n_sel = len(all_cols)
    chol = np.zeros((n_sel, n_sel))  # lower Cholesky factor of G[S, S], selection order
    border = np.empty((n_sel, f + resid0.shape[1]))  # [P | L^-1 Xc_S'Yc]
    xs = np.empty((len(xc), n_sel), order="F")
    zs = np.empty((len(z), n_sel), order="F")
    selected: list[int] = []
    scores: list[float] = []
    s = 0
    while by_width:
        sse_selected = np.trace(test[f:, f:])  # |r|^2
        positions, sses = [], []
        for pos, cand in by_width.values():
            square = (cand[:, :, None], cand[:, None, :])
            a = np.linalg.solve(schur[square], schur[cand, f:])  # (k, c, d) candidate weights
            sses.append(sse_selected + np.einsum("kcd,kcd->k", a, test[square] @ a - 2.0 * test[cand, f:]))
            positions.extend(pos)
        step_scores = 1.0 - np.concatenate(sses) / sst
        # A block's entries of G depend in their last bits on where it sits in
        # X (BLAS tiling), so scores within rounding of the best count as tied
        # and go to the lowest block id, as exact ties do in a refit.
        top = step_scores.max()
        best = min(np.asarray(positions)[step_scores >= top - _TIE_TOL * max(1.0, abs(top))])
        block_id = ids[best]
        win = groups[block_id]
        c = len(win)
        positions, cand = by_width[c]
        i = positions.index(best)
        del positions[i]
        by_width[c] = (positions, np.delete(cand, i, axis=0))
        if not positions:
            del by_width[c]
        # rank-c updates: the winner borders L, and both Gram blocks lose its part
        l_w = np.linalg.cholesky(schur[np.ix_(win, win)])
        q = _forward(l_w, schur[win])  # [P_W | fwd_W], the new rows of [P | fwd]
        k = _forward(l_w, test[win])  # H'[E r], with H = E_W L_W^-T
        hh = _forward(l_w, k[:, win].T)  # H'H
        schur = _subtract_product(schur, q, q)
        # [E r] -= H [P_W | fwd_W]
        test = _subtract_product(test, np.vstack([q, k]), np.vstack([k - hh @ q, q]))
        chol[s : s + c, :s] = border[:s, win].T
        chol[s : s + c, s : s + c] = l_w
        border[s : s + c] = q
        xs[:, s : s + c] = xc[:, win]
        zs[:, s : s + c] = z[:, win]
        s += c
        selected.append(block_id)
        # the winner's score is recorded from weights corrected once against
        # the train residual, as fit_ridge does, which removes the Gram
        # route's kappa(G) * eps error on ill-conditioned steps
        factor = chol[:s, :s]
        w = scipy.linalg.solve_triangular(factor, border[:s, f:], lower=True, trans="T", check_finite=False)
        w += scipy.linalg.cho_solve((factor, True), ridge_residual(xs[:, :s], yc, w, alpha), check_finite=False)
        resid = resid0 - zs[:, :s] @ w
        scores.append(1.0 - float((resid * resid).sum()) / sst)
    return SFBSResult(order=tuple(selected), scores=tuple(scores), block_ids=tuple(sorted(groups)))


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[a b]'[a b]``, Fortran-ordered for ``_subtract_product``."""
    ab = np.hstack([a, b])
    return np.asfortranarray(ab.T @ ab)


def _forward(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``lower^-1 b`` for a lower triangular ``lower``."""
    return scipy.linalg.solve_triangular(lower, b, lower=True, check_finite=False)


def _subtract_product(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``c - a'b``, written over a Fortran-ordered ``c`` by one BLAS call:
    a temporary as large as ``c`` costs several times the product itself."""
    return scipy.linalg.blas.dgemm(-1.0, a, b, beta=1.0, c=c, trans_a=True, overwrite_c=True)


def _require_alpha(alpha: float) -> float:
    """SFBS's Cholesky route needs ``Xc'Xc + alpha I`` positive definite."""
    alpha = float(alpha)
    if not (np.isfinite(alpha) and alpha > 0.0):
        raise InvalidSpecError(f"alpha must be a finite number > 0, got {alpha!r}")
    return alpha


def run_sfbs(
    config: RunConfig,
    tasks: Iterable | None = None,
    alpha: float = 1.0,
) -> tuple[SFBSResult, "ContributionMaps", BlockPlan, dict]:
    """SFBS over the MLD-BFM blocks of a dataset: extract features, split,
    scale once (per-column, so column subsets stay consistent), then run the
    greedy selection with a fixed-alpha ridge scorer. The manifest's
    ``timings`` split the wall time into ``featurize_s`` and ``select_s``."""
    t_start = time.perf_counter()
    alpha = _require_alpha(alpha)
    # the scorer's alpha is fixed, so a grid, perhaps another model's, goes
    cfg = config.replace(feature="mld-bfm", model="ridge", n_win=1, grid=None)
    features, targets, info = featurize(cfg, tasks)
    t_select = time.perf_counter()
    _, split, _ = _scaled_split(cfg, features, targets)
    groups = group_columns_by_block(features[0])
    result = sfbs_select(split.x_train, split.y_train, split.x_test, split.y_test, groups, alpha)
    t_end = time.perf_counter()
    block_plan: BlockPlan = info["_block_plan"]
    maps = contribution_map(result, block_plan)
    n_blocks = len(groups)
    manifest = {
        "config": cfg.to_dict(),
        "alpha": alpha,
        "versions": _versions(),
        "stages": {
            **_featurize_stages(info),
            "n_train_rows": int(split.x_train.shape[0]),
            "n_test_rows": int(split.x_test.shape[0]),
            "n_features": int(split.x_train.shape[1]),
            "n_candidates": n_blocks * (n_blocks + 1) // 2,
        },
        # featurize: read, filter, extract; select: split, scale and sfbs_select
        "timings": {"featurize_s": t_select - t_start, "select_s": t_end - t_select},
        "wall_time_s": time.perf_counter() - t_start,
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
