"""Multi-output regressors (Ridge, Lasso, KNN, MLP), input/output scaling,
time-windowed sequence construction, grid-search cross-validation, and
prediction post-filtering.

All regressors assume standardized inputs and normalized outputs; the
output normalization is one shared affine map across all outputs so the
amplitude relationships between fingers are preserved.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
import numpy as np
import scipy.linalg
import scipy.spatial

from .errors import (
    EmgDecodeError,
    InvalidInputError,
    InvalidSpecError,
    TrainingDivergedError,
)
from .metrics import r2_vw
from .signal_core import FilterSpec, apply_filtfilt, design_butterworth


@dataclass(frozen=True)
class ScalerPair:
    """Per-feature input standardization plus one pooled affine transform
    shared by every output column."""

    in_mean: np.ndarray
    in_std: np.ndarray
    out_mean: float
    out_std: float
    constant_features: tuple[int, ...]

    @classmethod
    def fit(cls, X: np.ndarray, Y: np.ndarray) -> "ScalerPair":
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        in_mean = X.mean(axis=0)
        in_std = X.std(axis=0)
        constant = tuple(int(i) for i in np.flatnonzero(in_std == 0.0))
        in_std = np.where(in_std == 0.0, 1.0, in_std)
        out_std = float(Y.std())
        return cls(
            in_mean=in_mean,
            in_std=in_std,
            out_mean=float(Y.mean()),
            out_std=out_std if out_std > 0.0 else 1.0,
            constant_features=constant,
        )

    def transform_inputs(self, X) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.in_mean) / self.in_std

    def transform_outputs(self, Y) -> np.ndarray:
        return (np.asarray(Y, dtype=np.float64) - self.out_mean) / self.out_std

    def inverse_outputs(self, Y) -> np.ndarray:
        return np.asarray(Y, dtype=np.float64) * self.out_std + self.out_mean


def build_sequences(features, targets, n_win: int) -> tuple[np.ndarray, np.ndarray]:
    """Sliding sequences of ``n_win`` consecutive feature/target rows,
    flattened time-major (stride 1). Must be applied to contiguous rows
    BEFORE any shuffling; row count shrinks to rows - n_win + 1."""
    X = np.asarray(getattr(features, "values", features), dtype=np.float64)
    Y = np.asarray(getattr(targets, "values", targets), dtype=np.float64)
    if X.shape[0] != Y.shape[0]:
        raise InvalidInputError("features and targets must be row-aligned")
    if not 1 <= n_win <= X.shape[0]:
        raise InvalidInputError(f"n_win={n_win} must lie in [1, {X.shape[0]}] rows")
    n = X.shape[0] - n_win + 1
    xv = np.lib.stride_tricks.sliding_window_view(X, n_win, axis=0)
    yv = np.lib.stride_tricks.sliding_window_view(Y, n_win, axis=0)
    x_seq = xv.transpose(0, 2, 1).reshape(n, n_win * X.shape[1])
    y_seq = yv.transpose(0, 2, 1).reshape(n, n_win * Y.shape[1])
    return np.ascontiguousarray(x_seq), np.ascontiguousarray(y_seq)


def reconstruct_series(pred_seq, n_out: int) -> np.ndarray:
    """Time series from sequence predictions: the last ``n_out`` entries of
    each prediction row, in sequence order."""
    P = np.asarray(pred_seq, dtype=np.float64)
    return P[:, -n_out:].copy()


@dataclass(frozen=True)
class LinearModel:
    """Weights and intercept of a ridge or Lasso fit. For Lasso, ``n_iter[d]``
    and ``converged[d]`` give output d's coordinate-descent sweeps and whether
    the tolerance test stopped them; both are empty for ridge."""

    kind: str
    weights: np.ndarray
    intercept: np.ndarray
    alpha: float
    n_iter: tuple[int, ...] = ()
    converged: tuple[bool, ...] = ()

    def predict(self, X) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.weights + self.intercept


def _fit_inputs(kind: str, X, Y) -> tuple[np.ndarray, np.ndarray]:
    """Training rows as float arrays, ``Y`` with one column per output;
    non-finite values have no fit."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise InvalidInputError(f"{kind} requires finite inputs")
    return X, (Y[:, None] if Y.ndim == 1 else Y)


def fit_ridge(X, Y, alpha: float) -> LinearModel:
    """Closed-form multi-output ridge: W = (X^T X + alpha I)^-1 X^T Y on
    centered data, with an unpenalized intercept recovered from the means.
    At alpha = 0 it is the minimum-norm least-squares fit (``lstsq``).

    The shared (pooled) output scaler leaves per-output mean offsets in
    place, so the intercept cannot come from scaling alone."""
    _check_alpha("ridge", alpha)
    X, Y = _fit_inputs("ridge", X, Y)
    x_mean = X.mean(axis=0)
    y_mean = Y.mean(axis=0)
    Xc = X - x_mean
    Yc = Y - y_mean
    if alpha == 0.0:
        # least squares: the minimum-norm fit, which CV scores too; a singular
        # Xc'Xc can pass Cholesky in rounding and give another solution
        W = np.linalg.lstsq(Xc, Yc, rcond=None)[0]
    else:
        factor = scipy.linalg.cho_factor(Xc.T @ Xc + alpha * np.eye(X.shape[1]), lower=True)
        W = scipy.linalg.cho_solve(factor, Xc.T @ Yc)
        W += scipy.linalg.cho_solve(factor, ridge_residual(Xc, Yc, W, alpha))
    return LinearModel(kind="ridge", weights=W, intercept=y_mean - x_mean @ W, alpha=float(alpha))


def ridge_residual(Xc: np.ndarray, Yc: np.ndarray, W: np.ndarray, alpha: float) -> np.ndarray:
    """``Xc'(Yc - Xc W) - alpha W``, formed from the data rather than from
    ``Xc'Xc``. A solution from the Gram matrix carries kappa(Gram) * eps
    relative error; one solve against this residual (corrected seminormal
    equations) brings it to the rounding level of a QR least-squares fit,
    which is what a small alpha on few rows needs."""
    return Xc.T @ (Yc - Xc @ W) - alpha * W


def _check_alpha(kind: str, alpha: float) -> None:
    """alpha = 0 is least squares; a negative or non-finite one has no fit."""
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise InvalidSpecError(f"{kind} alpha must be a finite number >= 0, got {alpha!r}")


def _soft(x: float, lam: float) -> float:
    return math.copysign(max(abs(x) - lam, 0.0), x)


def fit_lasso(X, Y, alpha: float, max_iter: int = 10000, tol: float = 1e-3) -> LinearModel:
    """Cyclic coordinate descent per output on the mean-squared objective
    (1/2n)||y - Xw||^2 + alpha*||w||_1 with soft-thresholding updates, on
    centered data with an unpenalized intercept.

    The mean-based normalization keeps ``alpha`` comparable across dataset
    sizes. Stops when the largest coefficient update in a sweep drops below
    tol * max|w|; the model records each output's sweeps and whether that
    test stopped it (False when ``max_iter`` did).

    Covariance form: ``G = Xc'Xc/n`` and ``C = Xc'Yc/n`` are formed once, and
    each output keeps its residual correlation ``r = C[:, d] - G w`` current,
    so ``rho_j = r_j + G_jj w_j`` is a read and a coordinate that moves costs
    one length-f update of ``r`` instead of passes over the data rows.
    """
    _check_alpha("lasso", alpha)
    X, Y = _fit_inputs("lasso", X, Y)
    x_mean = X.mean(axis=0)
    y_mean = Y.mean(axis=0)
    Xc = X - x_mean
    n, f = Xc.shape
    gram = (Xc.T @ Xc) / n
    cross = (Xc.T @ (Y - y_mean)) / n
    z = np.diag(gram).tolist()
    coords = [(j, z[j], gram[j]) for j in range(f) if z[j] != 0.0]
    W = np.zeros((f, Y.shape[1]))
    n_iter, converged = [], []
    for d in range(Y.shape[1]):
        r = cross[:, d].copy()
        w = [0.0] * f
        sweeps, stopped = 0, False
        while sweeps < max_iter and not stopped:
            sweeps += 1
            max_delta = 0.0
            for j, zj, gj in coords:
                old = w[j]
                new = _soft(r.item(j) + zj * old, alpha) / zj
                if new != old:
                    r -= gj * (new - old)
                    w[j] = new
                    max_delta = max(max_delta, abs(new - old))
            stopped = max_delta <= tol * max(map(abs, w), default=0.0)
        W[:, d] = w
        n_iter.append(sweeps)
        converged.append(stopped)
    return LinearModel(
        kind="lasso",
        weights=W,
        intercept=y_mean - x_mean @ W,
        alpha=float(alpha),
        n_iter=tuple(n_iter),
        converged=tuple(converged),
    )


@dataclass(frozen=True)
class KNNModel:
    x_train: np.ndarray
    y_train: np.ndarray
    k: int
    weights: str

    def predict(self, X) -> np.ndarray:
        X = _knn_queries(X, self.x_train.shape[1])
        dist, idx = _nearest(scipy.spatial.KDTree(self.x_train), X, self.k)
        return _knn_average(dist, idx, self.y_train, self.weights)


def _knn_queries(X, n_features: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise InvalidInputError(f"knn queries need {n_features} features, not shape {X.shape}")
    if not np.isfinite(X).all():
        raise InvalidInputError("knn requires finite queries")
    return X


def _nearest(tree: scipy.spatial.KDTree, X: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Distances and training-row indices of each query's k nearest rows,
    ordered by distance, then by row index. A tie at the k-th distance goes
    to the lower row index, so the first k columns of a query at a larger k
    name the same rows in the same order."""
    depth = min(tree.n, k + 1)
    while True:
        # a list of ranks keeps the (rows, depth) shape at depth = 1
        dist, idx = tree.query(X, k=list(range(1, depth + 1)))
        # every row that ties the k-th distance is in once the last rank is farther
        if depth == tree.n or (dist[:, -1] > dist[:, k - 1]).all():
            break
        depth = min(tree.n, 2 * depth)
    order = np.lexsort((idx, dist))[:, :k]
    return np.take_along_axis(dist, order, axis=1), np.take_along_axis(idx, order, axis=1)


def _knn_average(dist: np.ndarray, idx: np.ndarray, y_train: np.ndarray, weights: str) -> np.ndarray:
    """The uniform or 1/d weighted mean of each query's neighbour targets."""
    targets = y_train[idx]
    if weights == "uniform":
        return targets.mean(axis=1)
    # a row with exact matches averages those alone, and never forms 1/0
    exact = dist == 0.0
    w = np.where(exact.any(axis=1, keepdims=True), exact, 1.0 / np.where(exact, 1.0, dist))
    return (w[:, :, None] * targets).sum(axis=1) / w.sum(axis=1)[:, None]


def fit_knn(X, Y, k: int, weights: str = "uniform") -> KNNModel:
    """Store the training set; prediction averages the k nearest neighbors
    (1/d weights with an exact-match short-circuit when requested)."""
    X, Y = _fit_inputs("knn", X, Y)
    if weights not in ("uniform", "distance"):
        raise InvalidSpecError(f"unknown KNN weighting {weights!r}")
    _check_k(k, X.shape[0])
    return KNNModel(x_train=X.copy(), y_train=Y.copy(), k=k, weights=weights)


def _check_k(k: int, n_train: int) -> None:
    if not (1 <= k <= n_train):
        raise InvalidSpecError(f"k={k} must lie in [1, {n_train}] training rows")


def _mlp_forward(params: dict, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations ``max(X W1 + b1, 0)`` and outputs ``Hid W2 + b2``."""
    Hid = np.maximum(X @ params["W1"] + params["b1"], 0.0)
    return Hid, Hid @ params["W2"] + params["b2"]


def _mlp_forward_backward(params: dict, X: np.ndarray, Y: np.ndarray):
    """Loss (mean squared error over all entries) and analytic gradients for
    a one-hidden-layer ReLU network with linear outputs."""
    Hid, P = _mlp_forward(params, X)
    err = P - Y
    loss = float((err * err).mean())
    g = 2.0 * err / err.size
    gW2 = Hid.T @ g
    gb2 = g.sum(axis=0)
    gH = g @ params["W2"].T
    gH[Hid <= 0.0] = 0.0
    gW1 = X.T @ gH
    gb1 = gH.sum(axis=0)
    return loss, {"W1": gW1, "b1": gb1, "W2": gW2, "b2": gb2}


def _mlp_init(n_feat: int, hidden: int, n_out: int, rng: np.random.Generator) -> dict:
    # uniform init scaled by fan-in
    lim1 = 1.0 / math.sqrt(n_feat)
    lim2 = 1.0 / math.sqrt(hidden)
    return {
        "W1": rng.uniform(-lim1, lim1, size=(n_feat, hidden)),
        "b1": np.zeros(hidden),
        "W2": rng.uniform(-lim2, lim2, size=(hidden, n_out)),
        "b2": np.zeros(n_out),
    }


@dataclass(frozen=True)
class MLPModel:
    """A trained network; ``lr_drops`` lists the epochs (1-based) after which
    the step size was divided by 5, and ``converged`` is True when early
    stopping ended training (False when ``max_iter`` did)."""

    params: dict
    hidden: int
    lr: float
    n_epochs: int
    history: tuple[float, ...]
    lr_drops: tuple[int, ...] = ()
    converged: bool = False

    def predict(self, X) -> np.ndarray:
        return _mlp_forward(self.params, np.asarray(X, dtype=np.float64))[1]


def fit_mlp(
    X,
    Y,
    hidden: int,
    lr: float,
    max_iter: int = 200,
    patience: int = 20,
    seed: int = 0,
    batch_size: int = 200,
) -> MLPModel:
    """One hidden ReLU layer trained with adaptive-moment gradient descent on
    MSE, mini-batches of ``batch_size``, early stopping on a 10% validation
    split of the (already shuffled) training data.

    ``lr`` is the initial step size; it is divided by 5 whenever the epoch
    training loss fails to improve by 0.1% for 10 consecutive epochs, so a
    genuine step-size floor triggers annealing but steady descent never
    does."""
    X, Y = _fit_inputs("mlp", X, Y)
    n = X.shape[0]
    n_val = max(1, int(round(0.1 * n)))
    if n - n_val < 1:
        raise InvalidInputError("not enough rows to hold out a validation split")
    x_tr, y_tr = X[: n - n_val], Y[: n - n_val]
    x_val, y_val = X[n - n_val :], Y[n - n_val :]

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    params = _mlp_init(X.shape[1], hidden, Y.shape[1], rng)
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    def val_loss() -> float:
        return float(((_mlp_forward(params, x_val)[1] - y_val) ** 2).mean())

    best = math.inf
    best_params = {k: p.copy() for k, p in params.items()}
    stall = 0
    history = []
    n_tr = x_tr.shape[0]
    epochs_run = 0
    lr_now = lr
    best_train = math.inf
    lr_stall = 0
    lr_drops = []
    converged = False
    for _ in range(max_iter):
        perm = rng.permutation(n_tr)
        epoch_losses = []
        for s in range(0, n_tr, batch_size):
            idx = perm[s : s + batch_size]
            loss, grads = _mlp_forward_backward(params, x_tr[idx], y_tr[idx])
            if not math.isfinite(loss):
                raise TrainingDivergedError("non-finite training loss")
            epoch_losses.append(loss)
            step += 1
            for key in params:
                m[key] = beta1 * m[key] + (1 - beta1) * grads[key]
                v[key] = beta2 * v[key] + (1 - beta2) * grads[key] ** 2
                mhat = m[key] / (1 - beta1**step)
                vhat = v[key] / (1 - beta2**step)
                params[key] = params[key] - lr_now * mhat / (np.sqrt(vhat) + eps)
        epochs_run += 1
        train_loss = float(np.mean(epoch_losses))
        if not math.isfinite(best_train) or train_loss < best_train * (1.0 - 1e-3):
            best_train = train_loss
            lr_stall = 0
        else:
            lr_stall += 1
            if lr_stall >= 10:
                lr_now /= 5.0
                lr_stall = 0
                lr_drops.append(epochs_run)
        vl = val_loss()
        if not math.isfinite(vl):
            raise TrainingDivergedError("non-finite validation loss")
        history.append(vl)
        if vl < best - 1e-12:
            best = vl
            best_params = {k: p.copy() for k, p in params.items()}
            stall = 0
        else:
            stall += 1
            if stall >= patience:
                converged = True
                break
    return MLPModel(
        params=best_params,
        hidden=hidden,
        lr=lr,
        n_epochs=epochs_run,
        history=tuple(history),
        lr_drops=tuple(lr_drops),
        converged=converged,
    )


DEFAULT_GRIDS: dict[str, dict[str, list]] = {
    "mlp": {"hidden": [10, 15, 20], "lr": [0.01, 0.1]},
    "ridge": {"alpha": [0.001, 0.01, 0.1, 1.0, 10.0]},
    "lasso": {"alpha": [0.01, 0.1, 1.0, 10.0]},
    "knn": {"k": [10, 30, 50], "weights": ["uniform", "distance"]},
}


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _is_count(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1


# grid key -> (what a value must be, its test); a key means the same in every kind
_GRID_VALUE_RULES = {
    "alpha": ("a finite real >= 0", lambda v: _is_real(v) and v >= 0),
    "k": ("an int >= 1", _is_count),
    "weights": ("'uniform' or 'distance'", lambda v: isinstance(v, str) and v in ("uniform", "distance")),
    "hidden": ("an int >= 1", _is_count),
    "lr": ("a finite real > 0", lambda v: _is_real(v) and v > 0),
}


@dataclass(frozen=True)
class RegressorSpec:
    """Regressor kind plus hyperparameter grid (defaults above) and seed."""

    kind: str
    grid: dict | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in DEFAULT_GRIDS:
            raise InvalidSpecError(f"unknown regressor kind {self.kind!r}")
        if self.grid is None:
            return
        if not isinstance(self.grid, dict):
            raise InvalidSpecError(f"{self.kind} grid must be a dict of value lists, not {self.grid!r}")
        unknown = set(self.grid) - set(DEFAULT_GRIDS[self.kind])
        if unknown:
            raise InvalidSpecError(f"unknown grid keys for {self.kind}: {sorted(unknown)}")
        for key, values in self.grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise InvalidSpecError(f"{self.kind} grid {key!r} must be a non-empty list, not {values!r}")
            rule, ok = _GRID_VALUE_RULES[key]
            for value in values:
                if not ok(value):
                    raise InvalidSpecError(f"{self.kind} grid {key!r}: {value!r} is not {rule}")

    def grid_points(self) -> list[dict]:
        grid = {**DEFAULT_GRIDS[self.kind], **(self.grid or {})}
        keys = list(grid)
        return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]


def fit_regressor(kind: str, X, Y, hyper: dict, seed: int = 0):
    if kind == "ridge":
        return fit_ridge(X, Y, alpha=hyper["alpha"])
    if kind == "lasso":
        return fit_lasso(X, Y, alpha=hyper["alpha"])
    if kind == "knn":
        return fit_knn(X, Y, k=hyper["k"], weights=hyper["weights"])
    if kind == "mlp":
        return fit_mlp(X, Y, hidden=hyper["hidden"], lr=hyper["lr"], seed=seed)
    raise InvalidSpecError(f"unknown regressor kind {kind!r}")


def _ridge_fold(X, Y, queries, points: list[dict]):
    """Ridge predictions of the queries at any grid alpha, from one
    factorization per fold: with ``Xc'Xc = V diag(lam) V'`` the predictions
    are ``T diag(1 / (lam + alpha)) B + mean(Y)`` with ``T = Q V`` (``Q``
    the centred queries) and ``B = V'Xc'Yc`` fixed for the fold.

    Without alpha = 0 in the grid that is one eigendecomposition of
    ``Xc'Xc`` when p <= n, else of ``Xc Xc'`` (n x n, never p x p). With it,
    it is one thin SVD ``Xc = U diag(s) V'`` (``lam = s^2``,
    ``B = diag(s) U'Yc``), and at alpha = 0 singular values at or below
    ``max(s) * max(n, p) * eps`` count as zero: ``lstsq``'s cutoff, so CV
    scores the minimum-norm fit ``fit_ridge`` refits at alpha = 0. The Gram
    route cannot stand in for it, as its eigenvalues lose the singular
    values below about sqrt(eps) of the largest."""
    X, Y = _fit_inputs("ridge", X, Y)
    x_mean = X.mean(axis=0)
    y_mean = Y.mean(axis=0)
    Xc = X - x_mean
    Yc = Y - y_mean
    Q = np.asarray(queries, dtype=np.float64) - x_mean
    n, p = Xc.shape
    live = True
    if any(hyper["alpha"] == 0.0 for hyper in points):
        U, s, Vt = np.linalg.svd(Xc, full_matrices=False)
        lam, B, T = s * s, s[:, None] * (U.T @ Yc), Q @ Vt.T
        live = s > s[0] * max(n, p) * np.finfo(np.float64).eps
    elif p <= n:
        lam, V = np.linalg.eigh(Xc.T @ Xc)
        B = V.T @ (Xc.T @ Yc)
        T = Q @ V
    else:
        lam, U = np.linalg.eigh(Xc @ Xc.T)
        B = U.T @ Yc
        T = (Q @ Xc.T) @ U
    lam = np.maximum(lam, 0.0)

    def predict(hyper: dict) -> np.ndarray:
        alpha = hyper["alpha"]
        scale = np.divide(1.0, lam + alpha, out=np.zeros_like(lam), where=(alpha > 0) | live)
        return T @ (scale[:, None] * B) + y_mean

    return predict


def _knn_fold(X, Y, queries, points: list[dict]):
    """KNN predictions of the queries at any grid (k, weights), from one
    KD-tree query per fold at the largest grid k the fold's training rows
    allow; a point takes that query's first k columns (see ``_nearest``)."""
    X, Y = _fit_inputs("knn", X, Y)
    n, f = X.shape
    k_max = max((hyper["k"] for hyper in points if hyper["k"] <= n), default=0)

    @functools.cache
    def neighbours() -> tuple[np.ndarray, np.ndarray]:
        return _nearest(scipy.spatial.KDTree(X), _knn_queries(queries, f), k_max)

    def predict(hyper: dict) -> np.ndarray:
        k = hyper["k"]
        _check_k(k, n)
        dist, idx = neighbours()
        return _knn_average(dist[:, :k], idx[:, :k], Y, hyper["weights"])

    return predict


# kinds whose fold work serves every grid point; the others fit once per point
_SHARED_ROUTES = {"ridge": _ridge_fold, "knn": _knn_fold}


@dataclass(frozen=True)
class FittedRegressor:
    """The refit winner and its CV record; ``n_fits`` counts the solves CV
    made (one per fold for ridge and KNN, one per point and fold for Lasso
    and the MLP) plus the refit."""

    kind: str
    model: object
    hyperparams: dict
    fold_scores: tuple[tuple[float, ...], ...]
    mean_scores: tuple[float, ...]
    n_fits: int
    failures: tuple[tuple[int, int, str], ...] = ()

    def predict(self, X) -> np.ndarray:
        return self.model.predict(X)


def _fold_slices(n: int, folds: int) -> list[slice]:
    bounds = [int(math.floor(i * n / folds)) for i in range(folds + 1)]
    return [slice(bounds[i], bounds[i + 1]) for i in range(folds)]


def _reason(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def grid_search_cv(spec: RegressorSpec, X, Y, folds: int = 5) -> FittedRegressor:
    """Grid search over the spec's hyperparameters with contiguous k-fold
    cross-validation on the (pre-shuffled) training rows; variance-weighted
    R^2 is the selection criterion and the winner is refit on all rows.

    Ridge and KNN score every grid point from one factorization per fold
    (``_SHARED_ROUTES``); Lasso and the MLP fit once per point and fold. A
    held-out fold whose targets have no variance has no R^2 and raises
    ``InvalidInputError``. A fold whose fit fails with an ``EmgDecodeError``
    (an impossible KNN ``k``, a diverged MLP) scores -inf and is recorded in
    ``failures`` as (grid index, fold index, reason); any other exception
    propagates. A NaN mean never wins; ties go to the first-listed point.
    Per-fit seeds are derived from the spec seed so results do not depend
    on evaluation order.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    n = X.shape[0]
    if n < folds:
        raise InvalidInputError(f"need at least {folds} rows for {folds}-fold CV")
    points = spec.grid_points()
    fold_slc = _fold_slices(n, folds)
    for fi, slc in enumerate(fold_slc):
        if (Y[slc].var(axis=0) == 0.0).all():
            raise InvalidInputError(
                f"CV fold {fi} (rows {slc.start}:{slc.stop}) holds out targets with no variance; R^2 is undefined"
            )
    route = _SHARED_ROUTES.get(spec.kind)
    scores = [[-math.inf] * folds for _ in points]
    failures: list[tuple[int, int, str]] = []
    for fi, slc in enumerate(fold_slc):
        mask = np.ones(n, dtype=bool)
        mask[slc] = False
        x_fit, y_fit = X[mask], Y[mask]
        try:
            shared = route(x_fit, y_fit, X[slc], points) if route else None
        except EmgDecodeError as exc:
            failures.extend((gi, fi, _reason(exc)) for gi in range(len(points)))
            continue
        for gi, hyper in enumerate(points):
            try:
                if shared:
                    pred = shared(hyper)
                else:
                    seed = _derived_seed(spec.seed, gi, fi)
                    pred = fit_regressor(spec.kind, x_fit, y_fit, hyper, seed=seed).predict(X[slc])
                scores[gi][fi] = r2_vw(Y[slc], pred)
            except EmgDecodeError as exc:
                failures.append((gi, fi, _reason(exc)))
    mean_scores = [float(np.mean(row)) for row in scores]
    best = int(np.argmax([-math.inf if math.isnan(m) else m for m in mean_scores]))
    if not math.isfinite(mean_scores[best]):
        raise TrainingDivergedError("every grid point failed during cross-validation")
    final_seed = _derived_seed(spec.seed, best, folds)
    model = fit_regressor(spec.kind, X, Y, points[best], seed=final_seed)
    return FittedRegressor(
        kind=spec.kind,
        model=model,
        hyperparams=points[best],
        fold_scores=tuple(tuple(row) for row in scores),
        mean_scores=tuple(mean_scores),
        n_fits=(folds if route else len(points) * folds) + 1,
        failures=tuple(sorted(failures)),
    )


def _derived_seed(base: int, grid_index: int, fold_index: int) -> int:
    return int(
        np.random.SeedSequence(base, spawn_key=(grid_index, fold_index)).generate_state(1)[0]
    )


def postprocess(
    pred: np.ndarray, pred_rate: float, cutoff_hz: float = 5.0, order: int = 4
) -> tuple[np.ndarray, bool]:
    """Zero-phase low-pass of predicted trajectories (test set, in temporal
    order). Returns (filtered, bypassed); the filter is bypassed when the
    cutoff reaches the prediction Nyquist (cutoff >= 0.499 * pred_rate)."""
    pred = np.asarray(pred, dtype=np.float64)
    if cutoff_hz >= 0.499 * pred_rate:
        return pred.copy(), True
    coeffs = design_butterworth(
        FilterSpec(kind="lowpass", order=order, band=cutoff_hz), fs=pred_rate
    )
    return apply_filtfilt(coeffs, pred, axis=0), False
