"""Regressors, scaling, sequences, grid-search CV, and post-filtering."""

import math
import warnings

import numpy as np
import pytest
import scipy.spatial
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emgdecode import (
    DEFAULT_GRIDS,
    AlignmentError,
    ConfigError,
    InvalidInputError,
    InvalidSpecError,
    RegressorSpec,
    RunConfig,
    ScalerPair,
    build_sequences,
    fit_knn,
    fit_lasso,
    fit_mlp,
    fit_ridge,
    grid_search_cv,
    postprocess,
    reconstruct_series,
)
from emgdecode import regression
from emgdecode.regression import _mlp_forward_backward, _mlp_init


class TestScaler:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((100, 7)) * 3 + 1
        Y = rng.standard_normal((100, 5)) * 40 + 20
        sc = ScalerPair.fit(X, Y)
        assert np.abs(sc.inverse_outputs(sc.transform_outputs(Y)) - Y).max() <= 1e-10

    def test_shared_output_scaler_preserves_amplitude_ratios(self):
        rng = np.random.default_rng(1)
        Y = rng.standard_normal((200, 3))
        Y[:, 1] *= 5.0
        sc = ScalerPair.fit(np.zeros((200, 2)), Y)
        Ys = sc.transform_outputs(Y)
        for d in (1, 2):
            ratio_before = Y[:, d].std() / Y[:, 0].std()
            ratio_after = Ys[:, d].std() / Ys[:, 0].std()
            assert ratio_after == pytest.approx(ratio_before, rel=1e-12)

    def test_constant_features_flagged_and_safe(self):
        X = np.ones((50, 3))
        X[:, 1] = np.linspace(0, 1, 50)
        sc = ScalerPair.fit(X, np.zeros((50, 1)))
        assert sc.in_std[0] == sc.in_std[2] == 1.0
        assert np.isfinite(sc.transform_inputs(X)).all()


class TestSequences:
    def test_n_win_one_is_identity(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((10, 3))
        Y = rng.standard_normal((10, 2))
        xs, ys = build_sequences(X, Y, 1)
        assert np.array_equal(xs, X)
        assert np.array_equal(ys, Y)
        assert np.array_equal(reconstruct_series(ys, 2), Y)

    def test_three_row_windows(self):
        X = np.arange(20.0).reshape(10, 2)
        Y = np.arange(10.0)[:, None]
        xs, ys = build_sequences(X, Y, 3)
        assert xs.shape == (8, 6)
        assert np.array_equal(xs[0], X[:3].ravel())  # rows 0-2 flattened time-major
        assert np.array_equal(ys[0], np.array([0.0, 1.0, 2.0]))

    def test_round_trip_recovers_target_tail(self):
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((25, 4))
        _, ys = build_sequences(np.zeros((25, 1)), Y, 5)
        assert np.array_equal(reconstruct_series(ys, 4), Y[4:])

    def test_too_few_rows_rejected(self):
        with pytest.raises(InvalidInputError):
            build_sequences(np.zeros((2, 1)), np.zeros((2, 1)), 3)
        with pytest.raises(InvalidInputError):
            build_sequences(np.zeros((2, 1)), np.zeros((2, 1)), 0)

    def test_constant_predictions_reconstruct_constant(self):
        pred = np.tile(np.arange(8.0), (6, 1))
        out = reconstruct_series(pred, 2)
        assert np.array_equal(out, np.tile([6.0, 7.0], (6, 1)))


class TestRidge:
    def test_alpha_zero_residual_orthogonal(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((60, 5))
        Y = rng.standard_normal((60, 2))
        model = fit_ridge(X, Y, alpha=0.0)
        resid = Y - model.predict(X)
        assert np.abs(X.T @ resid).max() <= 1e-8

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 15), extra=st.integers(0, 20))
    def test_alpha_zero_is_minimum_norm_fit_when_rank_deficient(self, seed, n, extra):
        # p >= n: the centred rows have rank n - 1 at most, so Xc'Xc is
        # singular and least squares has many solutions
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, n + extra))
        Y = rng.standard_normal((n, 2))
        x_mean, y_mean = X.mean(axis=0), Y.mean(axis=0)
        W_min = np.linalg.pinv(X - x_mean) @ (Y - y_mean)
        model = fit_ridge(X, Y, alpha=0.0)
        assert np.abs(model.weights - W_min).max() <= 1e-8 * max(1.0, np.abs(W_min).max())
        assert np.allclose(model.intercept, y_mean - x_mean @ W_min, rtol=1e-8, atol=1e-8)

    def test_huge_alpha_shrinks_to_zero(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((60, 5))
        Y = rng.standard_normal((60, 2))
        model = fit_ridge(X, Y, alpha=1e12)
        assert np.abs(model.weights).max() <= 1e-9

    def test_recovers_planted_linear_map(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((500, 8))
        W_true = rng.standard_normal((8, 3))
        model = fit_ridge(X, X @ W_true, alpha=1e-6)
        rel = np.abs(model.weights - W_true).max() / np.abs(W_true).max()
        assert rel <= 1e-4

    def test_few_rows_small_alpha_matches_qr_solution(self):
        # kappa(X'X + alpha I) ~ 1e8: a plain Gram solve is off by ~1e-9
        rng = np.random.default_rng(0)
        X = 10.0 * rng.standard_normal((4, 20))
        Y = rng.standard_normal((4, 3))
        Xc, Yc = X - X.mean(axis=0), Y - Y.mean(axis=0)
        aug_x = np.vstack([Xc, np.sqrt(1e-4) * np.eye(20)])
        aug_y = np.vstack([Yc, np.zeros((20, 3))])
        W_qr = np.linalg.lstsq(aug_x, aug_y, rcond=None)[0]
        model = fit_ridge(X, Y, alpha=1e-4)
        assert np.abs(model.weights - W_qr).max() <= 1e-10 * np.abs(W_qr).max()

    def test_output_scale_equivariance(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((80, 6))
        Y = rng.standard_normal((80, 2))
        a = fit_ridge(X, Y, alpha=0.5).predict(X)
        b = fit_ridge(X, 3.0 * Y, alpha=0.5).predict(X)
        assert np.abs(b - 3.0 * a).max() <= 1e-8 * max(1.0, np.abs(a).max())


def orthonormal_design(n, f, rng):
    """Zero-mean columns orthonormal under the empirical inner product:
    X^T X / n = I and X^T 1 = 0 (so centering inside the fits is a no-op)."""
    M = rng.standard_normal((n, f))
    M -= M.mean(axis=0)
    Q, _ = np.linalg.qr(M)
    return Q[:, :f] * math.sqrt(n)


def residual_lasso(X, Y, alpha, max_iter=10000, tol=1e-3):
    """Reference Lasso: the same cyclic coordinate descent as ``fit_lasso``,
    on the data residual. Each coordinate adds its old contribution back to
    the length-n residual, takes rho from a dot product with its column and
    subtracts the new contribution. Returns the weights, each output's
    sweeps, and whether the tolerance test stopped them."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    n, f = Xc.shape
    z = (Xc * Xc).mean(axis=0)
    W = np.zeros((f, Y.shape[1]))
    sweeps, stopped = [], []
    for d in range(Y.shape[1]):
        w = W[:, d]
        resid = Yc[:, d].copy()
        done = False
        for sweep in range(1, max_iter + 1):
            max_delta = 0.0
            for j in range(f):
                if z[j] == 0.0:
                    continue
                old = w[j]
                if old != 0.0:
                    resid += old * Xc[:, j]
                rho = float(Xc[:, j] @ resid) / n
                new = math.copysign(max(abs(rho) - alpha, 0.0), rho) / z[j]
                if new != 0.0:
                    resid -= new * Xc[:, j]
                w[j] = new
                max_delta = max(max_delta, abs(new - old))
            if max_delta <= tol * float(np.abs(w).max(initial=0.0)):
                done = True
                break
        sweeps.append(sweep)
        stopped.append(done)
    return W, sweeps, stopped


class TestLasso:
    def test_huge_alpha_kills_all_weights(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((50, 4))
        Y = rng.standard_normal((50, 2))
        model = fit_lasso(X, Y, alpha=1e6)
        assert np.all(model.weights == 0.0)

    def test_alpha_zero_matches_least_squares_on_orthonormal_design(self):
        rng = np.random.default_rng(9)
        X = orthonormal_design(200, 6, rng)
        Y = rng.standard_normal((200, 2))
        model = fit_lasso(X, Y, alpha=0.0, tol=1e-10)
        w_ls = np.linalg.lstsq(X, Y, rcond=None)[0]
        assert np.abs(model.weights - w_ls).max() <= 1e-8

    def test_orthonormal_soft_threshold_oracle(self):
        # analytic oracle: w_j = soft(w_j_LS, alpha) when X^T X / n = I
        rng = np.random.default_rng(10)
        X = orthonormal_design(300, 8, rng)
        Y = rng.standard_normal((300, 3))
        alpha = 0.15
        model = fit_lasso(X, Y, alpha=alpha, tol=1e-12)
        w_ls = (X.T @ Y) / X.shape[0]
        expected = np.sign(w_ls) * np.maximum(np.abs(w_ls) - alpha, 0.0)
        assert np.abs(model.weights - expected).max() <= 1e-6

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 40),
        f=st.integers(1, 8),
        n_out=st.integers(1, 3),
        alpha=st.sampled_from([0.0, 1e-3, 1e-2, 0.1, 1.0]),
        constant=st.lists(st.booleans(), min_size=8, max_size=8),
    )
    def test_covariance_form_matches_residual_form(self, seed, n, f, n_out, alpha, constant):
        # few rows (n < f), alpha = 0, zero-variance columns, several outputs
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, f))
        X[:, np.asarray(constant[:f])] = 3.0
        Y = X @ rng.standard_normal((f, n_out)) + rng.standard_normal((n, n_out))
        model = fit_lasso(X, Y, alpha)
        W, sweeps, stopped = residual_lasso(X, Y, alpha)
        assert list(model.n_iter) == sweeps
        assert list(model.converged) == stopped
        assert np.abs(model.weights - W).max() <= 1e-12 * np.abs(W).max()

    def test_convergence_recorded_per_output(self):
        rng = np.random.default_rng(26)
        X = rng.standard_normal((60, 5))
        Y = X @ rng.standard_normal((5, 3)) + 0.5 * rng.standard_normal((60, 3))
        model = fit_lasso(X, Y, alpha=0.01)
        assert len(model.n_iter) == len(model.converged) == 3
        assert all(model.converged)
        # capped exactly where the test fires: still converged
        first = model.n_iter[0]
        capped = fit_lasso(X, Y[:, :1], alpha=0.01, max_iter=first)
        assert capped.n_iter == (first,) and capped.converged == (True,)
        # capped one sweep earlier: not converged
        capped = fit_lasso(X, Y[:, :1], alpha=0.01, max_iter=first - 1)
        assert capped.n_iter == (first - 1,) and capped.converged == (False,)
        assert fit_ridge(X, Y, 0.1).n_iter == () and fit_ridge(X, Y, 0.1).converged == ()


FITS = [
    ("ridge", lambda X, Y: fit_ridge(X, Y, 1.0)),
    ("lasso", lambda X, Y: fit_lasso(X, Y, 0.1)),
    ("knn", lambda X, Y: fit_knn(X, Y, k=3)),
    ("mlp", lambda X, Y: fit_mlp(X, Y, hidden=4, lr=0.01, max_iter=2)),
]


@pytest.mark.parametrize("kind, fit", FITS, ids=[kind for kind, _ in FITS])
def test_nonfinite_input_rejected(kind, fit):
    X = np.random.default_rng(25).standard_normal((40, 3))
    X[5, 1] = np.nan
    with pytest.raises(InvalidInputError, match=kind):
        fit(X, np.zeros((40, 1)))
    with pytest.raises(InvalidInputError, match=kind):
        fit(np.zeros((40, 3)), np.full((40, 1), np.inf))


@pytest.mark.parametrize(
    "kind, fit",
    [*FITS, ("knn", lambda X, Y: grid_search_cv(RegressorSpec("knn", seed=0), X, Y))],
    ids=[*(kind for kind, _ in FITS), "grid_search_cv"],
)
def test_unpaired_rows_rejected(kind, fit):
    # one Y row too many: KNN would pair the rows wrongly, the others fail untyped
    rng = np.random.default_rng(26)
    with pytest.raises(AlignmentError, match=f"{kind}: X has 40 rows but Y has 41"):
        fit(rng.standard_normal((40, 3)), rng.standard_normal((41, 2)))


@pytest.mark.parametrize("fit", [fit_ridge, fit_lasso])
@pytest.mark.parametrize("alpha", [-1.0, math.nan, math.inf])
def test_negative_or_non_finite_alpha_rejected(fit, alpha):
    rng = np.random.default_rng(30)
    X = rng.standard_normal((20, 30))
    Y = rng.standard_normal((20, 2))
    with pytest.raises(InvalidSpecError, match="alpha"):
        fit(X, Y, alpha)


@pytest.mark.parametrize(
    "kind, grid, key, bad",
    [
        ("mlp", {"hidden": [0]}, "hidden", 0),
        ("knn", {"k": ["5"]}, "k", "5"),
        ("ridge", {"alpha": []}, "alpha", []),
        ("ridge", {"alpha": 0.1}, "alpha", 0.1),
        ("lasso", {"alpha": [math.nan]}, "alpha", math.nan),
        ("knn", {"weights": ["bogus"]}, "weights", "bogus"),
        ("mlp", {"lr": [-1.0]}, "lr", -1.0),
    ],
    ids=["hidden-zero", "k-string", "alpha-empty", "alpha-scalar", "alpha-nan", "weights-unknown", "lr-negative"],
)
def test_bad_grid_value_rejected(kind, grid, key, bad):
    rng = np.random.default_rng(24)
    X = rng.standard_normal((40, 3))
    Y = rng.standard_normal((40, 2))
    with pytest.raises(InvalidSpecError) as info:
        grid_search_cv(RegressorSpec(kind, grid=grid, seed=0), X, Y)
    for name in (kind, repr(key), repr(bad)):
        assert name in str(info.value)
    # a run config holding the grid fails on construction, before any data is read
    with pytest.raises(ConfigError, match=repr(key)):
        RunConfig(model=kind, grid=grid)


def brute_force_knn(x_train, y_train, k, weights, queries):
    """Reference KNN: every squared distance, a stable full argsort, and a
    per-row weighting loop. Returns each query's neighbour indices, nearest
    first, and the predictions."""
    d2 = ((queries[:, None, :] - x_train[None, :, :]) ** 2).sum(axis=2)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    out = np.empty((queries.shape[0], y_train.shape[1]))
    for i, idx in enumerate(order):
        dist = np.sqrt(d2[i, idx])
        targets = y_train[idx]
        exact = dist == 0.0
        if weights == "uniform":
            out[i] = targets.mean(axis=0)
        elif exact.any():
            out[i] = targets[exact].mean(axis=0)
        else:
            w = 1.0 / dist
            out[i] = (w[:, None] * targets).sum(axis=0) / w.sum()
    return order, out


class TestKnn:
    def test_exact_match_short_circuit(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((30, 4))
        Y = rng.standard_normal((30, 2))
        model = fit_knn(X, Y, k=5, weights="distance")
        assert np.allclose(model.predict(X[7:8]), Y[7:8], atol=1e-12)

    def test_k_equals_all_rows_uniform_gives_global_mean(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((20, 3))
        Y = rng.standard_normal((20, 2))
        model = fit_knn(X, Y, k=20, weights="uniform")
        pred = model.predict(np.zeros((1, 3)))
        assert np.allclose(pred[0], Y.mean(axis=0), atol=1e-12)

    def test_two_clusters(self):
        rng = np.random.default_rng(13)
        a = rng.normal(0.0, 0.1, (15, 2))
        b = rng.normal(10.0, 0.1, (15, 2))
        X = np.vstack([a, b])
        Y = np.vstack([np.zeros((15, 1)), np.ones((15, 1))])
        model = fit_knn(X, Y, k=10, weights="uniform")
        pred = model.predict(np.array([[0.05, -0.02]]))
        assert pred[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_k1_reproduces_training_targets(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((40, 5))
        Y = rng.standard_normal((40, 3))
        for weights in ("uniform", "distance"):
            model = fit_knn(X, Y, k=1, weights=weights)
            assert np.array_equal(model.predict(X), Y)

    def test_k_larger_than_rows_rejected(self):
        with pytest.raises(InvalidSpecError):
            fit_knn(np.zeros((5, 2)), np.zeros((5, 1)), k=6)

    def test_predict_peak_memory_bounded(self):
        import tracemalloc

        rng = np.random.default_rng(27)
        X = rng.standard_normal((1000, 200))
        Y = rng.standard_normal((1000, 3))
        queries = rng.standard_normal((40, 200))
        model = fit_knn(X, Y, k=5, weights="distance")
        tracemalloc.start()
        try:
            model.predict(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # far below the 40 x 1000 x 200 difference tensor (64 MB) of a
        # broadcast route; tracemalloc sees numpy's buffers but not the
        # tree nodes the KD-tree allocates in C++
        assert peak <= 24e6

    def test_bad_query_rejected(self):
        # a non-finite training row is rejected by test_nonfinite_input_rejected[knn]
        rng = np.random.default_rng(31)
        X = rng.standard_normal((30, 4))
        Y = rng.standard_normal((30, 2))
        model = fit_knn(X, Y, k=5, weights="uniform")
        query = rng.standard_normal((3, 4))
        query[1, 2] = np.nan
        with pytest.raises(InvalidInputError, match="finite"):
            model.predict(query)
        with pytest.raises(InvalidInputError, match="4 features"):
            model.predict(rng.standard_normal((3, 5)))
        with pytest.raises(InvalidInputError, match="4 features"):
            model.predict(rng.standard_normal(4))

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_train=st.integers(1, 40),
        f=st.integers(1, 6),
        n_out=st.integers(1, 3),
        n_fresh=st.integers(0, 6),
        n_copies=st.integers(0, 4),
        k_rule=st.sampled_from(["one", "all", "any"]),
        weights=st.sampled_from(["uniform", "distance"]),
    )
    def test_matches_brute_force(self, seed, n_train, f, n_out, n_fresh, n_copies, k_rule, weights):
        # continuous designs, so no two distances tie; copies of training rows
        # exercise the exact-match mask
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n_train, f))
        Y = rng.standard_normal((n_train, n_out))
        queries = np.vstack([rng.standard_normal((n_fresh, f)), X[rng.integers(0, n_train, n_copies)]])
        if queries.shape[0] == 0:
            queries = X[:1]
        k = {"one": 1, "all": n_train, "any": int(rng.integers(1, n_train + 1))}[k_rule]
        order, expected = brute_force_knn(X, Y, k, weights, queries)
        # warnings are errors, so an exact match must never compute 1/0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # one-hot targets turn a uniform prediction into the neighbour set
            sets = fit_knn(X, np.eye(n_train), k).predict(queries) != 0.0
            pred = fit_knn(X, Y, k, weights).predict(queries)
        for row, idx in zip(sets, order):
            assert np.array_equal(np.flatnonzero(row), np.sort(idx))
        assert np.abs(pred - expected).max() <= 1e-12 * np.abs(expected).max()


class TestMlp:
    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((5, 4))
        Y = rng.standard_normal((5, 3))
        params = _mlp_init(4, 6, 3, rng)
        # keep pre-activations away from the ReLU kink
        params["b1"] = params["b1"] + 0.3
        _, grads = _mlp_forward_backward(params, X, Y)
        eps = 1e-6
        for key in params:
            flat = params[key].ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                up, _ = _mlp_forward_backward(params, X, Y)
                flat[idx] = orig - eps
                dn, _ = _mlp_forward_backward(params, X, Y)
                flat[idx] = orig
                numeric = (up - dn) / (2 * eps)
                analytic = grads[key].ravel()[idx]
                scale = max(abs(numeric), abs(analytic), 1e-8)
                assert abs(numeric - analytic) / scale <= 1e-5

    def test_constant_targets_learned(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((2000, 4))
        Y = np.full((2000, 2), 0.37)
        model = fit_mlp(X, Y, hidden=10, lr=0.01, seed=0)
        mse = float(((model.predict(X) - Y) ** 2).mean())
        assert mse <= 1e-6

    def test_seed_determinism(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((150, 5))
        Y = rng.standard_normal((150, 2))
        a = fit_mlp(X, Y, hidden=8, lr=0.01, max_iter=5, seed=11)
        b = fit_mlp(X, Y, hidden=8, lr=0.01, max_iter=5, seed=11)
        for key in a.params:
            assert np.array_equal(a.params[key], b.params[key])

    def test_learning_rate_drops_recorded(self):
        rng = np.random.default_rng(28)
        X = rng.standard_normal((300, 4))
        Y = rng.standard_normal((300, 2))  # no signal: the training loss stalls
        model = fit_mlp(X, Y, hidden=8, lr=0.1, max_iter=80, patience=100, seed=0)
        drops = model.lr_drops
        assert model.n_epochs == 80 and drops
        # a drop needs ten stalled epochs after the first one set the best loss
        assert drops[0] >= 11 and drops[-1] <= model.n_epochs
        assert all(b - a >= 10 for a, b in zip(drops, drops[1:]))
        assert fit_mlp(X, Y, hidden=8, lr=0.1, max_iter=5, seed=0).lr_drops == ()

    def test_converged_means_early_stopping_fired(self):
        rng = np.random.default_rng(32)
        X = rng.standard_normal((300, 4))
        Y = rng.standard_normal((300, 2))  # no signal: the validation loss stalls
        model = fit_mlp(X, Y, hidden=8, lr=0.1, patience=5, seed=0)
        stopped = model.n_epochs
        assert model.converged and stopped < 200
        # the last `patience` epochs did not improve on the best validation loss
        assert min(model.history[-5:]) >= min(model.history[:-5]) - 1e-12
        # capped exactly where patience runs out: still converged
        capped = fit_mlp(X, Y, hidden=8, lr=0.1, max_iter=stopped, patience=5, seed=0)
        assert capped.n_epochs == stopped and capped.converged
        # capped one epoch earlier: the cap ended training
        capped = fit_mlp(X, Y, hidden=8, lr=0.1, max_iter=stopped - 1, patience=5, seed=0)
        assert capped.n_epochs == stopped - 1 and not capped.converged

    def test_learns_linear_map(self):
        rng = np.random.default_rng(18)
        X = rng.standard_normal((600, 4))
        W = rng.standard_normal((4, 2))
        Y = X @ W
        model = fit_mlp(X, Y, hidden=20, lr=0.01, seed=1)
        pred = model.predict(X)
        assert 1 - ((pred - Y) ** 2).mean() / Y.var() >= 0.95


class TestGridSearch:
    def test_single_point_grid_equals_direct_fit(self):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((100, 5))
        Y = rng.standard_normal((100, 2))
        spec = RegressorSpec("ridge", grid={"alpha": [0.1]}, seed=0)
        fitted = grid_search_cv(spec, X, Y)
        direct = fit_ridge(X, Y, alpha=0.1)
        assert fitted.hyperparams == {"alpha": 0.1}
        assert np.allclose(fitted.model.weights, direct.weights, atol=1e-12)

    def test_noise_free_linear_selects_smallest_alpha(self):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((200, 6))
        Y = X @ rng.standard_normal((6, 3))
        fitted = grid_search_cv(RegressorSpec("ridge", seed=0), X, Y)
        assert fitted.hyperparams == {"alpha": 0.001}

    def test_refit_at_alpha_zero_predicts_what_cv_scored(self):
        # 10 rows and 10..29 columns: the refit's centred Gram matrix is
        # singular; CV scores alpha = 0 as the minimum-norm fit, and the refit
        # must be that fit too, not another least-squares solution
        for seed in range(40):
            rng = np.random.default_rng(seed)
            p = int(rng.integers(10, 30))
            X = rng.standard_normal((10, p))
            Y = rng.standard_normal((10, 2))
            spec = RegressorSpec("ridge", grid={"alpha": [0.0]}, seed=0)
            fitted = grid_search_cv(spec, X, Y)
            queries = rng.standard_normal((8, p))
            scored = regression._ridge_fold(X, Y, queries, spec.grid_points())({"alpha": 0.0})
            gap = np.abs(fitted.model.predict(queries) - scored).max()
            assert gap <= 1e-10 * max(1.0, np.abs(scored).max()), seed

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), log_cond=st.floats(0.0, 8.0))
    @example(seed=0, log_cond=8.0)
    def test_cv_at_alpha_zero_predicts_refit_when_ill_conditioned(self, seed, log_cond):
        # full rank, singular values 1 .. 10^-log_cond: the Gram route loses
        # the smallest below ~1e-8 and parts from lstsq by the predictions' scale
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((40, 6))
        U, _ = np.linalg.qr(Z - Z.mean(axis=0))  # centred columns: Xc keeps the spectrum
        V, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        X = (U * np.geomspace(1.0, 10.0**-log_cond, 6)) @ V.T + rng.standard_normal(6)
        Y = rng.standard_normal((40, 2))
        queries = rng.standard_normal((8, 6))
        scored = regression._ridge_fold(X, Y, queries, [{"alpha": 0.0}])({"alpha": 0.0})
        refit = fit_ridge(X, Y, alpha=0.0).predict(queries)
        assert np.abs(refit - scored).max() <= 1e-9 * max(1.0, np.abs(refit).max())

    def test_deterministic_selection(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((120, 4))
        Y = X @ rng.standard_normal((4, 2)) + 0.3 * rng.standard_normal((120, 2))
        a = grid_search_cv(RegressorSpec("ridge", seed=5), X, Y)
        b = grid_search_cv(RegressorSpec("ridge", seed=5), X, Y)
        assert a.hyperparams == b.hyperparams
        assert a.mean_scores == b.mean_scores

    def test_failing_grid_point_scores_neg_inf(self):
        rng = np.random.default_rng(22)
        X = rng.standard_normal((40, 3))
        Y = rng.standard_normal((40, 2))
        # k=50 exceeds every fold's training rows -> -inf; k=10 works
        spec = RegressorSpec("knn", grid={"k": [50, 10], "weights": ["uniform"]}, seed=0)
        fitted = grid_search_cv(spec, X, Y)
        assert fitted.hyperparams["k"] == 10
        assert fitted.mean_scores[0] == -math.inf
        # each failed fold is recorded with its reason; -inf stays in the scores
        assert [f[:2] for f in fitted.failures] == [(0, fi) for fi in range(5)]
        assert all("InvalidSpecError" in f[2] and "k=50" in f[2] for f in fitted.failures)
        assert fitted.fold_scores[0] == (-math.inf,) * 5

    def test_untyped_fit_error_reaches_caller(self, monkeypatch):
        # a fit failing with anything but an EmgDecodeError is a bug, not a
        # failed grid point
        def broken_fit(X, Y, alpha):
            raise TypeError("bug inside a fit")

        monkeypatch.setattr(regression, "fit_ridge", broken_fit)
        rng = np.random.default_rng(24)
        X = rng.standard_normal((40, 3))
        Y = rng.standard_normal((40, 2))
        with pytest.raises(TypeError, match="bug inside a fit"):
            grid_search_cv(RegressorSpec("ridge", grid={"alpha": [0.1]}, seed=0), X, Y)

    def test_table_one_grids(self):
        assert DEFAULT_GRIDS["ridge"]["alpha"] == [0.001, 0.01, 0.1, 1.0, 10.0]
        assert DEFAULT_GRIDS["lasso"]["alpha"] == [0.01, 0.1, 1.0, 10.0]
        assert DEFAULT_GRIDS["mlp"]["hidden"] == [10, 15, 20]
        assert DEFAULT_GRIDS["mlp"]["lr"] == [0.01, 0.1]
        assert DEFAULT_GRIDS["knn"]["k"] == [10, 30, 50]
        assert DEFAULT_GRIDS["knn"]["weights"] == ["uniform", "distance"]

    def test_rows_fewer_than_folds_rejected(self):
        with pytest.raises(InvalidInputError):
            grid_search_cv(RegressorSpec("ridge", seed=0), np.zeros((4, 2)), np.zeros((4, 1)))

    def test_constant_held_out_targets_name_the_fold(self):
        rng = np.random.default_rng(32)
        X = rng.standard_normal((20, 3))
        # no fit fails here; the held-out R^2 is undefined
        with pytest.raises(InvalidInputError, match=r"fold 0 \(rows 0:4\)"):
            grid_search_cv(RegressorSpec("ridge", seed=0), X, np.full((20, 2), 4.0))
        Y = rng.standard_normal((20, 2))
        Y[8:12] = 1.5
        with pytest.raises(InvalidInputError, match=r"fold 2 \(rows 8:12\)"):
            grid_search_cv(RegressorSpec("knn", grid={"k": [3]}, seed=0), X, Y)

    def test_nan_mean_never_wins(self, monkeypatch):
        # grid point 0 scores NaN in every fold; the point after it must win
        calls = []

        def r2_nan_for_first_point(y, yhat):
            calls.append(None)
            return math.nan if len(calls) % 2 == 1 else 0.5

        monkeypatch.setattr(regression, "r2_vw", r2_nan_for_first_point)
        rng = np.random.default_rng(33)
        X = rng.standard_normal((40, 3))
        Y = rng.standard_normal((40, 2))
        fitted = grid_search_cv(RegressorSpec("ridge", grid={"alpha": [0.1, 1.0]}, seed=0), X, Y)
        assert fitted.hyperparams == {"alpha": 1.0}
        assert math.isnan(fitted.mean_scores[0]) and fitted.mean_scores[1] == 0.5

    @pytest.mark.parametrize(
        "kind, grid, n_fits",
        [
            ("ridge", None, 5 + 1),
            ("knn", {"k": [3, 500]}, 5 + 1),
            ("lasso", {"alpha": [0.1, 1.0]}, 2 * 5 + 1),
            ("mlp", {"hidden": [4], "lr": [0.01]}, 5 + 1),
        ],
        ids=["ridge", "knn", "lasso", "mlp"],
    )
    def test_fit_count(self, kind, grid, n_fits):
        # one solve per fold for the shared routes (a failed point included),
        # one per point and fold for the others, plus the refit
        rng = np.random.default_rng(34)
        X = rng.standard_normal((40, 3))
        Y = rng.standard_normal((40, 2))
        assert grid_search_cv(RegressorSpec(kind, grid=grid, seed=0), X, Y).n_fits == n_fits


def per_point_fold_scores(kind, X, Y, points, folds=5):
    """Reference for the shared CV routes: every grid point's fold scores
    from its own ``fit_*`` + ``predict`` + ``r2_vw``, and the failures as
    (grid index, fold, reason)."""
    n = X.shape[0]
    scores, failures = [], []
    for gi, hyper in enumerate(points):
        row = []
        for fi, slc in enumerate(regression._fold_slices(n, folds)):
            mask = np.ones(n, dtype=bool)
            mask[slc] = False
            try:
                pred = regression.fit_regressor(kind, X[mask], Y[mask], hyper).predict(X[slc])
                row.append(regression.r2_vw(Y[slc], pred))
            except InvalidSpecError as exc:
                row.append(-math.inf)
                failures.append((gi, fi, f"{type(exc).__name__}: {exc}"))
        scores.append(tuple(row))
    return tuple(scores), tuple(failures)


class TestSharedRoutes:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(30, 60),
        wide=st.booleans(),
        n_out=st.integers(1, 3),
    )
    def test_ridge_matches_per_point_fits(self, seed, n, wide, n_out):
        # p <= n/3 takes the eigh of Xc'Xc, p >= 2n that of Xc Xc'. The route
        # solves the normal equations, whose prediction error grows as
        # kappa(Xc)^2 * eps, while fit_ridge's corrected solve is near QR
        # accuracy. Shapes this far from square keep kappa small, and at least
        # six held-out rows keep |R^2| modest; differences stay below 1e-13,
        # so 1e-10 bounds them with room for other BLAS builds.
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2 * n, 3 * n + 1)) if wide else int(rng.integers(1, n // 3 + 1))
        X = rng.standard_normal((n, p))
        Y = X @ rng.standard_normal((p, n_out)) / math.sqrt(p) + rng.standard_normal((n, n_out))
        spec = RegressorSpec("ridge", grid={"alpha": [0.0, 1e-3, 0.1, 10.0]}, seed=0)
        fitted = grid_search_cv(spec, X, Y)
        expected, _ = per_point_fold_scores("ridge", X, Y, spec.grid_points())
        assert np.abs(np.array(fitted.fold_scores) - np.array(expected)).max() <= 1e-10
        assert fitted.failures == ()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(10, 50),
        f=st.integers(1, 5),
        n_out=st.integers(1, 3),
        n_copies=st.integers(0, 10),
    )
    def test_knn_matches_per_point_fits(self, seed, n, f, n_out, n_copies):
        # continuous rows, some copied into other folds so held-out queries
        # match training rows exactly; k = n exceeds every fold's training rows
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, f))
        X[rng.integers(0, n, n_copies)] = X[rng.integers(0, n, n_copies)]
        Y = rng.standard_normal((n, n_out))
        spec = RegressorSpec("knn", grid={"k": [1, 3, int(rng.integers(1, n // 2 + 1)), n]}, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fitted = grid_search_cv(spec, X, Y)
        expected, failures = per_point_fold_scores("knn", X, Y, spec.grid_points())
        assert fitted.fold_scores == expected
        assert fitted.failures == failures

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(10, 50),
        f=st.integers(1, 3),
        weights=st.sampled_from(["uniform", "distance"]),
    )
    def test_knn_ties_at_kth_neighbour(self, seed, n, f, weights):
        # rows on a {0, 1, 2}^f lattice repeat, so many rows tie at the k-th
        # distance; the lower row index wins each tie, as in the stable
        # argsort of brute_force_knn, at every k and for every query depth
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 3, (n, f)).astype(float)
        Y = rng.standard_normal((n, 2))
        queries = rng.integers(0, 3, (8, f)).astype(float)
        ks = sorted({1, 2, int(rng.integers(1, n + 1)), n})
        dist, idx = regression._nearest(scipy.spatial.KDTree(X), queries, max(ks))
        for k in ks:
            order, expected = brute_force_knn(X, Y, k, weights, queries)
            assert np.array_equal(idx[:, :k], order)
            pred = fit_knn(X, Y, k, weights).predict(queries)
            assert np.abs(pred - expected).max() <= 1e-12 * np.abs(expected).max()
        # k = n exceeds every fold's training rows and fails in each
        spec = RegressorSpec("knn", grid={"k": ks, "weights": [weights]}, seed=0)
        expected, failures = per_point_fold_scores("knn", X, Y, spec.grid_points())
        fitted = grid_search_cv(spec, X, Y)
        assert fitted.fold_scores == expected
        assert fitted.failures == failures


class TestPostprocess:
    def test_bypass_at_ten_hz_prediction_rate(self):
        pred = np.random.default_rng(23).standard_normal((100, 5))
        out, bypassed = postprocess(pred, pred_rate=10.0)
        assert bypassed
        assert np.array_equal(out, pred)

    def test_low_frequency_passes_at_100_hz(self):
        t = np.arange(1000) / 100.0
        pred = np.sin(2 * np.pi * 1.0 * t)[:, None]
        out, bypassed = postprocess(pred, pred_rate=100.0)
        assert not bypassed
        core = slice(100, 900)
        assert abs(out[core].max() - 1.0) <= 0.02

    def test_constant_unchanged(self):
        pred = np.full((200, 3), 12.5)
        out, bypassed = postprocess(pred, pred_rate=100.0)
        assert not bypassed
        assert np.abs(out - 12.5).max() <= 1e-8


class TestSerialization:
    def test_grid_search_result_jsonable(self):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((50, 3))
        Y = rng.standard_normal((50, 2))
        fitted = grid_search_cv(RegressorSpec("ridge", grid={"alpha": [0.1, 1.0]}, seed=0), X, Y)
        assert fitted.hyperparams in ({"alpha": 0.1}, {"alpha": 1.0})
        assert len(fitted.fold_scores) == 2
