"""RMS / MAV-WL baselines and PCA/NMF decomposition with plateau selection."""

import math

import numpy as np
import pytest

from emgdecode import (
    FeatureTensor,
    GridLayout,
    InvalidInputError,
    InvalidSpecError,
    SignalMatrix,
    extract_mav_wl,
    extract_rms,
    fit_nmf,
    fit_pca,
    plateau_point,
    r2_var,
    reconstruct,
    select_components,
    transform,
)
from emgdecode.baselines import _MU_EPS, _nmf_factorize, _nndsvd
from emgdecode.blocks import plan_windows

FS = 2052.52


def signal_of(data, fs=FS):
    data = np.asarray(data, dtype=float)
    grids = (GridLayout("g", 1, data.shape[1], 0),)
    return SignalMatrix(data=data, fs=fs, grids=grids)


class TestExtractRms:
    def test_constant_channel(self):
        x = signal_of(np.full((500, 3), -2.0))
        out = extract_rms(x, plan_windows(500, 100, 0))
        assert np.allclose(out.values, 2.0, atol=1e-12)

    def test_unit_sinusoid(self):
        t = np.arange(int(2 * FS)) / FS
        x = signal_of(np.sin(2 * np.pi * 100.0 * t)[:, None])
        wp = plan_windows(x.n_samples, 308, 103)
        out = extract_rms(x, wp)
        assert np.allclose(out.values, 1 / math.sqrt(2), rtol=0.01)

    def test_column_names(self):
        x = signal_of(np.zeros((300, 2)))
        out = extract_rms(x, plan_windows(300, 100, 0))
        assert out.columns == ("ch000:rms", "ch001:rms")


class TestExtractMavWl:
    def test_constant_channel(self):
        x = signal_of(np.full((400, 2), 3.0))
        out = extract_mav_wl(x, plan_windows(400, 100, 0))
        mav, wl = out.values[:, :2], out.values[:, 2:]
        assert np.allclose(mav, 3.0, atol=1e-12)
        assert np.allclose(wl, 0.0, atol=1e-12)

    def test_alternating_window(self):
        L = 64
        x = signal_of(np.tile([1.0, -1.0], L)[:, None])
        out = extract_mav_wl(x, plan_windows(2 * L, L, 0))
        assert np.allclose(out.values[:, 0], 1.0, atol=1e-12)
        assert np.allclose(out.values[:, 1], 2.0 * (L - 1), atol=1e-12)

    def test_unit_sinusoid_mav(self):
        t = np.arange(int(2 * FS)) / FS
        x = signal_of(np.sin(2 * np.pi * 100.0 * t)[:, None])
        out = extract_mav_wl(x, plan_windows(x.n_samples, 308, 103))
        assert np.allclose(out.values[:, 0], 2 / math.pi, rtol=0.01)


def tensor_of(values):
    values = np.asarray(values, dtype=float)
    return FeatureTensor(values, tuple(f"ch{c:03d}:rms" for c in range(values.shape[1])))


class TestPca:
    def test_line_data_first_component_explains_all(self):
        rng = np.random.default_rng(0)
        direction = np.array([1.0, 2.0, -1.0, 0.5])
        data = rng.standard_normal(300)[:, None] * direction[None, :]
        model = fit_pca(tensor_of(data), 1)
        assert (model.n_iter, model.converged) == (0, None)
        rec = reconstruct(model, transform(model, tensor_of(data)))
        assert r2_var(data, rec) == pytest.approx(1.0, abs=1e-10)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((100, 6))
        model = fit_pca(tensor_of(data), 6)
        rec = reconstruct(model, transform(model, tensor_of(data)))
        assert np.abs(rec - data).max() <= 1e-8

    def test_isotropic_eigenvalue_spread(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((10_000, 8))
        model = fit_pca(tensor_of(data), 8)
        assert model.eigenvalues[0] / model.eigenvalues[-1] <= 1.2

    def test_component_count_validated(self):
        data = np.zeros((10, 4))
        with pytest.raises(InvalidSpecError):
            fit_pca(tensor_of(data), 5)

    def test_transform_of_mean_row_is_zero(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((50, 4))
        model = fit_pca(tensor_of(data), 3)
        enc = transform(model, tensor_of(data.mean(axis=0, keepdims=True).repeat(2, axis=0)))
        assert np.abs(enc.values).max() <= 1e-10

    def test_sign_convention_reproducible(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((80, 5))
        a = fit_pca(tensor_of(data), 4)
        b = fit_pca(tensor_of(-data + 2 * data.mean(axis=0)), 4)  # mirrored data
        for comp in a.components:
            assert comp[np.argmax(np.abs(comp))] > 0
        for comp in b.components:
            assert comp[np.argmax(np.abs(comp))] > 0

    def test_r2_var_nondecreasing_in_components(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((120, 10)) @ rng.standard_normal((10, 10))
        model = fit_pca(tensor_of(data), 10)
        prev = -np.inf
        for n in range(1, 11):
            sub = fit_pca(tensor_of(data), n)
            rec = reconstruct(sub, transform(sub, tensor_of(data)))
            score = r2_var(data, rec)
            assert score >= prev - 1e-9
            prev = score


def direct_nmf_factorize(A, n_comp, seed, max_iter=500, rel_tol=1e-4):
    """Reference multiplicative updates with the objective formed from the
    residual ``A - WH`` after every iteration; same returns as
    ``_nmf_factorize``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    W, H = _nndsvd(A, n_comp, rng)
    objective = [0.5 * float(((A - W @ H) ** 2).sum())]
    for _ in range(max_iter):
        H *= (W.T @ A) / (W.T @ W @ H + _MU_EPS)
        W *= (A @ H.T) / (W @ (H @ H.T) + _MU_EPS)
        obj = 0.5 * float(((A - W @ H) ** 2).sum())
        prev = objective[-1]
        objective.append(obj)
        if prev > 0.0 and (prev - obj) < rel_tol * prev:
            return W, H, objective, True
    return W, H, objective, False


class TestNmf:
    def test_rank_one_reconstruction(self):
        rng = np.random.default_rng(6)
        data = np.outer(rng.uniform(0.5, 2.0, 60), rng.uniform(0.1, 1.0, 8))
        model = fit_nmf(tensor_of(data), 1, seed=0)
        rec = reconstruct(model, transform(model, tensor_of(data)))
        rel = np.linalg.norm(rec - data) / np.linalg.norm(data)
        assert rel <= 1e-3

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(7)
        data = rng.uniform(0.0, 1.0, (80, 12))
        model = fit_nmf(tensor_of(data), 4, seed=1)
        diffs = np.diff(model.objective)
        assert (diffs <= 1e-9 * model.objective[0]).all()

    def test_seed_determinism(self):
        rng = np.random.default_rng(8)
        data = rng.uniform(0.0, 1.0, (50, 9))
        a = fit_nmf(tensor_of(data), 3, seed=42)
        b = fit_nmf(tensor_of(data), 3, seed=42)
        assert np.array_equal(a.components, b.components)

    def test_converged_means_the_tolerance_test_fired(self):
        rng = np.random.default_rng(7)
        data = rng.uniform(0.0, 1.0, (80, 12))
        _, _, objective, converged = _nmf_factorize(data, 4, seed=1)
        assert converged
        n_iter = len(objective) - 1
        model = fit_nmf(tensor_of(data), 4, seed=1)
        assert model.converged is True and model.n_iter == n_iter
        # capped exactly where the test fires: still converged
        _, _, same, converged = _nmf_factorize(data, 4, seed=1, max_iter=n_iter)
        assert converged and same == objective
        # capped one iteration earlier: not converged
        _, _, capped, converged = _nmf_factorize(data, 4, seed=1, max_iter=n_iter - 1)
        assert not converged and len(capped) == n_iter

    @pytest.mark.parametrize(
        "rng_seed, bounds, shape, n_comp, seed",
        [
            (7, (0.0, 1.0), (80, 12), 4, 1),
            (8, (0.0, 1.0), (50, 9), 3, 42),
            (9, (0.0, 2.0), (60, 10), 4, 3),
            (20, (0.1, 1.0), (40, 6), 3, 0),
        ],
    )
    def test_gram_objective_matches_direct_route(self, rng_seed, bounds, shape, n_comp, seed):
        # the data and seeds of the other NMF tests
        data = np.random.default_rng(rng_seed).uniform(*bounds, shape)
        W, H, objective, converged = _nmf_factorize(data, n_comp, seed)
        W_ref, H_ref, direct, converged_ref = direct_nmf_factorize(data, n_comp, seed)
        assert converged == converged_ref and len(objective) == len(direct)
        assert np.array_equal(W, W_ref) and np.array_equal(H, H_ref)
        assert np.allclose(objective, direct, rtol=1e-10, atol=0.0)

    def test_gram_objective_near_exact_fit(self):
        # rank-one data: NNDSVD starts at the optimum, where the Gram form's
        # cancellation would be all of the objective
        rng = np.random.default_rng(6)
        data = np.outer(rng.uniform(0.5, 2.0, 60), rng.uniform(0.1, 1.0, 8))
        got = _nmf_factorize(data, 1, 0)
        want = direct_nmf_factorize(data, 1, 0)
        assert got[3] == want[3] and got[2] == want[2]
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_rank2_plateau_iterates_match_direct_route(self):
        rng = np.random.default_rng(15)
        data = rng.uniform(0.2, 1.0, (150, 2)) @ rng.uniform(0.2, 1.0, (2, 16))
        seeds = np.random.SeedSequence(1).generate_state(4)
        for n_comp, seed in enumerate(seeds[:4], 1):
            W, H, objective, converged = _nmf_factorize(data, n_comp, int(seed))
            W_ref, H_ref, direct, converged_ref = direct_nmf_factorize(data, n_comp, int(seed))
            assert converged == converged_ref and len(objective) == len(direct)
            assert np.array_equal(W, W_ref) and np.array_equal(H, H_ref)
            assert np.allclose(objective, direct, rtol=1e-10, atol=0.0)

    def test_negative_input_rejected(self):
        data = np.ones((10, 4))
        data[3, 2] = -0.1
        with pytest.raises(InvalidInputError):
            fit_nmf(tensor_of(data), 2, seed=0)

    def test_encodings_nonnegative(self):
        rng = np.random.default_rng(9)
        data = rng.uniform(0.0, 2.0, (60, 10))
        model = fit_nmf(tensor_of(data), 4, seed=3)
        enc = transform(model, tensor_of(rng.uniform(0.0, 2.0, (30, 10))))
        assert (enc.values >= 0).all()
        assert (model.components >= 0).all()


class TestR2Var:
    def test_perfect_reconstruction(self):
        rng = np.random.default_rng(10)
        data = rng.standard_normal((40, 5))
        assert r2_var(data, data.copy()) == 1.0

    def test_mean_reconstruction_scores_zero(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((40, 5))
        rec = np.tile(data.mean(axis=0), (40, 1))
        assert r2_var(data, rec) == pytest.approx(0.0, abs=1e-12)

    def test_half_perfect_half_mean(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((40, 4))
        rec = data.copy()
        rec[:, 2:] = data[:, 2:].mean(axis=0)
        assert r2_var(data, rec) == pytest.approx(0.5, abs=1e-12)

    def test_zero_variance_channel_excluded_unless_exact(self):
        data = np.ones((20, 2))
        data[:, 1] = np.linspace(0, 1, 20)
        rec = data.copy()
        rec[:, 0] = 0.9  # constant channel, imperfect reconstruction -> excluded
        assert r2_var(data, rec) == pytest.approx(1.0)
        assert r2_var(data, data.copy()) == 1.0  # exact -> contributes 1


class TestPlateau:
    def test_linear_curve_selects_first_point(self):
        curve = np.linspace(0.3, 0.9, 19)
        n_star, found = plateau_point(curve, 1e-6)
        assert found and n_star == 1

    def test_saturating_curve(self):
        curve = np.concatenate([[0.3, 0.75], np.full(17, 1.0)])
        n_star, found = plateau_point(curve, 1e-6)
        assert found and n_star == 3

    def test_no_plateau_falls_back_with_flag(self):
        rng = np.random.default_rng(13)
        curve = np.cumsum(rng.uniform(0.0, 0.1, 19))  # rough, never linear
        n_star, found = plateau_point(curve, 1e-12)
        assert not found and n_star == 19

    def test_rank3_pca_selects_three(self):
        rng = np.random.default_rng(14)
        basis = rng.standard_normal((3, 20))
        weights = rng.standard_normal((200, 3)) * np.array([10.0, 5.0, 2.0])
        data = weights @ basis
        sel = select_components(tensor_of(data), "pca", mse_threshold=1e-6, seed=0)
        assert sel.n_components == 3
        assert sel.plateau_found

    def test_default_threshold_is_1e_minus_6(self):
        import inspect

        sig = inspect.signature(select_components)
        assert sig.parameters["mse_threshold"].default == 1e-6

    def test_rank2_nmf_curve_saturates(self):
        rng = np.random.default_rng(15)
        data = rng.uniform(0.2, 1.0, (150, 2)) @ rng.uniform(0.2, 1.0, (2, 16))
        sel = select_components(tensor_of(data), "nmf", seed=1)
        assert sel.n_components <= 4
        assert sel.curve[sel.n_components - 1] >= 0.99
        # one component stops on the relative-decrease test; the factorisations
        # beyond the data's rank run into max_iter = 500 and say so
        assert len(sel.n_iter) == len(sel.converged) == len(sel.curve)
        assert sel.converged[0] and sel.n_iter[0] < 500
        assert not sel.converged[2] and sel.n_iter[2] == 500
        assert select_components(tensor_of(data), "pca").converged == ()

    def test_nmf_curve_equals_each_factorisation_alone(self, monkeypatch):
        # the points share one SVD of the training rows
        data = np.random.default_rng(16).uniform(0.0, 1.0, (60, 12))
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        sel = select_components(tensor_of(data), "nmf", seed=3)
        assert len(calls) == 1
        monkeypatch.undo()
        seeds = np.random.SeedSequence(3).generate_state(12)
        for n, seed in enumerate(seeds, 1):
            W, H, objective, converged = _nmf_factorize(data, n, int(seed))
            assert sel.curve[n - 1] == r2_var(data, W @ H)
            assert (sel.n_iter[n - 1], sel.converged[n - 1]) == (len(objective) - 1, converged)
