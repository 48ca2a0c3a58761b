"""Baseline feature sets: per-channel RMS, MAV + waveform length, and
dimensionality-reduced RMS via PCA or multiplicative-update NMF with
plateau-based component selection."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .blocks import (
    WindowPlan,
    _check_windows_fit,
    window_abs_diff_sum,
    window_abs_sum,
    window_sumsq,
)
from .descriptors import FeatureTensor
from .errors import InvalidInputError, InvalidSpecError
from .signal_core import SignalMatrix, require_finite


def extract_rms(x: SignalMatrix, window_plan: WindowPlan) -> FeatureTensor:
    """W x C tensor of per-channel windowed RMS."""
    require_finite(x)
    _check_windows_fit(x, window_plan)
    sumsq = window_sumsq(x.data, window_plan)
    values = np.sqrt(sumsq / window_plan.length)
    columns = tuple(f"ch{c:03d}:rms" for c in range(x.n_channels))
    return FeatureTensor(values=values, columns=columns)


def extract_mav_wl(x: SignalMatrix, window_plan: WindowPlan) -> FeatureTensor:
    """W x 2C tensor: mean absolute value columns, then waveform length."""
    require_finite(x)
    _check_windows_fit(x, window_plan)
    mav = window_abs_sum(x.data, window_plan) / window_plan.length
    wl = window_abs_diff_sum(x.data, window_plan)
    values = np.concatenate([mav, wl], axis=1)
    columns = tuple(f"ch{c:03d}:mav" for c in range(x.n_channels)) + tuple(
        f"ch{c:03d}:wl" for c in range(x.n_channels)
    )
    return FeatureTensor(values=values, columns=columns)


def _values(data) -> np.ndarray:
    arr = getattr(data, "values", data)
    return np.asarray(arr, dtype=np.float64)


@dataclass(frozen=True)
class DecompositionModel:
    """Linear decomposition of channel-space RMS features.

    ``components`` is (n_comp, C). For PCA, ``mean`` holds the training
    channel means and components are orthonormal eigenvectors; for NMF both
    the basis and any encodings are elementwise nonnegative. NMF also keeps
    the objective before and after each iteration, and ``converged``: whether
    the relative-decrease test stopped the updates (False when ``max_iter``
    did; None for PCA).
    """

    kind: str
    components: np.ndarray
    n_comp: int
    mean: np.ndarray
    eigenvalues: np.ndarray | None = None
    objective: tuple[float, ...] = field(default=())
    converged: bool | None = None

    @property
    def n_iter(self) -> int:
        """NMF iterations run (0 for PCA)."""
        return max(len(self.objective) - 1, 0)


def fit_pca(rms_train, n_comp: int) -> DecompositionModel:
    """PCA of the channel covariance (mean-centered), eigenvalues descending.

    Sign convention: the largest-magnitude element of each component is made
    positive so repeated fits are reproducible.
    """
    X = _values(rms_train)
    rows, n_ch = X.shape
    if not (1 <= n_comp <= min(rows, n_ch)):
        raise InvalidSpecError(
            f"n_comp={n_comp} must lie in [1, min(rows={rows}, channels={n_ch})]"
        )
    mean = X.mean(axis=0)
    Xc = X - mean
    cov = (Xc.T @ Xc) / rows
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    comps = evecs[:, order].T[:n_comp].copy()
    for i in range(n_comp):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return DecompositionModel(
        kind="pca", components=comps, n_comp=n_comp, mean=mean, eigenvalues=evals[:n_comp]
    )


def _nndsvd(
    A: np.ndarray, n_comp: int, rng: np.random.Generator, usv: tuple | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative double SVD initialization from ``usv``, A's thin SVD
    (computed here when not given); zero entries are replaced by small seeded
    random values uniform in [0, mean(A)/100]."""
    U, S, Vt = np.linalg.svd(A, full_matrices=False) if usv is None else usv
    rows, n_ch = A.shape
    W = np.zeros((rows, n_comp))
    H = np.zeros((n_comp, n_ch))
    W[:, 0] = np.sqrt(S[0]) * np.abs(U[:, 0])
    H[0, :] = np.sqrt(S[0]) * np.abs(Vt[0, :])
    for j in range(1, n_comp):
        u, v = U[:, j], Vt[j, :]
        up, un = np.maximum(u, 0.0), np.maximum(-u, 0.0)
        vp, vn = np.maximum(v, 0.0), np.maximum(-v, 0.0)
        nup, nun = np.linalg.norm(up), np.linalg.norm(un)
        nvp, nvn = np.linalg.norm(vp), np.linalg.norm(vn)
        mp, mn = nup * nvp, nun * nvn
        if mp >= mn:
            uu = up / nup if nup > 0 else up
            vv = vp / nvp if nvp > 0 else vp
            scale = mp
        else:
            uu = un / nun if nun > 0 else un
            vv = vn / nvn if nvn > 0 else vn
            scale = mn
        W[:, j] = np.sqrt(S[j] * scale) * uu
        H[j, :] = np.sqrt(S[j] * scale) * vv
    fill = A.mean() / 100.0
    wz = W <= 0.0
    hz = H <= 0.0
    W[wz] = rng.uniform(0.0, fill, size=int(wz.sum()))
    H[hz] = rng.uniform(0.0, fill, size=int(hz.sum()))
    return W, H


_MU_EPS = 1e-12
_PLATEAU_MIN_POINTS = 3  # shortest curve suffix the plateau rule fits a line to
_MAX_COMPONENTS = 19  # longest variance-explained curve


def _nmf_factorize(
    A: np.ndarray, n_comp: int, seed: int, max_iter: int = 500, rel_tol: float = 1e-4, usv: tuple | None = None
) -> tuple[np.ndarray, np.ndarray, list[float], bool]:
    """Multiplicative updates on the Frobenius objective 0.5*||A - WH||^2,
    stopping when the relative objective decrease falls below ``rel_tol``.
    Returns W, H, the objective before and after each iteration, and whether
    that test stopped the updates (False when ``max_iter`` did). ``usv``, A's
    thin SVD, goes to ``_nndsvd``.

    After each iteration the objective is
    0.5*(||A||^2 - 2<W, AH'> + <W'W, HH'>), from products the updates form
    anyway; W'W is also the next H update's ``W'W @ H``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    W, H = _nndsvd(A, n_comp, rng, usv)
    norm2 = float(np.vdot(A, A))
    objective = [0.5 * float(((A - W @ H) ** 2).sum())]
    converged = False
    wtw = W.T @ W
    for _ in range(max_iter):
        H *= (W.T @ A) / (wtw @ H + _MU_EPS)
        hht = H @ H.T
        aht = A @ H.T
        W *= aht / (W @ hht + _MU_EPS)
        wtw = W.T @ W
        obj = 0.5 * (norm2 - 2.0 * float(np.vdot(W, aht)) + float(np.vdot(wtw, hht)))
        if obj < 1e-5 * norm2:
            # the Gram form loses a few eps * ||A||^2 to cancellation, which
            # near an exact fit is the whole objective: form the residual
            obj = 0.5 * float(((A - W @ H) ** 2).sum())
        prev = objective[-1]
        objective.append(obj)
        if prev > 0.0 and (prev - obj) < rel_tol * prev:
            converged = True
            break
    return W, H, objective, converged


def fit_nmf(rms_train, n_comp: int, seed: int) -> DecompositionModel:
    """NMF of nonnegative RMS features: NNDSVD init plus small seeded random
    fill, then multiplicative updates until the objective plateaus."""
    A = _values(rms_train)
    if (A < 0).any():
        raise InvalidInputError("NMF requires elementwise nonnegative input")
    rows, n_ch = A.shape
    if not (1 <= n_comp <= min(rows, n_ch)):
        raise InvalidSpecError(
            f"n_comp={n_comp} must lie in [1, min(rows={rows}, channels={n_ch})]"
        )
    _, H, objective, converged = _nmf_factorize(A, n_comp, seed)
    return DecompositionModel(
        kind="nmf",
        components=H,
        n_comp=n_comp,
        mean=np.zeros(n_ch),
        objective=tuple(objective),
        converged=converged,
    )


def transform(model: DecompositionModel, rms) -> FeatureTensor:
    """Project RMS features onto the model's components.

    PCA: centered projection. NMF: nonnegative encodings by multiplicative
    updates with the basis fixed (at most 100 iterations, deterministic
    constant initialization).
    """
    X = _values(rms)
    if X.ndim != 2 or X.shape[1] != model.components.shape[1]:
        raise InvalidInputError(
            f"expected {model.components.shape[1]} channels, got {X.shape[1:]}"
        )
    if model.kind == "pca":
        enc = (X - model.mean) @ model.components.T
    else:
        H = model.components
        denom = max(float(H.mean()) * model.n_comp, _MU_EPS)
        enc = np.full((X.shape[0], model.n_comp), max(float(X.mean()), _MU_EPS) / denom)
        hht = H @ H.T
        xht = X @ H.T
        for _ in range(100):
            new = enc * (xht / (enc @ hht + _MU_EPS))
            delta = float(np.abs(new - enc).max())
            enc = new
            if delta <= 1e-10 * max(float(np.abs(enc).max()), 1.0):
                break
    columns = tuple(f"{model.kind}:{i:02d}" for i in range(model.n_comp))
    return FeatureTensor(values=enc, columns=columns)


def reconstruct(model: DecompositionModel, encodings) -> np.ndarray:
    """Map encodings back to channel space."""
    E = _values(encodings)
    if model.kind == "pca":
        return E @ model.components + model.mean
    return E @ model.components


def r2_var(original, reconstructed) -> float:
    """Variance explained: mean over channels of 1 - SSE_c / SST_c.

    Zero-variance channels contribute 1 when reconstructed exactly and are
    excluded from the average otherwise (their SST is zero).
    """
    X = _values(original)
    Xh = _values(reconstructed)
    if X.shape != Xh.shape:
        raise InvalidInputError("original and reconstruction must have the same shape")
    mean = X.mean(axis=0)
    sst = ((X - mean) ** 2).sum(axis=0)
    sse = ((X - Xh) ** 2).sum(axis=0)
    scores = []
    for c in range(X.shape[1]):
        if sst[c] > 0.0:
            scores.append(1.0 - sse[c] / sst[c])
        elif sse[c] == 0.0:
            scores.append(1.0)
    if not scores:
        raise InvalidInputError("no channel with usable variance")
    return float(np.mean(scores))


def plateau_point(curve: Sequence[float], threshold: float) -> tuple[int, bool]:
    """First index (1-based) whose curve suffix fits a line with MSE below
    ``threshold``. Suffixes shorter than ``_PLATEAU_MIN_POINTS`` are skipped;
    if no suffix qualifies the last point is returned with a False flag."""
    y = np.asarray(curve, dtype=np.float64)
    n = y.shape[0]
    for i in range(0, n - _PLATEAU_MIN_POINTS + 1):
        seg = y[i:]
        t = np.arange(seg.shape[0], dtype=np.float64)
        coeffs = np.polyfit(t, seg, 1)
        mse = float(np.mean((seg - np.polyval(coeffs, t)) ** 2))
        if mse < threshold:
            return i + 1, True
    return n, False


@dataclass(frozen=True)
class ComponentSelection:
    """Plateau choice over the variance-explained ``curve``. For NMF,
    ``n_iter[i]`` and ``converged[i]`` give the iterations run by the
    factorisation behind ``curve[i]`` and whether its relative-decrease test
    stopped it (False when it ran into ``max_iter``); both are empty for PCA."""

    n_components: int
    curve: tuple[float, ...]
    plateau_found: bool
    n_iter: tuple[int, ...] = ()
    converged: tuple[bool, ...] = ()


def select_components(
    rms_train,
    kind: str,
    mse_threshold: float = 1e-6,
    seed: int = 0,
) -> ComponentSelection:
    """Plateau-based choice of the component count.

    Builds the variance-explained curve for 1..``_MAX_COMPONENTS`` components,
    then returns the first point whose curve suffix is linear within the MSE
    threshold. Falls back to the maximum with a warning flag when no suffix
    qualifies.
    """
    if mse_threshold <= 0:
        raise InvalidSpecError("mse_threshold must be positive")
    if kind not in ("pca", "nmf"):
        raise InvalidSpecError(f"unknown decomposition kind {kind!r}")
    X = _values(rms_train)
    rows, n_ch = X.shape
    n_max = min(_MAX_COMPONENTS, rows, n_ch)
    curve, n_iter, converged = [], [], []
    if kind == "pca":
        full = fit_pca(X, n_max)
        Xc = X - full.mean
        proj = Xc @ full.components.T
        for n in range(1, n_max + 1):
            rec = proj[:, :n] @ full.components[:n] + full.mean
            curve.append(r2_var(X, rec))
    else:
        seeds = np.random.SeedSequence(seed).generate_state(n_max)
        usv = np.linalg.svd(X, full_matrices=False)  # one SVD starts every point
        for n in range(1, n_max + 1):
            W, H, objective, stopped = _nmf_factorize(X, n, int(seeds[n - 1]), usv=usv)
            curve.append(r2_var(X, W @ H))
            n_iter.append(len(objective) - 1)
            converged.append(stopped)
    n_star, found = plateau_point(curve, mse_threshold)
    return ComponentSelection(
        n_components=n_star,
        curve=tuple(curve),
        plateau_found=found,
        n_iter=tuple(n_iter),
        converged=tuple(converged),
    )
