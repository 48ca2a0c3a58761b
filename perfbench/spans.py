"""Spans and counts recorded from outside the library.

A ``Tracer`` keeps spans (name, start, end, parent) and counters in memory.
``install`` wraps public functions of the ``emgdecode`` modules for the
duration of a traced pass: every module attribute bound to a wrapped
function object (including ``from .x import f`` re-bindings) is replaced by
a wrapper that opens a span around the call and, where a hook is given,
adds counts computed from the call's arguments and result. ``uninstall``
puts the original objects back. The library itself is not modified, so a
traced pass computes exactly what an untraced pass computes.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import math
import os
import sys
import time
from collections import Counter
from pathlib import Path


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.seen: dict[str, set] = {}

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append({"id": sid, "name": name, "start": time.perf_counter() - self.t0,
                           "end": None, "parent": parent})
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid]["end"] = time.perf_counter() - self.t0
        popped = self.stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed out of order (top was {popped})")

    def add(self, name: str, value=1) -> None:
        self.counts[name] += value

    def distinct(self, name: str, key) -> None:
        """Record ``key`` under ``name``; ``distinct_count`` reports how many differ."""
        self.seen.setdefault(name, set()).add(key)

    def distinct_count(self, name: str) -> int:
        return len(self.seen.get(name, ()))

    # -- aggregation -------------------------------------------------------

    def _outermost(self, name: str) -> list[dict]:
        """Spans called ``name`` with no ancestor of the same name."""
        out = []
        for span in self.spans:
            if span["name"] != name:
                continue
            parent = span["parent"]
            while parent is not None and self.spans[parent]["name"] != name:
                parent = self.spans[parent]["parent"]
            if parent is None:
                out.append(span)
        return out

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self._outermost(name))

    def self_time(self, name: str) -> float:
        """Duration of ``name`` spans minus the time covered by their direct children."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + (
                    span["end"] - span["start"]
                )
        return sum(
            (s["end"] - s["start"]) - child_time.get(s["id"], 0.0)
            for s in self.spans
            if s["name"] == name
        )

    def to_jsonable(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.seen.items()},
        }


# ---------------------------------------------------------------------------
# hooks: counts computed from a call's arguments and result


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _hook_save_dataset(tr, args, kwargs, result):
    tr.add("io.bytes_written", sum(_file_bytes(p) for p in Path(result).iterdir()))


def _hook_load_signal(tr, args, kwargs, result):
    base = Path(args[0])
    tr.add("io.bytes_read", _file_bytes(base.with_suffix(".f32"), base.with_suffix(".json")))


def _hook_load_trajectory(tr, args, kwargs, result):
    tr.add("io.bytes_read", _file_bytes(args[0]))


def _hook_filtfilt(tr, args, kwargs, result):
    x, coeffs = args[0], args[1]
    tr.add("signal_core.filtfilt.calls")
    tr.add("signal_core.filtfilt.samples", int(x.data.shape[0] * x.data.shape[1]))
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr((x.data.shape, x.fs)).encode())
    digest.update(memoryview(x.data.tobytes()))
    digest.update(memoryview(coeffs.sos.tobytes()))
    tr.distinct("signal_core.filtfilt.inputs", digest.hexdigest())


def _hook_plan_windows(tr, args, kwargs, result):
    tr.add("blocks.windows", int(result.count))


def _hook_plan_blocks(tr, args, kwargs, result):
    tr.add("blocks.blocks", int(result.n_blocks))


def _hook_extract_mld_bfm(tr, args, kwargs, result):
    """Gram entries computed (one G x G product per window and grid) against
    block-covariance entries gathered from them (K x K per window and block)."""
    _, block_plan, window_plan = args[:3]
    k = block_plan.channels_per_block
    if k == 1:
        return
    per_grid = Counter(block_plan.grid_index)
    for gi, n_blocks in per_grid.items():
        g = block_plan.grids[gi]
        tr.add("descriptors.gram.entries", window_plan.count * g.n_channels * g.n_channels)
        tr.add("descriptors.gram.useful", window_plan.count * n_blocks * k * k)


def _hook_eig(tr, args, kwargs, result):
    shape = getattr(args[0], "shape", ())
    tr.add("descriptors.eig.matrices", int(math.prod(shape[:-2])) if len(shape) > 2 else 1)


def _hook_select_components(tr, args, kwargs, result):
    if (args[1] if len(args) > 1 else kwargs.get("kind")) == "nmf":
        # one factorisation per point of the variance-explained curve
        tr.add("baselines.nmf.factorizations", len(result.curve))


def _hook_grid_search_cv(tr, args, kwargs, result):
    kind = args[0].kind
    n_fold_fits = sum(len(f) for f in result.fold_scores)
    failed = sum(1 for f in result.fold_scores for s in f if s == -math.inf)
    tr.add("regression.cv.fits", n_fold_fits + 1)  # + the refit on all rows
    tr.add(f"regression.cv.fits.{kind}", n_fold_fits + 1)
    tr.add("regression.cv.failed", failed)


def _hook_fit_mlp(tr, args, kwargs, result):
    tr.add("regression.mlp.epochs", int(result.n_epochs))


def _hook_knn_predict(tr, args, kwargs, result):
    """Largest chunked distance tensor, from the shapes and the predictor's
    2e6-entry chunk rule (computed, not measured)."""
    model, x = args[0], args[1]
    n_query = x.shape[0]
    n_train, n_feat = model.x_train.shape
    chunk = max(1, int(2e6 // max(n_train, 1)))
    nbytes = min(chunk, n_query) * n_train * n_feat * 8
    tr.counts["regression.knn.dist_bytes"] = max(tr.counts["regression.knn.dist_bytes"], nbytes)


def _hook_r2_vw(tr, args, kwargs, result):
    tr.add("metrics.r2_vw.calls")


def _hook_fit_ridge(tr, args, kwargs, result):
    tr.add("regression.fit_ridge.calls")


def _hook_sfbs_select(tr, args, kwargs, result):
    n = len(result.block_ids)
    tr.add("evaluation.sfbs.candidates", n * (n + 1) // 2)


def _hook_sweep(tr, args, kwargs, result):
    tr.add("evaluation.sweep.cells", len(result.rows))
    tr.add("evaluation.sweep.failed_cells", sum(1 for r in result.rows if r[2] != "ok"))


# (module, attribute, span name, hook). Span names may be callables of the
# call's arguments; the hook "generator" times each step of a generator.
# Missing attributes are skipped, so a renamed function reads as an
# untouched layer instead of breaking the benchmark.
PATCHES = (
    ("synth", "generate_task", "synth.generate_task", None),
    ("io", "save_dataset", "io.save_dataset", _hook_save_dataset),
    ("io", "load_signal", "io.load_signal", _hook_load_signal),
    ("io", "load_trajectory", "io.load_trajectory", _hook_load_trajectory),
    ("io", "iter_dataset", "io.iter_dataset", "generator"),
    ("signal_core", "filtfilt", "signal_core.filtfilt", _hook_filtfilt),
    ("blocks", "plan_windows", "blocks.plan_windows", _hook_plan_windows),
    ("blocks", "plan_blocks", "blocks.plan_blocks", _hook_plan_blocks),
    ("blocks", "window_sumsq", "blocks.window_sums", None),
    ("blocks", "window_abs_sum", "blocks.window_sums", None),
    ("blocks", "window_diff_sumsq", "blocks.window_sums", None),
    ("blocks", "window_abs_diff_sum", "blocks.window_sums", None),
    ("descriptors", "extract_mld_bfm", "descriptors.extract_mld_bfm", _hook_extract_mld_bfm),
    ("descriptors", "jacobi_eigvals", "descriptors.eig", _hook_eig),
    ("baselines", "extract_rms", "baselines.extract_rms", None),
    ("baselines", "select_components", "baselines.select_components", _hook_select_components),
    ("baselines", "fit_nmf", "baselines.fit_nmf", None),
    ("baselines", "transform", "baselines.transform", None),
    ("regression", "grid_search_cv", lambda a, k: f"regression.grid_search_cv.{a[0].kind}",
     _hook_grid_search_cv),
    ("regression", "fit_ridge", "regression.fit_ridge", _hook_fit_ridge),
    ("regression", "fit_lasso", "regression.fit_lasso", None),
    ("regression", "fit_mlp", "regression.fit_mlp", _hook_fit_mlp),
    ("regression", "KNNModel.predict", "regression.knn.predict", _hook_knn_predict),
    ("metrics", "r2_vw", "metrics.r2_vw", _hook_r2_vw),
    ("evaluation", "run_pipeline", "evaluation.run_pipeline", None),
    ("evaluation", "sfbs_select", "evaluation.sfbs_select", _hook_sfbs_select),
    ("evaluation", "sweep", "evaluation.sweep", _hook_sweep),
)


def _wrap(tracer: Tracer, fn, span_name, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = span_name(args, kwargs) if callable(span_name) else span_name
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if hook is not None:
            # its own span, so the caller's self time does not absorb the counting
            hid = tracer.open("trace.hook")
            try:
                hook(tracer, args, kwargs, result)
            finally:
                tracer.close(hid)
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, fn, span_name):
    """Time each step of a generator function, so lazy reads count where they happen."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = iter(fn(*args, **kwargs))
        while True:
            sid = tracer.open(span_name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.close(sid)
            yield item

    return wrapper


def _rebind(orig, wrapped, owners, undo: list) -> None:
    """Replace every binding of ``orig`` in ``owners`` (modules or classes)."""
    for owner in owners:
        for name, value in list(vars(owner).items()):
            if value is orig:
                undo.append((owner, name, orig))
                setattr(owner, name, wrapped)


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every patched function; returns the undo list for ``uninstall``."""
    undo: list[tuple] = []
    modules = [mod for name, mod in sorted(sys.modules.items())
               if name == "emgdecode" or name.startswith("emgdecode.")]
    for mod_name, attr, span_name, hook in PATCHES:
        owner = importlib.import_module(f"emgdecode.{mod_name}")
        if "." in attr:  # a method: patch the class attribute
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name, None)
        orig = vars(owner).get(attr) if owner is not None else None
        if orig is None:
            continue
        if hook == "generator":
            wrapped = _wrap_generator(tracer, orig, span_name)
        else:
            wrapped = _wrap(tracer, orig, span_name, hook)
        _rebind(orig, wrapped, [owner, *modules], undo)
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, name, orig in reversed(undo):
        setattr(owner, name, orig)


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from one traced pass."""
    c = tr.counts
    calls = c["signal_core.filtfilt.calls"]
    gram_entries = c["descriptors.gram.entries"]
    out = {
        "synth.generate_task.s": (tr.total("synth.generate_task"), "s"),
        "io.save_dataset.s": (tr.total("io.save_dataset"), "s"),
        "io.bytes_written": (c["io.bytes_written"], "B"),
        "io.iter_dataset.s": (tr.total("io.iter_dataset"), "s"),
        "io.bytes_read": (c["io.bytes_read"], "B"),
        "signal_core.filtfilt.s": (tr.total("signal_core.filtfilt"), "s"),
        "signal_core.filtfilt.calls": (calls, "count"),
        "signal_core.filtfilt.samples": (c["signal_core.filtfilt.samples"], "count"),
        "signal_core.filtfilt.unique_frac": (
            tr.distinct_count("signal_core.filtfilt.inputs") / calls if calls else 0.0, "ratio"),
        "blocks.window_sums.s": (tr.total("blocks.window_sums"), "s"),
        "blocks.windows": (c["blocks.windows"], "count"),
        "blocks.blocks": (c["blocks.blocks"], "count"),
        "descriptors.extract_mld_bfm.s": (tr.total("descriptors.extract_mld_bfm"), "s"),
        "descriptors.extract_mld_bfm.self_s": (tr.self_time("descriptors.extract_mld_bfm"), "s"),
        "descriptors.eig.s": (tr.total("descriptors.eig"), "s"),
        "descriptors.eig.matrices": (c["descriptors.eig.matrices"], "count"),
        "descriptors.gram.bytes": (gram_entries * 8, "B"),
        "descriptors.gram.useful_frac": (
            c["descriptors.gram.useful"] / gram_entries if gram_entries else 0.0, "ratio"),
        "baselines.extract_rms.s": (tr.total("baselines.extract_rms"), "s"),
        "baselines.select_components.s": (tr.total("baselines.select_components"), "s"),
        "baselines.nmf.factorizations": (c["baselines.nmf.factorizations"], "count"),
        "baselines.fit_nmf.s": (tr.total("baselines.fit_nmf"), "s"),
        "baselines.transform.s": (tr.total("baselines.transform"), "s"),
    }
    for kind in ("ridge", "lasso", "knn", "mlp"):
        out[f"regression.grid_search_cv.{kind}.s"] = (
            tr.total(f"regression.grid_search_cv.{kind}"), "s")
    out.update({
        "regression.cv.fits": (c["regression.cv.fits"], "count"),
        **{f"regression.cv.fits.{k}": (c[f"regression.cv.fits.{k}"], "count")
           for k in ("ridge", "lasso", "knn", "mlp")},
        "regression.cv.failed": (c["regression.cv.failed"], "count"),
        "regression.fit_ridge.calls": (c["regression.fit_ridge.calls"], "count"),
        "regression.fit_ridge.s": (tr.total("regression.fit_ridge"), "s"),
        "regression.fit_lasso.s": (tr.total("regression.fit_lasso"), "s"),
        "regression.knn.predict.s": (tr.total("regression.knn.predict"), "s"),
        "regression.knn.dist_bytes": (c["regression.knn.dist_bytes"], "B"),
        "regression.fit_mlp.s": (tr.total("regression.fit_mlp"), "s"),
        "regression.mlp.epochs": (c["regression.mlp.epochs"], "count"),
        "metrics.r2_vw.calls": (c["metrics.r2_vw.calls"], "count"),
        "metrics.r2_vw.s": (tr.total("metrics.r2_vw"), "s"),
        "evaluation.run_pipeline.self_s": (tr.self_time("evaluation.run_pipeline"), "s"),
        "evaluation.sfbs_select.s": (tr.total("evaluation.sfbs_select"), "s"),
        "evaluation.sfbs.candidates": (c["evaluation.sfbs.candidates"], "count"),
        "evaluation.sweep.cells": (c["evaluation.sweep.cells"], "count"),
        "evaluation.sweep.failed_cells": (c["evaluation.sweep.failed_cells"], "count"),
    })
    return out


def count_signature(tr: Tracer) -> dict:
    """Everything a traced pass counts (not times); equal across repeated passes."""
    sig = {k: v for k, v in sorted(tr.counts.items())}
    sig.update({f"distinct:{k}": len(v) for k, v in sorted(tr.seen.items())})
    sig["spans"] = Counter(s["name"] for s in tr.spans)
    return sig
