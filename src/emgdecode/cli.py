"""Command-line entry points: synth, evaluate, sweep, sfbs.

Every command reads an optional JSON config (``--config``), applies flag
overrides on top, writes its outputs plus a ``manifest.json`` into ``--out``,
and exits 0 on success, 2 on a usage/config problem, 1 on a data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from . import io
from .config import RunConfig
from .errors import ConfigError, EmgDecodeError, InvalidSpecError
from .evaluation import run_pipeline, run_sfbs, sweep
from .synth import SynthConfig, iter_tasks

USAGE_EXIT = 2
DATA_EXIT = 1


def _load_config_dict(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        raw = io.load_json(path)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    return raw


def _run_config(args) -> RunConfig:
    """The config file with the command's flags laid over it. Every command
    that takes a run config reads a dataset."""
    raw = _load_config_dict(args.config)
    for key in ("dataset", "feature", "model", "seed", "out"):
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
    config = RunConfig.from_dict(raw)
    if config.dataset is None:
        raise ConfigError(f"{args.command} requires --dataset (or a dataset entry in the config)")
    return config


def _synth_config(args) -> SynthConfig:
    raw = _load_config_dict(getattr(args, "config", None))
    if args.seed is not None:
        raw["seed"] = args.seed
    known = {f.name for f in dataclasses.fields(SynthConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown synth config keys: {sorted(unknown)}")
    try:
        return SynthConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def cmd_synth(args) -> int:
    cfg = _synth_config(args)
    t0 = time.perf_counter()
    out = Path(args.out)
    io.save_dataset(out, iter_tasks(cfg), extra_manifest={"synth": cfg.to_jsonable()})
    io.save_json(
        {"command": "synth", "config": cfg.to_jsonable(), "wall_time_s": time.perf_counter() - t0},
        out / "run_manifest.json",
    )
    print(f"wrote {len(cfg.tasks)} tasks to {out}")
    return 0


def cmd_evaluate(args) -> int:
    config = _run_config(args)
    result = run_pipeline(config)
    out = Path(args.out)
    manifest = dict(result.manifest)
    manifest["command"] = "evaluate"
    io.save_json(result.metrics.to_dict(), out / "metrics.json")
    io.save_json(manifest, out / "manifest.json")
    n_comp = manifest["stages"].get("n_components")
    if n_comp is not None:
        print(f"selected {n_comp} {config.feature} components")
    print(f"r2_vw = {result.metrics.r2_vw:.6f} ({config.feature} + {config.model})")
    return 0


def cmd_sweep(args) -> int:
    config = _run_config(args)
    t0 = time.perf_counter()
    table = sweep(args.param, config)
    out = Path(args.out)
    csv_path = out / f"sweep_{args.param}.csv"
    io.atomic_write_text(csv_path, table.to_csv())
    failures = [
        {"value": value, "reason": status.removeprefix("failed: ")}
        for _, value, status, *_ in table.rows
        if status != "ok"
    ]
    io.save_json(
        {
            "command": "sweep",
            "param": args.param,
            "config": config.to_dict(),
            "n_cells": len(table.rows),
            "failures": failures,
            "wall_time_s": time.perf_counter() - t0,
        },
        out / "manifest.json",
    )
    print(f"wrote {csv_path} ({len(table.rows)} rows)")
    return 0


def cmd_sfbs(args) -> int:
    config = _run_config(args)
    result, maps, plan, manifest = run_sfbs(config, alpha=args.alpha)
    out = Path(args.out)
    order = [
        (step, block_id, plan.grids[plan.grid_index[block_id]].name, *plan.origins[block_id], score)
        for step, (block_id, score) in enumerate(zip(result.order, result.scores), start=1)
    ]
    io.atomic_write_text(
        out / "sfbs_order.csv", io.csv_text(("step", "block_id", "grid", "row", "col", "score"), order)
    )
    cells = [
        (name, r, c, value)
        for name, grid_map in zip(maps.grids, maps.maps)
        for r, values in enumerate(grid_map.tolist(), start=1)
        for c, value in enumerate(values, start=1)
    ]
    io.atomic_write_text(out / "contribution_map.csv", io.csv_text(("grid", "row", "col", "value"), cells))

    manifest = dict(manifest)
    manifest["command"] = "sfbs"
    manifest["centroids"] = {
        name: (list(c) if c is not None else None)
        for name, c in zip(maps.grids, maps.centroids)
    }
    io.save_json(manifest, out / "manifest.json")
    print(f"selected {len(result.order)} blocks; best score {max(result.scores):.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emgdecode",
        description="Decode finger joint angles from high-density surface EMG.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dataset=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="root random seed")
        p.add_argument("--out", required=True, help="output directory")
        if dataset:
            p.add_argument("--dataset", default=None, help="dataset directory")

    p = sub.add_parser("synth", help="write a synthetic dataset directory")
    common(p, dataset=False)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("evaluate", help="run the full pipeline and save metrics")
    common(p)
    p.add_argument("--feature", default=None, help="mld-bfm | rms | mav-wl | pca | nmf")
    p.add_argument("--model", default=None, help="mlp | ridge | lasso | knn")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="single-parameter sensitivity sweep")
    common(p)
    p.add_argument("--param", required=True, help="block_size | block_step | window | n_win")
    p.add_argument("--feature", default=None)
    p.add_argument("--model", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sfbs", help="sequential forward block selection")
    common(p)
    p.add_argument("--alpha", type=float, default=1.0, help="ridge strength for the scorer")
    p.set_defaults(func=cmd_sfbs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return args.func(args)
    except (ConfigError, InvalidSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (EmgDecodeError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
