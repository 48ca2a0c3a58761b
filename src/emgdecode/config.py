"""Run configuration shared by the pipeline and the CLI.

Defaults follow the tuned operating point: 2x2 blocks with unit step,
0.15 s windows with 0.05 s overlap, a 0.5 temporal split, and single-sample
sequences.
"""

from __future__ import annotations

import dataclasses
import numbers
import os
from dataclasses import dataclass

from .errors import ConfigError, InvalidSpecError
from .regression import RegressorSpec, _is_real

FEATURE_KINDS = ("mld-bfm", "rms", "mav-wl", "pca", "nmf")
MODEL_KINDS = ("mlp", "ridge", "lasso", "knn")

SWEEP_RANGES: dict[str, tuple] = {
    "block_size": tuple(range(1, 9)),
    "block_step": tuple(range(1, 7)),
    "window": tuple(round(0.100 + 0.050 * i, 3) for i in range(9)),  # 0.100 .. 0.500 s
    "n_win": tuple(range(1, 11)),
}

SWEEP_FIELDS = {
    "block_size": "block_size",
    "block_step": "block_step",
    "window": "window_s",
    "n_win": "n_win",
}


def _is_int(v, low: int) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= low


def _is_span(v) -> bool:
    return isinstance(v, (tuple, list)) and len(v) == 2 and all(map(_is_real, v)) and 0 <= v[0] < v[1]


_PATH = ("None or a path", lambda v: v is None or isinstance(v, (str, os.PathLike)))
_COUNT = ("an int >= 1", lambda v: _is_int(v, 1))
_POSITIVE = ("a finite real > 0", lambda v: _is_real(v) and v > 0)

# field -> (what a value must be, its test); ``grid`` is checked by RegressorSpec.
# Limits that depend on the data (grid size, task duration) are run-time errors.
_FIELD_RULES = {
    "dataset": _PATH,
    "feature": (f"one of {FEATURE_KINDS}", lambda v: v in FEATURE_KINDS),
    "model": (f"one of {MODEL_KINDS}", lambda v: v in MODEL_KINDS),
    "block_size": _COUNT,
    "block_step": _COUNT,
    "window_s": _POSITIVE,
    "overlap_s": ("a finite real >= 0", lambda v: _is_real(v) and v >= 0),
    "n_win": _COUNT,
    "split_ratio": ("a finite real in (0, 1)", lambda v: _is_real(v) and 0 < v < 1),
    "seed": ("an int >= 0", lambda v: _is_int(v, 0)),
    "out": _PATH,
    "n_components": ("None or an int >= 1", lambda v: v is None or _is_int(v, 1)),
    "crop_s": ("None or (start, end) with 0 <= start < end", lambda v: v is None or _is_span(v)),
    "band_hz": ("(low, high) with 0 < low < high", lambda v: _is_span(v) and v[0] > 0),
    "band_order": _COUNT,
    "notch_hz": ("None or a finite real > 0", lambda v: v is None or (_is_real(v) and v > 0)),
    "notch_q": _POSITIVE,
    "postfilter_hz": _POSITIVE,
}


@dataclass(frozen=True)
class RunConfig:
    dataset: str | None = None
    feature: str = "mld-bfm"
    model: str = "ridge"
    block_size: int = 2
    block_step: int = 1
    window_s: float = 0.150
    overlap_s: float = 0.050
    n_win: int = 1
    split_ratio: float = 0.5
    seed: int = 0
    out: str | None = None
    grid: dict | None = None
    n_components: int | None = None
    crop_s: tuple[float, float] | None = (4.0, 44.0)
    band_hz: tuple[float, float] = (10.0, 500.0)
    band_order: int = 4
    notch_hz: float | None = 60.0
    notch_q: float = 30.0
    postfilter_hz: float = 5.0

    def __post_init__(self):
        for name, (rule, ok) in _FIELD_RULES.items():
            if not ok(getattr(self, name)):
                raise ConfigError(f"RunConfig.{name} must be {rule}, got {getattr(self, name)!r}")
        if not self.overlap_s < self.window_s:
            raise ConfigError(
                f"RunConfig.overlap_s must be < window_s = {self.window_s!r}, got {self.overlap_s!r}"
            )
        try:
            RegressorSpec(kind=self.model, grid=self.grid)
        except InvalidSpecError as exc:
            raise ConfigError(str(exc)) from exc
        if self.crop_s is not None:
            object.__setattr__(self, "crop_s", tuple(self.crop_s))
        object.__setattr__(self, "band_hz", tuple(self.band_hz))

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """Build from a JSON-style dict; unknown keys are rejected so typos
        never silently fall back to defaults."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        if out["crop_s"] is not None:
            out["crop_s"] = list(out["crop_s"])
        out["band_hz"] = list(out["band_hz"])
        return out

    def replace(self, **kwargs) -> "RunConfig":
        return dataclasses.replace(self, **kwargs)
