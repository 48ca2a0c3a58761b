"""Run configuration shared by the pipeline and the CLI.

Defaults follow the tuned operating point: 2x2 blocks with unit step,
0.15 s windows with 0.05 s overlap, a 0.5 temporal split, and single-sample
sequences.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError, InvalidSpecError
from .regression import RegressorSpec

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
        if self.feature not in FEATURE_KINDS:
            raise ConfigError(f"unknown feature kind {self.feature!r}; choose from {FEATURE_KINDS}")
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.model!r}; choose from {MODEL_KINDS}")
        try:
            RegressorSpec(kind=self.model, grid=self.grid)
        except InvalidSpecError as exc:
            raise ConfigError(str(exc)) from exc
        if not (0.0 < self.split_ratio < 1.0):
            raise ConfigError("split_ratio must lie in (0, 1)")
        if self.n_win < 1:
            raise ConfigError("n_win must be >= 1")
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
