"""Run configuration: key=value file plus command-line overrides."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from datetime import date as Date
from pathlib import Path

from .atomic import write_text


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    pollutant_file: str = ""
    meteo_file: str = ""
    forecast_file: str = ""  # optional meteorology forecast, same schema
    variant: str = "max"  # max | max8h
    target_mode: str = "delta"  # delta | direct
    expansion: str = "linear"  # linear | polynomial
    method: str = "lasso"  # lasso | ridge | mlr (train command)
    train_start: str = ""
    train_end: str = ""
    test_start: str = ""
    test_end: str = ""
    lam: str = "cv"  # "cv" or an explicit value
    cv_k: int = 5
    cv_points: int = 100
    cv_ratio: float = 1e-4
    cv_rule: str = "min"  # min | one_se
    seed: int = 0
    fold_mode: str = "shuffled"  # shuffled | blocked
    tol: float = 1e-7
    max_sweeps: int = 10000
    max_gap_hours: int = 3
    out_dir: str = "out"
    report_methods: str = "lasso-linear,lasso-polynomial,ridge,mlr,persistence"
    memory_budget_mb: int = 512

    def lambda_value(self) -> float | None:
        """Explicit lambda, or None when selection is delegated to CV."""
        if self.lam == "cv":
            return None
        try:
            value = float(self.lam)
        except ValueError:
            raise ConfigError(f"lambda must be 'cv' or a number, got {self.lam!r}")
        if not math.isfinite(value) or value < 0:
            raise ConfigError(f"lambda must be a finite number >= 0, got {self.lam!r}")
        return value

    def date_range(self, which: str) -> tuple[Date, Date]:
        start = getattr(self, f"{which}_start")
        end = getattr(self, f"{which}_end")
        if not start or not end:
            raise ConfigError(f"{which}_start and {which}_end are required")
        try:
            lo, hi = Date.fromisoformat(start), Date.fromisoformat(end)
        except ValueError as exc:
            raise ConfigError(f"bad {which} date range: {exc}")
        if lo > hi:
            raise ConfigError(f"{which} range is reversed")
        return lo, hi

    def validate_split(self) -> None:
        tr_lo, tr_hi = self.date_range("train")
        te_lo, te_hi = self.date_range("test")
        if tr_lo <= te_hi and te_lo <= tr_hi:
            raise ConfigError("train and test date ranges overlap")
        if self.fold_mode == "blocked" and te_lo <= tr_hi:
            raise ConfigError("blocked folds require the test range after the train range")

    def validate_choices(self) -> None:
        """Reject unknown choices and out-of-range or non-finite numbers."""
        checks = {
            "variant": ("max", "max8h"),
            "target_mode": ("delta", "direct"),
            "expansion": ("linear", "polynomial"),
            "method": ("lasso", "ridge", "mlr"),
            "cv_rule": ("min", "one_se"),
            "fold_mode": ("shuffled", "blocked"),
        }
        for name, allowed in checks.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}")
        for name in ("tol", "cv_ratio"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ConfigError(f"{name} must be a finite number > 0, got {value!r}")
        if self.cv_ratio >= 1:
            # the grid must descend from lambda_max: the 1-SE rule assumes it
            raise ConfigError(f"cv_ratio must be < 1, got {self.cv_ratio!r}")
        minimums = {"cv_k": 2, "cv_points": 1, "max_sweeps": 1, "max_gap_hours": 0, "seed": 0}
        for name, low in minimums.items():
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)!r}")
        self.lambda_value()


# every value is parsed by the type of its field's default
_FIELD_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}


def load_config(path: str | Path) -> RunConfig:
    config = RunConfig()
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        set_option(config, key.strip(), value.strip())
    return config


def set_option(config: RunConfig, key: str, value: str) -> None:
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    kind = _FIELD_TYPES[key]
    try:
        parsed = kind(value)
    except ValueError:
        raise ConfigError(f"{key} must be of type {kind.__name__}, got {value!r}")
    setattr(config, key, parsed)


def write_effective_config(config: RunConfig, path: str | Path) -> None:
    """Persist the effective configuration; reparses to an equal RunConfig."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        lines.append(f"{f.name}={value!r}" if isinstance(value, float) else f"{f.name}={value}")
    write_text(path, "\n".join(lines) + "\n")
