"""Run configuration: key=value file plus command-line overrides."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from datetime import date as Date
from pathlib import Path

from .atomic import write_text


class ConfigError(Exception):
    pass


# the accepted values of each choice key; model files are checked against them too
CHOICES = {
    "variant": ("max", "max8h"),
    "target_mode": ("delta", "direct"),
    "expansion": ("linear", "polynomial"),
    "method": ("lasso", "ridge", "mlr"),
    "cv_rule": ("min", "one_se"),
    "fold_mode": ("shuffled", "blocked"),
}
MINIMUMS = {"cv_k": 2, "cv_points": 1, "max_gap_hours": 0, "seed": 0}
# report method -> (fit method, expansion); persistence fits nothing. Its
# values are the only (method, expansion) pairs a config may set.
REPORT_METHODS = {
    "lasso-linear": ("lasso", "linear"),
    "lasso-polynomial": ("lasso", "polynomial"),
    "ridge": ("ridge", "linear"),
    "mlr": ("mlr", "linear"),
    "persistence": None,
}


@dataclass
class RunConfig:
    pollutant_file: str = ""
    meteo_file: str = ""
    forecast_file: str = ""  # optional meteorology forecast, same schema
    variant: str = "max"
    target_mode: str = "delta"
    expansion: str = "linear"
    method: str = "lasso"  # the fit of train, and the path cv scores
    train_start: str = ""
    train_end: str = ""
    test_start: str = ""
    test_end: str = ""
    lam: str = "cv"  # "cv" or an explicit value
    cv_k: int = 5
    cv_points: int = 100
    cv_ratio: float = 1e-4
    cv_rule: str = "min"
    seed: int = 0
    fold_mode: str = "shuffled"
    max_gap_hours: int = 3
    out_dir: str = "out"
    report_methods: str = "lasso-linear,lasso-polynomial,ridge,mlr,persistence"

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

    def report_method_names(self) -> list[str]:
        """The non-blank names of ``report_methods``, in order."""
        return [m.strip() for m in self.report_methods.split(",") if m.strip()]

    def validate_choices(self) -> None:
        """Reject unknown choices and out-of-range or non-finite numbers."""
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}")
        if (self.method, self.expansion) not in REPORT_METHODS.values():
            raise ConfigError("polynomial expansion is only solved by the lasso")
        methods = self.report_method_names()
        for i, method in enumerate(methods):
            if method not in REPORT_METHODS:
                raise ConfigError(
                    f"report_methods: {method!r} is not one of {tuple(REPORT_METHODS)}")
            if method in methods[:i]:
                raise ConfigError(f"report_methods: {method!r} is repeated")
        if not math.isfinite(self.cv_ratio) or self.cv_ratio <= 0:
            raise ConfigError(f"cv_ratio must be a finite number > 0, got {self.cv_ratio!r}")
        if self.cv_ratio >= 1:
            # the grid must descend from lambda_max: the 1-SE rule assumes it
            raise ConfigError(f"cv_ratio must be < 1, got {self.cv_ratio!r}")
        for name, low in MINIMUMS.items():
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)!r}")
        self.lambda_value()


# every value is parsed by the type of its field's default
_FIELD_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}


def load_config(path: str | Path) -> RunConfig:
    config = RunConfig()
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            set_item(config, line, f"{path}:{lineno}")
    return config


def set_item(config: RunConfig, item: str, where: str) -> None:
    """Apply one ``key=value`` item, a config-file line or a ``--set`` value."""
    if "=" not in item:
        raise ConfigError(f"{where}: expected key=value, got {item!r}")
    key, _, value = item.partition("=")
    set_option(config, key.strip(), value)


def set_option(config: RunConfig, key: str, value: str) -> None:
    """Set ``key`` to ``value`` parsed by its type; the config file that
    ``write_effective_config`` writes reparses to the same value."""
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    kind = _FIELD_TYPES[key]
    value = value.strip()
    try:
        parsed = kind(value)
    except ValueError:
        raise ConfigError(f"{key} must be of type {kind.__name__}, got {value!r}")
    if kind is str:
        if "".join(parsed.splitlines()) != parsed:
            raise ConfigError(f"{key} must be one line, got {value!r}")
        try:  # an argument byte that is not UTF-8 arrives surrogate-escaped
            parsed.encode("utf-8")
        except UnicodeEncodeError:
            raise ConfigError(f"{key} must be valid UTF-8 text, got {value!r}")
    setattr(config, key, parsed)


def write_effective_config(config: RunConfig, path: str | Path) -> None:
    """Persist the effective configuration; reparses to an equal RunConfig."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        lines.append(f"{f.name}={value!r}" if isinstance(value, float) else f"{f.name}={value}")
    write_text(path, "\n".join(lines) + "\n")
