"""Configuration parsing, validation, and round-tripping."""

import math
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ozolasso.config import (
    ConfigError,
    RunConfig,
    load_config,
    set_option,
    write_effective_config,
)


def test_lambda_value():
    assert RunConfig(lam="cv").lambda_value() is None
    assert RunConfig(lam="0.0121").lambda_value() == 0.0121
    with pytest.raises(ConfigError):
        RunConfig(lam="-0.5").lambda_value()
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match="lambda must be a finite number"):
            RunConfig(lam=bad).lambda_value()
    with pytest.raises(ConfigError, match="'auto'"):
        RunConfig(lam="auto").lambda_value()


def test_date_range():
    cfg = RunConfig(train_start="2015-01-01", train_end="2015-06-30")
    lo, hi = cfg.date_range("train")
    assert lo.isoformat() == "2015-01-01" and hi.isoformat() == "2015-06-30"
    with pytest.raises(ConfigError, match="required"):
        RunConfig(train_start="2015-01-01").date_range("train")
    with pytest.raises(ConfigError, match="bad train"):
        RunConfig(train_start="2015-13-01", train_end="2015-06-30").date_range("train")
    with pytest.raises(ConfigError, match="reversed"):
        RunConfig(train_start="2015-06-30", train_end="2015-01-01").date_range("train")


def test_validate_split():
    cfg = RunConfig(train_start="2015-01-01", train_end="2015-06-30",
                    test_start="2015-07-01", test_end="2015-09-30")
    cfg.validate_split()
    bad = RunConfig(train_start="2015-01-01", train_end="2015-07-15",
                    test_start="2015-07-01", test_end="2015-09-30")
    with pytest.raises(ConfigError, match="overlap"):
        bad.validate_split()
    reversed_split = RunConfig(train_start="2015-07-01", train_end="2015-09-30",
                               test_start="2015-01-01", test_end="2015-06-30",
                               fold_mode="blocked")
    with pytest.raises(ConfigError, match="blocked"):
        reversed_split.validate_split()


def test_validate_choices():
    RunConfig().validate_choices()
    with pytest.raises(ConfigError, match="variant"):
        RunConfig(variant="max1h").validate_choices()
    with pytest.raises(ConfigError, match="cv_rule"):
        RunConfig(cv_rule="median").validate_choices()
    with pytest.raises(ConfigError, match="cv_ratio"):
        RunConfig(cv_ratio=float("inf")).validate_choices()
    with pytest.raises(ConfigError, match="lambda"):
        RunConfig(lam="nan").validate_choices()
    for bad in ({"cv_k": 1}, {"cv_points": 0},
                {"max_gap_hours": -1}, {"seed": -1}, {"cv_ratio": 1.0}, {"cv_ratio": 2.0}):
        (name,) = bad
        with pytest.raises(ConfigError, match=name):
            RunConfig(**bad).validate_choices()
    RunConfig(cv_k=2, cv_points=1, max_gap_hours=0, cv_ratio=0.999).validate_choices()
    RunConfig(method="lasso", expansion="polynomial").validate_choices()
    for method in ("ridge", "mlr"):
        with pytest.raises(ConfigError, match="polynomial expansion is only solved by the lasso"):
            RunConfig(method=method, expansion="polynomial").validate_choices()


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "variant=max8h\n"
        "cv_k = 3\n"
        "cv_ratio=1e-3\n"
        "lam=0.0295\n"
    )
    cfg = load_config(path)
    assert cfg.variant == "max8h"
    assert cfg.cv_k == 3
    assert cfg.cv_ratio == 1e-3
    assert cfg.lam == "0.0295"

    path.write_text("granularity=hourly\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(path)
    for removed in ("tol=1e-07", "max_sweeps=10000"):  # solver constants, not keys
        path.write_text(removed + "\n")
        with pytest.raises(ConfigError, match=f"unknown config key {removed.split('=')[0]!r}"):
            load_config(path)
    path.write_text("variant max\n")
    with pytest.raises(ConfigError, match="key=value"):
        load_config(path)


def test_set_option_type_coercion():
    cfg = RunConfig()
    set_option(cfg, "seed", "7")
    assert cfg.seed == 7
    set_option(cfg, "cv_ratio", "1e-3")
    assert cfg.cv_ratio == 1e-3
    set_option(cfg, "lam", "cv")
    assert cfg.lam == "cv"
    with pytest.raises(ConfigError):
        set_option(cfg, "nope", "1")
    for key, value in (("cv_k", "abc"), ("cv_k", "2.5"), ("cv_ratio", "tiny")):
        with pytest.raises(ConfigError, match=f"{key} must be of type"):
            set_option(cfg, key, value)
    assert cfg.cv_k == 5
    with pytest.raises(ConfigError, match=r"out_dir must be one line, got 'a\\nlam=0.5'"):
        set_option(cfg, "out_dir", "a\nlam=0.5")
    with pytest.raises(ConfigError, match=r"out_dir must be valid UTF-8 text, got 'o\\udcff'"):
        set_option(cfg, "out_dir", "o\udcff")
    assert cfg.out_dir == "out"


def test_effective_config_round_trip(tmp_path):
    cfg = RunConfig(variant="max8h", lam="0.0118", cv_ratio=1.0 / 3.0,
                    seed=11, train_start="2015-01-01",
                    train_end="2015-06-30", out_dir="some/dir")
    path = tmp_path / "effective.cfg"
    write_effective_config(cfg, path)
    assert load_config(path) == cfg
    # floats survive exactly thanks to repr serialization
    assert load_config(path).cv_ratio == cfg.cv_ratio


# The accepted values of every RunConfig key, written out independently of
# the checks in config.py.
CHOICES = {
    "variant": ("max", "max8h"),
    "target_mode": ("delta", "direct"),
    "expansion": ("linear", "polynomial"),
    "method": ("lasso", "ridge", "mlr"),
    "cv_rule": ("min", "one_se"),
    "fold_mode": ("shuffled", "blocked"),
}
MINIMUMS = {"cv_k": 2, "cv_points": 1, "max_gap_hours": 0, "seed": 0}
FLOAT_RANGES = {"cv_ratio": (0.0, 1.0)}  # open intervals
# comma-separated lists: every non-blank item must be one of these names, and
# no name may come twice
LISTS = {"report_methods": ("lasso-linear", "lasso-polynomial", "ridge", "mlr", "persistence")}
FREE_TEXT = ("pollutant_file", "meteo_file", "forecast_file", "train_start", "train_end",
             "test_start", "test_end", "out_dir")
# a text value is one line: it may hold none of the characters str.splitlines breaks on
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def test_every_key_has_a_rule():
    ruled = {*CHOICES, *MINIMUMS, *FLOAT_RANGES, *LISTS, *FREE_TEXT, "lam"}
    assert ruled == {f.name for f in fields(RunConfig)}


def accepted(key: str, text: str) -> bool:
    """Whether ``key=text`` should pass set_option and validate_choices."""
    text = text.strip()  # set_option strips a value, as a config-file line is
    try:
        value = type(getattr(RunConfig(), key))(text)
    except ValueError:
        return False
    if isinstance(value, str) and any(ch in value for ch in LINE_BREAKS):
        return False
    if key in CHOICES:
        return value in CHOICES[key]
    if key in MINIMUMS:
        return value >= MINIMUMS[key]
    if key in FLOAT_RANGES:
        low, high = FLOAT_RANGES[key]
        return low < value < high
    if key in LISTS:
        items = [item.strip() for item in value.split(",") if item.strip()]
        return all(item in LISTS[key] for item in items) and len(set(items)) == len(items)
    if key == "lam":
        if value == "cv":
            return True
        try:
            return math.isfinite(float(value)) and float(value) >= 0
        except ValueError:
            return False
    return True


def candidate_text(key: str):
    """Values of every kind for ``key``: well-formed and in range, well-formed
    and out of range, and arbitrary text."""
    if key in CHOICES:
        typed = st.sampled_from(CHOICES[key])
    elif key in MINIMUMS:
        low = MINIMUMS[key]
        typed = st.integers(low - 3, low + 3).map(str) | st.integers().map(str)
    elif key in FLOAT_RANGES or key == "lam":
        typed = st.floats().map(repr) | st.sampled_from(["0", "1", "1e-7", "cv"])
    elif key in LISTS:
        item = st.sampled_from(LISTS[key] + ("", " ridge ", "lasso")) | st.text(max_size=4)
        typed = st.lists(item, max_size=4).map(",".join)
    else:
        typed = st.text(max_size=12)
    broken = st.lists(st.sampled_from(["a", " ", "lam=0.5", *LINE_BREAKS]), max_size=4)
    return typed | st.text(max_size=6) | broken.map("".join)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_set_option_and_validate_choices_over_every_key(data):
    key = data.draw(st.sampled_from(sorted(f.name for f in fields(RunConfig))), label="key")
    text = data.draw(candidate_text(key), label="text")
    config = RunConfig()
    try:
        set_option(config, key, text)
        config.validate_choices()
    except ConfigError as exc:
        assert not accepted(key, text)
        assert key in str(exc)  # "lambda ..." names the lam key
    else:
        assert accepted(key, text)
        # and the config it made survives its effective_config.cfg
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "effective_config.cfg"
            write_effective_config(config, path)
            assert load_config(path) == config
