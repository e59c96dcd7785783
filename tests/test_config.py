"""Configuration parsing, validation, and round-tripping."""

import pytest

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
    with pytest.raises(ConfigError, match="tol"):
        RunConfig(tol=float("nan")).validate_choices()
    with pytest.raises(ConfigError, match="cv_ratio"):
        RunConfig(cv_ratio=float("inf")).validate_choices()
    with pytest.raises(ConfigError, match="lambda"):
        RunConfig(lam="nan").validate_choices()
    for bad in ({"cv_k": 1}, {"cv_points": 0}, {"max_sweeps": 0},
                {"max_gap_hours": -1}, {"seed": -1}, {"cv_ratio": 1.0}, {"cv_ratio": 2.0}):
        (name,) = bad
        with pytest.raises(ConfigError, match=name):
            RunConfig(**bad).validate_choices()
    RunConfig(cv_k=2, cv_points=1, max_sweeps=1, max_gap_hours=0, cv_ratio=0.999).validate_choices()


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
    path.write_text("variant max\n")
    with pytest.raises(ConfigError, match="key=value"):
        load_config(path)


def test_set_option_type_coercion():
    cfg = RunConfig()
    set_option(cfg, "seed", "7")
    assert cfg.seed == 7
    set_option(cfg, "tol", "1e-9")
    assert cfg.tol == 1e-9
    set_option(cfg, "lam", "cv")
    assert cfg.lam == "cv"
    with pytest.raises(ConfigError):
        set_option(cfg, "nope", "1")
    for key, value in (("cv_k", "abc"), ("cv_k", "2.5"), ("tol", "tiny")):
        with pytest.raises(ConfigError, match=f"{key} must be of type"):
            set_option(cfg, key, value)
    assert cfg.cv_k == 5


def test_effective_config_round_trip(tmp_path):
    cfg = RunConfig(variant="max8h", lam="0.0118", cv_ratio=1.0 / 3.0,
                    tol=3e-8, seed=11, train_start="2015-01-01",
                    train_end="2015-06-30", out_dir="some/dir")
    path = tmp_path / "effective.cfg"
    write_effective_config(cfg, path)
    assert load_config(path) == cfg
    # floats survive exactly thanks to repr serialization
    assert load_config(path).cv_ratio == cfg.cv_ratio
