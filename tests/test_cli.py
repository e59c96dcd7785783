"""Integration tests driving the command-line interface end to end."""

import csv
import functools
import io
import json

import pytest

from ozolasso import pipeline, solvers
from ozolasso.cli import SHORTCUTS, main
from ozolasso.config import RunConfig
from ozolasso.features import FeatureDescriptor


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthdata")
    rc = main(["synth", "--out-dir", str(out), "--n-days", "60", "--seed", "9"])
    assert rc == 0
    return out


def base_args(synth_dir, out_dir, extra=()):
    return [
        "--set", f"pollutant_file={synth_dir / 'pollutants.csv'}",
        "--set", f"meteo_file={synth_dir / 'meteorology.csv'}",
        "--set", "train_start=2015-01-01",
        "--set", "train_end=2015-02-17",
        "--set", "test_start=2015-02-18",
        "--set", "test_end=2015-03-01",
        "--out-dir", str(out_dir),
        *extra,
    ]


def test_synth_outputs(synth_dir, tmp_path):
    assert (synth_dir / "pollutants.csv").exists()
    assert (synth_dir / "meteorology.csv").exists()
    manifest = json.loads((synth_dir / "truth.json").read_text())
    assert manifest["n_days"] == 60
    rerun = tmp_path / "again"
    assert main(["synth", "--out-dir", str(rerun), "--n-days", "60", "--seed", "9"]) == 0
    for name in ("pollutants.csv", "meteorology.csv", "truth.json"):
        assert (rerun / name).read_bytes() == (synth_dir / name).read_bytes()


def test_ingest_golden(synth_dir, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["ingest"] + base_args(synth_dir, out1)) == 0
    assert main(["ingest"] + base_args(synth_dir, out2)) == 0
    assert (out1 / "canonical.csv").read_bytes() == (out2 / "canonical.csv").read_bytes()
    report = (out1 / "ingest_report.txt").read_text()
    assert "hourly rows: 1440" in report
    assert "days assembled: 60" in report
    assert "rejected rows: 0" in report



def test_ingest_report_counts_the_forecast_files_problems(synth_dir, tmp_path):
    """A forecast row with a bad timestamp is rejected and a row of 'oops'
    cells is coerced to missing, and the report counts both."""
    header, *rows = (synth_dir / "meteorology.csv").read_text().splitlines()
    rows[40] = "2015-02-30," + rows[40].split(",", 1)[1]
    rows[41] = ",".join(rows[41].split(",")[:2] + ["oops"] * (len(header.split(",")) - 2))
    forecast = tmp_path / "forecast.csv"
    forecast.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "out"
    assert main(["ingest", *base_args(synth_dir, out, ["--set", f"forecast_file={forecast}"])]) == 0
    report = (out / "ingest_report.txt").read_text()
    assert "rejected rows: 1\n" in report
    assert "cells coerced to missing: 7\n" in report

def test_ingest_gap_counted(synth_dir, tmp_path):
    pol = (synth_dir / "pollutants.csv").read_text().splitlines()
    # drop hours 10 and 11 of the second day to leave an interior 2-hour gap
    kept = [
        line for line in pol
        if not (line.startswith("2015-01-02,10,") or line.startswith("2015-01-02,11,"))
    ]
    gap_file = tmp_path / "gappy.csv"
    gap_file.write_text("\n".join(kept) + "\n")
    out = tmp_path / "out"
    args = base_args(synth_dir, out)
    args[1] = f"pollutant_file={gap_file}"
    assert main(["ingest"] + args) == 0
    report = (out / "ingest_report.txt").read_text()
    # 7 pollutant variables interpolated over 2 missing hours each
    assert "interpolated cells: 14" in report


def test_ingest_empty_input_fails(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("date,hour,o3,so2,no,no2,nox,co,pm25\n")
    met = tmp_path / "met.csv"
    met.write_text("date,hour,temperature,dew_point,rel_humidity,"
                   "wind_direction,wind_speed,visibility,pressure\n")
    rc = main([
        "ingest",
        "--set", f"pollutant_file={empty}",
        "--set", f"meteo_file={met}",
        "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_featurize(synth_dir, tmp_path):
    out = tmp_path / "out"
    assert main(["featurize"] + base_args(synth_dir, out)) == 0
    manifest = (out / "feature_manifest.txt").read_text().splitlines()
    assert len(manifest) == 1 + 918
    features = (out / "features.csv").read_text().splitlines()
    assert features[0].split(",")[0] == "date"
    assert len(features[0].split(",")) == 1 + 918 + 2
    assert len(features) == 1 + 59  # 60 days give 59 (current, next) pairs


def test_featurize_writes_what_csv_writer_writes(synth_dir, tmp_path):
    """features.csv is byte for byte the csv.writer rendering of the repr
    cells (the writer joins the lines itself)."""
    out = tmp_path / "out"
    assert main(["featurize"] + base_args(synth_dir, out)) == 0
    config = RunConfig(pollutant_file=str(synth_dir / "pollutants.csv"),
                       meteo_file=str(synth_dir / "meteorology.csv"))
    rows, schema = pipeline.build_rows(config)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["date"] + [d.name for d in schema] + ["target_raw", "current_anchor"])
    for d, x, target, anchor in zip(rows.dates, rows.x, rows.target_raw, rows.current_anchor):
        writer.writerow([d.isoformat()] + [repr(v) for v in x.tolist()]
                        + [repr(float(target)), repr(float(anchor))])
    assert (out / "features.csv").read_bytes() == expected.getvalue().encode()


@pytest.mark.parametrize("name", ['a,b', 'say "hi"', "a\rb", "a\nb"])
def test_featurize_rejects_a_name_that_needs_quoting(synth_dir, tmp_path, capsys,
                                                     monkeypatch, name):
    build_rows = pipeline.build_rows

    def renamed(config):
        rows, schema = build_rows(config)
        return rows, [FeatureDescriptor(0, name, "test")] + schema[1:]

    monkeypatch.setattr(pipeline, "build_rows", renamed)
    out = tmp_path / "out"
    assert main(["featurize"] + base_args(synth_dir, out)) == 1
    assert "feature names need CSV quoting" in capsys.readouterr().err
    assert not (out / "features.csv").exists()
    assert not (out / "feature_manifest.txt").exists()


def test_cv_outputs(synth_dir, tmp_path):
    out = tmp_path / "out"
    args = base_args(synth_dir, out, extra=[
        "--set", "cv_k=2", "--set", "cv_points=8", "--set", "cv_ratio=0.05",
    ])
    assert main(["cv"] + args) == 0
    table = (out / "cv_table.csv").read_text().splitlines()
    assert table[0] == "lambda,cv_mean,cv_se,nonzero"
    assert len(table) == 9
    summary = (out / "cv_summary.txt").read_text()
    assert "lambda_min=" in summary and "chosen=" in summary


def test_cv_follows_method_ridge(synth_dir, tmp_path):
    """cv with method=ridge scores the ridge path: its table has no nonzero
    column, differs from the Lasso table, and it chooses the lambda that
    train with method=ridge fits."""
    cv_args = ["--set", "cv_k=2", "--set", "cv_points=8", "--set", "cv_ratio=0.05"]
    lasso, ridge, trained = tmp_path / "lasso", tmp_path / "ridge", tmp_path / "trained"
    assert main(["cv"] + base_args(synth_dir, lasso, extra=cv_args)) == 0
    ridge_args = cv_args + ["--set", "method=ridge"]
    assert main(["cv"] + base_args(synth_dir, ridge, extra=ridge_args)) == 0
    assert main(["train"] + base_args(synth_dir, trained, extra=ridge_args)) == 0
    table = (ridge / "cv_table.csv").read_text()
    assert table.splitlines()[0] == "lambda,cv_mean,cv_se"
    assert len(table.splitlines()) == 9
    assert table == (trained / "cv_table.csv").read_text()
    lasso_rows = [line.split(",") for line in (lasso / "cv_table.csv").read_text().splitlines()]
    ridge_rows = [line.split(",") for line in table.splitlines()]
    assert [row[0] for row in ridge_rows] == [row[0] for row in lasso_rows]  # one grid
    assert all(r[1] != l[1] for r, l in zip(ridge_rows[1:], lasso_rows[1:]))
    model = json.loads((trained / "model.json").read_text())
    assert f"chosen={model['lambda']!r}\n" in (ridge / "cv_summary.txt").read_text()


def test_cv_rejects_mlr(synth_dir, tmp_path, capsys):
    """Before any input is read: the pollutant file here does not exist."""
    out = tmp_path / "out"
    extra = ["--set", "method=mlr", "--set", f"pollutant_file={tmp_path / 'absent.csv'}"]
    assert main(["cv"] + base_args(synth_dir, out, extra=extra)) == 1
    assert capsys.readouterr().err == "error: method mlr has no lambda to cross-validate\n"
    assert not (out / "cv_table.csv").exists()


@pytest.mark.parametrize("command", ["cv", "train", "ingest", "featurize", "predict", "report"])
def test_polynomial_expansion_needs_the_lasso(synth_dir, tmp_path, capsys, command):
    """The pair is rejected as the config is checked, before any input
    file is read: the pollutant file is missing."""
    out = tmp_path / "out"
    extra = ["--set", "method=ridge", "--expansion", "polynomial",
             "--set", f"pollutant_file={tmp_path / 'missing.csv'}"]
    if command == "predict":
        extra += ["--model", str(tmp_path / "model.json")]
    assert main([command] + base_args(synth_dir, out, extra=extra)) == 1
    assert capsys.readouterr().err == "error: polynomial expansion is only solved by the lasso\n"
    assert not out.exists()


def test_train_predict_evaluate_report(synth_dir, tmp_path):
    out = tmp_path / "out"
    args = base_args(synth_dir, out, extra=["--lambda", "0.0121"])
    assert main(["train"] + args) == 0
    model = json.loads((out / "model.json").read_text())
    assert model["lambda"] == 0.0121
    assert model["method"] == "lasso"
    effective = (out / "effective_config.cfg").read_text()
    assert "lam=0.0121" in effective

    assert main(["predict", "--model", str(out / "model.json")]
                + base_args(synth_dir, out)) == 0
    predictions = (out / "predictions.csv").read_text().splitlines()
    assert predictions[0] == "date,observed,predicted"
    assert len(predictions) > 1

    assert main(["evaluate", "--predictions", str(out / "predictions.csv")]
                + base_args(synth_dir, out)) == 0
    metrics = (out / "metrics.txt").read_text()
    assert "rmse_ppb=" in metrics and "mae_ppb=" in metrics
    scatter = (out / "scatter_pairs.csv").read_text().splitlines()
    assert scatter[0] == "trimester,observed,predicted"
    assert len(scatter) == len(predictions)

    args = base_args(synth_dir, out, extra=[
        "--lambda", "0.0121",
        "--set", "report_methods=lasso-linear,ridge,persistence",
        "--set", "cv_k=2", "--set", "cv_points=6", "--set", "cv_ratio=0.05",
    ])
    assert main(["report"] + args) == 0
    comparison = (out / "comparison.txt").read_text()
    assert "lasso-linear" in comparison
    assert "persistence" in comparison
    assert "top weights (lasso-linear):" in comparison
    assert (out / "weights_lasso_linear.csv").exists()


HEADER = "date,observed,predicted\n"
MALFORMED_PREDICTIONS = {
    "nan observed": (HEADER + "2015-02-18,41.0,40.0\n2015-02-19,nan,40.5\n",
                     ":3: observed 'nan' is not a finite number"),
    "infinite predicted": (HEADER + "2015-02-18,41.0,inf\n",
                           ":2: predicted 'inf' is not a finite number"),
    "unparseable predicted": (HEADER + "2015-02-18,41.0,high\n",
                              ":2: predicted 'high' is not a finite number"),
    "short row": (HEADER + "2015-02-18,41.0\n", ":2: predicted None is not a finite number"),
    "bad date": (HEADER + "18/02/2015,41.0,40.0\n", ":2: date '18/02/2015' is not an ISO date"),
    "no predicted column": ("date,observed\n2015-02-18,41.0\n", ": header lacks predicted"),
    "empty file": ("", ": header lacks date, observed, predicted"),
}


@pytest.mark.parametrize("case", MALFORMED_PREDICTIONS)
def test_evaluate_rejects_malformed_predictions(tmp_path, capsys, case):
    """A predictions file with a missing column, a bad date or a value that is
    not a finite number fails evaluate, naming the file and the line, and
    writes no metrics."""
    text, message = MALFORMED_PREDICTIONS[case]
    path = tmp_path / "predictions.csv"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["evaluate", "--predictions", str(path), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}{message}\n"
    assert not (out / "metrics.txt").exists()


def test_predict_rejects_a_model_of_another_variant(synth_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["train"] + base_args(synth_dir, out, extra=["--lambda", "0.1"])) == 0
    rc = main(["predict", "--model", str(out / "model.json")]
              + base_args(synth_dir, out, extra=["--variant", "max8h"]))
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: variant is 'max8h' but the model was trained on 'max'" in err
    assert not (out / "predictions.csv").exists()


def test_train_rejects_overlapping_split(synth_dir, tmp_path, capsys):
    args = base_args(synth_dir, tmp_path / "out", extra=["--lambda", "0.1"])
    args[args.index("test_start=2015-02-18")] = "test_start=2015-02-01"
    rc = main(["train"] + args)
    assert rc == 1
    assert "overlap" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["cv"], ["train"], ["predict", "--model", "absent.json"],
                                     ["report"]])
def test_split_checked_before_any_input_is_read(synth_dir, tmp_path, capsys, command):
    args = base_args(synth_dir, tmp_path / "out", extra=["--lambda", "0.1"])
    args[args.index("test_start=2015-02-18")] = "test_start=2015-02-01"
    args[args.index(f"pollutant_file={synth_dir / 'pollutants.csv'}")] = (
        f"pollutant_file={tmp_path / 'absent.csv'}")
    assert main(command + args) == 1
    assert capsys.readouterr().err == "error: train and test date ranges overlap\n"


def test_an_out_dir_that_is_not_utf8_is_rejected_before_any_input_is_read(synth_dir, tmp_path,
                                                                          capsys):
    """``train --out-dir $'o\\xff'``: the byte arrives surrogate-escaped, and
    effective_config.cfg could not be written after model.json."""
    out = tmp_path / "o\udcff"
    args = base_args(synth_dir, out)
    args[args.index(f"pollutant_file={synth_dir / 'pollutants.csv'}")] = (
        f"pollutant_file={tmp_path / 'absent.csv'}")
    assert main(["train"] + args) == 1
    assert capsys.readouterr().err == f"error: out_dir must be valid UTF-8 text, got {str(out)!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("extra, field", [
    (["--lambda", "nan"], "lambda"),
    (["--lambda", "inf"], "lambda"),
    # no longer a key: rejected as unknown before its value is read
    (["--set", "tol=nan"], "unknown config key 'tol'"),
    (["--set", "cv_ratio=inf"], "cv_ratio"),
])
def test_non_finite_numbers_rejected(synth_dir, tmp_path, capsys, extra, field):
    out = tmp_path / "out"
    assert main(["train"] + base_args(synth_dir, out, extra=extra)) == 1
    message = field if field.startswith("unknown") else f"{field} must be a finite number"
    assert f"error: {message}" in capsys.readouterr().err
    assert not (out / "model.json").exists()


@pytest.mark.parametrize("extra, message", [
    (["--set", "cv_k=abc"], "cv_k must be of type int, got 'abc'"),
    (["--set", "cv_k=1"], "cv_k must be >= 2"),
    (["--set", "cv_points=0"], "cv_points must be >= 1"),
    (["--set", "cv_ratio=2"], "cv_ratio must be < 1"),
    (["--set", "max_sweeps=0"], "unknown config key 'max_sweeps'"),
    (["--set", "max_gap_hours=-1"], "max_gap_hours must be >= 0"),
    (["--seed", "-1"], "seed must be >= 0"),
    (["--set", "tol=small"], "unknown config key 'tol'"),
    # no longer keys: a config that still sets one fails instead of being ignored
    (["--set", "memory_budget_mb=1"], "unknown config key 'memory_budget_mb'"),
])
def test_out_of_range_numbers_rejected(synth_dir, tmp_path, capsys, extra, message):
    out = tmp_path / "out"
    assert main(["train"] + base_args(synth_dir, out, extra=extra)) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (out / "model.json").exists()


def test_unknown_set_key_fails(synth_dir, tmp_path, capsys):
    rc = main(["train"] + base_args(synth_dir, tmp_path / "out")
              + ["--set", "granularity=hourly"])
    assert rc == 1
    assert "unknown config key" in capsys.readouterr().err


# a value each shortcut flag's key rejects; None stands for a path that is a file
BAD_SHORTCUT_VALUES = {
    "--seed": "abc",
    "--variant": "foo",
    "--expansion": "quadratic",
    "--lambda": "auto",
    "--folds": "random",
    "--out-dir": None,
}


def test_every_shortcut_flag_has_a_bad_value():
    assert set(BAD_SHORTCUT_VALUES) == set(SHORTCUTS)


@pytest.mark.parametrize("flag", BAD_SHORTCUT_VALUES)
def test_shortcut_flag_rejects_like_set(synth_dir, tmp_path, capsys, flag):
    """A shortcut flag's value takes the --set path: a bad one exits 1 with
    the error --set gives, not argparse's usage error."""
    key, bad = SHORTCUTS[flag], BAD_SHORTCUT_VALUES[flag]
    if bad is None:
        bad = str(tmp_path / "a-file")
        (tmp_path / "a-file").write_text("")
    # the out dir as a --set item, which a later --set item overrides
    common = base_args(synth_dir, tmp_path / "out")
    at = common.index("--out-dir")
    common[at:at + 2] = ["--set", f"out_dir={tmp_path / 'out'}"]
    errors = []
    for override in ([flag, bad], ["--set", f"{key}={bad}"]):
        assert main(["train"] + common + override) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and errors[0].startswith("error: ")
    assert not (tmp_path / "out" / "model.json").exists()


def test_report_rejects_an_unknown_method_before_any_fit(synth_dir, tmp_path, capsys):
    out = tmp_path / "out"
    args = base_args(synth_dir, out, extra=[
        "--lambda", "0.0121", "--set", "report_methods=lasso-linear,nope",
    ])
    assert main(["report"] + args) == 1
    assert "report_methods: 'nope' is not one of" in capsys.readouterr().err
    assert not out.exists()


def test_report_rejects_a_repeated_method_before_any_fit(synth_dir, tmp_path, capsys):
    out = tmp_path / "out"
    args = base_args(synth_dir, out, extra=[
        "--lambda", "0.0121", "--set", "report_methods=ridge, persistence,ridge",
        "--set", f"pollutant_file={tmp_path / 'absent.csv'}",
    ])
    assert main(["report"] + args) == 1
    assert capsys.readouterr().err == "error: report_methods: 'ridge' is repeated\n"
    assert not out.exists()


def test_report_shows_an_uncertified_lasso_as_a_failed_row(synth_dir, tmp_path, monkeypatch):
    """A lasso fit that stops before it converges gets a failed row, and no
    weights file or top-weights block."""
    monkeypatch.setattr(solvers, "LassoConfig", functools.partial(solvers.LassoConfig, max_sweeps=1))
    out = tmp_path / "out"
    args = base_args(synth_dir, out, extra=[
        "--lambda", "0.0121",
        "--set", "report_methods=lasso-linear,ridge,persistence",
    ])
    assert main(["report"] + args) == 0
    comparison = (out / "comparison.txt").read_text()
    assert [line for line in comparison.splitlines() if line.startswith("lasso-linear")] == [
        f"{'lasso-linear':<22}{'-':>8}{'-':>8}  failed (not converged)"
    ]
    assert "top weights" not in comparison
    assert not (out / "weights_lasso_linear.csv").exists()
    assert (out / "weights_ridge.csv").exists()
