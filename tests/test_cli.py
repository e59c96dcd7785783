"""Integration tests driving the command-line interface end to end."""

import json

import pytest

from ozolasso.cli import main


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


def test_train_rejects_overlapping_split(synth_dir, tmp_path, capsys):
    args = base_args(synth_dir, tmp_path / "out", extra=["--lambda", "0.1"])
    args[args.index("test_start=2015-02-18")] = "test_start=2015-02-01"
    rc = main(["train"] + args)
    assert rc == 1
    assert "overlap" in capsys.readouterr().err


@pytest.mark.parametrize("extra, field", [
    (["--lambda", "nan"], "lambda"),
    (["--lambda", "inf"], "lambda"),
    (["--set", "tol=nan"], "tol"),
    (["--set", "cv_ratio=inf"], "cv_ratio"),
])
def test_non_finite_numbers_rejected(synth_dir, tmp_path, capsys, extra, field):
    out = tmp_path / "out"
    assert main(["train"] + base_args(synth_dir, out, extra=extra)) == 1
    assert f"error: {field} must be a finite number" in capsys.readouterr().err
    assert not (out / "model.json").exists()


@pytest.mark.parametrize("extra, message", [
    (["--set", "cv_k=abc"], "cv_k must be of type int, got 'abc'"),
    (["--set", "cv_k=1"], "cv_k must be >= 2"),
    (["--set", "cv_points=0"], "cv_points must be >= 1"),
    (["--set", "cv_ratio=2"], "cv_ratio must be < 1"),
    (["--set", "max_sweeps=0"], "max_sweeps must be >= 1"),
    (["--set", "max_gap_hours=-1"], "max_gap_hours must be >= 0"),
    (["--seed", "-1"], "seed must be >= 0"),
    (["--set", "tol=small"], "tol must be of type float"),
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
