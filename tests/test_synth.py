"""Synthetic data generator: determinism, planted relation, manifest."""

import json

import numpy as np
import pytest

from ozolasso import synth
from ozolasso.config import RunConfig
from ozolasso.features import build_schema
from ozolasso.pipeline import build_rows, prepare_training, split_rows
from ozolasso.solvers import DenseDesign, LassoConfig, fit_lasso
from ozolasso.synth import SynthConfig, SynthError, generate, write_files


def test_config_validation():
    with pytest.raises(SynthError):
        generate(SynthConfig(n_days=5))
    with pytest.raises(SynthError):
        generate(SynthConfig(sparsity=0))
    with pytest.raises(SynthError):
        generate(SynthConfig(sparsity=99))
    with pytest.raises(SynthError):
        generate(SynthConfig(snr=-1.0))
    with pytest.raises(SynthError):
        generate(SynthConfig(snr=float("nan")))


def test_deterministic_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write_files(SynthConfig(n_days=20, seed=4), a)
    write_files(SynthConfig(n_days=20, seed=4), b)
    for name in ("pollutants.csv", "meteorology.csv", "truth.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    c = tmp_path / "c"
    write_files(SynthConfig(n_days=20, seed=5), c)
    assert (a / "pollutants.csv").read_bytes() != (c / "pollutants.csv").read_bytes()


def test_manifest_contents(tmp_path):
    manifest = write_files(SynthConfig(n_days=30, seed=1, sparsity=4, snr=10.0), tmp_path)
    assert manifest == json.loads((tmp_path / "truth.json").read_text())
    assert len(manifest["support"]) == 4
    assert len(manifest["weights_per_sd"]) == 4
    assert manifest["noise_std"] == pytest.approx(10.0 / np.sqrt(10.0))
    schema_names = {d.name for d in build_schema("max")}
    assert set(manifest["support"]) <= schema_names


def test_noiseless_manifest():
    data = generate(SynthConfig(n_days=15, seed=0, snr=None))
    assert data["manifest"]["noise_std"] == 0.0
    assert data["manifest"]["hour_noise"] == 0.0


def test_o3_max_at_hour_14():
    data = generate(SynthConfig(n_days=25, seed=2))
    o3 = data["o3"]
    assert np.all(np.argmax(o3, axis=1) == 14)


def run_pipeline(tmp_path, sc, lam, target_mode="direct"):
    write_files(sc, tmp_path)
    n_train = int(0.8 * sc.n_days)
    start = synth.START_DATE
    from datetime import timedelta

    cfg = RunConfig(
        pollutant_file=str(tmp_path / "pollutants.csv"),
        meteo_file=str(tmp_path / "meteorology.csv"),
        variant="max", target_mode=target_mode, expansion="linear", lam=str(lam),
        train_start=start.isoformat(),
        train_end=(start + timedelta(days=n_train - 1)).isoformat(),
        test_start=(start + timedelta(days=n_train)).isoformat(),
        test_end=(start + timedelta(days=sc.n_days)).isoformat(),
    )
    rows, schema = build_rows(cfg)
    train_rows, test_rows = split_rows(cfg, rows)
    data = prepare_training(cfg, train_rows, schema)
    fit = fit_lasso(DenseDesign(data.base), data.y, LassoConfig(lam=lam))
    return cfg, data, fit, test_rows


def test_noiseless_run_has_tiny_test_error(tmp_path):
    # the planted relation is exactly linear, so the support the lasso finds,
    # refitted by least squares, must reproduce the test targets to roundoff
    from ozolasso.features import apply_standardizer
    from ozolasso.solvers import fit_ols

    sc = SynthConfig(n_days=200, seed=3, sparsity=5, snr=None)
    manifest = generate(sc)["manifest"]
    cfg, data, fit, test_rows = run_pipeline(tmp_path, sc, lam=0.01)
    active = fit.active_set
    active_names = {data.kept_names[int(j)] for j in active}
    assert set(manifest["support"]) <= active_names
    refit = fit_ols(DenseDesign(data.base[:, active]), data.y)
    X_test = np.stack([r.x for r in test_rows])
    base_test, _ = apply_standardizer(data.params, X_test)
    pred = (refit.beta0 + base_test[:, active] @ refit.beta) * data.params.y_sigma
    pred += data.params.y_mu
    obs = np.array([r.target_raw for r in test_rows])
    assert float(np.sqrt(np.mean((pred - obs) ** 2))) < 1e-6


def test_high_snr_support_recovered(tmp_path):
    sc = SynthConfig(n_days=120, seed=6, sparsity=5, snr=1000.0)
    manifest = generate(sc)["manifest"]
    cfg, data, fit, _ = run_pipeline(tmp_path, sc, lam=0.02)
    active_names = {data.kept_names[int(j)] for j in fit.active_set}
    assert set(manifest["support"]) <= active_names
