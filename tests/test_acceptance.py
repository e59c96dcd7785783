"""Acceptance gate: one test per numbered criterion, pinned tolerances.

Each test prints/asserts exactly one criterion; `pytest -v` therefore yields
one pass/fail line per criterion. Shared fixtures are module-scoped so timed
criteria are not charged for work other criteria reuse.
"""

import time

import numpy as np
import pytest

from conftest import orthonormal_design, standardized_matrix
from ozolasso import modelio, pipeline
from ozolasso.cli import main as cli_main
from ozolasso.config import RunConfig
from ozolasso.evaluation import mae, rmse, scatter_fit
from ozolasso.expansion import ExpandedDesign, expansion_size
from ozolasso.features import build_schema, compute_8h_means
from ozolasso.solvers import DenseDesign, LassoConfig, fit_lasso, fit_ols, fit_ridge, lasso_path
from ozolasso.synth import SynthConfig, write_files


# --- shared fixtures -------------------------------------------------------

@pytest.fixture(scope="module")
def ols_equiv_fits():
    """20 full-rank fixtures fitted by the lasso at lambda=0."""
    out = []
    t0 = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = standardized_matrix(rng, 50, 10)
        y = rng.normal(size=50)
        out.append((X, y, fit_lasso(DenseDesign(X), y, LassoConfig(lam=0.0))))
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ortho_fits():
    """20 orthonormalized fixtures fitted at a moderate penalty."""
    out = []
    t0 = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        X = orthonormal_design(rng, 32, 8)
        y = rng.normal(size=32)
        lam = float(rng.uniform(0.1, 0.8))
        out.append((X, y, lam, fit_lasso(DenseDesign(X), y, LassoConfig(lam=lam))))
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def path_run():
    """100-point regularization path on a random fixture."""
    rng = np.random.default_rng(42)
    X = standardized_matrix(rng, 80, 25)
    y = X[:, 0] - 0.7 * X[:, 5] + 0.5 * rng.normal(size=80)
    yc = y - y.mean()
    lam_max = 2.0 * float(np.abs(X.T @ yc / 80).max())
    grid = np.geomspace(lam_max, lam_max * 1e-4, 100)
    fits = list(lasso_path(DenseDesign(X), y, grid))
    return X, y, grid, fits


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    """Seeded desk-scale recovery pipeline shared by criteria 7 and 9."""
    t0 = time.perf_counter()
    out = tmp_path_factory.mktemp("recovery")
    manifest = write_files(SynthConfig(n_days=300, seed=123, sparsity=5, snr=20.0), out)
    cfg = RunConfig(
        pollutant_file=str(out / "pollutants.csv"),
        meteo_file=str(out / "meteorology.csv"),
        variant="max", target_mode="direct", expansion="linear",
        lam="cv", cv_k=2, cv_points=40, cv_ratio=1e-2, seed=1,
        train_start="2015-01-01", train_end="2015-08-28",
        test_start="2015-08-29", test_end="2015-10-26",
    )
    rows, schema = pipeline.build_rows(cfg)
    train_rows, test_rows = pipeline.split_rows(cfg, rows)
    data = pipeline.prepare_training(cfg, train_rows, schema)
    lam, _ = pipeline.choose_lambda(cfg, DenseDesign(data.base), data.y, "lasso")
    fit = fit_lasso(DenseDesign(data.base), data.y, LassoConfig(lam=lam))
    ridge = fit_ridge(DenseDesign(data.base), data.y, lam)
    model = modelio.build_model_dict(
        fit, data.params, data.kept_names, data.all_names,
        variant="max", expansion="linear", target_mode="direct",
    )
    pred = modelio.predict_rows(model, test_rows)
    obs = np.array([r.target_raw for r in test_rows])
    return {
        "manifest": manifest,
        "data": data,
        "lam": lam,
        "fit": fit,
        "ridge": ridge,
        "rmse": float(np.sqrt(np.mean((pred - obs) ** 2))),
        "elapsed": time.perf_counter() - t0,
    }


# --- criteria --------------------------------------------------------------

def test_criterion_01_feature_counts():
    t0 = time.perf_counter()
    schema_max = build_schema("max")
    schema_max8h = build_schema("max8h")
    n_pollutant = sum(1 for d in schema_max if d.category.startswith("pollutant"))
    n_meteo = sum(1 for d in schema_max if d.category.startswith("meteo"))
    assert n_pollutant == 189
    assert n_meteo == 729
    assert len(schema_max) == 918
    assert len(schema_max8h) == 938
    assert expansion_size(918) == 422_739
    assert expansion_size(938) == 441_329
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_lasso_ols_equivalence(ols_equiv_fits):
    fits, elapsed = ols_equiv_fits
    for X, y, fit in fits:
        beta_ols = fit_ols(DenseDesign(X), y).beta
        assert float(np.abs(fit.beta - beta_ols).max()) < 1e-6
    assert elapsed < 5.0


def test_criterion_03_orthonormal_soft_threshold(ortho_fits):
    fits, elapsed = ortho_fits
    for X, y, lam, fit in fits:
        beta_ols = fit_ols(DenseDesign(X), y).beta
        expected = np.sign(beta_ols) * np.maximum(np.abs(beta_ols) - lam / 2, 0.0)
        assert float(np.abs(fit.beta - expected).max()) < 1e-8
    assert elapsed < 5.0


def test_criterion_04_kkt_certificate(ols_equiv_fits, ortho_fits, path_run, synth_run):
    fits = [f for _, _, f in ols_equiv_fits[0]]
    fits += [f for _, _, _, f in ortho_fits[0]]
    fits += list(path_run[3])
    fits.append(synth_run["fit"])
    rng = np.random.default_rng(7)
    base = standardized_matrix(rng, 40, 8)
    design = ExpandedDesign.fit(base)
    y = rng.normal(size=40)
    for lam in (0.02, 0.2, 1.0):
        fits.append(fit_lasso(DenseDesign(base), y, LassoConfig(lam=lam)))
        fits.append(fit_lasso(design, y, LassoConfig(lam=lam)))
    checked = 0
    for fit in fits:
        if not fit.converged:
            continue
        assert fit.kkt_zero_violation <= 1e-6
        assert fit.kkt_active_violation <= 1e-6
        checked += 1
    assert checked >= 100  # the suite genuinely exercised many fits


def test_criterion_05_lambda_max_and_path_monotonicity(path_run):
    X, y, grid, fits = path_run
    fit_top = fit_lasso(DenseDesign(X), y, LassoConfig(lam=float(grid[0])))
    assert np.all(fit_top.beta == 0.0)
    norms = [float(np.abs(f.beta).sum()) for f in fits]
    assert len(norms) == 100
    for a, b in zip(norms, norms[1:]):  # grid descends, so the norm grows
        assert b >= a - 1e-8


def test_criterion_06_ridge_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n, p = 40, 6
        X = standardized_matrix(rng, n, p)
        y = rng.normal(size=n)
        lam = float(rng.uniform(0.0, 2.0))
        fit = fit_ridge(DenseDesign(X), y, lam)
        yc = y - y.mean()
        oracle = np.linalg.solve(X.T @ X + n * lam * np.eye(p), X.T @ yc)
        assert float(np.abs(fit.beta - oracle).max()) < 1e-8
    X = standardized_matrix(rng, 30, 5)
    y = rng.normal(size=30)
    design = DenseDesign(X)
    assert float(np.abs(fit_ridge(design, y, 0.0).beta - fit_ols(design, y).beta).max()) < 1e-8
    eye = np.eye(4)
    y4 = rng.normal(size=4)
    fit = fit_ridge(DenseDesign(eye), y4, 0.5, fit_intercept=False)
    np.testing.assert_allclose(fit.beta, y4 / (1 + 4 * 0.5), atol=1e-8)


def test_criterion_07_sparse_recovery(synth_run):
    data = synth_run["data"]
    active = {data.kept_names[int(j)] for j in synth_run["fit"].active_set}
    support = set(synth_run["manifest"]["support"])
    assert support <= active  # no misses
    false_positives = active - support
    assert len(false_positives) <= 10
    noise_std = synth_run["manifest"]["noise_std"]
    assert synth_run["rmse"] <= 1.2 * noise_std
    assert synth_run["elapsed"] < 60.0


def test_criterion_08_streamed_vs_materialized():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    base = standardized_matrix(rng, 60, 15)
    y = base[:, 0] * 1.5 - base[:, 7] + 0.3 * rng.normal(size=60)
    design = ExpandedDesign.fit(base)
    for lam in (0.05, 0.3):
        f_stream = fit_lasso(design, y, LassoConfig(lam=lam))
        f_dense = fit_lasso(DenseDesign(design.block(0, design.shape[1])), y, LassoConfig(lam=lam))
        assert np.array_equal(f_stream.beta, f_dense.beta)
        assert f_stream.beta0 == f_dense.beta0
    assert time.perf_counter() - t0 < 10.0


def test_criterion_09_sparsity_contrast(synth_run):
    n_candidates = len(synth_run["data"].kept_names)
    lasso_frac = synth_run["fit"].active_set.size / n_candidates
    ridge_frac = synth_run["ridge"].active_set.size / n_candidates
    assert lasso_frac < 0.20
    assert ridge_frac == 1.0


def test_criterion_10_metrics_oracles():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 200))
        pred = rng.normal(size=n)
        obs = rng.normal(size=n)
        sq = sum((p - o) ** 2 for p, o in zip(pred, obs))
        ab = sum(abs(p - o) for p, o in zip(pred, obs))
        assert abs(rmse(pred, obs) - (sq / n) ** 0.5) < 1e-12
        assert abs(mae(pred, obs) - ab / n) < 1e-12
        if np.ptp(obs) > 0:
            s = scatter_fit(pred, obs)
            oc = obs - obs.mean()
            slope = float(oc @ (pred - pred.mean())) / float(oc @ oc)
            assert abs(s.slope - slope) < 1e-12
            assert abs(s.intercept - (pred.mean() - slope * obs.mean())) < 1e-12
            assert abs(s.pearson_r - float(np.corrcoef(obs, pred)[0, 1])) < 1e-12
    for _ in range(1000):
        n = int(rng.integers(1, 20))
        pred = rng.normal(size=n)
        obs = rng.normal(size=n)
        assert rmse(pred, obs) >= mae(pred, obs)


def test_criterion_11_end_to_end_determinism(tmp_path):
    data_dir = tmp_path / "data"
    assert cli_main(["synth", "--out-dir", str(data_dir),
                     "--n-days", "60", "--seed", "17"]) == 0
    artifacts = ("model.json", "cv_table.csv", "predictions.csv",
                 "metrics.txt", "comparison.txt")

    def run(out):
        common = [
            "--set", f"pollutant_file={data_dir / 'pollutants.csv'}",
            "--set", f"meteo_file={data_dir / 'meteorology.csv'}",
            "--set", "train_start=2015-01-01", "--set", "train_end=2015-02-17",
            "--set", "test_start=2015-02-18", "--set", "test_end=2015-03-01",
            "--set", "cv_k=2", "--set", "cv_points=10", "--set", "cv_ratio=0.05",
            "--seed", "3", "--out-dir", str(out),
        ]
        assert cli_main(["train"] + common) == 0
        assert cli_main(["predict", "--model", str(out / "model.json")] + common) == 0
        assert cli_main(["evaluate", "--predictions",
                         str(out / "predictions.csv")] + common) == 0
        assert cli_main(["report", "--lambda", "0.05", "--set",
                         "report_methods=lasso-linear,ridge,persistence"] + common) == 0

    run(tmp_path / "run1")
    run(tmp_path / "run2")
    for name in artifacts:
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        assert a == b, f"{name} differs between identical-seed runs"


def test_criterion_12_eight_hour_means():
    ramp = np.arange(24, dtype=float)
    means, wmax, wmin, wmean = compute_8h_means(ramp)
    np.testing.assert_allclose(means, np.arange(17) + 3.5, atol=1e-12)
    assert wmax == 19.5
    assert int(np.argmax(means)) == 16
    const = np.full(24, 7.0)
    means_c, wmax_c, wmin_c, wmean_c = compute_8h_means(const)
    assert np.all(means_c == 7.0)
    assert wmax_c == wmin_c == wmean_c == 7.0
