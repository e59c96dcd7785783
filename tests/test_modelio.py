"""Model file round trips and prediction from saved models."""

from datetime import date as Date, timedelta

import numpy as np
import pytest

from ozolasso.cli import main
from ozolasso.expansion import ExpandedDesign
from ozolasso.features import (
    DailyFeatureRow,
    apply_standardizer,
    fit_standardizer,
)
from ozolasso.modelio import (
    ModelIOError,
    build_model_dict,
    load_model,
    predict_rows,
    save_model,
    standardization_digest,
)
from ozolasso.solvers import LassoConfig, fit_lasso


def make_rows(rng, n, p, beta=None, noise=0.0, anchor=50.0):
    X = rng.uniform(10, 40, size=(n, p))
    if beta is None:
        beta = np.zeros(p)
    y = X @ beta + noise * rng.normal(size=n)
    return [
        DailyFeatureRow(Date(2017, 1, 1 + i), X[i], float(y[i]), anchor)
        for i in range(n)
    ]


def fit_linear_model(rows, lam=0.0, target_mode="direct"):
    X = np.stack([r.x for r in rows])
    if target_mode == "direct":
        y = np.array([r.target_raw for r in rows])
    else:
        y = np.array([r.target_raw - r.current_anchor for r in rows])
    params = fit_standardizer(X, y)
    Xs, ys = apply_standardizer(params, X, y)
    fit = fit_lasso(Xs, ys, LassoConfig(lam=lam))
    names = [f"f{int(j)}" for j in params.kept]
    all_names = [f"f{j}" for j in range(X.shape[1])]
    return build_model_dict(fit, params, names, all_names, variant="max",
                            expansion="linear", target_mode=target_mode), fit, params


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    rows = make_rows(rng, 12, 3, beta=np.array([1.0, -2.0, 0.0]))
    model, _, _ = fit_linear_model(rows, lam=0.01)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model
    save_model(model, path)
    assert load_model(path) == model  # rewrite is stable
    with pytest.raises(ValueError):
        save_model(dict(model, **{"lambda": float("nan")}), path)
    assert load_model(path) == model


def test_version_check(tmp_path):
    rng = np.random.default_rng(1)
    rows = make_rows(rng, 10, 2, beta=np.array([1.0, 0.5]))
    model, _, _ = fit_linear_model(rows)
    model["schema_version"] = 99
    path = tmp_path / "model.json"
    save_model(model, path)
    with pytest.raises(ModelIOError, match="schema version"):
        load_model(path)


def test_digest_stable_and_sensitive():
    rng = np.random.default_rng(2)
    rows = make_rows(rng, 10, 2, beta=np.array([1.0, 0.5]))
    _, _, params = fit_linear_model(rows)
    d1 = standardization_digest(params)
    assert d1 == standardization_digest(params)
    params.y_mu += 1.0
    assert standardization_digest(params) != d1


def test_noiseless_training_rows_reproduced():
    rng = np.random.default_rng(3)
    beta = np.array([2.0, -1.0, 0.5, 0.0])
    rows = make_rows(rng, 20, 4, beta=beta)
    model, _, _ = fit_linear_model(rows, lam=0.0)
    pred = predict_rows(model, rows)
    obs = np.array([r.target_raw for r in rows])
    np.testing.assert_allclose(pred, obs, atol=1e-5)


def test_zero_beta_delta_model_predicts_anchor_plus_mean():
    rng = np.random.default_rng(4)
    rows = make_rows(rng, 10, 3, anchor=48.0)
    for i, r in enumerate(rows):
        r.target_raw = 48.0 + (1.0 if i % 2 == 0 else -1.0)
    model, _, params = fit_linear_model(rows, lam=1e9, target_mode="delta")
    assert model["weights"] == []
    pred = predict_rows(model, rows)
    np.testing.assert_allclose(pred, 48.0 + params.y_mu, atol=1e-12)


def test_predict_matches_matrix_oracle():
    rng = np.random.default_rng(5)
    rows = make_rows(rng, 5, 3, beta=np.array([1.0, 2.0, 3.0]), noise=1.0)
    model, fit, params = fit_linear_model(rows, lam=0.05)
    pred = predict_rows(model, rows)
    X = np.stack([r.x for r in rows])
    Xs, _ = apply_standardizer(params, X, None)
    oracle = (fit.beta0 + Xs @ fit.beta) * params.y_sigma + params.y_mu
    np.testing.assert_allclose(pred, oracle, atol=1e-12)


def test_polynomial_model_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    X_raw = rng.uniform(0, 10, size=(30, 4))
    y = X_raw[:, 0] * X_raw[:, 1] + X_raw[:, 2] ** 2 + rng.normal(size=30)
    rows = [
        DailyFeatureRow(Date(2017, 2, 1) + timedelta(days=i), X_raw[i], float(y[i]), 0.0)
        for i in range(30)
    ]
    params = fit_standardizer(X_raw, y)
    Xs, ys = apply_standardizer(params, X_raw, y)
    design = ExpandedDesign.fit(Xs)
    fit = fit_lasso(design, ys, LassoConfig(lam=0.05))
    assert fit.active_set.size > 0
    names = [f"f{int(j)}" for j in params.kept]
    model = build_model_dict(fit, params, names, names, variant="max",
                             expansion="polynomial", target_mode="direct",
                             design=design)
    path = tmp_path / "poly.json"
    save_model(model, path)
    model = load_model(path)
    pred = predict_rows(model, rows)
    oracle = (fit.beta0 + design.materialize() @ fit.beta) * params.y_sigma + params.y_mu
    np.testing.assert_allclose(pred, oracle, atol=1e-10)


def test_polynomial_model_requires_design():
    rng = np.random.default_rng(7)
    rows = make_rows(rng, 10, 2, beta=np.array([1.0, 0.5]))
    _, fit, params = fit_linear_model(rows)
    with pytest.raises(ModelIOError, match="expanded design"):
        build_model_dict(fit, params, ["a", "b"], ["a", "b"], variant="max",
                         expansion="polynomial", target_mode="direct")


def test_predict_schema_mismatch():
    rng = np.random.default_rng(8)
    rows = make_rows(rng, 10, 3, beta=np.array([1.0, 0.5, 0.0]))
    model, _, _ = fit_linear_model(rows)
    bad = make_rows(rng, 2, 5)
    with pytest.raises(ModelIOError, match="schema mismatch"):
        predict_rows(model, bad)


def test_edited_standardization_rejected(tmp_path, capsys):
    rng = np.random.default_rng(9)
    rows = make_rows(rng, 10, 2, beta=np.array([1.0, 0.5]))
    model, _, _ = fit_linear_model(rows)
    model["standardization"]["y_mu"] += 100.0
    path = tmp_path / "model.json"
    save_model(model, path)
    with pytest.raises(ModelIOError, match="standardization_digest"):
        load_model(path)
    args = ["predict", "--model", str(path), "--out-dir", str(tmp_path / "out")]
    assert main(args) == 1
    assert "standardization_digest" in capsys.readouterr().err
    assert not (tmp_path / "out" / "predictions.csv").exists()
