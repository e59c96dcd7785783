"""Metrics, persistence baseline, trimester splits, and report rendering."""

import math
from datetime import date as Date, timedelta

import numpy as np
import pytest

from ozolasso.evaluation import (
    EvalMetrics,
    EvaluationError,
    MethodResult,
    comparison_report,
    evaluate_predictions,
    mae,
    persistence_baseline,
    rmse,
    scatter_fit,
    top_weights,
    trimester_of,
    trimester_split,
)
from ozolasso.features import FeatureRows, fit_standardizer
from ozolasso.modelio import build_model_dict, predict_rows
from ozolasso.solvers import ModelFit


def test_rmse_mae_examples():
    assert rmse(np.ones(5), np.ones(5)) == 0.0
    assert mae(np.ones(5), np.ones(5)) == 0.0
    assert rmse(np.array([1.0, 3.0]), np.zeros(2)) == pytest.approx(math.sqrt(5), abs=1e-12)
    assert mae(np.array([1.0, 3.0]), np.zeros(2)) == 2.0


def test_metric_input_validation():
    with pytest.raises(EvaluationError):
        rmse(np.array([]), np.array([]))
    with pytest.raises(EvaluationError):
        mae(np.ones(3), np.ones(4))


def test_metrics_against_loop_oracle():
    rng = np.random.default_rng(0)
    pred = rng.normal(size=100)
    obs = rng.normal(size=100)
    sq = 0.0
    ab = 0.0
    for p, o in zip(pred, obs):
        sq += (p - o) ** 2
        ab += abs(p - o)
    assert abs(rmse(pred, obs) - math.sqrt(sq / 100)) < 1e-12
    assert abs(mae(pred, obs) - ab / 100) < 1e-12


def test_rmse_at_least_mae():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        pred = rng.normal(size=n)
        obs = rng.normal(size=n)
        assert rmse(pred, obs) >= mae(pred, obs)


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(2)
    pred = rng.normal(size=40)
    obs = rng.normal(size=40)
    perm = rng.permutation(40)
    assert rmse(pred, obs) == pytest.approx(rmse(pred[perm], obs[perm]), abs=1e-14)
    assert mae(pred, obs) == pytest.approx(mae(pred[perm], obs[perm]), abs=1e-14)


def test_scatter_fit_perfect_and_affine():
    obs = np.array([1.0, 2.0, 3.0, 4.0])
    s = scatter_fit(obs, obs)
    assert (s.slope, s.intercept, s.pearson_r) == pytest.approx((1.0, 0.0, 1.0), abs=1e-12)
    s2 = scatter_fit(2 * obs + 3, obs)
    assert (s2.slope, s2.intercept, s2.pearson_r) == pytest.approx((2.0, 3.0, 1.0), abs=1e-12)


def test_scatter_fit_against_normal_equations():
    rng = np.random.default_rng(3)
    obs = rng.normal(size=10)
    pred = 1.3 * obs + rng.normal(size=10)
    s = scatter_fit(pred, obs)
    slope = ((obs - obs.mean()) @ (pred - pred.mean())) / ((obs - obs.mean()) @ (obs - obs.mean()))
    assert s.slope == pytest.approx(slope, abs=1e-12)
    assert s.intercept == pytest.approx(pred.mean() - slope * obs.mean(), abs=1e-12)
    assert s.pearson_r == pytest.approx(float(np.corrcoef(obs, pred)[0, 1]), abs=1e-12)


def test_scatter_fit_errors():
    with pytest.raises(EvaluationError):
        scatter_fit(np.array([1.0]), np.array([1.0]))
    with pytest.raises(EvaluationError, match="constant"):
        scatter_fit(np.array([1.0, 2.0]), np.array([5.0, 5.0]))


def test_trimester_split():
    dates = [Date(2017, m, 15) for m in range(1, 13)]
    groups = trimester_split(dates)
    assert [g.tolist() for g in groups] == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
    assert trimester_of(Date(2017, 12, 31)) == 3


def test_evaluate_predictions_aggregates():
    dates = [Date(2017, 1, 1) + timedelta(days=30 * i) for i in range(8)]
    rng = np.random.default_rng(4)
    obs = rng.uniform(20, 60, 8)
    pred = obs + rng.normal(0, 2, 8)
    m = evaluate_predictions(pred, obs, dates)
    assert m.n == 8
    assert sum(t[3] for t in m.per_trimester) == 8
    assert m.rmse >= m.mae
    assert m.scatter is not None
    with pytest.raises(EvaluationError, match="dates"):
        evaluate_predictions(pred, obs, dates[:-1])


def feature_rows(dates, targets, anchors, x=None):
    x = np.zeros((len(dates), 3)) if x is None else x
    return FeatureRows(np.array(dates, dtype=object), x, np.array(targets), np.array(anchors))


def test_persistence_baseline_examples():
    dates = [Date(2017, 5, 1), Date(2017, 5, 2)]
    rows = feature_rows(dates, [30.0, 44.0], [30.0, 44.0])
    assert persistence_baseline(rows).rmse == 0.0
    rows = feature_rows(dates, [12.0, 18.0], [10.0, 20.0])
    m = persistence_baseline(rows)
    assert m.mae == 2.0
    assert m.rmse == 2.0


def test_persistence_equals_zero_beta_delta_model():
    rng = np.random.default_rng(21)
    X = np.stack([rng.normal(size=4), rng.normal(size=4)])
    rows = feature_rows([Date(2017, 6, 1), Date(2017, 6, 2)], [42.0, 33.0], [40.0, 35.0], X)
    # delta targets +2 and -2 have zero mean, so the null model predicts
    # exactly the anchor and must reproduce the persistence baseline
    y = rows.target_raw - rows.current_anchor
    params = fit_standardizer(X, y)
    fit = ModelFit("lasso", 1.0, beta0=0.0, beta=np.zeros(params.kept.size))
    names = [f"f{j}" for j in range(4)]
    model = build_model_dict(fit, params, names, names,
                             variant="max", expansion="linear", target_mode="delta")
    pred = predict_rows(model, rows)
    obs = rows.target_raw
    baseline = persistence_baseline(rows)
    assert rmse(pred, obs) == baseline.rmse
    assert mae(pred, obs) == baseline.mae


def test_top_weights():
    weights = [
        {"index": 0, "name": "a", "weight": 0.2},
        {"index": 1, "name": "b", "weight": -0.5},
        {"index": 4, "name": "c", "weight": 0.5},
        {"index": 2, "name": "d", "weight": 0.1},
    ]
    assert top_weights(weights, 2) == [(-0.5, "b"), (0.5, "c")]  # a tie goes by index
    assert top_weights(weights, 10) == [(-0.5, "b"), (0.5, "c"), (0.2, "a"), (0.1, "d")]
    assert top_weights([], 3) == []


def metrics_stub(n):
    return EvalMetrics(rmse=5.63, mae=4.42, n=n, per_trimester=[], scatter=None)


def test_comparison_report_rendering():
    results = [
        MethodResult("lasso-linear", metrics_stub(30), 105, 918),
        MethodResult("ridge", metrics_stub(30), 918, 918),
        MethodResult("mlr", None, None, None, note="failed (singular design)"),
        MethodResult("persistence", metrics_stub(30), None, None),
    ]
    text = comparison_report(results, n_test=30)
    assert "105/ 918" in text
    assert "918/ 918" in text
    assert "n/a" in text
    assert "failed (singular design)" in text
    assert "ARMA" in text and "SVM" in text


def test_comparison_report_rejects_mismatched_test_sets():
    results = [MethodResult("lasso-linear", metrics_stub(30), 10, 918)]
    with pytest.raises(EvaluationError, match="expected 25"):
        comparison_report(results, n_test=25)
