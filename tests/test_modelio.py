"""Model file round trips and prediction from saved models."""

import json
from datetime import date as Date, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ozolasso.cli import main
from ozolasso.expansion import ExpandedDesign
from ozolasso.features import (
    FeatureRows,
    apply_standardizer,
    fit_standardizer,
)
from ozolasso.modelio import (
    REQUIRED_KEYS,
    ModelIOError,
    _params_from_dict,
    build_model_dict,
    load_model,
    predict_rows,
    save_model,
    standardization_digest,
)
from ozolasso.solvers import DenseDesign, LassoConfig, fit_lasso, fit_ridge

# train and test ranges for the predict command, whose split is checked first
SPLIT = ["--set", "train_start=2017-01-01", "--set", "train_end=2017-01-31",
         "--set", "test_start=2017-02-01", "--set", "test_end=2017-02-28"]


def make_rows(rng, n, p, beta=None, noise=0.0, anchor=50.0):
    X = rng.uniform(10, 40, size=(n, p))
    if beta is None:
        beta = np.zeros(p)
    y = X @ beta + noise * rng.normal(size=n)
    return feature_rows(X, y, anchor)


def feature_rows(X, y, anchor=0.0, start=Date(2017, 1, 1)):
    dates = np.array([start + timedelta(days=i) for i in range(len(y))], dtype=object)
    return FeatureRows(dates, X, y, np.full(len(y), anchor))


def fit_linear_model(rows, lam=0.0, target_mode="direct"):
    X = rows.x
    if target_mode == "direct":
        y = rows.target_raw
    else:
        y = rows.target_raw - rows.current_anchor
    params = fit_standardizer(X, y)
    Xs, ys = apply_standardizer(params, X, y)
    fit = fit_lasso(DenseDesign(Xs), ys, LassoConfig(lam=lam))
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
    np.testing.assert_allclose(pred, rows.target_raw, atol=1e-5)


def test_zero_beta_delta_model_predicts_anchor_plus_mean():
    rng = np.random.default_rng(4)
    rows = make_rows(rng, 10, 3, anchor=48.0)
    rows.target_raw[:] = 48.0 + np.where(np.arange(10) % 2 == 0, 1.0, -1.0)
    model, _, params = fit_linear_model(rows, lam=1e9, target_mode="delta")
    assert model["weights"] == []
    pred = predict_rows(model, rows)
    np.testing.assert_allclose(pred, 48.0 + params.y_mu, atol=1e-12)


def test_predict_matches_matrix_oracle():
    rng = np.random.default_rng(5)
    rows = make_rows(rng, 5, 3, beta=np.array([1.0, 2.0, 3.0]), noise=1.0)
    model, fit, params = fit_linear_model(rows, lam=0.05)
    pred = predict_rows(model, rows)
    Xs, _ = apply_standardizer(params, rows.x, None)
    oracle = (fit.beta0 + Xs @ fit.beta) * params.y_sigma + params.y_mu
    np.testing.assert_allclose(pred, oracle, atol=1e-12)


def test_polynomial_model_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    X_raw = rng.uniform(0, 10, size=(30, 4))
    y = X_raw[:, 0] * X_raw[:, 1] + X_raw[:, 2] ** 2 + rng.normal(size=30)
    rows = feature_rows(X_raw, y, start=Date(2017, 2, 1))
    model, fit, design, params = fit_polynomial_model(rows, lam=0.05)
    assert fit.active_set.size > 0
    path = tmp_path / "poly.json"
    save_model(model, path)
    model = load_model(path)
    pred = predict_rows(model, rows)
    dense = design.block(0, design.shape[1])
    oracle = (fit.beta0 + dense @ fit.beta) * params.y_sigma + params.y_mu
    np.testing.assert_allclose(pred, oracle, atol=1e-10)


def fit_polynomial_model(rows, lam, target_mode="direct"):
    y = rows.target_raw if target_mode == "direct" else rows.target_raw - rows.current_anchor
    params = fit_standardizer(rows.x, y)
    Xs, ys = apply_standardizer(params, rows.x, y)
    design = ExpandedDesign.fit(Xs)
    fit = fit_lasso(design, ys, LassoConfig(lam=lam))
    names = [f"f{int(j)}" for j in params.kept]
    model = build_model_dict(fit, params, names, names, variant="max",
                             expansion="polynomial", target_mode=target_mode,
                             design=design)
    return model, fit, design, params


def test_saved_parents_and_index_checked(tmp_path):
    rng = np.random.default_rng(10)
    X = rng.uniform(0, 10, size=(20, 3))
    rows = feature_rows(X, X[:, 0] * X[:, 1] + rng.normal(size=20))
    model, _, _, _ = fit_polynomial_model(rows, lam=0.01)
    linear = [w for w in model["weights"] if w["index"] < 3]
    crosses = [w for w in model["weights"] if w["index"] >= 6]
    assert linear and crosses
    predict_rows(model, rows)
    crosses[0]["parents"] = crosses[0]["parents"][::-1]
    with pytest.raises(ModelIOError, match="parents"):
        predict_rows(model, rows)
    crosses[0]["parents"] = crosses[0]["parents"][::-1]
    linear[0]["parents"] = [linear[0]["index"]] * 2  # a linear term saves none
    with pytest.raises(ModelIOError, match="parents"):
        predict_rows(model, rows)
    linear[0].update(index=9, parents=None)  # 9 expanded columns of 3 base
    with pytest.raises(ModelIOError, match="outside"):
        predict_rows(model, rows)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(6, 14),
    p=st.integers(1, 4),
    polynomial=st.booleans(),
    target_mode=st.sampled_from(("direct", "delta")),
    lam=st.sampled_from((0.0, 0.01, 0.1, 1.0)),
    special=st.sampled_from((None, "constant", "two-valued")),
)
def test_saved_model_predicts_bitwise_like_in_memory(
    tmp_path, seed, n, p, polynomial, target_mode, lam, special
):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, size=(n, p + 1))
    if special == "constant":  # dropped by the standardizer
        X[:, 0] = 3.0
    elif special == "two-valued":  # its square has zero variance
        X[:, 0] = np.arange(n) % 2
    y = X[:, -1] * X[:, 0] + rng.normal(size=n)
    rows = FeatureRows(
        np.array([Date(2017, 1, 1) + timedelta(days=i) for i in range(n)], dtype=object),
        X, y, rng.uniform(20, 60, n),
    )
    test = feature_rows(rng.uniform(0, 10, size=(5, p + 1)), np.zeros(5), 40.0)
    if polynomial:
        model, fit, design, params = fit_polynomial_model(rows, lam, target_mode)
        base, _ = apply_standardizer(params, test.x)
        expanded = ExpandedDesign(base, design.col_mean, design.col_std)
        oracle = expanded.block(0, expanded.shape[1]) @ fit.beta
    else:
        model, fit, params = fit_linear_model(rows, lam=lam, target_mode=target_mode)
        base, _ = apply_standardizer(params, test.x)
        oracle = base @ fit.beta
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model
    pred = predict_rows(model, test)
    assert predict_rows(loaded, test).tobytes() == pred.tobytes()
    oracle = (fit.beta0 + oracle) * params.y_sigma + params.y_mu
    if model["target_mode"] == "delta":
        oracle = oracle + test.current_anchor
    np.testing.assert_allclose(pred, oracle, rtol=1e-9, atol=1e-9)


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
    args = ["predict", "--model", str(path), "--out-dir", str(tmp_path / "out"), *SPLIT]
    assert main(args) == 1
    assert "standardization_digest" in capsys.readouterr().err
    assert not (tmp_path / "out" / "predictions.csv").exists()


@pytest.mark.parametrize("key", REQUIRED_KEYS)
def test_model_missing_a_key_rejected(tmp_path, capsys, key):
    """A key that prediction reads is checked on load, before any input file
    is read: the error names the key, not a file."""
    rng = np.random.default_rng(10)
    model, _, _ = fit_linear_model(make_rows(rng, 10, 2, beta=np.array([1.0, 0.5])))
    del model[key]
    path = tmp_path / "model.json"
    save_model(model, path)
    with pytest.raises(ModelIOError, match=key):
        load_model(path)
    args = _predict_args(tmp_path)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert key in err and "absent.csv" not in err
    assert not (tmp_path / "out" / "predictions.csv").exists()


def _last_weight(model):
    return model["weights"][-1]


MALFORMED = {
    "negative index": (False, lambda m: _last_weight(m).update(index=-1), "index -1"),
    "index past the base": (False, lambda m: _last_weight(m).update(index=2), "index 2"),
    "float index": (False, lambda m: _last_weight(m).update(index=1.0), "index 1.0"),
    "nan weight": (False, lambda m: _last_weight(m).update(weight=float("nan")), "weight nan"),
    "infinite weight": (False, lambda m: _last_weight(m).update(weight=-float("inf")), "weight -inf"),
    "no weight": (False, lambda m: _last_weight(m).pop("weight"), "lacks weight"),
    "base width": (False, lambda m: m.update(n_base_features=3), "n_base_features 3"),
    "index past the expansion": (True, lambda m: _last_weight(m).update(index=9), "index 9"),
    "no parents": (True, lambda m: _last_weight(m).pop("parents"), "lacks parents"),
    "no col_mean": (True, lambda m: _last_weight(m).pop("col_mean"), "lacks col_mean"),
    "no col_std": (True, lambda m: _last_weight(m).pop("col_std"), "lacks col_std"),
    "nan col_mean": (True, lambda m: _last_weight(m).update(col_mean=float("nan")), "col_mean nan"),
    "negative col_std": (True, lambda m: _last_weight(m).update(col_std=-1.0),
                         "col_std -1.0 is not a finite number >= 0"),
    "nan col_std": (True, lambda m: _last_weight(m).update(col_std=float("nan")), "col_std nan"),
    "repeated index": (False, lambda m: _last_weight(m).update(index=m["weights"][0]["index"]),
                       "index 0 repeated"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_weight_entry_rejected(tmp_path, capsys, case):
    """A weight entry that prediction cannot use is rejected on load, before
    any input file is read: the error names the entry, not a file."""
    polynomial, edit, message = MALFORMED[case]
    rng = np.random.default_rng(10)
    if polynomial:
        X = rng.uniform(0, 10, size=(20, 2))
        rows = feature_rows(X, X[:, 0] * X[:, 1] + rng.normal(size=20))
        model = fit_polynomial_model(rows, lam=0.01)[0]
    else:
        model = fit_linear_model(make_rows(rng, 10, 2, beta=np.array([1.0, 0.5])))[0]
    at = len(model["weights"]) - 1
    edit(model)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))  # json.loads reads NaN and Infinity back
    with pytest.raises(ModelIOError, match=message):
        load_model(path)
    args = _predict_args(tmp_path)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert message in err and "absent.csv" not in err
    assert case == "base width" or f"weights[{at}]" in err
    assert not (tmp_path / "out" / "predictions.csv").exists()


def test_lasso_model_records_its_duality_gap(tmp_path):
    rng = np.random.default_rng(11)
    rows = make_rows(rng, 30, 4, beta=np.array([1.0, -0.5, 0.0, 0.2]), noise=0.5)
    model, fit, params = fit_linear_model(rows, lam=0.05)
    save_model(model, tmp_path / "model.json")
    kkt = load_model(tmp_path / "model.json")["kkt"]
    assert kkt["gap"] == fit.gap and abs(fit.gap) <= 1e-12
    assert kkt["zero_violation"] == fit.kkt_zero_violation
    # a closed-form fit has no gap, and its model file keeps the old keys
    X, y = apply_standardizer(params, rows.x, rows.target_raw)
    names = [f"f{j}" for j in range(4)]
    ridge = build_model_dict(fit_ridge(DenseDesign(X), y, 0.1), params, names, names, variant="max",
                             expansion="linear", target_mode="direct")
    assert set(ridge["kkt"]) == {"zero_violation", "active_violation"}


def _refresh_digest(model):
    model["standardization_digest"] = standardization_digest(
        _params_from_dict(model["standardization"])
    )


def _standardization_entry(key, j, value):
    """Set standardization ``key`` (entry ``j`` of it, unless None) to
    ``value`` and recompute the digest, so only the value check can object."""
    def edit(model):
        if j is None:
            model["standardization"][key] = value
        else:
            model["standardization"][key][j] = value
        _refresh_digest(model)
    return edit


MALFORMED_STRUCTURE = {
    "standardization not an object": (lambda m: m.update(standardization=[1.0]),
                                      "standardization is not an object"),
    "no kept": (lambda m: m["standardization"].pop("kept"), "standardization lacks kept"),
    "no mu or sigma": (lambda m: [m["standardization"].pop(k) for k in ("mu", "sigma")],
                       "standardization lacks mu, sigma"),
    "kept not a list": (lambda m: m["standardization"].update(kept=0),
                        "standardization.kept is not a list"),
    "kept past mu": (lambda m: (m["standardization"].update(kept=[0, 2]), _refresh_digest(m)),
                     "do not match the 2 columns of mu"),
    "nan mu": (_standardization_entry("mu", 0, float("nan")),
               "standardization.mu[0] nan is not a finite number"),
    "infinite sigma": (_standardization_entry("sigma", 1, float("inf")),
                       "standardization.sigma[1] inf is not a finite number"),
    "zero sigma at a kept column": (_standardization_entry("sigma", 1, 0.0),
                                    "standardization.sigma[1] 0.0 is not a finite number > 0"),
    "negative sigma at a kept column": (_standardization_entry("sigma", 0, -1.0),
                                        "standardization.sigma[0] -1.0 is not a finite number > 0"),
    "infinite y_mu": (_standardization_entry("y_mu", None, float("inf")),
                      "standardization.y_mu inf is not a finite number"),
    "nan y_sigma": (_standardization_entry("y_sigma", None, float("nan")),
                    "standardization.y_sigma nan is not a finite number"),
    "zero y_sigma": (_standardization_entry("y_sigma", None, 0.0),
                     "standardization.y_sigma 0.0 is not a finite number > 0"),
    "weights not a list": (lambda m: m.update(weights={"0": 1.0}), "weights is not a list"),
    "entry not an object": (lambda m: m["weights"].append(0.5), "weights[2] is not an object"),
    "unknown expansion": (lambda m: m.update(expansion="quadratic"),
                          "expansion 'quadratic' is not one of"),
    "unknown target_mode": (lambda m: m.update(target_mode="ratio"),
                            "target_mode 'ratio' is not one of"),
    "unknown variant": (lambda m: m.update(variant="max1h"), "variant 'max1h' is not one of"),
    "nan beta0": (lambda m: m.update(beta0=float("nan")), "beta0 nan is not a finite number"),
    "list beta0": (lambda m: m.update(beta0=[1]), "beta0 [1] is not a finite number"),
    "str beta0": (lambda m: m.update(beta0="x"), "beta0 'x' is not a finite number"),
    "bool beta0": (lambda m: m.update(beta0=True), "beta0 True is not a finite number"),
    # a whole document in place of the model
    "top-level list": ([], "model document is not an object"),
    "top-level null": (None, "model document is not an object"),
}


@pytest.mark.parametrize("case", MALFORMED_STRUCTURE)
def test_malformed_model_structure_rejected(tmp_path, capsys, case):
    """A document, standardization, weights block or intercept of the wrong
    shape is rejected on load, naming the field, before any input file is
    read."""
    edit, message = MALFORMED_STRUCTURE[case]
    rng = np.random.default_rng(10)
    model = fit_linear_model(make_rows(rng, 10, 2, beta=np.array([1.0, 0.5])))[0]
    assert len(model["weights"]) == 2
    if callable(edit):
        edit(model)
    else:
        model = edit
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))  # json.loads reads NaN back
    with pytest.raises(ModelIOError, match=message.replace("[", r"\[")):
        load_model(path)
    assert main(_predict_args(tmp_path)) == 1
    err = capsys.readouterr().err
    assert message in err and "absent.csv" not in err
    assert not (tmp_path / "out" / "predictions.csv").exists()


@pytest.mark.parametrize("variant", ["max", "max8h"])
def test_model_of_another_base_width_rejected(tmp_path, capsys, variant):
    """A model whose kept and dropped columns do not make up the variant's
    918/938 base features is rejected before any input file is read."""
    rng = np.random.default_rng(10)
    X = rng.uniform(10, 40, size=(10, 3))
    X[:, 1] = 7.0  # a zero-variance column, dropped
    model = fit_linear_model(feature_rows(X, X[:, 0]))[0]
    model["variant"] = variant
    path = tmp_path / "model.json"
    save_model(model, path)
    assert load_model(path) == model
    assert main(_predict_args(tmp_path) + ["--variant", variant]) == 1
    err = capsys.readouterr().err
    width = {"max": 918, "max8h": 938}[variant]
    assert f"n_base_features 2 with 1 dropped columns is not the {width} base features" in err
    assert "absent.csv" not in err
    assert not (tmp_path / "out" / "predictions.csv").exists()


def _predict_args(tmp_path):
    """predict on absent hourly files, with date ranges that pass the
    split check, which comes before the model is read."""
    return ["predict", "--model", str(tmp_path / "model.json"), "--out-dir", str(tmp_path / "out"),
            *SPLIT,
            "--set", f"pollutant_file={tmp_path / 'absent.csv'}",
            "--set", f"meteo_file={tmp_path / 'absent.csv'}"]
