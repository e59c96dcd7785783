"""Closed-form OLS/ridge and the coordinate-descent Lasso."""

import numpy as np
import pytest

from conftest import orthonormal_design, standardized_matrix
from ozolasso.expansion import ExpandedDesign
from ozolasso.selection import column_scores
from ozolasso.solvers import (
    LassoConfig,
    SingularDesignError,
    SolverError,
    design_diag,
    fit_lasso,
    fit_ols,
    fit_ridge,
    kkt_satisfied,
    lasso_objective,
    lasso_path,
    soft_threshold,
)


def test_soft_threshold_examples():
    assert soft_threshold(0.4, 0.5) == 0.0
    assert soft_threshold(1.5, 0.5) == 1.0
    assert soft_threshold(-2.0, 0.5) == -1.5
    assert soft_threshold(0.0, 0.0) == 0.0


def test_ols_exact_fit_single_column():
    rng = np.random.default_rng(0)
    X = standardized_matrix(rng, 20, 1)
    y = X[:, 0].copy()
    fit = fit_ols(X, y)
    np.testing.assert_allclose(fit.beta, [1.0], atol=1e-12)
    np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-12)
    assert fit.beta0 == pytest.approx(y.mean())


def test_ols_one_dimensional_closed_form():
    x = np.array([-1.0, 0.0, 1.0])
    x = x / x.std()
    X = x[:, None]
    y = np.array([2.0, 4.0, 6.0])
    fit = fit_ols(X, y)
    yc = y - y.mean()
    assert fit.beta[0] == pytest.approx((x @ yc) / (x @ x), abs=1e-12)


def test_ols_duplicate_column_singular():
    rng = np.random.default_rng(1)
    col = rng.normal(size=10)
    X = np.column_stack([col, col])
    with pytest.raises(SingularDesignError) as exc:
        fit_ols(X, rng.normal(size=10))
    assert exc.value.pivot >= 1
    assert "pivot" in str(exc.value)


def test_ridge_lambda_zero_equals_ols():
    rng = np.random.default_rng(2)
    X = standardized_matrix(rng, 30, 5)
    y = rng.normal(size=30)
    np.testing.assert_allclose(
        fit_ridge(X, y, 0.0).beta, fit_ols(X, y).beta, atol=1e-10
    )


def test_ridge_identity_design_value():
    X = np.eye(2)
    y = np.array([1.0, 1.0])
    fit = fit_ridge(X, y, 0.5, fit_intercept=False)
    np.testing.assert_allclose(fit.beta, [0.5, 0.5], atol=1e-12)  # Y / (1 + n*lam)


def test_ridge_norm_shrinks_with_lambda():
    rng = np.random.default_rng(3)
    X = standardized_matrix(rng, 40, 8)
    y = rng.normal(size=40)
    norms = [
        float(np.linalg.norm(fit_ridge(X, y, lam).beta))
        for lam in np.geomspace(1e-4, 1e6, 12)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1e-4


def test_ridge_negative_lambda_rejected():
    with pytest.raises(SolverError):
        fit_ridge(np.eye(2), np.ones(2), -0.1)


def test_ill_conditioned_warning():
    rng = np.random.default_rng(4)
    col = rng.normal(size=50)
    X = np.column_stack([col, col + 1e-7 * rng.normal(size=50)])
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        fit_ols(X, rng.normal(size=50))


def test_lasso_config_validation():
    with pytest.raises(SolverError):
        LassoConfig(lam=-1.0)
    with pytest.raises(SolverError):
        LassoConfig(lam=0.1, tol=0.0)
    with pytest.raises(SolverError):
        LassoConfig(lam=0.1, max_sweeps=0)
    with pytest.raises(SolverError):
        LassoConfig(lam=0.1, strategy="random")
    for bad in (float("nan"), float("inf")):
        with pytest.raises(SolverError, match="lambda"):
            LassoConfig(lam=bad)
        with pytest.raises(SolverError, match="tol"):
            LassoConfig(lam=0.1, tol=bad)
    assert LassoConfig(lam=0.1).kkt_tol == pytest.approx(1e-6)


def test_lasso_at_lambda_max_exactly_zero():
    rng = np.random.default_rng(5)
    X = standardized_matrix(rng, 40, 6)
    y = rng.normal(size=40)
    yc = y - y.mean()
    lam_max = 2.0 * float(np.abs(X.T @ yc / 40).max())
    fit = fit_lasso(X, y, LassoConfig(lam=lam_max * 1.0000001))
    assert np.all(fit.beta == 0.0)
    assert fit.converged


def test_lasso_lambda_zero_matches_ols():
    rng = np.random.default_rng(6)
    X = standardized_matrix(rng, 50, 10)
    y = rng.normal(size=50)
    fit = fit_lasso(X, y, LassoConfig(lam=0.0))
    assert np.abs(fit.beta - fit_ols(X, y).beta).max() < 1e-6


def test_lasso_orthonormal_soft_threshold():
    rng = np.random.default_rng(7)
    X = orthonormal_design(rng, 8, 4)
    y = rng.normal(size=8)
    lam = 0.3
    fit = fit_lasso(X, y, LassoConfig(lam=lam))
    beta_ols = fit_ols(X, y).beta
    expected = np.array([soft_threshold(b, lam / 2) for b in beta_ols])
    assert np.abs(fit.beta - expected).max() < 1e-8


def test_kkt_certificate_at_convergence():
    rng = np.random.default_rng(8)
    X = standardized_matrix(rng, 60, 20)
    y = X[:, 0] - 0.5 * X[:, 3] + 0.1 * rng.normal(size=60)
    for lam in (0.02, 0.2, 1.0):
        config = LassoConfig(lam=lam)
        fit = fit_lasso(X, y, config)
        assert fit.converged
        assert kkt_satisfied(fit, config.kkt_tol)
        assert fit.kkt_zero_violation <= config.kkt_tol
        assert fit.kkt_active_violation <= config.kkt_tol


def test_objective_descent_along_trace():
    rng = np.random.default_rng(9)
    X = standardized_matrix(rng, 30, 8)
    y = rng.normal(size=30)
    expanded = ExpandedDesign.fit(standardized_matrix(rng, 30, 4))
    for design in (X, expanded):
        for strategy in ("full-sweep", "active-set"):
            config = LassoConfig(lam=0.1, strategy=strategy)
            fit = fit_lasso(design, y, config, track_objective=True)
            trace = fit.objective_trace
            assert len(trace) > 1
            assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
            assert trace[-1] == pytest.approx(
                lasso_objective(design, y - y.mean(), fit.beta, 0.1)
            )
            # tracing only observes: the untraced fit is bitwise the same
            plain = fit_lasso(design, y, config)
            assert np.array_equal(plain.beta, fit.beta)
            assert np.array_equal(plain.residuals, fit.residuals)
            assert plain.sweeps_used == fit.sweeps_used
            assert plain.objective_trace == []


def test_strategies_agree():
    rng = np.random.default_rng(10)
    for seed in range(5):
        r = np.random.default_rng(seed)
        X = standardized_matrix(r, 40, 12)
        y = r.normal(size=40)
        fa = fit_lasso(X, y, LassoConfig(lam=0.15, strategy="active-set"))
        ff = fit_lasso(X, y, LassoConfig(lam=0.15, strategy="full-sweep"))
        assert np.abs(fa.beta - ff.beta).max() < 1e-6


def test_warm_start_agrees_with_cold_start():
    rng = np.random.default_rng(11)
    X = standardized_matrix(rng, 50, 15)
    y = rng.normal(size=50)
    grid = np.geomspace(1.0, 0.01, 10)
    warm = lasso_path(X, y, grid)
    for lam, wfit in zip(grid, warm):
        cold = fit_lasso(X, y, LassoConfig(lam=float(lam)))
        assert np.abs(wfit.beta - cold.beta).max() < 1e-6


def test_non_convergence_reported():
    rng = np.random.default_rng(12)
    X = standardized_matrix(rng, 50, 30)
    y = rng.normal(size=50)
    fit = fit_lasso(X, y, LassoConfig(lam=0.001, max_sweeps=1))
    assert not fit.converged
    assert fit.sweeps_used == 1


def test_sparsity_contrast_noise_columns():
    rng = np.random.default_rng(13)
    X = standardized_matrix(rng, 80, 53)  # 3 signal + 50 noise columns
    y = 2 * X[:, 0] - X[:, 1] + 0.5 * X[:, 2] + 0.2 * rng.normal(size=80)
    lasso = fit_lasso(X, y, LassoConfig(lam=0.3))
    ridge = fit_ridge(X, y, 0.3)
    assert ridge.active_set.size == 53
    assert 0 < lasso.active_set.size < ridge.active_set.size


def test_streamed_vs_materialized_exact():
    rng = np.random.default_rng(14)
    base = standardized_matrix(rng, 40, 6)
    design = ExpandedDesign.fit(base)
    y = rng.normal(size=40)
    f_s = fit_lasso(design, y, LassoConfig(lam=0.2))
    f_m = fit_lasso(design.materialize(), y, LassoConfig(lam=0.2))
    assert np.array_equal(f_s.beta, f_m.beta)
    assert f_s.kkt_zero_violation == f_m.kkt_zero_violation
    assert f_s.kkt_active_violation == f_m.kkt_active_violation
    assert np.array_equal(column_scores(design, y), column_scores(design.materialize(), y))


def test_design_diag_matches_column_norms():
    rng = np.random.default_rng(15)
    X = standardized_matrix(rng, 25, 7)
    np.testing.assert_allclose(design_diag(X), (X * X).sum(axis=0) / 25, rtol=1e-14)


def test_active_set_property():
    rng = np.random.default_rng(16)
    X = standardized_matrix(rng, 30, 10)
    y = X[:, 2] + 0.05 * rng.normal(size=30)
    fit = fit_lasso(X, y, LassoConfig(lam=0.5))
    assert set(fit.active_set) == {j for j in range(10) if fit.beta[j] != 0}
    assert 2 in fit.active_set
