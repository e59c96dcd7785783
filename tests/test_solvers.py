"""Closed-form OLS/ridge and the homotopy Lasso."""

import warnings

import numpy as np
import pytest

from conftest import assert_ridge_solution, orthonormal_design, standardized_matrix
from ozolasso import solvers
from ozolasso.expansion import ExpandedDesign
from ozolasso.solvers import (
    LassoConfig,
    _center,
    _certified,
    _homotopy,
    SingularDesignError,
    DenseDesign,
    SolverError,
    design_corr,
    fit_lasso,
    fit_ols,
    fit_ridge,
    lasso_path,
    ridge_path,
)


def test_ols_exact_fit_single_column():
    rng = np.random.default_rng(0)
    X = standardized_matrix(rng, 20, 1)
    y = X[:, 0].copy()
    fit = fit_ols(DenseDesign(X), y)
    np.testing.assert_allclose(fit.beta, [1.0], atol=1e-12)
    np.testing.assert_allclose(X @ fit.beta, y - fit.beta0, atol=1e-12)
    assert fit.beta0 == pytest.approx(y.mean())


def test_ols_one_dimensional_closed_form():
    x = np.array([-1.0, 0.0, 1.0])
    x = x / x.std()
    X = x[:, None]
    y = np.array([2.0, 4.0, 6.0])
    fit = fit_ols(DenseDesign(X), y)
    yc = y - y.mean()
    assert fit.beta[0] == pytest.approx((x @ yc) / (x @ x), abs=1e-12)


def test_ols_duplicate_column_singular():
    rng = np.random.default_rng(1)
    col = rng.normal(size=10)
    X = np.column_stack([col, col])
    with pytest.raises(SingularDesignError) as exc:
        fit_ols(DenseDesign(X), rng.normal(size=10))
    assert exc.value.pivot >= 1
    assert "pivot" in str(exc.value)


def test_ols_is_the_lambda_zero_ridge_solve():
    """fit_ols is fit_ridge at lambda = 0, bit for bit, and both name the same
    Cholesky pivot on a singular design; ridge_path takes lambda > 0 only."""
    rng = np.random.default_rng(2)
    X = standardized_matrix(rng, 30, 5)
    y = rng.normal(size=30)
    ols, ridge = fit_ols(DenseDesign(X), y), fit_ridge(DenseDesign(X), y, 0.0)
    assert (ols.method, ridge.method) == ("ols", "ridge")
    assert (ols.lam, ols.beta0) == (ridge.lam, ridge.beta0)
    assert ols.beta.tobytes() == ridge.beta.tobytes()
    col = rng.normal(size=10)
    singular = np.column_stack([rng.normal(size=10), col, col, rng.normal(size=10)])
    pivots = []
    for solve in (fit_ols, lambda X, y: fit_ridge(X, y, 0.0)):
        with pytest.raises(SingularDesignError) as exc:
            solve(DenseDesign(singular), rng.normal(size=10))
        pivots.append(exc.value.pivot)
    assert pivots[0] == pivots[1] >= 1
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(SolverError, match="fit_ols"):
            ridge_path(DenseDesign(X), y, [1.0, bad])


def test_ridge_lambda_zero_equals_ols():
    rng = np.random.default_rng(2)
    X = standardized_matrix(rng, 30, 5)
    y = rng.normal(size=30)
    np.testing.assert_allclose(
        fit_ridge(DenseDesign(X), y, 0.0).beta, fit_ols(DenseDesign(X), y).beta, atol=1e-10
    )


def test_ridge_identity_design_value():
    X = np.eye(2)
    y = np.array([1.0, 1.0])
    fit = fit_ridge(DenseDesign(X), y, 0.5, fit_intercept=False)
    np.testing.assert_allclose(fit.beta, [0.5, 0.5], atol=1e-12)  # Y / (1 + n*lam)


def test_ridge_path_matches_one_solve_per_lambda():
    """Each point of the tridiagonal path is a ridge solution to the
    tolerances of assert_ridge_solution, whatever the points before it."""
    rng = np.random.default_rng(4)
    X = standardized_matrix(rng, 30, 12)
    y = rng.normal(size=30)
    grid = [3.0, 0.1, 1e-6, 0.1]
    path = ridge_path(DenseDesign(X), y, grid)
    assert [(fit.method, fit.lam) for fit in path] == [("ridge", lam) for lam in grid]
    for fit in path:
        assert fit.beta0 == y.mean()
        assert_ridge_solution(X, y, fit)
    assert path[1].beta.tobytes() == path[3].beta.tobytes()
    with pytest.raises(SolverError):
        ridge_path(DenseDesign(X), y, [1.0, -1e-3])


def test_ridge_path_not_positive_definite_names_no_pivot():
    """At a lambda far too small to lift X'X's null space, the smallest
    eigenvalue of a duplicated-column design is rounding, of either sign; a
    non-positive one raises SingularDesignError, which names no pivot."""
    raised = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        col = rng.normal(size=10)
        X = np.column_stack([rng.normal(size=10), col, col, rng.normal(size=10)])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                ridge_path(DenseDesign(X), rng.normal(size=10), [1e-300])
        except SingularDesignError as exc:
            assert exc.pivot is None and "smallest eigenvalue" in str(exc)
            assert "pivot" not in str(exc)
            raised += 1
    assert raised > 0


@pytest.mark.parametrize("p", [1, 2])
def test_ridge_path_at_one_and_two_columns(p):
    """One column has no off-diagonal, two have one reflector: each point
    is still a ridge solution, and equal lambdas give equal bits."""
    rng = np.random.default_rng(6)
    X = standardized_matrix(rng, 15, p)
    y = X[:, 0] + rng.normal(size=15)
    path = ridge_path(DenseDesign(X), y, [1e-6, 0.5, 1e-6])
    for fit in path:
        assert_ridge_solution(X, y, fit)
    assert path[0].beta.tobytes() == path[2].beta.tobytes()


def test_ridge_path_tridiagonal_solve_failure_names_no_pivot(monkeypatch):
    """A tridiagonal solve that finds T + n*lambda*I not positive definite
    raises SingularDesignError, which names no pivot."""
    rng = np.random.default_rng(7)
    X = standardized_matrix(rng, 20, 5)
    monkeypatch.setattr(solvers.lapack, "dptsv", lambda d, e, b: (d, e, b, 3))
    with pytest.raises(SingularDesignError) as exc:
        ridge_path(DenseDesign(X), rng.normal(size=20), [0.1])
    assert exc.value.pivot is None and "pivot" not in str(exc.value)
    assert "not positive definite at lambda=0.1" in str(exc.value)


def test_ridge_norm_shrinks_with_lambda():
    rng = np.random.default_rng(3)
    X = standardized_matrix(rng, 40, 8)
    y = rng.normal(size=40)
    norms = [
        float(np.linalg.norm(fit_ridge(DenseDesign(X), y, lam).beta))
        for lam in np.geomspace(1e-4, 1e6, 12)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1e-4


def test_ridge_negative_lambda_rejected():
    with pytest.raises(SolverError):
        fit_ridge(DenseDesign(np.eye(2)), np.ones(2), -0.1)


def test_ill_conditioned_warning():
    rng = np.random.default_rng(4)
    col = rng.normal(size=50)
    X = np.column_stack([col, col + 1e-7 * rng.normal(size=50)])
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        fit_ols(DenseDesign(X), rng.normal(size=50))


@pytest.mark.parametrize("solve", [
    lambda X, y: fit_ols(X, y),
    lambda X, y: fit_ridge(X, y, 0.0),
    lambda X, y: ridge_path(X, y, [1e-16]),
], ids=["fit_ols", "fit_ridge", "ridge_path"])
def test_ill_conditioned_warning_names_the_caller(solve):
    rng = np.random.default_rng(4)
    col = rng.normal(size=50)
    X = np.column_stack([col, col + 1e-7 * rng.normal(size=50)])
    with pytest.warns(RuntimeWarning, match="ill-conditioned") as caught:
        solve(DenseDesign(X), rng.normal(size=50))
    # the line of the lambda that called the solver, not of this test
    assert [(w.filename, w.lineno) for w in caught] == [(__file__, solve.__code__.co_firstlineno)]


def test_lasso_config_validation():
    with pytest.raises(SolverError):
        LassoConfig(lam=-1.0)
    with pytest.raises(SolverError):
        LassoConfig(lam=0.1, tol=0.0)
    with pytest.raises(SolverError):
        LassoConfig(lam=0.1, max_sweeps=0)
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
    fit = fit_lasso(DenseDesign(X), y, LassoConfig(lam=lam_max * 1.0000001))
    assert np.all(fit.beta == 0.0)
    assert fit.converged


def test_lasso_lambda_zero_matches_ols():
    rng = np.random.default_rng(6)
    X = standardized_matrix(rng, 50, 10)
    y = rng.normal(size=50)
    fit = fit_lasso(DenseDesign(X), y, LassoConfig(lam=0.0))
    assert np.abs(fit.beta - fit_ols(DenseDesign(X), y).beta).max() < 1e-6


def test_lasso_orthonormal_soft_threshold():
    rng = np.random.default_rng(7)
    X = orthonormal_design(rng, 8, 4)
    y = rng.normal(size=8)
    lam = 0.3
    fit = fit_lasso(DenseDesign(X), y, LassoConfig(lam=lam))
    beta_ols = fit_ols(DenseDesign(X), y).beta
    expected = np.sign(beta_ols) * np.maximum(np.abs(beta_ols) - lam / 2, 0.0)
    assert np.abs(fit.beta - expected).max() < 1e-8


def test_kkt_certificate_at_convergence():
    rng = np.random.default_rng(8)
    X = standardized_matrix(rng, 60, 20)
    y = X[:, 0] - 0.5 * X[:, 3] + 0.1 * rng.normal(size=60)
    for lam in (0.02, 0.2, 1.0):
        config = LassoConfig(lam=lam)
        fit = fit_lasso(DenseDesign(X), y, config)
        assert fit.converged
        assert fit.kkt_zero_violation <= config.kkt_tol
        assert fit.kkt_active_violation <= config.kkt_tol


def test_objective_descends_with_the_sweep_budget():
    """A fit cut short by the kink budget sits at the path's last kink
    allowed; along the path down to lambda the lambda-objective falls, so a
    larger budget never raises it."""
    rng = np.random.default_rng(9)
    X = standardized_matrix(rng, 30, 8)
    y = rng.normal(size=30)
    yc = y - y.mean()
    expanded = ExpandedDesign.fit(standardized_matrix(rng, 30, 4))
    for design, dense in ((DenseDesign(X), X), (expanded, expanded.block(0, expanded.shape[1]))):
        objectives = []
        for budget in range(1, 12):
            beta = fit_lasso(design, y, LassoConfig(lam=0.1, max_sweeps=budget)).beta
            r = yc - dense @ beta
            objectives.append(float(r @ r / 30 + 0.1 * np.abs(beta).sum()))
        assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))
        assert objectives[-1] < objectives[0]


def test_kkt_violations_match_a_dense_oracle():
    """On unconverged fits both violations are well above zero; each must
    equal the one computed from X'r/n formed densely from the fit's beta."""
    rng = np.random.default_rng(9)
    base = standardized_matrix(rng, 30, 5)
    y = base[:, 0] - base[:, 1] * base[:, 2] + 0.3 * rng.normal(size=30)
    for design in (DenseDesign(standardized_matrix(rng, 30, 40)), ExpandedDesign.fit(base)):
        X = design.block(0, design.shape[1])
        # a path cut at its first kink is still at beta = 0, with no active
        # coordinate to violate anything: the budgets start at two kinks
        for lam, sweeps in ((0.05, 2), (0.05, 3), (0.3, 2)):
            fit = fit_lasso(design, y, LassoConfig(lam=lam, max_sweeps=sweeps))
            corr = X.T @ (y - y.mean() - X @ fit.beta) / 30
            zero = fit.beta == 0
            zero_v = max(float(np.abs(corr[zero]).max()) - lam / 2, 0.0)
            active_v = float(np.abs(corr[~zero] - lam / 2 * np.sign(fit.beta[~zero])).max())
            assert active_v > 1e-4
            assert fit.kkt_zero_violation == pytest.approx(zero_v, rel=1e-9, abs=1e-12)
            assert fit.kkt_active_violation == pytest.approx(active_v, rel=1e-9)


def test_warm_start_agrees_with_cold_start():
    rng = np.random.default_rng(11)
    X = standardized_matrix(rng, 50, 15)
    y = rng.normal(size=50)
    grid = np.geomspace(1.0, 0.01, 10)
    warm = lasso_path(DenseDesign(X), y, grid)
    for lam, wfit in zip(grid, warm):
        cold = fit_lasso(DenseDesign(X), y, LassoConfig(lam=float(lam)))
        assert np.abs(wfit.beta - cold.beta).max() < 1e-6


def test_non_convergence_reported():
    rng = np.random.default_rng(12)
    X = standardized_matrix(rng, 50, 30)
    y = rng.normal(size=50)
    fit = fit_lasso(DenseDesign(X), y, LassoConfig(lam=0.001, max_sweeps=1))
    assert not fit.converged
    assert fit.sweeps_used == 1  # the path's first kink, at lambda_max
    assert np.all(fit.beta == 0.0)


def test_sparsity_contrast_noise_columns():
    rng = np.random.default_rng(13)
    X = standardized_matrix(rng, 80, 53)  # 3 signal + 50 noise columns
    y = 2 * X[:, 0] - X[:, 1] + 0.5 * X[:, 2] + 0.2 * rng.normal(size=80)
    lasso = fit_lasso(DenseDesign(X), y, LassoConfig(lam=0.3))
    ridge = fit_ridge(DenseDesign(X), y, 0.3)
    assert ridge.active_set.size == 53
    assert 0 < lasso.active_set.size < ridge.active_set.size


def test_streamed_vs_materialized_exact():
    rng = np.random.default_rng(14)
    base = standardized_matrix(rng, 40, 6)
    design = ExpandedDesign.fit(base)
    y = rng.normal(size=40)
    f_s = fit_lasso(design, y, LassoConfig(lam=0.2))
    dense = DenseDesign(design.block(0, design.shape[1]))
    f_m = fit_lasso(dense, y, LassoConfig(lam=0.2))
    assert np.array_equal(f_s.beta, f_m.beta)
    assert f_s.kkt_zero_violation == f_m.kkt_zero_violation
    assert f_s.kkt_active_violation == f_m.kkt_active_violation
    yc = y - y.mean()
    assert np.array_equal(design_corr(design, yc), design_corr(dense, yc))


def test_design_corr_matches_column_norms():
    rng = np.random.default_rng(15)
    X = standardized_matrix(rng, 25, 7)
    norms = [design_corr(DenseDesign(X), X[:, j])[j] for j in range(7)]
    np.testing.assert_allclose(norms, (X * X).sum(axis=0) / 25, rtol=1e-14)


def test_active_set_property():
    rng = np.random.default_rng(16)
    X = standardized_matrix(rng, 30, 10)
    y = X[:, 2] + 0.05 * rng.normal(size=30)
    fit = fit_lasso(DenseDesign(X), y, LassoConfig(lam=0.5))
    assert set(fit.active_set) == {j for j in range(10) if fit.beta[j] != 0}
    assert 2 in fit.active_set


def dense_certificate(X, y, beta, lam):
    """(KKT zero violation, KKT active violation, relative duality gap) of
    beta, formed densely from X."""
    n = X.shape[0]
    yc = y - y.mean()
    r = yc - X @ beta
    corr = X.T @ r / n
    zero = beta == 0
    zero_v = max(float(np.abs(corr[zero]).max(initial=0.0)) - lam / 2, 0.0)
    active_v = float(np.abs(corr[~zero] - lam / 2 * np.sign(beta[~zero])).max(initial=0.0))
    s = min(1.0, lam / 2 / float(np.abs(corr).max()))
    primal = r @ r / n + lam * np.abs(beta).sum()
    dual = (2 * s * (r @ yc) - s * s * (r @ r)) / n
    return zero_v, active_v, float((primal - dual) / (yc @ yc / n))


def test_duality_gap_matches_a_dense_oracle():
    """Certified fits and fits cut short by the kink budget, on dense and
    expanded designs."""
    rng = np.random.default_rng(17)
    base = standardized_matrix(rng, 30, 5)
    y = base[:, 0] - base[:, 1] * base[:, 2] + 0.3 * rng.normal(size=30)
    for design in (DenseDesign(standardized_matrix(rng, 30, 40)), ExpandedDesign.fit(base)):
        X = design.block(0, design.shape[1])
        for lam, budget in ((0.05, 10_000), (0.3, 10_000), (0.05, 2), (0.3, 1)):
            fit = fit_lasso(design, y, LassoConfig(lam=lam, max_sweeps=budget))
            zero_v, active_v, gap = dense_certificate(X, y, fit.beta, lam)
            assert fit.gap == pytest.approx(gap, rel=1e-9, abs=1e-14)
            assert fit.kkt_zero_violation == pytest.approx(zero_v, rel=1e-9, abs=1e-14)
            assert fit.kkt_active_violation == pytest.approx(active_v, rel=1e-9, abs=1e-14)
            if fit.converged:
                assert gap <= 1e-12
            else:
                assert gap > 1e-6


def test_gram_pass_within_its_bound_of_design_corr():
    """The Gram-form pass against the streamed product, on the training rows
    and on a row subset (whose columns are not centred), with zero-variance
    expanded columns: the square of a +-1 column and a constant column."""
    rng = np.random.default_rng(18)
    base = standardized_matrix(rng, 40, 9)
    base[:, 0] = np.resize([1.0, -1.0], 40)
    base[:, 1] = 0.0
    design = ExpandedDesign.fit(base)
    constant = design.col_std == 0
    assert constant[design.p0] and constant.sum() > 9
    for d in (design, design.take_rows(rng.permutation(40)[:25])):
        n = d.shape[0]
        for v in (rng.normal(size=n), 1e6 * rng.normal(size=n), np.ones(n), np.zeros(n)):
            corr, weights = d.screen(v)
            exact = design_corr(d, v)
            err = np.abs(corr - exact)
            assert np.all(err <= np.linalg.norm(v) * weights)
            assert np.all(corr[constant] == 0.0) and np.all(exact[constant] == 0.0)
            assert np.all(weights[constant] == 0.0)
            if v.any():
                assert err.max() > 0.0  # the two products do round differently


def test_kink_budget_stops_the_path():
    """sweeps_used counts kinks. When max_sweeps kinks run out, the fit is
    the path's beta at the last kink allowed, certified exactly and not
    converged."""
    rng = np.random.default_rng(19)
    X = standardized_matrix(rng, 40, 60)
    y = X[:, :6] @ rng.normal(size=6) + 0.5 * rng.normal(size=40)

    full = fit_lasso(DenseDesign(X), y, LassoConfig(lam=0.05))
    kinks = full.sweeps_used
    assert full.converged and kinks > 10

    grid = np.geomspace(1.0, 0.05, 8)
    path = list(lasso_path(DenseDesign(X), y, grid))
    assert sum(f.sweeps_used for f in path) == kinks  # the same kinks, counted per grid point
    assert np.abs(path[-1].beta - full.beta).max() < 1e-12

    short = fit_lasso(DenseDesign(X), y, LassoConfig(lam=0.05, max_sweeps=3))
    assert short.sweeps_used == 3 and not short.converged
    assert short.active_set.size == 2  # three joins; the third column is still at 0
    short_path = list(lasso_path(DenseDesign(X), y, grid, max_sweeps=3))
    assert sum(f.sweeps_used for f in short_path) == 3
    stopped = [f for f in short_path if not f.converged]
    assert stopped and all(f.beta.tobytes() == short.beta.tobytes() for f in stopped)
    assert all(f.converged for f in short_path[: len(grid) - len(stopped)])
    for f in stopped:
        zero_v, active_v, gap = dense_certificate(X, y, f.beta, f.lam)
        assert f.kkt_zero_violation == pytest.approx(zero_v, rel=1e-9, abs=1e-14)
        assert f.kkt_active_violation == pytest.approx(active_v, rel=1e-9, abs=1e-14)
        assert f.gap == pytest.approx(gap, rel=1e-9, abs=1e-14)


def test_converged_reads_the_certificate():
    """converged is the certificate's verdict, not the solver's: an exact
    fit whose KKT values (rounding, ~1e-16) exceed a tolerance set below
    them reports converged=False, on a single fit and along a path."""
    rng = np.random.default_rng(23)
    X = standardized_matrix(rng, 40, 30)
    y = X[:, :4] @ rng.normal(size=4) + 0.3 * rng.normal(size=40)
    exact = fit_lasso(DenseDesign(X), y, LassoConfig(lam=0.1))
    assert exact.converged and 0.0 < exact.kkt_active_violation <= 1e-14
    strict = fit_lasso(DenseDesign(X), y, LassoConfig(lam=0.1, tol=1e-30))
    assert strict.beta.tobytes() == exact.beta.tobytes()
    assert strict.sweeps_used == exact.sweeps_used
    assert not strict.converged
    grid = np.geomspace(0.5, 0.1, 4)
    assert all(f.converged for f in lasso_path(DenseDesign(X), y, grid))
    assert not any(f.converged for f in lasso_path(DenseDesign(X), y, grid[1:], tol=1e-30))


def test_streamed_homotopy_screens_with_the_gram_pass(monkeypatch):
    """The streamed fit takes its correlations from its Gram-form screen and
    still matches the fit on a DenseDesign of its columns bit for bit, along
    a path too."""
    rng = np.random.default_rng(20)
    base = standardized_matrix(rng, 50, 12)
    y = base[:, 0] * base[:, 3] - base[:, 5] + 0.3 * rng.normal(size=50)
    design = ExpandedDesign.fit(base)
    dense = DenseDesign(design.block(0, design.shape[1]))
    calls = []
    screen = ExpandedDesign.screen
    monkeypatch.setattr(ExpandedDesign, "screen", lambda self, v: calls.append(1) or screen(self, v))
    for lam in (0.02, 0.1, 0.4):
        f_s = fit_lasso(design, y, LassoConfig(lam=lam))
        n_calls = len(calls)
        f_m = fit_lasso(dense, y, LassoConfig(lam=lam))
        assert n_calls > 0 and len(calls) == n_calls
        assert f_s.beta.tobytes() == f_m.beta.tobytes()
        assert f_s.sweeps_used == f_m.sweeps_used
        assert (f_s.kkt_zero_violation, f_s.kkt_active_violation, f_s.gap) == (
            f_m.kkt_zero_violation, f_m.kkt_active_violation, f_m.gap)
    grid = np.geomspace(0.5, 0.02, 6)
    for p_s, p_m in zip(lasso_path(design, y, grid), lasso_path(dense, y, grid)):
        assert p_s.beta.tobytes() == p_m.beta.tobytes()


def _paths_over_near_counts(monkeypatch, design, y):
    """The path's (beta bytes, sweeps_used, converged) with upper bounds
    at 1, _NEAR and every column, and for each its picks: True where the
    full mask ran with lower bounds tied at the k-th."""
    grid = np.geomspace(1.0, 1e-3, 30)
    pick, paths = solvers._pick, []

    def recorded(lo, near, kth, thr):
        picks.append(thr >= kth and kth < np.inf and (lo == kth).sum() > (lo[near] == kth).sum())
        return pick(lo, near, kth, thr)

    monkeypatch.setattr(solvers, "_pick", recorded)
    for near in (1, solvers._NEAR, design.shape[1]):
        monkeypatch.setattr(solvers, "_NEAR", near)
        picks = []
        paths.append(([(f.beta.tobytes(), f.sweeps_used, f.converged)
                       for f in lasso_path(design, y, grid)], picks))
    monkeypatch.undo()
    return paths


@pytest.mark.parametrize("seed", range(3))
def test_path_keeps_its_bits_however_many_upper_join_bounds_are_taken(monkeypatch, seed):
    """Upper join bounds taken only at the columns with the smallest lower
    bounds admit a superset of the candidates that every column's bound
    admits, so the exact recheck picks the same kinks: one column, the
    default count and every column give the same path bit for bit."""
    rng = np.random.default_rng(seed)
    base = standardized_matrix(rng, 40, 8)
    base[:, 3] = base[:, 4]  # twins: one joins in the other's span, is blocked, and one bound widens
    y = base[:, 1] * base[:, 2] + base[:, 4] + 0.5 * rng.normal(size=40)
    (one, _), (default, _), (every, _) = _paths_over_near_counts(
        monkeypatch, ExpandedDesign.fit(base), y)
    assert one == default == every


@pytest.mark.parametrize("kind", ["tied", "blocked"])
def test_near_set_pick_keeps_the_bits_on_ties_and_repeated_picks(monkeypatch, kind):
    """Candidates are read from the near set alone only below the k-th
    smallest lower bound. tied: 70 copies of one dense column tie the
    lower bounds at the default k-th, so the full mask runs there;
    blocked: four equal base columns block one column after another, so
    picks repeat at every near count. The paths stay bitwise equal."""
    rng = np.random.default_rng(0)
    if kind == "tied":
        X = standardized_matrix(rng, 40, 30)
        X = np.hstack([X[:, :15], np.repeat(X[:, :1], 70, axis=1), X[:, 15:]])
        design, y = DenseDesign(X), X[:, 0] + X[:, 3] - X[:, 20] + 0.5 * rng.normal(size=40)
    else:
        base = standardized_matrix(rng, 40, 8)
        base[:, 3] = base[:, 4] = base[:, 5] = base[:, 6]
        design = ExpandedDesign.fit(base)
        y = base[:, 1] * base[:, 2] + base[:, 4] + 0.5 * rng.normal(size=40)
    paths = _paths_over_near_counts(monkeypatch, design, y)
    assert paths[0][0] == paths[1][0] == paths[2][0]
    for fits, picks in paths:  # each kink and the last segment pick once, and again after a block
        assert len(picks) > sum(f[1] for f in fits) + 1
    if kind == "tied":
        assert any(paths[1][1])


def _counted_path(monkeypatch, design, y, grid, refresh):
    """The path's (beta bytes, sweeps_used, converged) with _REFRESH at
    ``refresh``, its kinks, and the screen passes it made."""
    monkeypatch.setattr(solvers, "_REFRESH", refresh)
    calls = []
    screen = type(design).screen
    monkeypatch.setattr(type(design), "screen", lambda self, v: calls.append(1) or screen(self, v))
    fits = [(f.beta.tobytes(), f.sweeps_used, f.converged) for f in lasso_path(design, y, grid)]
    monkeypatch.undo()
    return fits, sum(f[1] for f in fits), len(calls)


def test_a_path_of_k_kinks_screens_k_plus_one_times_and_once_per_refresh(monkeypatch):
    """A streamed path screens r at its opening segment and u = X_A d at
    each of the K segments after a kink: K + 1 passes when the carried
    X'r/n is never screened again, 2K + 1 when every segment screens it
    afresh, and in between with the default refresh rule, on one path."""
    rng = np.random.default_rng(26)
    base = standardized_matrix(rng, 30, 10)
    y = base[:, 0] * base[:, 1] - base[:, 2] + 0.3 * rng.normal(size=30)
    design = ExpandedDesign.fit(base)
    grid = np.geomspace(1.0, 1e-4, 25)  # down to an active set as large as n
    never, k, n_never = _counted_path(monkeypatch, design, y, grid, np.inf)
    always, _, n_always = _counted_path(monkeypatch, design, y, grid, 0.0)
    default, _, n_default = _counted_path(monkeypatch, design, y, grid, solvers._REFRESH)
    assert never == always == default
    assert k > 30 and n_never == k + 1 and n_always == 2 * k + 1
    assert k + 1 <= n_default < 2 * k + 1


def test_carried_certificate_within_its_stated_bound():
    """With X'r/n carried along the whole path (no refresh), each yielded
    vector is within its stated bound err of design_corr of the residual,
    entry by entry; the path fit's KKT values are within err (plus the
    oracle's own rounding) of dense_certificate's, and err is far below
    kkt_tol."""
    rng = np.random.default_rng(27)
    base = standardized_matrix(rng, 30, 8)
    y = base[:, 1] - base[:, 2] * base[:, 4] + 0.2 * rng.normal(size=30)
    yc, _ = _center(y, True)
    grid = np.geomspace(1.0, 1e-4, 30)
    kkt_tol = LassoConfig(lam=1.0).kkt_tol
    for design in (DenseDesign(standardized_matrix(rng, 30, 70)), ExpandedDesign.fit(base)):
        X = design.block(0, design.shape[1])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "_REFRESH", np.inf)
            steps = list(_homotopy(design, yc, list(grid), 10_000))
            fits = list(lasso_path(design, y, grid))
        assert sum(f.sweeps_used for f in fits) > 25
        for (beta, r, _, corr, err), fit in zip(steps, fits):
            assert fit.beta.tobytes() == beta.tobytes()
            assert 0.0 < err <= 1e-3 * kkt_tol
            assert np.all(np.abs(corr - design_corr(design, r)) <= err)
            zero_v, active_v, _ = dense_certificate(X, y, beta, fit.lam)
            assert abs(fit.kkt_zero_violation - zero_v) <= err + 1e-14
            assert abs(fit.kkt_active_violation - active_v) <= err + 1e-14


def test_path_certificates_from_the_homotopy_pass():
    """A path fit's certificate comes from the homotopy's own pass; it must
    agree with the exact certificate of the same beta."""
    rng = np.random.default_rng(21)
    base = standardized_matrix(rng, 40, 6)
    y = base[:, 1] - base[:, 2] * base[:, 4] + 0.2 * rng.normal(size=40)
    for design in (DenseDesign(standardized_matrix(rng, 40, 70)), ExpandedDesign.fit(base)):
        X = design.block(0, design.shape[1])
        for fit in lasso_path(design, y, np.geomspace(0.8, 0.01, 10)):
            zero_v, active_v, gap = dense_certificate(X, y, fit.beta, fit.lam)
            assert fit.converged
            assert fit.kkt_zero_violation <= 1e-12 and fit.kkt_active_violation <= 1e-12
            assert fit.gap <= 1e-12
            assert max(zero_v, active_v, gap) <= 1e-12


def test_lasso_path_rejects_an_ascending_grid():
    X = standardized_matrix(np.random.default_rng(22), 20, 5)
    with pytest.raises(SolverError, match="descend"):
        lasso_path(DenseDesign(X), np.arange(20.0), [0.1, 0.2])


def test_fit_lasso_certificate_matches_a_full_pass():
    """fit_lasso certifies from the active columns' chunks and a screened
    maximum over the rest; KKT, gap and converged must be the bits that a
    full design_corr pass over the same residual gives, on fits that
    converge and on fits the kink budget cuts short."""
    rng = np.random.default_rng(24)
    base = standardized_matrix(rng, 50, 70)  # 2,555 expanded columns, two chunks
    base[:, 5] = np.resize([1.0, -1.0], 50)  # a zero-variance square
    y = base[:, 0] * base[:, 1] - base[:, 2] + 0.3 * rng.normal(size=50)
    design = ExpandedDesign.fit(base)
    yc, beta0 = _center(y, True)
    for lam, budget in ((0.02, 10_000), (0.1, 10_000), (0.3, 10_000), (0.02, 4), (0.1, 1)):
        config = LassoConfig(lam=lam, max_sweeps=budget)
        fit = fit_lasso(design, y, config)
        beta, r, kinks, *_ = next(_homotopy(design, yc, [lam], budget))
        corr = design_corr(design, r)
        zero_max = float(np.abs(corr).max(where=beta == 0, initial=0.0))
        full = _certified(lam, beta0, beta, r, yc, corr[beta != 0], zero_max, kinks, config.kkt_tol)
        assert fit.beta.tobytes() == full.beta.tobytes()
        assert (fit.kkt_zero_violation, fit.kkt_active_violation, fit.gap, fit.converged) == (
            full.kkt_zero_violation, full.kkt_active_violation, full.gap, full.converged)
    assert not fit.converged  # the last fit stops at its only kink
