"""Lambda grids, k-fold cross-validation, and selection rules."""

import numpy as np
import pytest

from conftest import standardized_matrix
from ozolasso import pipeline, solvers
from ozolasso.config import RunConfig
from ozolasso.expansion import ExpandedDesign
from ozolasso.selection import (
    SelectionError,
    kfold_cv,
    make_folds,
    make_lambda_grid,
    select_lambda,
)
from ozolasso.solvers import DenseDesign, LassoConfig, fit_lasso, lasso_path, ridge_path
from ozolasso.synth import SynthConfig, write_files


def test_lambda_max_perfect_correlation():
    rng = np.random.default_rng(0)
    X = standardized_matrix(rng, 30, 1)
    y = X[:, 0].copy()
    grid = make_lambda_grid(DenseDesign(X), y, n_points=5, ratio=0.1)
    assert grid[0] == pytest.approx(2.0, abs=1e-12)
    assert grid.shape == (5,)
    assert np.all(np.diff(grid) < 0)
    assert grid[-1] == pytest.approx(0.2, rel=1e-12)


def test_fit_at_grid_head_is_exactly_zero():
    rng = np.random.default_rng(1)
    X = standardized_matrix(rng, 40, 8)
    y = rng.normal(size=40)
    expanded = ExpandedDesign.fit(standardized_matrix(rng, 40, 70))  # 2555 columns, 2 chunks
    for design in (DenseDesign(X), expanded):
        grid = make_lambda_grid(design, y, n_points=10, ratio=1e-3)
        fit = fit_lasso(design, y, LassoConfig(lam=float(grid[0])))
        assert np.all(fit.beta == 0.0)
        assert fit.converged and fit.sweeps_used == 0  # no kink above lambda_max


def test_first_activation_is_dominant_column():
    rng = np.random.default_rng(2)
    X = standardized_matrix(rng, 60, 6)
    y = X[:, 4] + 0.05 * rng.normal(size=60)
    yc = y - y.mean()
    scores = np.abs(X.T @ yc / 60)
    dominant = int(np.argmax(scores))
    grid = make_lambda_grid(DenseDesign(X), y, n_points=3, ratio=0.999)
    fit = fit_lasso(DenseDesign(X), y, LassoConfig(lam=float(grid[0]) * 0.999))
    assert list(fit.active_set) == [dominant]


def test_constant_target_degenerate():
    rng = np.random.default_rng(3)
    X = standardized_matrix(rng, 20, 4)
    with pytest.raises(SelectionError, match="degenerate"):
        make_lambda_grid(DenseDesign(X), np.full(20, 7.0))


def test_make_folds_partition_and_balance():
    assignment = make_folds(23, 5, seed=0)
    sizes = np.bincount(assignment, minlength=5)
    assert sizes.sum() == 23
    assert sizes.max() - sizes.min() <= 1
    assert set(assignment) == set(range(5))


def test_make_folds_determinism_and_seed_sensitivity():
    a = make_folds(40, 4, seed=7)
    b = make_folds(40, 4, seed=7)
    c = make_folds(40, 4, seed=8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_make_folds_blocked_contiguous():
    assignment = make_folds(10, 3, seed=None, mode="blocked")
    np.testing.assert_array_equal(assignment, [0, 0, 0, 0, 1, 1, 1, 2, 2, 2])


def test_make_folds_errors():
    with pytest.raises(SelectionError):
        make_folds(10, 1, seed=0)
    with pytest.raises(SelectionError):
        make_folds(3, 5, seed=0)
    with pytest.raises(SelectionError, match="seed"):
        make_folds(10, 2, seed=None)
    with pytest.raises(SelectionError, match="fold mode"):
        make_folds(10, 2, seed=0, mode="stratified")


def test_leave_one_out_runs():
    rng = np.random.default_rng(4)
    X = standardized_matrix(rng, 6, 2)
    y = rng.normal(size=6)
    grid = make_lambda_grid(DenseDesign(X), y, n_points=4, ratio=0.1)
    cv = kfold_cv(DenseDesign(X), y, 6, grid, seed=0)
    assert np.bincount(cv.fold_assignment).tolist() == [1] * 6
    assert cv.lambda_min in grid


def test_noiseless_sparse_fixture_drives_cv_error_down():
    rng = np.random.default_rng(5)
    X = standardized_matrix(rng, 200, 50)
    y = 2 * X[:, 1] - 1.5 * X[:, 10] + X[:, 33]
    grid = make_lambda_grid(DenseDesign(X), y, n_points=30, ratio=1e-6)
    cv = kfold_cv(DenseDesign(X), y, 5, grid, seed=0)
    # held-out error cannot reach exactly zero because each fold fixes its
    # intercept at the fold-train response mean while the columns are only
    # globally centered; it must still collapse far below the null error
    best = cv.cv_mean[list(cv.grid).index(cv.lambda_min)]
    assert best < 0.01 * float(y.var())
    assert cv.lambda_min < cv.grid[0] * 0.1


def test_cv_determinism_and_seed_sensitivity():
    rng = np.random.default_rng(6)
    X = standardized_matrix(rng, 40, 5)
    y = rng.normal(size=40)
    grid = make_lambda_grid(DenseDesign(X), y, n_points=8, ratio=1e-2)
    a = kfold_cv(DenseDesign(X), y, 4, grid, seed=1)
    b = kfold_cv(DenseDesign(X), y, 4, grid, seed=1)
    c = kfold_cv(DenseDesign(X), y, 4, grid, seed=2)
    np.testing.assert_array_equal(a.cv_mean, b.cv_mean)
    assert a.lambda_min == b.lambda_min
    assert not np.array_equal(a.fold_assignment, c.fold_assignment)


def test_cv_result_invariants_and_one_se_rule():
    rng = np.random.default_rng(7)
    X = standardized_matrix(rng, 60, 10)
    y = X[:, 0] + rng.normal(size=60)
    grid = make_lambda_grid(DenseDesign(X), y, n_points=15, ratio=1e-3)
    cv = kfold_cv(DenseDesign(X), y, 5, grid, seed=3)
    assert np.all(cv.cv_se >= 0)
    assert cv.lambda_1se >= cv.lambda_min
    assert cv.lambda_min in cv.grid and cv.lambda_1se in cv.grid
    # replicate the rule by hand: first grid point (large-lambda end) in band
    i_min = int(np.argmin(cv.cv_mean))
    band = cv.cv_mean[i_min] + cv.cv_se[i_min]
    i_1se = int(np.flatnonzero(cv.cv_mean <= band)[0])
    assert cv.lambda_1se == cv.grid[i_1se]
    assert select_lambda(cv, "min") == cv.lambda_min
    assert select_lambda(cv, "one_se") == cv.lambda_1se
    with pytest.raises(SelectionError):
        select_lambda(cv, "two_se")


def test_cv_mean_at_lambda_max_is_null_model_error():
    rng = np.random.default_rng(8)
    X = standardized_matrix(rng, 400, 3)
    y = rng.normal(size=400)
    grid = make_lambda_grid(DenseDesign(X), y, n_points=5, ratio=1e-2)
    cv = kfold_cv(DenseDesign(X), y, 5, grid, seed=0)
    # at lambda_max every fold predicts its training mean
    assert cv.cv_mean[0] == pytest.approx(float(y.var()), rel=0.1)


def test_warm_path_matches_cold_fits():
    rng = np.random.default_rng(9)
    X = standardized_matrix(rng, 50, 12)
    y = rng.normal(size=50)
    grid = make_lambda_grid(DenseDesign(X), y, n_points=12, ratio=1e-3)
    warm = lasso_path(DenseDesign(X), y, grid)
    for lam, fit in zip(grid, warm):
        cold = fit_lasso(DenseDesign(X), y, LassoConfig(lam=float(lam)))
        assert np.abs(fit.beta - cold.beta).max() < 1e-6


def test_ridge_solver_cv():
    rng = np.random.default_rng(10)
    X = standardized_matrix(rng, 40, 6)
    y = X[:, 0] + 0.3 * rng.normal(size=40)
    grid = make_lambda_grid(DenseDesign(X), y, n_points=6, ratio=1e-2)
    cv = kfold_cv(DenseDesign(X), y, 4, grid, seed=0, fit_path=ridge_path)
    assert cv.cv_mean.shape == (6,)
    assert np.isfinite(cv.cv_mean).all()


@pytest.mark.parametrize("expanded", [False, True], ids=["dense", "expanded"])
def test_kfold_cv_fits_each_fold_on_its_training_rows(expanded):
    rng = np.random.default_rng(12)
    base = standardized_matrix(rng, 23, 4)
    design = ExpandedDesign.fit(base) if expanded else DenseDesign(base)
    dense = design.block(0, design.shape[1])
    y = base[:, 0] + rng.normal(size=23)
    grid = make_lambda_grid(design, y, n_points=5, ratio=1e-2)
    calls = []

    def fit_path(d_tr, y_tr, g):
        calls.append((d_tr.block(0, d_tr.shape[1]).copy(), y_tr.copy(), g))
        return lasso_path(d_tr, y_tr, g)

    cv = kfold_cv(design, y, 4, grid, seed=5, fit_path=fit_path)
    assert len(calls) == 4
    for fold, (d_tr, y_tr, g) in enumerate(calls):
        train = np.flatnonzero(cv.fold_assignment != fold)
        assert d_tr.tobytes() == dense[train].tobytes()
        assert y_tr.tobytes() == y[train].tobytes()
        assert g.tobytes() == grid.tobytes()
    # the default path is the Lasso path: same errors bit for bit
    default = kfold_cv(design, y, 4, grid, seed=5)
    assert default.cv_mean.tobytes() == cv.cv_mean.tobytes()


def test_blocked_fold_mode():
    rng = np.random.default_rng(11)
    X = standardized_matrix(rng, 30, 4)
    y = rng.normal(size=30)
    grid = make_lambda_grid(DenseDesign(X), y, n_points=4, ratio=0.1)
    cv = kfold_cv(DenseDesign(X), y, 3, grid, seed=None, fold_mode="blocked")
    np.testing.assert_array_equal(cv.fold_assignment, np.repeat([0, 1, 2], 10))


def test_ridge_train_solves_once_and_cv_picks_the_cholesky_lambda(tmp_path, monkeypatch):
    """A ridge train with CV makes one Cholesky solve, the final fit: the CV
    path comes from one tridiagonal reduction per fold. It picks the lambda
    that a per-lambda Cholesky path over the same folds picks."""
    write_files(SynthConfig(n_days=60, seed=9), tmp_path)
    config = RunConfig(
        pollutant_file=str(tmp_path / "pollutants.csv"),
        meteo_file=str(tmp_path / "meteorology.csv"),
        method="ridge", lam="cv", cv_k=3, cv_points=12, seed=1,
        train_start="2015-01-01", train_end="2015-02-17",
        test_start="2015-02-18", test_end="2015-03-01",
    )
    solves = []
    spd_solve = solvers._spd_solve
    monkeypatch.setattr(solvers, "_spd_solve", lambda A, b: solves.append(b.size) or spd_solve(A, b))
    data, _ = pipeline.load_training(config)
    model, cv, _ = pipeline.fit_method(config, data, config.method, config.expansion)
    assert len(solves) == 1
    assert model["lambda"] == cv.lambda_min

    reference = kfold_cv(
        DenseDesign(data.base), data.y, config.cv_k, cv.grid, config.seed,
        fit_path=lambda X, y, grid: [solvers.fit_ridge(X, y, lam) for lam in grid],
    )
    assert len(solves) == 1 + config.cv_k * config.cv_points
    assert reference.lambda_min == cv.lambda_min
    np.testing.assert_allclose(cv.cv_mean, reference.cv_mean, rtol=1e-9)
