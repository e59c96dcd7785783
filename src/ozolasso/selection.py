"""Lambda-grid construction, k-fold cross-validation, and selection rules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solvers import (
    _center,
    design_block,  # noqa: F401  (perfbench/test_perfbench.py checks this binding)
    design_corr,
    design_predict,
    design_take_rows,
    fit_ridge,
    lasso_path,
)


class SelectionError(Exception):
    pass


@dataclass
class CvResult:
    grid: np.ndarray  # descending lambdas
    cv_mean: np.ndarray  # mean squared held-out error per lambda
    cv_se: np.ndarray  # standard error of fold errors per lambda
    lambda_min: float
    lambda_1se: float
    fold_assignment: np.ndarray  # row -> fold index
    seed: int | None


def column_scores(design, y: np.ndarray) -> np.ndarray:
    """X_j'yc / n per column: the product the solver's first sweep screens
    with, so a fit at lambda_max is all-zero by construction."""
    yc, _ = _center(np.asarray(y, dtype=float), True)
    return design_corr(design, yc)


def make_lambda_grid(
    design, y: np.ndarray, n_points: int = 100, ratio: float = 1e-4
) -> np.ndarray:
    """Log-spaced descending grid from lambda_max down to ratio*lambda_max.

    lambda_max = 2 * max_j |X_j'y/n| is the smallest lambda whose solution is
    all-zero under the half-lambda threshold convention.
    """
    lam_max = 2.0 * float(np.abs(column_scores(design, y)).max())
    if lam_max == 0.0:
        raise SelectionError("degenerate target: lambda_max is 0 (constant response)")
    return np.geomspace(lam_max, ratio * lam_max, n_points)


def make_folds(n: int, k: int, seed: int | None, mode: str = "shuffled") -> np.ndarray:
    """Row -> fold assignment; near-equal sizes (differ by at most one)."""
    if k < 2:
        raise SelectionError("k must be >= 2")
    if n < k:
        raise SelectionError(f"cannot split {n} rows into {k} folds")
    sizes = np.full(k, n // k)
    sizes[: n % k] += 1
    assignment = np.repeat(np.arange(k), sizes)
    if mode == "shuffled":
        if seed is None:
            raise SelectionError("shuffled folds require an explicit seed")
        rng = np.random.default_rng(seed)
        assignment = assignment[rng.permutation(n)]
    elif mode != "blocked":
        raise SelectionError(f"unknown fold mode {mode!r}")
    return assignment


def kfold_cv(
    design,
    y: np.ndarray,
    k: int,
    grid: np.ndarray,
    seed: int | None,
    solver: str = "lasso",
    fold_mode: str = "shuffled",
    tol: float = 1e-7,
    max_sweeps: int = 10_000,
) -> CvResult:
    """Per-fold fits over the whole grid (warm-started for the Lasso),
    squared error on the held-out fold, aggregated per lambda."""
    y = np.asarray(y, dtype=float)
    n = design.shape[0]
    grid = np.asarray(grid, dtype=float)
    assignment = make_folds(n, k, seed, fold_mode)

    fold_errors = np.empty((k, len(grid)))
    for fold in range(k):
        held = np.flatnonzero(assignment == fold)
        train = np.flatnonzero(assignment != fold)
        if train.size < 2:
            raise SelectionError(f"fold {fold}: fewer than 2 training rows")
        d_tr = design_take_rows(design, train)
        d_te = design_take_rows(design, held)
        y_tr, y_te = y[train], y[held]
        if solver == "lasso":
            fits = lasso_path(d_tr, y_tr, grid, tol=tol, max_sweeps=max_sweeps)
        elif solver == "ridge":
            if not isinstance(d_tr, np.ndarray):
                raise SelectionError("ridge CV needs a materialized design")
            fits = [fit_ridge(d_tr, y_tr, float(lam)) for lam in grid]
        else:
            raise SelectionError(f"unknown solver {solver!r}")
        for i, fit in enumerate(fits):
            pred = fit.beta0 + design_predict(d_te, fit.beta)
            fold_errors[fold, i] = float(np.mean((pred - y_te) ** 2))

    cv_mean = fold_errors.mean(axis=0)
    cv_se = fold_errors.std(axis=0, ddof=1) / np.sqrt(k)
    i_min = int(np.argmin(cv_mean))  # first from the large-lambda end on ties
    band = cv_mean[i_min] + cv_se[i_min]
    i_1se = int(np.flatnonzero(cv_mean <= band)[0])  # grid is descending
    return CvResult(
        grid=grid,
        cv_mean=cv_mean,
        cv_se=cv_se,
        lambda_min=float(grid[i_min]),
        lambda_1se=float(grid[i_1se]),
        fold_assignment=assignment,
        seed=seed,
    )


def select_lambda(cv: CvResult, rule: str = "min") -> float:
    if rule == "min":
        return cv.lambda_min
    if rule == "one_se":
        return cv.lambda_1se
    raise SelectionError(f"unknown selection rule {rule!r}")
