"""Lambda-grid construction, k-fold cross-validation, and selection rules."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import parallel
from .solvers import (
    _center,
    corr_abs_max,
    design_block,  # noqa: F401  (perfbench/test_perfbench.py checks this binding)
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
    fold_errors: np.ndarray  # (fold, lambda) -> mean squared held-out error


def make_lambda_grid(
    design, y: np.ndarray, n_points: int = 100, ratio: float = 1e-4
) -> np.ndarray:
    """Log-spaced descending grid from lambda_max down to ratio*lambda_max.

    lambda_max = 2 * max_j |X_j'y/n| is the smallest lambda whose solution is
    all-zero under the half-lambda threshold convention. It is taken from
    solvers.corr_abs_max, as the homotopy takes its start, so a fit at
    lambda_max is all-zero by construction.
    """
    yc, _ = _center(np.asarray(y, dtype=float), True)
    lam_max = 2.0 * corr_abs_max(design, yc)
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


def _score_folds(design, y, grid, assignment, fit_path, folds):
    """For each fold of ``folds`` in turn: its mean squared held-out error at
    each lambda, the warnings its fits issued as (message, category,
    filename, lineno), and the exception it raised, or None. Stops after a
    fold that raises; the caller raises it in fold order."""
    scored = []
    for fold in folds:
        errors, failure = np.empty(len(grid)), None
        with warnings.catch_warnings(record=True) as caught:
            try:
                held = np.flatnonzero(assignment == fold)
                train = np.flatnonzero(assignment != fold)
                if train.size < 2:
                    raise SelectionError(f"fold {fold}: fewer than 2 training rows")
                d_tr, d_te = design.take_rows(train), design.take_rows(held)
                y_te = y[held]
                for i, fit in enumerate(fit_path(d_tr, y[train], grid)):
                    pred = fit.beta0 + d_te.predict(fit.beta)
                    errors[i] = float(np.mean((pred - y_te) ** 2))
            except Exception as exc:  # raised by kfold_cv after the folds before it
                failure = exc
        scored.append((errors, [(w.message, w.category, w.filename, w.lineno) for w in caught],
                       failure))
        if failure is not None:
            break
    return scored


def kfold_cv(
    design,
    y: np.ndarray,
    k: int,
    grid: np.ndarray,
    seed: int | None,
    fit_path=lasso_path,
    fold_mode: str = "shuffled",
) -> CvResult:
    """Per-fold fits over the whole grid, squared error on the held-out
    fold, aggregated per lambda.

    ``fit_path(design, y, grid)`` gives one fit per grid point, in grid
    order: ``solvers.lasso_path`` (one homotopy, yielding each fit as it is
    made) or ``solvers.ridge_path``. Each fit is scored as it arrives, so a
    fold never holds its whole path of dense betas.

    A forked child scores the folds 1, 3, ... while this process scores
    0, 2, ... (``parallel.beside``), when the design's 8np bytes, the size
    of its matrix stored, reach ``parallel.MIN_BYTES`` and the CPUs hold
    the BLAS threads of both processes. Each fold is the same computation
    either way, so the errors keep their bits. The warnings of every fold
    are issued again here, and the first fold that raised is raised, in
    fold order, as a serial loop shows them; when fold 0 raises, the other
    folds are not waited for.
    """
    y = np.asarray(y, dtype=float)
    n, p = design.shape
    grid = np.asarray(grid, dtype=float)
    assignment = make_folds(n, k, seed, fold_mode)

    folds, nbytes, threads = range(k), 8 * n * p, parallel.blas_threads()
    # forked, the child takes the odd folds; inline, this process runs all in order
    if parallel.forks(nbytes, threads):
        mine, theirs = folds[0::2], folds[1::2]
    else:
        mine, theirs = folds, range(0)
    score = (design, y, grid, assignment, fit_path)
    with parallel.beside(_score_folds, *score, theirs, nbytes=nbytes, threads=threads) as others:
        scored = dict(zip(mine, _score_folds(*score, mine)))
        if scored[0][2] is None:  # else fold 0 raised, and no fold comes before it
            scored |= dict(zip(theirs, others()))
    fold_errors = np.empty((k, len(grid)))
    for fold in folds:
        fold_errors[fold], issued, failure = scored[fold]
        for message, category, filename, lineno in issued:
            warnings.warn_explicit(message, category, filename, lineno)
        if failure is not None:
            raise failure

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
        fold_errors=fold_errors,
    )


def select_lambda(cv: CvResult, rule: str = "min") -> float:
    if rule == "min":
        return cv.lambda_min
    if rule == "one_se":
        return cv.lambda_1se
    raise SelectionError(f"unknown selection rule {rule!r}")
