"""OLS and ridge closed forms, and the coordinate-descent Lasso.

Lambda convention: the criterion is mean-square loss (1/n)||Y - X b||^2 plus
lambda * ||b||_1, so the coordinate soft-threshold is lambda/2 ("eq7-halflambda").
Reported lambda values live in this convention, not the common one with
threshold lambda.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .expansion import ExpandedDesign

LAMBDA_CONVENTION = "eq7-halflambda"
COND_WARN_THRESHOLD = 1e12
KKT_TOL_FACTOR = 10.0  # certificate tolerance, in units of the sweep tolerance


class SolverError(Exception):
    pass


class SingularDesignError(SolverError):
    def __init__(self, pivot: int):
        super().__init__(
            f"X'X is rank deficient: Cholesky failed at pivot {pivot} "
            "(leading minor not positive definite)"
        )
        self.pivot = pivot


@dataclass
class LassoConfig:
    lam: float
    tol: float = 1e-7
    max_sweeps: int = 10_000

    def __post_init__(self):
        if not math.isfinite(self.lam) or self.lam < 0:
            raise SolverError(f"lambda must be finite and >= 0, got {self.lam!r}")
        if not math.isfinite(self.tol) or self.tol <= 0 or self.max_sweeps < 1:
            raise SolverError("tol must be finite and > 0, and max_sweeps >= 1")

    @property
    def kkt_tol(self) -> float:
        return KKT_TOL_FACTOR * self.tol


@dataclass
class ModelFit:
    method: str
    lam: float
    beta0: float
    beta: np.ndarray
    sweeps_used: int = 0
    converged: bool = True
    kkt_zero_violation: float | None = None
    kkt_active_violation: float | None = None

    @property
    def active_set(self) -> np.ndarray:
        return np.flatnonzero(self.beta)


# --- design adapters (plain ndarray or ExpandedDesign) ---

# Columns per chunk; the sweep screens once per chunk. A separate decision
# from ExpandedDesign.CHUNK, and changing either width moves bits (the
# expansion moments differ in the last place between 2048 and 4096).
_CD_CHUNK = 2048


def design_block(design, j0: int, j1: int) -> np.ndarray:
    if isinstance(design, ExpandedDesign):
        return design.block(j0, j1)
    return design[:, j0:j1]


def design_take_rows(design, idx: np.ndarray):
    if isinstance(design, ExpandedDesign):
        return design.take_rows(idx)
    return design[idx]


def design_column(design, j: int) -> np.ndarray:
    return design_block(design, j, j + 1)[:, 0]


def _design_chunks(design):
    """(j0, columns [j0, j0 + _CD_CHUNK)) over the whole design, in order."""
    p = design.shape[1]
    for j0 in range(0, p, _CD_CHUNK):
        yield j0, design_block(design, j0, min(j0 + _CD_CHUNK, p))


def _corr_chunks(design, v):
    """(j0, the chunk's columns as contiguous rows, X_j'v / n) per chunk.

    ``v`` is read as each chunk is produced, so the sweep, which updates it in
    place, screens every chunk against the current residual. Contiguous rows
    make the product bitwise equal for streamed and materialized designs.
    """
    n = design.shape[0]
    for j0, block in _design_chunks(design):
        block_t = np.ascontiguousarray(block.T)
        yield j0, block_t, block_t @ v / n


def design_corr(design, v: np.ndarray) -> np.ndarray:
    """X_j'v / n for every column, with the solver's screening arithmetic."""
    corr = np.empty(design.shape[1])
    for j0, _, chunk_corr in _corr_chunks(design, v):
        corr[j0 : j0 + chunk_corr.size] = chunk_corr
    return corr


def design_diag(design) -> np.ndarray:
    """Sigma_jj = X_j'X_j / n for every column.

    Blocks are forced contiguous so the result is bitwise independent of
    whether the design is streamed or materialized.
    """
    n, p = design.shape
    diag = np.empty(p)
    for j0, block in _design_chunks(design):
        block = np.ascontiguousarray(block)
        diag[j0 : j0 + block.shape[1]] = np.einsum("ij,ij->j", block, block) / n
    return diag


def design_predict(design, beta: np.ndarray) -> np.ndarray:
    """X @ beta streamed over the nonzero coordinates."""
    out = np.zeros(design.shape[0])
    active = np.flatnonzero(beta)
    for j in active:
        out += beta[j] * np.ascontiguousarray(design_column(design, int(j)))
    return out


# --- closed-form solvers ---

def _spd_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A via Cholesky.

    Raises SingularDesignError naming the failing pivot; no pseudo-inverse
    fallback. The ill-conditioning warning names the line that called the
    public solver, three frames up through ``_ridge_path``.
    """
    factor, info = lapack.dpotrf(A, lower=1)
    if info != 0:
        raise SingularDesignError(pivot=int(info))
    anorm = float(np.abs(A).sum(axis=0).max())
    rcond, _ = lapack.dpocon(factor, anorm, uplo=b"L")
    cond = np.inf if rcond == 0 else 1.0 / float(rcond)
    if cond > COND_WARN_THRESHOLD:
        warnings.warn(
            f"ill-conditioned normal equations (condition ~ {cond:.3e})",
            RuntimeWarning,
            stacklevel=4,
        )
    x, _ = lapack.dpotrs(factor, b[:, None], lower=1)
    return x[:, 0]


def _center(y: np.ndarray, fit_intercept: bool) -> tuple[np.ndarray, float]:
    if fit_intercept:
        beta0 = float(y.mean())
        return y - beta0, beta0
    return y, 0.0


def fit_ols(X: np.ndarray, y: np.ndarray, fit_intercept: bool = True) -> ModelFit:
    """Normal-equation solution, the lambda=0 ridge solve; intercept is the
    response mean."""
    return _ridge_path(X, y, [0.0], fit_intercept, "ols")[0]


def ridge_path(
    X: np.ndarray, y: np.ndarray, grid, fit_intercept: bool = True
) -> list[ModelFit]:
    """beta = (X'X + n*lambda*I)^-1 X'y, the n-scaled penalty as printed,
    for each lambda of the grid; X'X and X'y are formed once."""
    return _ridge_path(X, y, grid, fit_intercept)


def fit_ridge(
    X: np.ndarray, y: np.ndarray, lam: float, fit_intercept: bool = True
) -> ModelFit:
    """Ridge fit at one lambda: the one-point ridge path."""
    return _ridge_path(X, y, [lam], fit_intercept)[0]


def _ridge_path(X, y, grid, fit_intercept, method="ridge") -> list[ModelFit]:
    # Shared by ridge_path, fit_ridge and fit_ols, so a warning from
    # _spd_solve is the same number of frames below each one's caller.
    grid = [float(lam) for lam in grid]
    if any(lam < 0 for lam in grid):
        raise SolverError("lambda must be >= 0")
    yc, beta0 = _center(y, fit_intercept)
    n = X.shape[0]
    A, b = X.T @ X, X.T @ yc
    diagonal = A.diagonal().copy()
    fits = []
    for lam in grid:
        # X'X + n*lam*I with the penalty written into the diagonal in place:
        # a second p x p matrix would raise peak memory by that much.
        np.fill_diagonal(A, diagonal + n * lam)
        fits.append(ModelFit(method, lam, beta0, _spd_solve(A, b)))
    return fits


# --- coordinate-descent Lasso ---

def _cd_passes(A, indices, beta, r, diag, lam, tol, max_sweeps):
    """Cyclic coordinate descent over the design columns ``indices``.

    Row t of ``A`` is the contiguous column ``indices[t]``. Each coordinate
    is soft-thresholded at lam/2 and the residual ``r`` updated in place, in
    the order given, until a pass moves no coordinate by ``tol`` or more or
    ``max_sweeps`` passes are done. Returns (passes, the last pass's
    max |delta beta|).
    """
    n = len(r)
    half_lam = lam / 2.0
    sweeps = 0
    max_delta = 0.0
    while sweeps < max_sweeps:
        max_delta = 0.0
        for x, j in zip(A, indices):
            sjj = diag[j]
            if sjj <= 0.0:
                continue
            z = float(x @ r) / n + sjj * beta[j]
            shrunk = abs(z) - half_lam
            bnew = 0.0 if shrunk <= 0.0 else (shrunk / sjj if z > 0 else -shrunk / sjj)
            d = bnew - beta[j]
            if d != 0.0:
                r -= d * x
                beta[j] = bnew
                if abs(d) > max_delta:
                    max_delta = abs(d)
        sweeps += 1
        if max_delta < tol:
            break
    return sweeps, max_delta


def _full_sweep(design, beta, r, diag, lam) -> float:
    """One screened pass over every column; returns the max |delta beta|."""
    half_lam = lam / 2.0
    max_delta = 0.0
    for j0, block_t, corr in _corr_chunks(design, r):
        # screening: a zero coordinate can only move if its correlation beats
        # the threshold at chunk entry; anything it misses (activations enabled
        # by in-chunk updates) is caught on the next sweep, and a sweep that
        # changes nothing screens exactly
        b_chunk = beta[j0 : j0 + block_t.shape[0]]
        candidates = np.flatnonzero((b_chunk != 0.0) | (np.abs(corr) > half_lam))
        indices = (j0 + candidates).tolist()
        _, delta = _cd_passes(block_t[candidates], indices, beta, r, diag, lam, 0.0, 1)
        max_delta = max(max_delta, delta)
    return max_delta


def _kkt_violations(design, r, beta, half_lam) -> tuple[float, float]:
    """(max over zero coordinates of |X_j'r/n| - lam/2, floored at 0; max
    over active ones of |X_j'r/n - (lam/2) sign(beta_j)|)."""
    corr = design_corr(design, r)
    active = np.flatnonzero(beta)
    active_v = float(np.abs(corr[active] - half_lam * np.sign(beta[active])).max(initial=0.0))
    # |corr| in place, with no masked copy: corr is as long as the design is wide
    zero_v = float(np.abs(corr, out=corr).max(where=beta == 0, initial=0.0)) - half_lam
    return max(zero_v, 0.0), active_v


def fit_lasso(
    design,
    y: np.ndarray,
    config: LassoConfig,
    beta_init: np.ndarray | None = None,
    diag: np.ndarray | None = None,
) -> ModelFit:
    """Coordinate descent (shooting) for the L1-penalized criterion.

    Each round is one screened sweep over every column, streamed from the
    design in chunks and never materialized in full, in ascending order;
    then passes over the active coordinates alone until they settle. The fit
    carries a KKT optimality certificate; non-convergence at max_sweeps
    returns the fit with converged=False.
    """
    p = design.shape[1]
    yc, beta0 = _center(np.asarray(y, dtype=float), True)
    if diag is None:
        diag = design_diag(design)
    beta = np.zeros(p) if beta_init is None else np.array(beta_init, dtype=float)
    if beta_init is None:
        r = yc.copy()
    else:
        r = yc - design_predict(design, beta)

    sweeps = 0
    converged = False
    while sweeps < config.max_sweeps:
        delta = _full_sweep(design, beta, r, diag, config.lam)
        sweeps += 1
        if delta < config.tol:
            converged = True
            break
        indices = np.flatnonzero(beta).tolist()
        if indices:
            columns = [np.ascontiguousarray(design_column(design, j)) for j in indices]
            passes, _ = _cd_passes(
                np.stack(columns), indices, beta, r, diag, config.lam,
                config.tol, config.max_sweeps - sweeps,
            )
            sweeps += passes

    zero_v, active_v = _kkt_violations(design, r, beta, config.lam / 2.0)
    return ModelFit(
        method="lasso",
        lam=config.lam,
        beta0=beta0,
        beta=beta,
        sweeps_used=sweeps,
        converged=converged,
        kkt_zero_violation=zero_v,
        kkt_active_violation=active_v,
    )


def lasso_path(
    design,
    y: np.ndarray,
    grid: np.ndarray,
    tol: float = 1e-7,
    max_sweeps: int = 10_000,
) -> list[ModelFit]:
    """Warm-started fits along a descending lambda grid."""
    diag = design_diag(design)
    fits: list[ModelFit] = []
    beta = None
    for lam in grid:
        config = LassoConfig(lam=float(lam), tol=tol, max_sweeps=max_sweeps)
        fit = fit_lasso(design, y, config, beta_init=beta, diag=diag)
        fits.append(fit)
        beta = fit.beta
    return fits
