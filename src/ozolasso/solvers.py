"""OLS and ridge closed forms, and the coordinate-descent Lasso.

Lambda convention: the criterion is mean-square loss (1/n)||Y - X b||^2 plus
lambda * ||b||_1, so the coordinate soft-threshold is lambda/2 ("eq7-halflambda").
Reported lambda values live in this convention, not the common one with
threshold lambda.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

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
    strategy: str = "active-set"  # or "full-sweep"

    def __post_init__(self):
        if not math.isfinite(self.lam) or self.lam < 0:
            raise SolverError(f"lambda must be finite and >= 0, got {self.lam!r}")
        if not math.isfinite(self.tol) or self.tol <= 0 or self.max_sweeps < 1:
            raise SolverError("tol must be finite and > 0, and max_sweeps >= 1")
        if self.strategy not in ("active-set", "full-sweep"):
            raise SolverError(f"unknown strategy {self.strategy!r}")

    @property
    def kkt_tol(self) -> float:
        return KKT_TOL_FACTOR * self.tol


@dataclass
class ModelFit:
    method: str
    lam: float
    beta0: float
    beta: np.ndarray
    residuals: np.ndarray
    sweeps_used: int = 0
    converged: bool = True
    condition: float | None = None
    kkt_zero_violation: float | None = None
    kkt_active_violation: float | None = None
    objective_trace: list[float] = field(default_factory=list)

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


def soft_threshold(z: float, theta: float) -> float:
    """sign(z) * max(|z| - theta, 0)."""
    return float(np.sign(z) * max(abs(z) - theta, 0.0))


# --- closed-form solvers ---

def _spd_solve(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve A x = b for symmetric positive definite A via Cholesky.

    Returns (x, condition estimate). Raises SingularDesignError naming the
    failing pivot; no pseudo-inverse fallback.
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
            stacklevel=3,
        )
    x, info = lapack.dpotrs(factor, b if b.ndim > 1 else b[:, None], lower=1)
    return x[:, 0], cond


def _center(y: np.ndarray, fit_intercept: bool) -> tuple[np.ndarray, float]:
    if fit_intercept:
        beta0 = float(y.mean())
        return y - beta0, beta0
    return y, 0.0


def fit_ols(X: np.ndarray, y: np.ndarray, fit_intercept: bool = True) -> ModelFit:
    """Normal-equation solution; intercept is the response mean."""
    yc, beta0 = _center(y, fit_intercept)
    n = X.shape[0]
    beta, cond = _spd_solve(X.T @ X, X.T @ yc)
    residuals = yc - X @ beta
    return ModelFit("ols", 0.0, beta0, beta, residuals, condition=cond)


def fit_ridge(
    X: np.ndarray, y: np.ndarray, lam: float, fit_intercept: bool = True
) -> ModelFit:
    """beta = (X'X + n*lambda*I)^-1 X'y, the n-scaled penalty as printed."""
    if lam < 0:
        raise SolverError("lambda must be >= 0")
    yc, beta0 = _center(y, fit_intercept)
    n, p = X.shape
    A = X.T @ X + n * lam * np.eye(p)
    beta, cond = _spd_solve(A, X.T @ yc)
    residuals = yc - X @ beta
    return ModelFit("ridge", lam, beta0, beta, residuals, condition=cond)


# --- coordinate-descent Lasso ---

def lasso_objective(design, yc: np.ndarray, beta: np.ndarray, lam: float) -> float:
    """(1/n)||yc - X beta||^2 + lam * ||beta||_1."""
    n = len(yc)
    r = yc - design_predict(design, beta)
    return float(r @ r / n + lam * np.abs(beta).sum())


def _cd_passes(A, indices, beta, r, diag, lam, tol, max_sweeps, trace=None):
    """Cyclic coordinate descent over the design columns ``indices``.

    Row t of ``A`` is the contiguous column ``indices[t]``. Each coordinate
    is soft-thresholded at lam/2 and the residual ``r`` updated in place, in
    the order given, until a pass moves no coordinate by ``tol`` or more or
    ``max_sweeps`` passes are done. With a ``trace`` list, the objective is
    appended after every coordinate that moves. Returns (passes, the last
    pass's max |delta beta|).
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
                if trace is not None:
                    trace.append(float(r @ r / n + lam * np.abs(beta).sum()))
        sweeps += 1
        if max_delta < tol:
            break
    return sweeps, max_delta


def _full_sweep(design, beta, r, diag, lam, trace) -> float:
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
        _, delta = _cd_passes(block_t[candidates], indices, beta, r, diag, lam, 0.0, 1, trace)
        max_delta = max(max_delta, delta)
    return max_delta


def _kkt_violations(design, r, beta, half_lam) -> tuple[float, float]:
    zero_v = 0.0
    active_v = 0.0
    for j0, _, corr in _corr_chunks(design, r):
        b = beta[j0 : j0 + corr.size]
        zero_mask = b == 0
        if zero_mask.any():
            zero_v = max(zero_v, float(np.abs(corr[zero_mask]).max() - half_lam))
        if (~zero_mask).any():
            gap = np.abs(corr[~zero_mask] - half_lam * np.sign(b[~zero_mask]))
            active_v = max(active_v, float(gap.max()))
    return max(zero_v, 0.0), active_v


def fit_lasso(
    design,
    y: np.ndarray,
    config: LassoConfig,
    beta_init: np.ndarray | None = None,
    diag: np.ndarray | None = None,
    track_objective: bool = False,
) -> ModelFit:
    """Coordinate descent (shooting) for the L1-penalized criterion.

    Columns are streamed from the design in chunks, never materialized in
    full. Coordinate order is fixed ascending within a sweep. The fit carries
    a KKT optimality certificate; non-convergence at max_sweeps returns the
    fit with converged=False.
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
    trace = [] if track_objective else None
    if trace is not None:
        trace.append(float(r @ r / len(r) + config.lam * np.abs(beta).sum()))

    sweeps = 0
    converged = False
    while sweeps < config.max_sweeps:
        delta = _full_sweep(design, beta, r, diag, config.lam, trace)
        sweeps += 1
        if delta < config.tol:
            converged = True
            break
        if config.strategy == "active-set":
            indices = np.flatnonzero(beta).tolist()
            if indices:
                columns = [np.ascontiguousarray(design_column(design, j)) for j in indices]
                passes, _ = _cd_passes(
                    np.stack(columns), indices, beta, r, diag, config.lam,
                    config.tol, config.max_sweeps - sweeps, trace,
                )
                sweeps += passes

    zero_v, active_v = _kkt_violations(design, r, beta, config.lam / 2.0)
    return ModelFit(
        method="lasso",
        lam=config.lam,
        beta0=beta0,
        beta=beta,
        residuals=r,
        sweeps_used=sweeps,
        converged=converged,
        kkt_zero_violation=zero_v,
        kkt_active_violation=active_v,
        objective_trace=[] if trace is None else trace,
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


def kkt_satisfied(fit: ModelFit, tol: float) -> bool:
    return (
        fit.kkt_zero_violation is not None
        and fit.kkt_zero_violation <= tol
        and fit.kkt_active_violation <= tol
    )
