"""Small builders shared by the test suite."""

from __future__ import annotations

from datetime import date as Date, timedelta

import numpy as np

from ozolasso.ingest import ALL_VARS, DayGrid
from ozolasso.solvers import DenseDesign, fit_ridge


def standardized_matrix(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    """Random design with population-standardized columns (mean 0, var 1)."""
    X = rng.normal(size=(n, p))
    X -= X.mean(axis=0)
    X /= X.std(axis=0)
    return X


def orthonormal_design(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    """Design with X'X / n exactly the identity (up to float rounding)."""
    q, _ = np.linalg.qr(rng.normal(size=(n, p)))
    return q * np.sqrt(n)


def make_days(dates: list[Date], values: list[dict] | None = None) -> DayGrid:
    """Day grid of the given dates, one dict of hourly series per day;
    unspecified variables get simple varying series."""
    values = values or [{} for _ in dates]
    hours = np.arange(24, dtype=float)
    grids = {
        var: np.array([day.get(var, hours + 10.0 * i) for day in values], dtype=float).reshape(-1, 24)
        for i, var in enumerate(ALL_VARS)
    }
    ordinals = np.array([d.toordinal() for d in dates], dtype=np.int64)
    return DayGrid(ordinals, grids)


def make_day(date: Date, values: dict[str, np.ndarray] | None = None) -> DayGrid:
    """One-day grid; unspecified variables get simple varying series."""
    return make_days([date], [values or {}])


def make_day_pair(seed: int = 0) -> DayGrid:
    """Two consecutive complete days with non-degenerate random values."""
    rng = np.random.default_rng(seed)
    values = []
    for _ in range(2):
        day = {var: rng.uniform(1.0, 50.0, 24) for var in ALL_VARS}
        day["rel_humidity"] = rng.uniform(20.0, 90.0, 24)
        day["wind_direction"] = rng.uniform(0.0, 360.0, 24)
        values.append(day)
    return make_days([Date(2016, 7, 1) + timedelta(days=d) for d in range(2)], values)


def assert_ridge_solution(X: np.ndarray, y: np.ndarray, fit) -> None:
    """``fit`` (from solvers.ridge_path) solves (A + n*lam*I) beta = X'yc,
    A = X'X, as a backward-stable solver must.

    With M = A + n*lam*I, kappa its 2-norm condition and eps the double
    epsilon: the residual ||M beta - X'yc|| is at most
    8 p eps (||M|| ||beta|| + ||X'yc||), and beta agrees with fit_ridge's
    Cholesky solve to 16 p kappa eps relative (both solves are backward
    stable, so each is within about p kappa eps of the exact beta).
    """
    n, p = X.shape
    eps = np.finfo(float).eps
    yc = y - y.mean()
    M = X.T @ X + n * fit.lam * np.eye(p)
    b = X.T @ yc
    s = np.linalg.eigvalsh(M)
    norm_m, kappa = float(s[-1]), float(s[-1] / s[0])
    residual = float(np.linalg.norm(M @ fit.beta - b))
    assert residual <= 8 * p * eps * (norm_m * np.linalg.norm(fit.beta) + np.linalg.norm(b))
    cholesky = fit_ridge(DenseDesign(X), y, fit.lam).beta
    gap = float(np.linalg.norm(fit.beta - cholesky))
    assert gap <= 16 * p * kappa * eps * float(np.linalg.norm(cholesky))
