"""Small builders shared by the test suite."""

from __future__ import annotations

from datetime import date as Date, timedelta

import numpy as np

from ozolasso.ingest import ALL_VARS, DayBlock


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


def make_day(date: Date, values: dict[str, np.ndarray] | None = None) -> DayBlock:
    """Complete DayBlock; unspecified variables get simple varying series."""
    hours = np.arange(24, dtype=float)
    filled = {}
    for i, var in enumerate(ALL_VARS):
        filled[var] = hours + 10.0 * i
    if values:
        filled.update({k: np.asarray(v, dtype=float) for k, v in values.items()})
    return DayBlock(
        date=date,
        values=filled,
        complete={v: not np.isnan(filled[v]).any() for v in ALL_VARS},
        fill_count={v: 0 for v in ALL_VARS},
    )


def make_day_pair(seed: int = 0) -> list[DayBlock]:
    """Two consecutive complete days with non-degenerate random values."""
    rng = np.random.default_rng(seed)
    days = []
    for d in range(2):
        values = {var: rng.uniform(1.0, 50.0, 24) for var in ALL_VARS}
        values["rel_humidity"] = rng.uniform(20.0, 90.0, 24)
        values["wind_direction"] = rng.uniform(0.0, 360.0, 24)
        days.append(make_day(Date(2016, 7, 1) + timedelta(days=d), values))
    return days
