"""Per-day reference for ``ozolasso.features.build_base_features``: the loop
over day blocks that the grid implementation replaced, kept as the oracle
that ``test_features_properties.py`` compares against bitwise."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import date as Date, timedelta

import numpy as np

from ozolasso.features import (
    CURRENT_DAY_VARS,
    METEO_CHANNELS,
    N_8H_WINDOWS,
    NEXT_DAY_VARS,
    FeatureError,
)
from ozolasso.ingest import METEO_VARS, POLLUTANTS

logger = logging.getLogger(__name__)


@dataclass
class DayBlock:
    """One calendar day: 24 hourly slots per variable, nan where missing."""

    date: Date
    values: dict[str, np.ndarray]  # each shape (24,), float64 with nan
    complete: dict[str, bool]
    fill_count: dict[str, int]


@dataclass
class DailyFeatureRow:
    date: Date
    x: np.ndarray
    target_raw: float
    current_anchor: float


def day_blocks(days) -> list[DayBlock]:
    """A day grid cut into per-day blocks."""
    return [
        DayBlock(
            date=Date.fromordinal(int(ordinal)),
            values={var: grid[i] for var, grid in days.values.items()},
            complete={var: not np.isnan(grid[i]).any() for var, grid in days.values.items()},
            fill_count={var: int(count[i]) for var, count in days.fill_count.items()},
        )
        for i, ordinal in enumerate(days.ordinals.tolist())
    ]


def _agg(values: np.ndarray) -> tuple[float, float, float]:
    return float(values.max()), float(values.min()), float(values.mean())


def channel_series(day: DayBlock, channel: str) -> np.ndarray:
    """24-hour series for a meteorological channel, deriving cos/sin."""
    if channel == "wind_dir_deg":
        return day.values["wind_direction"]
    if channel == "wind_dir_cos":
        return np.cos(np.radians(day.values["wind_direction"]))
    if channel == "wind_dir_sin":
        return np.sin(np.radians(day.values["wind_direction"]))
    return day.values[channel]


def compute_8h_means(o3_hours: np.ndarray) -> tuple[np.ndarray, float, float, float]:
    """17 eight-hour window means (start hours 0..16) and their max/min/mean."""
    o3_hours = np.asarray(o3_hours, dtype=float)
    if o3_hours.shape != (24,):
        raise FeatureError("compute_8h_means expects exactly 24 hourly values")
    if np.isnan(o3_hours).any():
        raise FeatureError("missing hour inside an 8-hour window")
    means = np.array([o3_hours[h : h + 8].mean() for h in range(N_8H_WINDOWS)])
    return means, float(means.max()), float(means.min()), float(means.mean())


def _day_target(day: DayBlock, variant: str) -> float:
    o3 = day.values["o3"]
    if variant == "max":
        return float(o3.max())
    _, wmax, _, _ = compute_8h_means(o3)
    return wmax


def _feature_vector(current: DayBlock, nxt_meteo: DayBlock, variant: str) -> np.ndarray:
    parts: list[np.ndarray] = []
    for pol in POLLUTANTS:
        parts.append(current.values[pol])
    for pol in POLLUTANTS:
        parts.append(np.array(_agg(current.values[pol])))
    for ch in METEO_CHANNELS:
        cur = channel_series(current, ch)
        nxt = channel_series(nxt_meteo, ch)
        cur27 = np.concatenate([cur, _agg(cur)])
        nxt27 = np.concatenate([nxt, _agg(nxt)])
        parts.extend([cur27, nxt27, nxt27 - cur27])
    if variant == "max8h":
        means, wmax, wmin, wmean = compute_8h_means(current.values["o3"])
        parts.append(means)
        parts.append(np.array([wmax, wmin, wmean]))
    return np.concatenate(parts)


def build_base_features(
    days: list[DayBlock],
    variant: str = "max",
    forecast_days: list[DayBlock] | None = None,
) -> list[DailyFeatureRow]:
    """Build one row per modeling day from consecutive complete day pairs."""
    by_date = {d.date: d for d in days}
    forecast_by_date = {d.date: d for d in (forecast_days or [])}

    rows: list[DailyFeatureRow] = []
    for date in sorted(by_date):
        nxt_date = date + timedelta(days=1)
        current = by_date[date]
        nxt = by_date.get(nxt_date)
        if nxt is None:
            logger.info("skipping %s: no successor day", date)
            continue
        nxt_meteo = forecast_by_date.get(nxt_date, nxt)
        if not all(current.complete[v] for v in CURRENT_DAY_VARS):
            logger.info("skipping %s: incomplete current day", date)
            continue
        if not all(nxt.complete[v] for v in NEXT_DAY_VARS) or not all(
            nxt_meteo.complete[v] for v in METEO_VARS
        ):
            logger.info("skipping %s: incomplete next day", date)
            continue
        x = _feature_vector(current, nxt_meteo, variant)
        rows.append(
            DailyFeatureRow(
                date=date,
                x=x,
                target_raw=_day_target(nxt, variant),
                current_anchor=_day_target(current, variant),
            )
        )
    return rows
