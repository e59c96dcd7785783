"""Daily feature construction: the 918-feature base schema, the 938-feature
8-hour variant, targets, and standardization.

Canonical ordering: (1) pollutant hourly, 7 pollutants x 24 hours; (2) pollutant
max/min/mean, 7x3; (3) nine meteorological channels (the seven observed
variables plus wind-direction cosine and sine), each contributing 27 current-day
values (24 hourly + max/min/mean), the same 27 for the next day, and 27
differences (next minus current, hour- and aggregate-aligned). The 8-hour
variant appends the 17 current-day 8-hour-mean O3 windows (start hours 0..16)
plus their max/min/mean.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import date as Date

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ingest import ALL_VARS, DayGrid, METEO_VARS, POLLUTANTS

logger = logging.getLogger(__name__)

AGGS = ("max", "min", "mean")
HOURS = tuple(f"hour {h:02d}" for h in range(24))

METEO_CHANNELS = (
    "temperature",
    "dew_point",
    "rel_humidity",
    "wind_dir_deg",
    "wind_dir_cos",
    "wind_dir_sin",
    "wind_speed",
    "visibility",
    "pressure",
)

N_POLLUTANT_FEATURES = len(POLLUTANTS) * 24 + len(POLLUTANTS) * 3  # 189
N_METEO_FEATURES = len(METEO_CHANNELS) * 27 * 3  # 729
N_BASE_MAX = N_POLLUTANT_FEATURES + N_METEO_FEATURES  # 918
N_8H_WINDOWS = 17
N_BASE_MAX8H = N_BASE_MAX + N_8H_WINDOWS + 3  # 938
N_BASE = {"max": N_BASE_MAX, "max8h": N_BASE_MAX8H}  # base features per variant

# variables a modeling day needs complete on the current and on the next day
CURRENT_DAY_VARS = POLLUTANTS + METEO_VARS
NEXT_DAY_VARS = METEO_VARS + ("o3",)

_EPOCH = Date(1970, 1, 1).toordinal()  # day 0 of datetime64[D]


class FeatureError(Exception):
    pass


@dataclass(frozen=True)
class FeatureDescriptor:
    index: int
    name: str
    category: str
    parents: tuple[int, int] | None = None  # expanded features only


@dataclass
class FeatureRows:
    """Modeling rows in date order: ``x`` is the (n, p0) raw feature matrix,
    ``target_raw`` the next day's statistic and ``current_anchor`` the same
    statistic on the current day. Indexing with a mask selects rows."""

    dates: np.ndarray  # datetime.date objects
    x: np.ndarray
    target_raw: np.ndarray
    current_anchor: np.ndarray

    def __len__(self) -> int:
        return len(self.dates)

    def __getitem__(self, mask) -> "FeatureRows":
        return FeatureRows(
            self.dates[mask], self.x[mask], self.target_raw[mask], self.current_anchor[mask]
        )


def channel_series(values: dict[str, np.ndarray], channel: str) -> np.ndarray:
    """Hourly values (..., 24) of a meteorological channel, deriving cos/sin."""
    if channel == "wind_dir_deg":
        return values["wind_direction"]
    if channel == "wind_dir_cos":
        return np.cos(np.radians(values["wind_direction"]))
    if channel == "wind_dir_sin":
        return np.sin(np.radians(values["wind_direction"]))
    return values[channel]


def compute_8h_means(o3_hours: np.ndarray):
    """17 eight-hour window means (start hours 0..16) and their max/min/mean,
    along the last axis of a (..., 24) array.

    Any window touching a missing hour makes the day incomplete (strict policy);
    callers screen completeness before reaching here.
    """
    o3_hours = np.asarray(o3_hours, dtype=float)
    if o3_hours.shape[-1:] != (24,):
        raise FeatureError("compute_8h_means expects exactly 24 hourly values")
    if np.isnan(o3_hours).any():
        raise FeatureError("missing hour inside an 8-hour window")
    means = sliding_window_view(o3_hours, 8, axis=-1).mean(axis=-1)
    return means, means.max(axis=-1), means.min(axis=-1), means.mean(axis=-1)


def build_schema(variant: str) -> list[FeatureDescriptor]:
    """Canonical base-feature descriptors for variant 'max' or 'max8h': the
    schema ``build_base_features`` declares for a grid of zero days."""
    empty = DayGrid(np.empty(0, dtype=np.int64), {v: np.empty((0, 24)) for v in ALL_VARS}, {})
    return build_base_features(empty, variant)[1]


def _aggs(grid: np.ndarray) -> np.ndarray:
    """(n, 3): max, min and mean of each row."""
    return np.column_stack([grid.max(axis=1), grid.min(axis=1), grid.mean(axis=1)])


def _complete(values: dict[str, np.ndarray], variables) -> np.ndarray:
    """Per day: no hour of any listed variable is missing."""
    return np.logical_and.reduce([~np.isnan(values[v]).any(axis=1) for v in variables])


def build_base_features(
    days: DayGrid,
    variant: str = "max",
    forecast_days: DayGrid | None = None,
) -> tuple[FeatureRows, list[FeatureDescriptor]]:
    """Build one row per modeling day from consecutive complete day pairs.

    Next-day meteorology comes from the observations themselves (perfect
    forecast proxy) unless ``forecast_days`` holds that date: then it comes
    from the forecast, which must be complete in the meteorology. The target
    always comes from the observed next day.
    """
    if variant not in N_BASE:
        raise FeatureError(f"unknown variant {variant!r}")
    ordinals, fc = days.ordinals, forecast_days
    # day i against day i + 1; the last day wraps round and has no successor
    has_next = np.roll(ordinals, -1) == ordinals + 1
    cur_ok = _complete(days.values, CURRENT_DAY_VARS)
    nxt_ok = np.roll(_complete(days.values, NEXT_DAY_VARS), -1)
    from_fc = np.zeros(len(ordinals), dtype=bool)
    if fc is not None and len(fc):
        at = np.minimum(np.searchsorted(fc.ordinals, ordinals + 1), len(fc) - 1)
        from_fc = fc.ordinals[at] == ordinals + 1
        nxt_ok &= ~from_fc | _complete(fc.values, METEO_VARS)[at]

    keep = has_next & cur_ok & nxt_ok
    for i in np.flatnonzero(~keep).tolist():
        reason = (
            "no successor day" if not has_next[i]
            else "incomplete current day" if not cur_ok[i]
            else "incomplete next day"
        )
        logger.info("skipping %s: %s", Date.fromordinal(int(ordinals[i])), reason)

    rows = np.flatnonzero(keep)
    now = {v: days.values[v][rows] for v in CURRENT_DAY_VARS}
    nxt_meteo = {v: days.values[v][rows + 1] for v in METEO_VARS}
    if from_fc.any():
        sel = from_fc[rows]
        for v in METEO_VARS:
            nxt_meteo[v][sel] = fc.values[v][at[rows][sel]]

    # add writes a block's columns and names them; a width mismatch fails to broadcast
    x = np.empty((len(rows), N_BASE[variant]))
    schema: list[FeatureDescriptor] = []

    def add(prefix: str, labels, category: str, values: np.ndarray) -> None:
        j = len(schema)
        schema.extend(FeatureDescriptor(j + i, f"{prefix} {label}", category)
                      for i, label in enumerate(labels))
        x[:, j : len(schema)] = values

    for pol in POLLUTANTS:
        add(f"current-day {pol}", HOURS, "pollutant-hourly", now[pol])
    for pol in POLLUTANTS:
        add(f"current-day {pol}", AGGS, "pollutant-aggregate", _aggs(now[pol]))
    for ch in METEO_CHANNELS:
        cur, nxt = channel_series(now, ch), channel_series(nxt_meteo, ch)
        cur_aggs, nxt_aggs = _aggs(cur), _aggs(nxt)
        add(f"current-day {ch}", HOURS, "meteo-hourly", cur)
        add(f"current-day {ch}", AGGS, "meteo-aggregate", cur_aggs)
        add(f"next-day {ch}", HOURS, "meteo-hourly", nxt)
        add(f"next-day {ch}", AGGS, "meteo-aggregate", nxt_aggs)
        add(f"diff {ch}", HOURS, "meteo-diff", nxt - cur)
        add(f"diff {ch}", AGGS, "meteo-diff", nxt_aggs - cur_aggs)
    o3_next = days.values["o3"][rows + 1]
    if variant == "max8h":
        means, wmax, wmin, wmean = compute_8h_means(now["o3"])
        add("current-day o3 8h-mean", [f"start {h:02d}" for h in range(N_8H_WINDOWS)],
            "eighth-hour-mean", means)
        add("current-day o3 8h-mean", AGGS, "eighth-hour-mean",
            np.column_stack([wmax, wmin, wmean]))
        target, anchor = compute_8h_means(o3_next)[1], wmax
    else:
        target, anchor = o3_next.max(axis=1), now["o3"].max(axis=1)
    dates = (ordinals[rows] - _EPOCH).astype("datetime64[D]").astype(object)
    return FeatureRows(dates, x, target, anchor), schema


@dataclass
class StandardizationParams:
    """Training-set moments (population convention, divisor n)."""

    mu: np.ndarray
    sigma: np.ndarray
    kept: np.ndarray  # indices of retained columns
    dropped: np.ndarray  # zero-variance columns, recorded
    y_mu: float
    y_sigma: float


def fit_standardizer(X: np.ndarray, y: np.ndarray) -> StandardizationParams:
    """Per-column mean/sd on training rows; zero-variance columns are dropped."""
    if X.shape[0] < 2:
        raise FeatureError("standardization needs at least 2 training rows")
    mu = X.mean(axis=0)
    sigma = X.std(axis=0)  # population (divisor n)
    kept = np.flatnonzero(sigma > 0)
    dropped = np.flatnonzero(sigma == 0)
    if kept.size == 0:
        raise FeatureError("all feature columns have zero variance")
    if dropped.size:
        logger.info("dropping %d zero-variance columns", dropped.size)
    y_sigma = float(y.std())
    if y_sigma == 0:
        raise FeatureError("target has zero variance on training rows")
    return StandardizationParams(
        mu=mu, sigma=sigma, kept=kept, dropped=dropped,
        y_mu=float(y.mean()), y_sigma=y_sigma,
    )


def apply_standardizer(
    params: StandardizationParams, X: np.ndarray, y: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Standardize rows with training params (never the rows' own moments)."""
    if X.shape[1] != params.mu.shape[0]:
        raise FeatureError(
            f"schema mismatch: {X.shape[1]} columns, expected {params.mu.shape[0]}"
        )
    Xs = (X[:, params.kept] - params.mu[params.kept]) / params.sigma[params.kept]
    ys = None if y is None else (y - params.y_mu) / params.y_sigma
    return Xs, ys
