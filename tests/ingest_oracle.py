"""Row-wise reference for ``ozolasso.ingest``: the per-record parse, merge,
per-day gap fill and day assembly the columnar implementation replaced,
kept as the oracle that ``test_ingest_properties.py`` compares against
bitwise."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import date as Date
from pathlib import Path

import numpy as np

from ozolasso.ingest import ALL_VARS, DuplicateTimestampError, IngestError

SENTINELS = ("",)  # blank cells are the one missing marker
DELIMITER = ","


@dataclass
class HourlyRecord:
    day: Date
    hour: int
    values: dict[str, float] = field(default_factory=dict)


@dataclass
class DayBlock:
    """One calendar day: 24 hourly slots per variable, nan where missing."""

    date: Date
    values: dict[str, np.ndarray]  # each shape (24,), float64 with nan
    complete: dict[str, bool]
    fill_count: dict[str, int]


@dataclass
class RowParseResult:
    records: list[HourlyRecord]
    rejected: list[tuple[int, str]]
    coerced_missing: int = 0


def _parse_cell(token: str, var: str, sentinels: tuple[str, ...]) -> float | None:
    token = token.strip()
    if token in sentinels:
        return None
    try:
        value = float(token)
    except ValueError:
        return None
    if not math.isfinite(value):
        return None
    if var == "rel_humidity" and not (0.0 <= value <= 100.0):
        return None
    if var == "wind_direction":
        value = value % 360.0
    return value


def parse_hourly_file(path: str | Path, variables) -> RowParseResult:
    """Parse the ``variables`` of one hourly file into records.

    Rows with unparseable timestamps are rejected (line-numbered); duplicate
    (date, hour) pairs are a hard error; unparseable numeric cells become
    missing values.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)

    records: list[HourlyRecord] = []
    rejected: list[tuple[int, str]] = []
    coerced = 0
    seen: set[tuple[Date, int]] = set()

    with path.open(newline="") as fh:
        reader = csv.reader(fh, delimiter=DELIMITER)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file, header row required")
        header = [h.strip() for h in header]
        positions: dict[str, int] = {}
        needed = ["date", "hour", *variables]
        for name in needed:
            if name not in header:
                raise IngestError(f"{path}: malformed header, missing column {name!r}")
            positions[name] = header.index(name)

        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                day = Date.fromisoformat(row[positions["date"]].strip())
                hour = int(row[positions["hour"]].strip())
            except (ValueError, IndexError):
                rejected.append((lineno, "unparseable timestamp"))
                continue
            if not 0 <= hour <= 23:
                rejected.append((lineno, f"hour {hour} outside [0,23]"))
                continue
            if (day, hour) in seen:
                raise DuplicateTimestampError(day, hour)
            seen.add((day, hour))

            values: dict[str, float] = {}
            for var in variables:
                pos = positions[var]
                token = row[pos] if pos < len(row) else ""
                parsed = _parse_cell(token, var, SENTINELS)
                if parsed is None:
                    if token.strip() not in SENTINELS:
                        coerced += 1
                else:
                    values[var] = parsed
            records.append(HourlyRecord(day=day, hour=hour, values=values))

    records.sort(key=lambda r: (r.day, r.hour))
    return RowParseResult(records=records, rejected=rejected, coerced_missing=coerced)


def merge_records(*groups: list[HourlyRecord]) -> list[HourlyRecord]:
    """Merge record lists (e.g. pollutant + meteorology files) on timestamps."""
    merged: dict[tuple[Date, int], HourlyRecord] = {}
    for group in groups:
        for rec in group:
            key = (rec.day, rec.hour)
            if key in merged:
                merged[key].values.update(rec.values)
            else:
                merged[key] = HourlyRecord(rec.day, rec.hour, dict(rec.values))
    return [merged[k] for k in sorted(merged)]


def _fill_gaps(series: np.ndarray, max_gap_hours: int) -> tuple[np.ndarray, int]:
    """Linearly interpolate interior nan runs of length <= max_gap_hours."""
    out = series.copy()
    filled = 0
    n = len(series)
    h = 0
    while h < n:
        if not np.isnan(out[h]):
            h += 1
            continue
        start = h
        while h < n and np.isnan(out[h]):
            h += 1
        end = h  # run is [start, end)
        left = start - 1
        right = end
        interior = left >= 0 and right < n
        if interior and (end - start) <= max_gap_hours:
            lo, hi = out[left], out[right]
            for k in range(start, end):
                frac = (k - left) / (right - left)
                out[k] = lo + frac * (hi - lo)
            filled += end - start
    return out, filled


def assemble_days(
    records: list[HourlyRecord],
    max_gap_hours: int = 3,
    variables=ALL_VARS,
) -> list[DayBlock]:
    """Group records into day blocks and apply the gap-fill policy.

    Interior gaps of <= max_gap_hours consecutive missing hours are filled by
    linear interpolation between their neighbors within the day; anything
    longer, and boundary gaps, leave the variable incomplete for that day.
    """
    by_day: dict[Date, dict[str, np.ndarray]] = {}
    seen: set[tuple[Date, int]] = set()
    for rec in records:
        key = (rec.day, rec.hour)
        if key in seen:
            raise DuplicateTimestampError(rec.day, rec.hour)
        seen.add(key)
        day = by_day.setdefault(
            rec.day, {v: np.full(24, np.nan) for v in variables}
        )
        for var in variables:
            value = rec.values.get(var)
            if value is not None:
                day[var][rec.hour] = value

    blocks = []
    for date in sorted(by_day):
        values: dict[str, np.ndarray] = {}
        complete: dict[str, bool] = {}
        fills: dict[str, int] = {}
        for var in variables:
            series, filled = _fill_gaps(by_day[date][var], max_gap_hours)
            values[var] = series
            complete[var] = not np.isnan(series).any()
            fills[var] = filled
        blocks.append(DayBlock(date=date, values=values, complete=complete, fill_count=fills))
    return blocks
