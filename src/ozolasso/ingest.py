"""Hourly pollutant/meteorology file parsing and per-day assembly.

Input files are comma-separated with a header row naming ``date``, ``hour``
and the variables, one row per station-hour, in local standard time,
hour-beginning. Blank cells are missing, and values that are not finite
numbers or are out of range become missing; incompleteness is carried as
data, not raised as an error.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from datetime import date as Date
from itertools import compress, islice
from operator import itemgetter, not_
from pathlib import Path

import numpy as np

from .atomic import write_lines

POLLUTANTS = ("o3", "so2", "no", "no2", "nox", "co", "pm25")
METEO_VARS = (
    "temperature",
    "dew_point",
    "rel_humidity",
    "wind_direction",
    "wind_speed",
    "visibility",
    "pressure",
)
ALL_VARS = POLLUTANTS + METEO_VARS

CANONICAL_COLUMNS = ("date", "hour") + ALL_VARS


class IngestError(Exception):
    """Malformed input that cannot be carried forward as missing data."""


class DuplicateTimestampError(IngestError):
    # args are (day, hour), so pickling calls __init__ with them again
    def __init__(self, day: Date, hour: int):
        super().__init__(day, hour)
        self.day = day
        self.hour = hour

    def __str__(self) -> str:
        return f"duplicate record for {self.day.isoformat()} hour {self.hour:02d}"


@dataclass
class HourlyTable:
    """Hourly values in columns: ``keys`` are sorted, unique int64
    ``ordinal * 24 + hour`` stamps; ``values`` holds one float64 array per
    variable, aligned with ``keys``, nan where the value is missing."""

    keys: np.ndarray
    values: dict[str, np.ndarray]

    def __post_init__(self):
        if np.any(np.diff(self.keys) <= 0):
            raise IngestError("hourly keys must be sorted and unique")

    def __len__(self) -> int:
        return len(self.keys)


@dataclass
class ParseResult:
    records: HourlyTable  # len() is the number of rows parsed
    rejected: list[tuple[int, str]]  # (line number, reason)
    coerced_missing: int  # non-blank cells turned missing (unparseable/range)
    split: str  # the path the parse took, as parse_hourly_file names it


@dataclass
class DayGrid:
    """Assembled days: ascending ``ordinals``; per variable an
    (n_days, 24) float64 grid, nan where a value is still missing after gap
    fill, and an int64 count of the cells filled on each day. A variable is
    complete on a day when its grid row holds no nan."""

    ordinals: np.ndarray
    values: dict[str, np.ndarray]
    fill_count: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.ordinals)


# A column that float refuses somewhere is read in chunks of this many
# non-blank cells; only a chunk holding a refused token goes token by token.
_TOKEN_CHUNK = 64


def _parsed_tokens(tokens, parse) -> dict:
    """parse() of each distinct token; None where it raises ValueError."""
    parsed = {}
    for token in set(tokens):
        try:
            parsed[token] = parse(token)
        except ValueError:
            parsed[token] = None
    return parsed


def _parse_distinct(tokens, parse) -> list:
    """parse() applied once per distinct token; None where it raises ValueError."""
    return list(map(_parsed_tokens(tokens, parse).__getitem__, tokens))


def _parse_column(tokens, var: str) -> tuple[np.ndarray, int]:
    """One column of str cells as float64, nan where missing, and the count
    of non-blank cells coerced to missing, by ``_apply_rules``. Blank cells
    read as nan; a chunk of the others holding a token ``float`` rejects is
    parsed once per distinct token."""
    blank = np.zeros(len(tokens), dtype=bool)
    try:
        values = np.fromiter(map(float, tokens), dtype=float, count=len(tokens))
    except ValueError:  # a blank cell, or a token float rejects
        blank = np.fromiter(map(not_, map(str.strip, tokens)), dtype=bool, count=len(tokens))
        cells = list(compress(tokens, (~blank).tolist()))
        parsed = np.empty(len(cells))
        for s in range(0, len(cells), _TOKEN_CHUNK):
            chunk = cells[s : s + _TOKEN_CHUNK]
            try:
                parsed[s : s + len(chunk)] = np.fromiter(map(float, chunk), dtype=float, count=len(chunk))
            except ValueError:
                parsed[s : s + len(chunk)] = [np.nan if c is None else c for c in _parse_distinct(chunk, float)]
        values = np.full(len(tokens), np.nan)
        values[~blank] = parsed
    return _apply_rules(values, blank, var)


def _apply_rules(values: np.ndarray, blank: np.ndarray, var: str) -> tuple[np.ndarray, int]:
    """``values`` with each non-blank cell that is not a finite number, or is
    a humidity outside [0, 100], set to nan, and the count of those cells.
    Wind direction is taken mod 360."""
    coerced = ~np.isfinite(values)
    if var == "rel_humidity":
        coerced |= ~((0.0 <= values) & (values <= 100.0))
    coerced &= ~blank
    values[coerced] = np.nan
    if var == "wind_direction":
        values = np.remainder(values, 360.0)
    return values, int(coerced.sum())


def _tokenize(path: Path, positions: list[int], floats: bool) -> list:
    """The columns at ``positions`` past the header line, split in one pass
    by numpy's C tokenizer: date and hour cells as str, the variables' cells
    as float64 if ``floats``, else as str. Raises ValueError on a short row
    and, with ``floats``, on a cell it cannot convert; skips blank lines.
    numpy reads the file in chunks with ``path.open()``'s encoding: an
    ``io.StringIO`` of the text would hold four bytes a character."""
    dtype = np.dtype([(f"c{i}", float if floats and i >= 2 else object) for i in range(len(positions))])
    with warnings.catch_warnings():  # a file with no data rows is not an error here
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        rows = np.loadtxt(path, dtype=dtype, delimiter=",",
                          comments=None, skiprows=1, usecols=positions, ndmin=1)
    return [rows[name] if dtype[name] == float else rows[name].tolist() for name in dtype.names]


def _stamp_rows(dates, hours, rows) -> tuple[np.ndarray, np.ndarray, list[tuple[int, str]]]:
    """The indices of the rows with a valid timestamp, their int64
    ``ordinal * 24 + hour`` stamps, and the (line number, reason) of each
    row rejected. A row whose cells are all blank is skipped, not rejected;
    with ``rows`` None (the tokenizer has already skipped blank lines) none
    is."""
    day_of = _parsed_tokens(dates, lambda t: Date.fromisoformat(t.strip()).toordinal())
    hour_of = _parsed_tokens(hours, lambda t: int(t.strip()))
    # per row: the day ordinal, or -1 if unparseable; the hour, -1 if
    # unparseable, or 24 if outside [0, 23]
    code = {t: -1 if d is None else d for t, d in day_of.items()}
    day = np.fromiter(map(code.__getitem__, dates), dtype=np.int64, count=len(dates))
    code = {t: -1 if h is None else h if 0 <= h <= 23 else 24 for t, h in hour_of.items()}
    hour = np.fromiter(map(code.__getitem__, hours), dtype=np.int64, count=len(hours))
    unparseable = (day < 0) | (hour < 0)
    rejected: list[tuple[int, str]] = []
    for i in np.flatnonzero(unparseable | (hour > 23)).tolist():
        if not unparseable[i]:
            rejected.append((i + 2, f"hour {hour_of[hours[i]]} outside [0,23]"))
        elif rows is None or any(cell.strip() for cell in rows[i]):
            rejected.append((i + 2, "unparseable timestamp"))
    kept = np.flatnonzero(~unparseable & (hour <= 23))
    return kept, day[kept] * 24 + hour[kept], rejected


def parse_hourly_file(path: str | Path, variables) -> ParseResult:
    """Parse the ``variables`` of one hourly file into an hourly table.

    Rows with unparseable timestamps are rejected (line-numbered); duplicate
    (date, hour) pairs are a hard error; unparseable numeric cells become
    missing values.

    When the file holds no quote, numpy's C tokenizer splits it: with the
    variables as float64, or, when it refuses a cell there (a blank cell,
    or a token where it and ``float`` differ), with every cell as str. A
    file with a quote, a short row or a rejected row (the tokenizer skips
    blank lines, which would shift its line number) goes whole through
    ``csv.reader``. The rules after the split are the same for every path.
    The result's ``split`` names the path: "numpy tokenizer", "numpy
    tokenizer, numbers as str" or "csv parse, for <why>".
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IngestError(f"{path}: empty file, header row required")
        header = [h.strip() for h in header]
        needed = ["date", "hour", *variables]
        for name in needed:
            if name not in header:
                raise IngestError(f"{path}: malformed header, missing column {name!r}")
            if header.count(name) > 1:
                raise IngestError(f"{path}: malformed header, column {name!r} repeated")
        # A header over more than one line is quoted. The rest is decoded in
        # the 8 KiB chunks the csv parse reads, so a bad byte raises the same
        # error.
        quoted = reader.line_num > 1 or any('"' in chunk for chunk in iter(lambda: fh.read(8192), ""))
    positions = [header.index(name) for name in needed]

    floats, split = False, None
    if quoted:
        why = "a quote byte"
    else:
        try:
            columns, floats, split = _tokenize(path, positions, True), True, "numpy tokenizer"
        except ValueError:  # a blank or refused cell, or a short row: split again as str
            try:
                columns, split = _tokenize(path, positions, False), "numpy tokenizer, numbers as str"
            except ValueError:
                why = "a short row"
    if split is not None:
        kept, keys, rejected = _stamp_rows(columns[0], columns[1], None)
        if rejected:
            floats, split, why = False, None, "a rejected row"
    if split is None:
        split = f"csv parse, for {why}"
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        # Cells past the end of a short row read as empty.
        width = max(positions) + 1
        rows = [row if len(row) >= width else row + [""] * (width - len(row)) for row in rows]
        columns = list(zip(*map(itemgetter(*positions), rows))) or [()] * len(positions)
        kept, keys, rejected = _stamp_rows(columns[0], columns[1], rows)

    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    if repeats.size:  # the first row, in file order, whose stamp came before
        day, hour = divmod(int(keys[repeats.min()]), 24)
        raise DuplicateTimestampError(Date.fromordinal(day), hour)

    values: dict[str, np.ndarray] = {}
    coerced = 0
    for var, cells in zip(variables, columns[2:]):
        if floats:
            column, n = _apply_rules(cells, np.zeros(len(cells), dtype=bool), var)
        else:
            if len(kept) < len(cells):
                cells = [cells[i] for i in kept.tolist()]
            column, n = _parse_column(cells, var)
        values[var] = column[order]
        coerced += n
    return ParseResult(HourlyTable(keys[order], values), rejected, coerced, split)


def _fill_gaps(grid: np.ndarray, max_gap_hours: int) -> tuple[np.ndarray, np.ndarray]:
    """Linearly interpolate interior nan runs of length <= max_gap_hours
    along each row; returns the filled grid and the cells filled per row."""
    valid = ~np.isnan(grid)
    hours = np.arange(grid.shape[1])
    # nearest valid hour at or before / at or after each slot; -1 and 24 when none
    left = np.maximum.accumulate(np.where(valid, hours, -1), axis=1)
    right = hours[-1] - np.maximum.accumulate(np.where(valid[:, ::-1], hours, -1), axis=1)[:, ::-1]
    fill = ~valid & (left >= 0) & (right < grid.shape[1]) & (right - left - 1 <= max_gap_hours)
    rows, k = np.nonzero(fill)
    left, right = left[rows, k], right[rows, k]
    lo, hi = grid[rows, left], grid[rows, right]
    frac = (k - left) / (right - left)
    out = grid.copy()
    out[rows, k] = lo + frac * (hi - lo)
    return out, fill.sum(axis=1)


def assemble_days(*tables: HourlyTable, max_gap_hours: int = 3, variables=ALL_VARS) -> DayGrid:
    """Place the hourly tables' values (e.g. the pollutant and meteorology
    files) into one day grid and apply the gap-fill policy.

    A later table's present value wins; a missing one never erases an
    earlier value. Interior gaps of <= max_gap_hours consecutive missing
    hours are filled by linear interpolation between their neighbors within
    the day; anything longer, and boundary gaps, leave the variable
    incomplete for that day.
    """
    ordinals = np.unique(np.concatenate([t.keys // 24 for t in tables]))
    cells = [np.searchsorted(ordinals, t.keys // 24) * 24 + t.keys % 24 for t in tables]
    values: dict[str, np.ndarray] = {}
    fills: dict[str, np.ndarray] = {}
    for var in variables:
        grid = np.full(len(ordinals) * 24, np.nan)
        for table, cell in zip(tables, cells):
            if var in table.values:
                present = ~np.isnan(table.values[var])
                grid[cell[present]] = table.values[var][present]
        values[var], fills[var] = _fill_gaps(grid.reshape(-1, 24), max_gap_hours)
    return DayGrid(ordinals, values, fills)


def write_canonical(days: DayGrid, path: str | Path) -> None:
    """Emit the normalized hourly file with fixed column order."""
    keys = (days.ordinals[:, None] * 24 + np.arange(24)).ravel().tolist()
    columns = [days.values[v].ravel().tolist() for v in ALL_VARS]

    def lines(lo, hi):
        # joined as csv.writer writes them: no date, hour, repr float or blank cell needs quoting
        for key, *cells in islice(zip(keys, *columns), lo, hi):
            day, hour = divmod(key, 24)
            yield (f"{Date.fromordinal(day).isoformat()},{hour},"
                   + ",".join(["" if math.isnan(cell) else repr(cell) for cell in cells]) + "\r\n")

    write_lines(path, ",".join(CANONICAL_COLUMNS) + "\r\n", lines, len(keys))
