"""Property test: the columnar ingest matches the row-wise reference
(``ingest_oracle.py``) bitwise on small generated files, through numpy's
tokenizer (numbers as float64 or as str) and through the csv parse alike."""

import csv
import random
from datetime import date as Date, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

import ingest_oracle as oracle
from ozolasso import ingest
from ozolasso.ingest import DuplicateTimestampError

VARIABLES = ("o3", "rel_humidity", "wind_direction", "temperature")
# Tokens float() accepts, blank cells, and other tokens float() rejects. A
# column holding only numbers and blank cells takes the column-at-once parse;
# a token that is neither sends the whole column through the parse of each
# distinct token.
NUMERIC_TOKENS = (
    "9999", " 9999 ", " 7 ", "1_0", "nan", "NaN", "inf", "-inf", "1e400",
    "-0", "0", "150", "-3", "100", "370", "-30", "360", "720.5", "-1e-20",
)
EMPTY_TOKENS = ("", "  ")
OTHER_TOKENS = ("oops", "1__0", "7 7")
# float() accepts "1_0"; numpy's tokenizer refuses it, so a clean file,
# which takes the tokenizer, holds none.
CLEAN_TOKENS = tuple(t for t in NUMERIC_TOKENS if t != "1_0")
# Station names in the column nobody reads; csv.writer quotes the last two.
STATIONS = ("S1", "S,1", 'S"1')
BAD_HOURS = ("-1", "24", "x", "", " 5 ", "1_2", "+3")
BAD_DATES = ("2016-13-01", "not-a-date", "", " 2016-02-28 ", "20160228", "2016-02-30")
FIRST_DAY = Date(2016, 2, 27)  # three days cross the leap day


@st.composite
def hourly_file(draw, max_gap_hours):
    """One generated hourly file: its variables, its CSV rows, and its kind.

    Hypothesis draws the variables, the column order, the kind and a seed;
    a ``random.Random`` with that seed fills the rows, which keeps an
    example cheap enough to run hundreds. A "clean" file (about a third of
    them) has no blank cells, no token either parser refuses, no bad
    timestamps, no ragged or blank rows and no quotes: numpy's tokenizer
    reads its variables as float64. A "cells" file may hold any cell
    token but none of the rest, so the tokenizer splits it too. An "any"
    file may hold all of them.
    """
    variables = draw(st.lists(st.sampled_from(VARIABLES), min_size=1, max_size=4, unique=True))
    n_days = draw(st.integers(1, 3))
    header = draw(st.permutations(["date", "hour", *variables, "station"]))
    kind = draw(st.sampled_from(("clean", "cells", "any")), label="kind")
    clean = kind == "clean"
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pools = (NUMERIC_TOKENS, NUMERIC_TOKENS + EMPTY_TOKENS,
             NUMERIC_TOKENS + EMPTY_TOKENS + OTHER_TOKENS)
    pool = {v: CLEAN_TOKENS if clean else rng.choice(pools) for v in variables}

    def cell(var):
        if rng.random() < 0.8:
            return repr(rng.uniform(-400.0, 800.0))
        return rng.choice(pool[var])

    rows = [
        {"date": (FIRST_DAY + timedelta(days=d)).isoformat(), "hour": str(h),
         **{v: cell(v) for v in variables}}
        for d in range(n_days) for h in range(24) if rng.random() < 0.9
    ]
    for var in variables:  # a run of missing cells, 0..max_gap_hours+1 long
        start = rng.randrange(len(rows) or 1)
        for row in rows[start:start + rng.randint(0, max_gap_hours + 1)]:
            row[var] = "nan" if pool[var] in (NUMERIC_TOKENS, CLEAN_TOKENS) else ""
    for _ in range(0 if kind != "any" else rng.randint(0, 3)):  # bad timestamps
        row = {"date": FIRST_DAY.isoformat(), "hour": "0", **{v: "1" for v in variables}}
        if rng.random() < 0.5:
            row["hour"] = rng.choice(BAD_HOURS)
        else:
            row["date"] = rng.choice(BAD_DATES)
        rows.append(row)
    if rows and rng.random() < 0.2:  # a repeated (day, hour)
        rows.append({**rng.choice(rows), **{v: cell(v) for v in variables}})
    rng.shuffle(rows)

    station = "S1" if kind != "any" else rng.choice(STATIONS)
    lines = [header] + [[row.get(name, station) for name in header] for row in rows]
    if kind != "any":
        return variables, lines, kind
    if rng.random() < 0.3:  # ragged
        line = rng.choice(lines[1:] or [[]])
        del line[rng.randint(0, len(line)):]
    for _ in range(rng.randint(0, 2)):  # blank
        lines.insert(rng.randint(1, len(lines)), rng.choice([[], [""] * len(header), [" ", ""]]))
    return variables, lines, kind


def write_file(path, lines):
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(lines)


def parse_both(path, variables):
    """(columnar result, row-wise result), or the two duplicate errors."""
    results = []
    for module in (ingest, oracle):
        try:
            results.append(module.parse_hourly_file(path, variables))
        except DuplicateTimestampError as exc:
            results.append(exc)
    return results


def path_taken(parsed: ingest.ParseResult) -> str:
    """The split a parse names: "numpy" (the variables as float64), "numpy
    str" (every cell as str) or "csv"."""
    return {"numpy tokenizer": "numpy",
            "numpy tokenizer, numbers as str": "numpy str"}.get(parsed.split, "csv")


def assert_same_days(got, want):
    """A day grid equals the oracle's day blocks bitwise, day by day, and
    its filled-cell total is the sum of their fill counts."""
    got, filled = got
    assert got.ordinals.dtype == np.int64
    assert [Date.fromordinal(o) for o in got.ordinals.tolist()] == [b.date for b in want]
    for i, b in enumerate(want):
        assert got.values.keys() == b.values.keys()
        for var in b.values:
            row = got.values[var][i]
            assert row.tobytes() == b.values[var].tobytes(), (b.date, var)
            assert (not np.isnan(row).any()) is b.complete[var]
    for var in got.values:
        assert got.values[var].shape == (len(want), 24)
    assert type(filled) is int
    assert filled == sum(sum(b.fill_count.values()) for b in want)


def assert_same_parse(got, want, variables, max_gap_hours):
    """A parse equals the oracle's: rejected rows, coerced cells, keys, and
    the assembled days bitwise."""
    assert got.rejected == want.rejected
    assert got.coerced_missing == want.coerced_missing
    assert len(got.records) == len(want.records)
    assert got.records.keys.tolist() == [
        r.day.toordinal() * 24 + r.hour for r in want.records
    ]
    assert_same_days(
        ingest.assemble_days(got.records, max_gap_hours=max_gap_hours, variables=variables),
        oracle.assemble_days(want.records, max_gap_hours, variables),
    )


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), max_gap_hours=st.integers(0, 3))
def test_columnar_ingest_matches_row_wise(tmp_path, data, max_gap_hours):
    parsed = []
    for name in ("first.csv", "second.csv"):
        variables, lines, kind = data.draw(hourly_file(max_gap_hours), label=name)
        write_file(tmp_path / name, lines)
        got, want = parse_both(tmp_path / name, variables)
        if isinstance(want, DuplicateTimestampError):  # no result names a split
            event(f"{kind} file: duplicate")
            assert isinstance(got, DuplicateTimestampError)
            assert (got.day, got.hour) == (want.day, want.hour)
            return
        taken = path_taken(got)
        event(f"{kind} file: {taken}")
        if kind == "clean":
            assert taken == "numpy"
        elif kind == "cells":
            assert taken.startswith("numpy")
        assert_same_parse(got, want, variables, max_gap_hours)
        parsed.append((variables, got, want))

    (vars_a, got_a, want_a), (vars_b, got_b, want_b) = parsed
    # a variable in both files is where a later present value must win
    event(f"files share a variable: {bool(set(vars_a) & set(vars_b))}")
    assert_same_days(
        ingest.assemble_days(got_a.records, got_b.records, max_gap_hours=max_gap_hours),
        oracle.assemble_days(oracle.merge_records(want_a.records, want_b.records), max_gap_hours),
    )


@pytest.mark.parametrize("token", ["-0", "-0.0", "-1e-20", "-360", "719.9999999999999", "1e300"])
def test_wind_direction_wrap_matches_float_modulo(tmp_path, token):
    path = tmp_path / "wind.csv"
    write_file(path, [["date", "hour", "wind_direction"], ["2016-07-01", "0", token]])
    got, want = parse_both(path, ("wind_direction",))
    assert got.records.values["wind_direction"].tobytes() == np.array(
        [want.records[0].values["wind_direction"]]
    ).tobytes()


@settings(max_examples=800, deadline=None)
@given(
    data=st.data(),
    n_days=st.integers(0, 6),
    max_gap_hours=st.sampled_from((0, 1, 3, 5)),
    blank_share=st.floats(0.0, 0.5),
)
def test_whole_grid_gap_fill_matches_per_row(data, n_days, max_gap_hours, blank_share):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    grid = rng.uniform(-50.0, 50.0, size=(n_days, 24))
    grid[rng.random(grid.shape) < blank_share] = np.nan
    filled, count = ingest._fill_gaps(grid, max_gap_hours)
    rows = [oracle._fill_gaps(grid[i], max_gap_hours) for i in range(n_days)]
    for i, (row, _) in enumerate(rows):
        assert filled[i].tobytes() == row.tobytes()
    assert type(count) is int
    assert count == sum(n for _, n in rows)


CLEAN = b"date,hour,station,o3,wind_direction\n2016-07-01,0,S1,41.5,350\n2016-07-01,1,S1,-0,370\n"
HAZARDS = {  # file bytes, and the parse path they take
    "clean": (CLEAN, "numpy"),
    "quoted comma shifting the needed columns": (  # split at every comma, o3 would read 7
        b'date,hour,station,note,o3,wind_direction\n2016-07-01,0,"a,b",7,41.5,350\n', "csv"),
    "# in a cell nobody reads": (CLEAN.replace(b"S1", b"S#1"), "numpy"),
    "# in a needed cell": (CLEAN.replace(b"41.5", b"41#5"), "numpy str"),
    "blank line before a rejected row": (
        CLEAN + b"\n\n2016-07-0x,2,S1,1,2\n2016-07-01,2,S1,1,2\n", "csv"),
    "crlf line ends": (CLEAN.replace(b"\n", b"\r\n"), "numpy"),
    "lone cr line ends": (CLEAN.replace(b"\n", b"\r"), "numpy"),
    "1_0": (CLEAN.replace(b"41.5", b"1_0"), "numpy str"),
    "arabic-indic digits": (CLEAN.replace(b"41.5", "١٢".encode()), "numpy str"),
    "extra trailing cells": (CLEAN.replace(b"350\n", b"350,x,,y\n"), "numpy"),
    "short row": (CLEAN + b"2016-07-01,2,S1\n", "csv"),
    "blank cell": (CLEAN.replace(b"41.5", b""), "numpy str"),
    "whitespace-only cell": (CLEAN.replace(b"41.5", b"  "), "numpy str"),
    "unparseable cell": (CLEAN.replace(b"41.5", b"oops"), "numpy str"),
    "nul closing a number": (CLEAN.replace(b"41.5", b"41.5\x00"), "numpy str"),
    "whitespace-only line": (CLEAN + b"  \n", "csv"),
    "nul closing a date cell": (CLEAN.replace(b"01,1", b"01\x00,1"), "csv"),
}


@pytest.mark.parametrize("name", HAZARDS)
def test_each_file_takes_its_path_and_matches_row_wise(tmp_path, name):
    content, expected = HAZARDS[name]
    path = tmp_path / "hourly.csv"
    path.write_bytes(content)
    variables = ("o3", "wind_direction")
    got, want = parse_both(path, variables)
    assert path_taken(got) == expected
    assert_same_parse(got, want, variables, 3)


def test_a_non_utf8_byte_nobody_reads_raises_as_row_wise(tmp_path):
    path = tmp_path / "hourly.csv"
    path.write_bytes(CLEAN.replace(b"S1", b"S\xff"))
    errors = []
    for module in (ingest, oracle):
        with pytest.raises(UnicodeDecodeError) as exc:
            module.parse_hourly_file(path, ("o3",))
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
