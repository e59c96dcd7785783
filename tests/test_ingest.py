"""Hourly file parsing, day assembly, and the gap-fill policy."""

import warnings
from datetime import date as Date

import numpy as np
import pytest

from ozolasso import ingest
from ozolasso.ingest import (
    ALL_VARS,
    CANONICAL_COLUMNS,
    POLLUTANTS,
    DuplicateTimestampError,
    HourlyTable,
    IngestError,
    assemble_days,
    parse_hourly_file,
    write_canonical,
)

POL_HEADER = "date,hour,o3,so2,no,no2,nox,co,pm25"


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def record(table, i):
    """Row i of an hourly table: (day, hour, {variable: value} of present values)."""
    ordinal, hour = divmod(int(table.keys[i]), 24)
    values = {v: float(col[i]) for v, col in table.values.items() if not np.isnan(col[i])}
    return Date.fromordinal(ordinal), hour, values


def table(rows):
    """Hourly table from (day, hour, {variable: value}) rows in key order."""
    variables = dict.fromkeys(v for _, _, values in rows for v in values)
    return HourlyTable(
        np.array([day.toordinal() * 24 + hour for day, hour, _ in rows], dtype=np.int64),
        {v: np.array([values.get(v, np.nan) for _, _, values in rows]) for v in variables},
    )


def test_parse_full_row(tmp_path):
    path = write(tmp_path, POL_HEADER + "\n2016-07-01,14,48.0,2,3,4,7,0.2,8\n")
    result = parse_hourly_file(path, POLLUTANTS)
    assert len(result.records) == 1
    day, hour, values = record(result.records, 0)
    assert day == Date(2016, 7, 1)
    assert hour == 14
    assert values["o3"] == 48.0
    assert values["pm25"] == 8.0
    assert result.rejected == []


def test_unparseable_cell_coerced(tmp_path):
    path = write(tmp_path, POL_HEADER + "\n2016-07-01,14,oops,2,3,4,7,0.2,8\n")
    result = parse_hourly_file(path, POLLUTANTS)
    assert "o3" not in record(result.records, 0)[2]
    assert result.coerced_missing == 1


def test_only_unparseable_tokens_leave_the_column_parse(tmp_path, monkeypatch):
    rows = ["2016-07-01,0,1,2,3,4,7,0.2,8", "2016-07-01,1,,  ,3,9999,7,0.2,oops"]
    path = write(tmp_path, POL_HEADER + "\n" + "\n".join(rows) + "\n")
    per_token = []
    real = ingest._parse_distinct

    def counted(tokens, parse):
        if parse is float:
            per_token.append(list(tokens))
        return real(tokens, parse)

    monkeypatch.setattr(ingest, "_parse_distinct", counted)
    result = parse_hourly_file(path, POLLUTANTS)
    assert per_token == [["8", "oops"]]  # the pm25 column alone, token by token
    assert record(result.records, 1)[2] == {"no": 3.0, "no2": 9999.0, "nox": 7.0, "co": 0.2}
    assert result.coerced_missing == 1


def test_a_column_float_reads_whole_is_not_searched_for_blanks():
    """Cells are stripped to find blanks only after the one-pass float read
    of the column has failed: a clean column never strips a cell."""

    class Cell(str):
        def strip(self, chars=None):
            raise AssertionError(f"cell {str(self)!r} stripped")

    tokens = [Cell(t) for t in ("1.5", " 20 ", "nan", "120", "-0")]
    values, coerced = ingest._parse_column(tokens, "rel_humidity")
    np.testing.assert_array_equal(values, [1.5, 20.0, np.nan, np.nan, -0.0])
    assert coerced == 2  # nan is not a finite number, 120 is past 100


def test_duplicate_timestamp_is_hard_error(tmp_path):
    rows = "2016-07-01,14,1,2,3,4,7,0.2,8\n" * 2
    path = write(tmp_path, POL_HEADER + "\n" + rows)
    with pytest.raises(DuplicateTimestampError) as exc:
        parse_hourly_file(path, POLLUTANTS)
    assert "2016-07-01" in str(exc.value)
    assert "14" in str(exc.value)


def test_bad_timestamp_rejected_with_line_number(tmp_path):
    path = write(
        tmp_path,
        POL_HEADER + "\nnot-a-date,14,1,2,3,4,7,0.2,8\n2016-07-01,25,1,2,3,4,7,0.2,8\n",
    )
    result = parse_hourly_file(path, POLLUTANTS)
    assert len(result.records) == 0
    assert [line for line, _ in result.rejected] == [2, 3]


def test_records_length_counts_parsed_rows(tmp_path):
    path = write(
        tmp_path,
        POL_HEADER
        + "\n2016-07-01,3,1,2,3,4,7,0.2,8\n,,,,,,,,\n2016-07-01,x,1,2,3,4,7,0.2,8"
        + "\n2016-07-01,1,oops,2\n\n2016-07-02,0,1,2,3,4,7,0.2,8\n",
    )
    result = parse_hourly_file(path, POLLUTANTS)
    assert len(result.records) == 3  # blank rows skipped, line 4 rejected
    assert result.rejected == [(4, "unparseable timestamp")]
    assert [record(result.records, i)[:2] for i in range(3)] == [
        (Date(2016, 7, 1), 1), (Date(2016, 7, 1), 3), (Date(2016, 7, 2), 0),
    ]
    assert record(result.records, 0)[2] == {"so2": 2.0}  # short row: cells past it missing
    assert result.coerced_missing == 1  # "oops"; blank cells are missing, not coerced


@pytest.mark.parametrize("body", [
    "\n2016-07-01,0,1,2,3,4,7,0.2,8\n",  # clean: numpy's tokenizer
    "\n\n2016-07-01,0,1,2,3,4,7,0.2,8\n\n\n2016-07-01,1,1,2,3,4,7,0.2,8\n",  # blank lines
    "\n",  # header only
    "",  # header only, no line end
    "\n\n\n",  # header and blank lines
    "\n2016-07-01,0,,2,3,4,7,0.2,8\n",  # a blank cell: the tokenizer, numbers as str
    "\n2016-07-01,0,1,2,3,4,7,0.2,8\n2016-07-01,1\n",  # a short row: the csv parse
])
def test_parse_warns_about_nothing(tmp_path, body):
    path = write(tmp_path, POL_HEADER + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_hourly_file(path, POLLUTANTS)


def test_missing_header_column(tmp_path):
    path = write(tmp_path, "date,hour,o3\n2016-07-01,1,5\n")
    with pytest.raises(IngestError, match="malformed header"):
        parse_hourly_file(path, POLLUTANTS)


@pytest.mark.parametrize("row", [
    "2016-07-01,0,1,2,3,4,7,0.2,8,99",  # the numpy tokenizer, numbers as float
    "2016-07-01,0,1,2,3,4,7,0.2,,99",  # a blank cell: the tokenizer, numbers as str
    '2016-07-01,0,1,2,3,4,7,0.2,8,"99"',  # a quote: the csv parse
])
def test_repeated_header_column(tmp_path, row):
    """A needed column named twice is rejected, not read from its first copy."""
    path = write(tmp_path, POL_HEADER + ",o3\n" + row + "\n")
    with pytest.raises(IngestError, match="malformed header, column 'o3' repeated"):
        parse_hourly_file(path, POLLUTANTS)


def test_empty_file(tmp_path):
    path = write(tmp_path, "")
    with pytest.raises(IngestError, match="header row required"):
        parse_hourly_file(path, POLLUTANTS)


def test_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        parse_hourly_file(tmp_path / "nope.csv", POLLUTANTS)


def test_rel_humidity_range_and_wind_direction_wrap(tmp_path):
    header = "date,hour,rel_humidity,wind_direction"
    path = write(tmp_path, header + "\n2016-07-01,0,150,370\n")
    result = parse_hourly_file(path, ("rel_humidity", "wind_direction"))
    _, _, values = record(result.records, 0)
    assert "rel_humidity" not in values  # out of [0,100] -> missing
    assert values["wind_direction"] == pytest.approx(10.0)
    assert result.coerced_missing == 1


def records_for_day(o3, day=Date(2016, 7, 1)):
    return [(day, h, {} if np.isnan(o3[h]) else {"o3": float(o3[h])}) for h in range(24)]


def complete(days, var):
    """Per day: the variable has all 24 hours after gap fill."""
    return (~np.isnan(days.values[var]).any(axis=1)).tolist()


def test_assemble_complete_day_unchanged():
    o3 = np.arange(24, dtype=float)
    days, filled = assemble_days(table(records_for_day(o3)), variables=("o3",))
    assert len(days) == 1
    assert complete(days, "o3") == [True]
    np.testing.assert_array_equal(days.values["o3"][0], o3)
    assert filled == 0


def test_interior_gap_interpolated():
    o3 = np.full(24, 20.0)
    o3[9], o3[12] = 30.0, 36.0
    o3[10] = o3[11] = np.nan
    days, filled = assemble_days(table(records_for_day(o3)), max_gap_hours=3, variables=("o3",))
    assert complete(days, "o3") == [True]
    assert days.values["o3"][0, 10] == pytest.approx(32.0)
    assert days.values["o3"][0, 11] == pytest.approx(34.0)
    assert filled == 2


def test_boundary_gap_stays_incomplete():
    o3 = np.arange(24, dtype=float)
    o3[:6] = np.nan
    days, filled = assemble_days(table(records_for_day(o3)), max_gap_hours=3, variables=("o3",))
    assert complete(days, "o3") == [False]
    assert np.isnan(days.values["o3"][0, :6]).all()
    assert filled == 0


def test_gap_longer_than_policy_not_filled():
    o3 = np.arange(24, dtype=float)
    o3[10:14] = np.nan  # 4-hour run, policy allows 3
    days, filled = assemble_days(table(records_for_day(o3)), max_gap_hours=3, variables=("o3",))
    assert complete(days, "o3") == [False]
    assert filled == 0


def test_filled_values_lie_between_anchors():
    rng = np.random.default_rng(5)
    o3 = rng.uniform(10, 60, 24)
    o3[7:10] = np.nan
    days, _ = assemble_days(table(records_for_day(o3)), max_gap_hours=3, variables=("o3",))
    lo, hi = sorted((o3[6], o3[10]))
    filled = days.values["o3"][0, 7:10]
    assert np.all(filled >= lo) and np.all(filled <= hi)


def test_interpolation_idempotent():
    rng = np.random.default_rng(6)
    o3 = rng.uniform(10, 60, 24)
    o3[3:5] = np.nan
    o3[0] = np.nan  # boundary, stays missing
    once, _ = assemble_days(table(records_for_day(o3)), max_gap_hours=3, variables=("o3",))
    refilled = table(records_for_day(once.values["o3"][0]))
    twice, filled = assemble_days(refilled, max_gap_hours=3, variables=("o3",))
    np.testing.assert_array_equal(once.values["o3"][0], twice.values["o3"][0])
    assert filled == 0


def test_day_count_matches_distinct_dates():
    records = []
    for d in (1, 2, 5):
        records.extend(records_for_day(np.arange(24, dtype=float), Date(2016, 7, d)))
    days, _ = assemble_days(table(records), variables=("o3",))
    assert [Date.fromordinal(o) for o in days.ordinals.tolist()] == [
        Date(2016, 7, 1), Date(2016, 7, 2), Date(2016, 7, 5)
    ]


def test_assemble_joins_tables_on_timestamp():
    a = table([(Date(2016, 7, 1), 0, {"o3": 1.0})])
    b = table([
        (Date(2016, 7, 1), 0, {"temperature": 20.0}),
        (Date(2016, 7, 1), 1, {"temperature": 21.0}),
    ])
    days, _ = assemble_days(a, b, max_gap_hours=0, variables=("o3", "temperature"))
    assert len(days) == 1
    o3, temperature = days.values["o3"][0], days.values["temperature"][0]
    assert (o3[0], temperature[0]) == (1.0, 20.0)
    assert np.isnan(o3[1]) and temperature[1] == 21.0
    assert np.isnan(o3[2:]).all() and np.isnan(temperature[2:]).all()


def test_assemble_later_value_wins_and_missing_never_erases():
    a = table([(Date(2016, 7, 1), 0, {"o3": 1.0}), (Date(2016, 7, 1), 1, {"o3": 2.0})])
    b = table([(Date(2016, 7, 1), 0, {"o3": 5.0}), (Date(2016, 7, 1), 1, {"o3": np.nan})])
    days, _ = assemble_days(a, b, max_gap_hours=0, variables=("o3",))
    assert days.values["o3"][0, :2].tolist() == [5.0, 2.0]
    days, _ = assemble_days(b, a, max_gap_hours=0, variables=("o3",))
    assert days.values["o3"][0, :2].tolist() == [1.0, 2.0]


def test_table_keys_must_be_sorted_and_unique():
    with pytest.raises(IngestError, match="sorted and unique"):
        table([(Date(2016, 7, 1), 3, {}), (Date(2016, 7, 1), 3, {})])
    with pytest.raises(IngestError, match="sorted and unique"):
        table([(Date(2016, 7, 2), 0, {}), (Date(2016, 7, 1), 0, {})])


def test_write_canonical_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    records = []
    for h in range(24):
        values = {v: float(rng.uniform(1, 40)) for v in ALL_VARS}
        values["rel_humidity"] = float(rng.uniform(0, 100))
        values["wind_direction"] = float(rng.uniform(0, 360))
        records.append((Date(2016, 7, 1), h, values))
    days, _ = assemble_days(table(records))
    path = tmp_path / "canonical.csv"
    write_canonical(days, path)
    assert path.read_text().splitlines()[0] == ",".join(CANONICAL_COLUMNS)

    parsed = parse_hourly_file(path, ALL_VARS)
    days2, _ = assemble_days(parsed.records)
    for var in ALL_VARS:
        np.testing.assert_array_equal(days.values[var][0], days2.values[var][0])

    path2 = tmp_path / "canonical2.csv"
    write_canonical(days2, path2)
    assert path.read_bytes() == path2.read_bytes()
