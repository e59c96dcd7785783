"""The day-block cache (``pipeline.DAY_CACHE``): a command that finds the
cache of its inputs in the out dir loads the day grids from it and writes
the bytes a parse would have given; each thing the grids depend on is part
of the key; a damaged or foreign cache is a miss that gets rewritten; and an
input that cannot be read fails as it does with no cache."""

import hashlib
import logging
import shutil
from pathlib import Path

import numpy as np
import pytest

from ozolasso import pipeline
from ozolasso.cli import main
from ozolasso.config import RunConfig

CACHE = pipeline.DAY_CACHE
SPLIT = ("--set", "train_start=2015-01-01", "--set", "train_end=2015-02-17",
         "--set", "test_start=2015-02-18", "--set", "test_end=2015-03-01")


def blank(lines: list[str], rows, column: int) -> None:
    for row in rows:
        cells = lines[row].split(",")
        cells[column] = ""
        lines[row] = ",".join(cells)


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """60 synth days with blank cells: a 2-hour o3 gap that gets filled, a
    6-hour pm25 gap that leaves a day incomplete, scattered so2 and
    temperature cells; and a forecast file of the last 20 days'
    meteorology with one cell blank."""
    out = tmp_path_factory.mktemp("data")
    assert main(["synth", "--out-dir", str(out), "--n-days", "60", "--seed", "17"]) == 0
    pol = (out / "pollutants.csv").read_text().splitlines()
    blank(pol, (30, 31), 2)
    blank(pol, range(100, 106), 8)
    blank(pol, range(200, 1400, 97), 3)
    (out / "pollutants.csv").write_text("\n".join(pol) + "\n")
    met = (out / "meteorology.csv").read_text().splitlines()
    blank(met, range(50, 1400, 131), 2)
    (out / "meteorology.csv").write_text("\n".join(met) + "\n")
    forecast = [met[0], *met[1 + 40 * 24 :]]
    blank(forecast, (7,), 3)
    (out / "forecast.csv").write_text("\n".join(forecast) + "\n")
    return out


def common(data: Path, out: Path) -> list[str]:
    return ["--set", f"pollutant_file={data / 'pollutants.csv'}",
            "--set", f"meteo_file={data / 'meteorology.csv'}",
            "--set", f"forecast_file={data / 'forecast.csv'}", *SPLIT,
            "--set", "cv_k=2", "--set", "cv_points=5", "--set", "cv_ratio=0.05",
            "--seed", "3", "--out-dir", str(out)]


@pytest.fixture(scope="module")
def model(data, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    assert main(["train", *common(data, out)]) == 0
    return out / "model.json"


COMMANDS = {
    "ingest": ("ingest",),
    "featurize": ("featurize",),
    "cv": ("cv",),
    "train": ("train",),
    "predict": ("predict", "--model", "{model}"),
    "report": ("report", "--lambda", "0.05",
               "--set", "report_methods=lasso-linear,ridge,mlr,persistence"),
}


def digests(out: Path) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}


def day_block_lines(caplog) -> list[str]:
    """The debug lines load_day_blocks logged: cache hit or miss, and the
    split each file it parsed took."""
    return [r.getMessage() for r in caplog.records
            if r.name == "ozolasso.pipeline" and r.levelno == logging.DEBUG]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_a_hit_writes_the_bytes_of_a_miss(command, data, model, tmp_path, caplog):
    caplog.set_level(logging.DEBUG, logger="ozolasso.pipeline")
    out = tmp_path / "out"
    argv = [arg.format(model=model) for arg in COMMANDS[command]] + common(data, out)
    assert main(argv) == 0
    assert day_block_lines(caplog) == [
        "day blocks: cache miss (no file)",
        f"{data / 'pollutants.csv'}: numpy tokenizer, numbers as str",
        f"{data / 'meteorology.csv'}: numpy tokenizer, numbers as str",
        f"{data / 'forecast.csv'}: numpy tokenizer, numbers as str",
    ]
    missed = digests(out)
    assert CACHE in missed and len(missed) > 1
    for path in out.iterdir():
        if path.name != CACHE:
            path.unlink()
    caplog.clear()
    assert main(argv) == 0
    assert day_block_lines(caplog) == [f"day blocks: cache hit {out / CACHE}"]
    assert digests(out) == missed


@pytest.mark.parametrize("forecast", ["forecast.csv", ""])
def test_a_hit_holds_the_grids_and_stats_of_the_parse(forecast, data, tmp_path):
    config = RunConfig(pollutant_file=str(data / "pollutants.csv"),
                       meteo_file=str(data / "meteorology.csv"),
                       forecast_file=forecast and str(data / forecast), out_dir=str(tmp_path))
    parsed = pipeline.load_day_blocks(config)
    loaded = pipeline.load_day_blocks(config)
    assert (tmp_path / CACHE).is_file()
    assert parsed[2] == loaded[2]
    assert parsed[2].n_filled > 0
    assert any(np.isnan(grid).any() for grid in parsed[0].values.values())  # an incomplete day
    assert (parsed[1] is None) == (loaded[1] is None) == (not forecast)
    for a, b in [(a, b) for a, b in zip(parsed[:2], loaded[:2]) if a is not None]:
        assert a.ordinals.tobytes() == b.ordinals.tobytes()
        assert list(a.values) == list(b.values)
        for var in a.values:
            assert a.values[var].dtype == b.values[var].dtype == np.float64
            assert a.values[var].shape == b.values[var].shape
            assert a.values[var].tobytes() == b.values[var].tobytes()


def copy_inputs(data: Path, into: Path) -> RunConfig:
    into.mkdir()
    for name in ("pollutants.csv", "meteorology.csv", "forecast.csv"):
        shutil.copyfile(data / name, into / name)
    return RunConfig(pollutant_file=str(into / "pollutants.csv"),
                     meteo_file=str(into / "meteorology.csv"),
                     forecast_file=str(into / "forecast.csv"), out_dir=str(into))


def change_a_digit(path: Path) -> None:
    """The last character of the file's third line, a digit, made another."""
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2][:-1] + (b"1" if lines[2][-1:] != b"1" else b"2")
    path.write_bytes(b"\n".join(lines))


def changed_source(tmp_path: Path, monkeypatch) -> None:
    """Point the key at a copy of the package's source with one byte added."""
    src = tmp_path / "src"
    shutil.copytree(Path(pipeline.__file__).parent, src, ignore=shutil.ignore_patterns("__pycache__"))
    (src / "ingest.py").write_bytes((src / "ingest.py").read_bytes() + b"\n")
    monkeypatch.setattr(pipeline, "__file__", str(src / "pipeline.py"))


@pytest.mark.parametrize("change", ["pollutants.csv", "meteorology.csv", "forecast.csv",
                                    "max_gap_hours", "forecast added", "source"])
def test_each_part_of_the_key_makes_a_miss(change, data, tmp_path, monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger="ozolasso.pipeline")
    config = copy_inputs(data, tmp_path / "run")
    if change == "forecast added":
        config.forecast_file = ""
    pipeline.load_day_blocks(config)
    caplog.clear()
    if change.endswith(".csv"):
        change_a_digit(tmp_path / "run" / change)
    elif change == "max_gap_hours":
        config.max_gap_hours = 2
    elif change == "forecast added":
        config.forecast_file = str(tmp_path / "run" / "forecast.csv")
    else:
        changed_source(tmp_path, monkeypatch)
    blocks = pipeline.load_day_blocks(config)
    assert day_block_lines(caplog)[0] == "day blocks: cache miss (key)"
    caplog.clear()
    again = pipeline.load_day_blocks(config)  # the cache was rewritten for the change
    assert day_block_lines(caplog) == [f"day blocks: cache hit {tmp_path / 'run' / CACHE}"]
    assert again[2] == blocks[2]


def flip_a_payload_byte(path: Path) -> None:
    raw = bytearray(path.read_bytes())
    raw[-5] ^= 0x01
    path.write_bytes(bytes(raw))


def change_a_stat(path: Path) -> None:
    raw = path.read_bytes()
    at = raw.index(b'"n_rows": ') + len(b'"n_rows": ')
    path.write_bytes(raw[:at] + b"9" + raw[at:])


def claim_a_trillion_days(path: Path) -> None:
    """A header whose day count would take terabytes to allocate."""
    raw = path.read_bytes()
    assert raw.count(b'"days": 60,') == 1
    path.write_bytes(raw.replace(b'"days": 60,', b'"days": 1000000000000,'))


def truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:-8])


def append(path: Path) -> None:
    path.write_bytes(path.read_bytes() + b"\0")


def foreign_header(path: Path) -> None:
    header, _, payload = path.read_bytes().partition(b"\n")
    path.write_bytes(b'{"format": "not a day-block cache"}\n' + payload)


def not_json(path: Path) -> None:
    path.write_bytes(b"\x89PNG\r\n\x1a\n" + path.read_bytes())


def directory(path: Path) -> None:
    path.unlink()
    path.mkdir()


@pytest.mark.parametrize("damage, reason", [
    (flip_a_payload_byte, "digest"),
    (change_a_stat, "digest"),
    (claim_a_trillion_days, "length"),
    (truncate, "length"),
    (append, "length"),
    (foreign_header, "key"),
    (not_json, "key"),
    (directory, "no file"),
])
def test_a_damaged_cache_is_a_miss_that_gets_rewritten(damage, reason, data, tmp_path, caplog):
    caplog.set_level(logging.DEBUG, logger="ozolasso.pipeline")
    config = copy_inputs(data, tmp_path / "run")
    cache = tmp_path / "run" / CACHE
    parsed = pipeline.load_day_blocks(config)
    written = cache.read_bytes()
    damage(cache)
    caplog.clear()
    assert pipeline.load_day_blocks(config)[2] == parsed[2]
    assert day_block_lines(caplog)[0] == f"day blocks: cache miss ({reason})"
    assert cache.read_bytes() == written
    caplog.clear()
    pipeline.load_day_blocks(config)
    assert day_block_lines(caplog) == [f"day blocks: cache hit {cache}"]


@pytest.mark.parametrize("bad_rows", [1, 12])
def test_a_parse_logs_the_rows_it_rejects(bad_rows, data, tmp_path, caplog):
    """At -v a parse names each file's first 10 rejected rows and their
    count; a cache hit parses nothing and names none."""
    caplog.set_level(logging.DEBUG, logger="ozolasso.pipeline")
    config = copy_inputs(data, tmp_path / "run")
    pol = tmp_path / "run" / "pollutants.csv"
    lines = pol.read_text().splitlines()
    for row in range(2, 2 + bad_rows):
        lines[row] = "not-a-date," + lines[row].split(",", 1)[1]
    pol.write_text("\n".join(lines) + "\n")
    assert pipeline.load_day_blocks(config)[2].n_rejected == bad_rows
    shown = "; ".join(f"line {row + 1}: unparseable timestamp" for row in range(2, 2 + min(bad_rows, 10)))
    assert day_block_lines(caplog) == [
        "day blocks: cache miss (no file)",
        f"{pol}: csv parse, for a rejected row",
        f"{pol}: {bad_rows} rejected row(s): {shown}",
        f"{tmp_path / 'run' / 'meteorology.csv'}: numpy tokenizer, numbers as str",
        f"{tmp_path / 'run' / 'forecast.csv'}: numpy tokenizer, numbers as str",
    ]
    caplog.clear()
    pipeline.load_day_blocks(config)
    assert day_block_lines(caplog) == [f"day blocks: cache hit {tmp_path / 'run' / CACHE}"]


def test_a_cache_that_cannot_be_written_is_left_out(data, tmp_path, caplog):
    caplog.set_level(logging.DEBUG, logger="ozolasso.pipeline")
    config = copy_inputs(data, tmp_path / "run")
    config.out_dir = str(tmp_path / "absent")
    assert len(pipeline.load_day_blocks(config)[0]) == 60
    assert day_block_lines(caplog)[-1].startswith("day blocks: cache not written (")
    assert not (tmp_path / "absent").exists()


@pytest.mark.parametrize("name", ["pollutants.csv", "meteorology.csv", "forecast.csv"])
@pytest.mark.parametrize("fault", ["deleted", "a directory"])
def test_an_unreadable_input_fails_as_it_does_with_no_cache(name, fault, data, tmp_path, capsys):
    inputs, cold, warm = tmp_path / "in", tmp_path / "cold", tmp_path / "warm"
    copy_inputs(data, inputs)
    assert main(["ingest", *common(inputs, warm)]) == 0
    assert (warm / CACHE).is_file()
    capsys.readouterr()
    (inputs / name).unlink()
    if fault == "a directory":
        (inputs / name).mkdir()
    assert main(["ingest", *common(inputs, cold)]) == 1
    expected = capsys.readouterr().err
    if fault == "deleted":
        assert expected == f"error: [Errno 2] No such file or directory: '{inputs / name}'\n"
    assert main(["ingest", *common(inputs, warm)]) == 1
    assert capsys.readouterr().err == expected


def test_inputs_fail_in_the_order_the_parse_reads_them(data, tmp_path, capsys):
    """A malformed pollutant file is reported before a missing meteorology
    file, as the parse reports them, not in the order the key reads them."""
    inputs = tmp_path / "in"
    copy_inputs(data, inputs)
    (inputs / "pollutants.csv").write_text("date,hour\n")
    (inputs / "meteorology.csv").unlink()
    assert main(["ingest", *common(inputs, tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (f"error: IngestError: {inputs / 'pollutants.csv'}: "
                                       "malformed header, missing column 'o3'\n")
