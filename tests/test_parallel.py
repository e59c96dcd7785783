"""``parallel.beside`` run through its forked worker and inline: the same
artifacts, errors, logs and output, and no child process left behind.

The worker path is forced by reporting two usable CPUs and a size floor of
0 bytes; the inline path by reporting one CPU.
"""

import importlib
import inspect
import logging
import os
import pickle
import pkgutil
import subprocess
import sys
import time
from datetime import date as Date
from pathlib import Path

import pytest

import ozolasso
from ozolasso import parallel
from ozolasso.atomic import write_lines
from ozolasso.cli import main
from ozolasso.ingest import DuplicateTimestampError
from ozolasso.solvers import SingularDesignError

MODES = ("worker", "inline")


def use(monkeypatch, mode: str) -> None:
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2 if mode == "worker" else 1)
    monkeypatch.setattr(parallel, "MIN_BYTES", 0)


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    out = tmp_path_factory.mktemp("clean")
    assert main(["synth", "--out-dir", str(out), "--n-days", "20", "--seed", "4"]) == 0
    return out


@pytest.fixture(scope="module")
def dirty(clean, tmp_path_factory):
    """The clean files with every 50th cell blank and every 170th 'oops'."""
    out = tmp_path_factory.mktemp("dirty")
    for name in ("pollutants.csv", "meteorology.csv"):
        header, *rows = (clean / name).read_text().splitlines()
        cells = [row.split(",") for row in rows]
        for k, row in enumerate(cells):
            for j in range(2, len(row)):
                if (k * len(row) + j) % 50 == 0:
                    row[j] = ""
                elif (k * len(row) + j) % 170 == 0:
                    row[j] = "oops"
        (out / name).write_text("\n".join([header, *(",".join(row) for row in cells)]) + "\n")
    return out


def args(data: Path, out: Path, meteo: Path | None = None) -> list[str]:
    return ["--variant", "max8h",
            "--set", f"pollutant_file={data / 'pollutants.csv'}",
            "--set", f"meteo_file={meteo or data / 'meteorology.csv'}",
            "--out-dir", str(out)]


def no_process_to_spare():
    raise BlockingIOError(11, "Resource temporarily unavailable")


def test_the_worker_runs_in_another_process_only_when_it_pays(monkeypatch):
    use(monkeypatch, "worker")
    with parallel.beside(os.getpid, nbytes=0) as pid:
        assert pid() != os.getpid()
    for cpus, floor, fork in ((1, 0, "ok"), (2, 10, "ok"), (2, 0, "fails"), (2, 0, "missing")):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(parallel, "MIN_BYTES", floor)
        if fork == "fails":
            monkeypatch.setattr(os, "fork", no_process_to_spare)
        elif fork == "missing":
            monkeypatch.delattr(os, "fork")
        with parallel.beside(os.getpid, nbytes=9) as pid:
            assert pid() == os.getpid()


@pytest.mark.parametrize("files", ["clean", "dirty"])
def test_artifacts_are_byte_identical(files, request, tmp_path, monkeypatch):
    data = request.getfixturevalue(files)
    written = {}
    for mode in MODES:
        use(monkeypatch, mode)
        for command in ("ingest", "featurize"):
            assert main([command, *args(data, tmp_path / mode)]) == 0
        written[mode] = {f.name: f.read_bytes() for f in (tmp_path / mode).iterdir()}
    assert sorted(written["worker"]) == ["canonical.csv", "feature_manifest.txt",
                                         "features.csv", "ingest_report.txt"]
    assert written["worker"] == written["inline"]


def bad_meteorology(clean: Path, tmp_path: Path, fault: str) -> Path:
    lines = (clean / "meteorology.csv").read_text().splitlines()
    path = tmp_path / "meteorology.csv"
    if fault == "duplicate stamp":
        path.write_text("\n".join(lines + [lines[5]]) + "\n")
    elif fault == "missing column":
        path.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n")
    return path


@pytest.mark.parametrize("fault, message", [
    ("duplicate stamp", "error: DuplicateTimestampError: duplicate record for 2015-01-01 hour 04\n"),
    ("missing column", "error: IngestError: {path}: malformed header, missing column 'pressure'\n"),
    ("missing path", "error: [Errno 2] No such file or directory: '{path}'\n"),
])
def test_a_bad_meteorology_file_fails_alike(fault, message, clean, tmp_path, monkeypatch, capsys):
    meteo = bad_meteorology(clean, tmp_path, fault)
    for mode in MODES:
        use(monkeypatch, mode)
        assert main(["featurize", *args(clean, tmp_path / mode, meteo)]) == 1
        assert capsys.readouterr().err == message.format(path=meteo)
        assert sorted(p.name for p in (tmp_path / mode).iterdir()) == []


def test_a_missing_pollutant_file_fails_alike(clean, tmp_path, monkeypatch, capsys):
    (tmp_path / "meteorology.csv").write_bytes((clean / "meteorology.csv").read_bytes())
    pollutants = tmp_path / "pollutants.csv"
    for mode in MODES:
        use(monkeypatch, mode)
        assert main(["featurize", *args(tmp_path, tmp_path / mode)]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{pollutants}'\n")
        assert sorted(p.name for p in (tmp_path / mode).iterdir()) == []


def test_no_child_remains_when_the_parents_own_parse_raises(clean, tmp_path, monkeypatch, capsys):
    pol = tmp_path / "pollutants.csv"
    lines = (clean / "pollutants.csv").read_text().splitlines()
    pol.write_text("\n".join(lines + [lines[2]]) + "\n")
    (tmp_path / "meteorology.csv").write_bytes((clean / "meteorology.csv").read_bytes())
    use(monkeypatch, "worker")
    assert main(["featurize", *args(tmp_path, tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: DuplicateTimestampError: duplicate record")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_running_child_is_killed_and_reaped_when_the_block_raises(monkeypatch):
    use(monkeypatch, "worker")
    began = time.monotonic()
    with pytest.raises(KeyError):
        with parallel.beside(time.sleep, 60, nbytes=0):
            raise KeyError("the parent's half")
    assert time.monotonic() - began < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("failing", ["first", "second"])
def test_write_lines_removes_both_files_when_a_half_raises(mode, failing, tmp_path, monkeypatch):
    use(monkeypatch, mode)
    target = tmp_path / "out.csv"
    target.write_text("earlier\n")

    def lines(lo, hi):
        for i in range(lo, hi):
            if (i == 1 and failing == "first") or (i == 3 and failing == "second"):
                raise ValueError(f"row {i}")
            yield f"{i}\r\n"

    with pytest.raises(ValueError, match="row 3" if failing == "second" else "row 1"):
        write_lines(target, "h\r\n", lines, 4)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
    assert target.read_text() == "earlier\n"
    write_lines(target, "h\r\n", lambda lo, hi: (f"{i}\r\n" for i in range(lo, hi)), 5)
    assert target.read_bytes() == b"h\r\n0\r\n1\r\n2\r\n3\r\n4\r\n"


def run_forking(argv: list[str], script: str = "", **kwargs) -> subprocess.CompletedProcess:
    """The CLI on ``argv`` in a fresh interpreter whose ``beside`` forks at
    any size, after the lines of ``script``."""
    script = ("import functools, sys\n"
              "from ozolasso import cli, parallel\n"
              "parallel.MIN_BYTES, parallel.usable_cpus = 0, lambda: 2\n"
              + script + "sys.exit(cli.main(sys.argv[1:]))\n")
    src = str(Path(ozolasso.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)  # a file is then block-buffered
    return subprocess.run([sys.executable, "-c", script, *argv], env=env, timeout=120, **kwargs)


def test_featurize_stdout_in_a_file_holds_its_line_once(clean, tmp_path):
    """Buffered output is flushed before a fork, so a child that flushes its
    copy of the buffer does not print it again."""
    script = ("print('before')\n"
              "with parallel.beside(functools.partial(print, 'aside', flush=True), nbytes=0) as aside:\n"
              "    aside()\n")
    stdout = tmp_path / "stdout.txt"
    with stdout.open("w") as fh:
        proc = run_forking(["featurize", *args(clean, tmp_path / "out")], script,
                           stdout=fh, stderr=subprocess.PIPE)
    assert proc.returncode == 0, proc.stderr
    assert stdout.read_text() == "before\naside\nfeaturized 19 modeling days, 938 base features\n"


def test_verbose_featurize_with_a_worker_writes_each_split_line_once(clean, tmp_path):
    """The parent logs the split of both files, so the stderr the child
    inherits holds each line once, the pollutant file's first. The caplog
    test below cannot see what a child writes there."""
    proc = run_forking(["-v", "featurize", *args(clean, tmp_path / "out")],
                       capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stderr.splitlines() if "tokenizer" in line] == [
        f"DEBUG ozolasso.pipeline: {clean / 'pollutants.csv'}: numpy tokenizer",
        f"DEBUG ozolasso.pipeline: {clean / 'meteorology.csv'}: numpy tokenizer",
    ]


def test_verbose_logs_both_tokenizer_lines_in_file_order(clean, tmp_path, monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger="ozolasso.pipeline")
    for mode in MODES:
        use(monkeypatch, mode)
        caplog.clear()
        assert main(["-v", "featurize", *args(clean, tmp_path / mode)]) == 0
        assert [r.getMessage() for r in caplog.records if r.name == "ozolasso.pipeline"] == [
            f"{clean / 'pollutants.csv'}: numpy tokenizer",
            f"{clean / 'meteorology.csv'}: numpy tokenizer",
        ]


# constructor arguments of the exceptions that take more than a message
SAMPLES = {
    DuplicateTimestampError: (Date(2015, 1, 1), 3),
    SingularDesignError: ("X'X is not positive definite at pivot 4", 4),
}


def exception_classes() -> list[type]:
    found = set()
    for info in pkgutil.iter_modules(ozolasso.__path__):
        module = importlib.import_module(f"ozolasso.{info.name}")
        found |= {cls for _, cls in inspect.getmembers(module, inspect.isclass)
                  if issubclass(cls, BaseException) and cls.__module__ == module.__name__}
    return sorted(found, key=lambda cls: f"{cls.__module__}.{cls.__name__}")


@pytest.mark.parametrize("cls", exception_classes(), ids=lambda cls: cls.__name__)
def test_every_exception_survives_pickling(cls):
    """A worker's exception reaches the parent pickled."""
    exc = cls(*SAMPLES.get(cls, ("a message",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)
