"""``parallel.beside`` run through its forked worker and inline: the same
artifacts, fold errors, warnings, errors, logs and output, and no child
process left behind.

The worker path is forced by reporting two usable CPUs and a size floor of
0 bytes, with numpy's and scipy's OpenBLAS on one thread, as ``main`` sets
them; the inline path by reporting one CPU.
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

import numpy as np
import pytest

import ozolasso
from conftest import standardized_matrix
from ozolasso import parallel, selection
from ozolasso.atomic import write_lines
from ozolasso.cli import main
from ozolasso.expansion import ExpandedDesign
from ozolasso.ingest import DuplicateTimestampError
from ozolasso.solvers import DenseDesign, SingularDesignError, lasso_path, ridge_path

MODES = ("worker", "inline")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(autouse=True)
def one_blas_thread():
    """Each test starts with the bundled OpenBLAS on one thread, as ``main``
    sets it, and the count found before is set again after it."""
    found = parallel.blas_threads()
    parallel.set_blas_threads(1)
    yield
    parallel.set_blas_threads(found)


def use(monkeypatch, mode: str) -> None:
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2 if mode == "worker" else 1)
    monkeypatch.setattr(parallel, "MIN_BYTES", 0)


def count_forks(monkeypatch) -> list:
    """A list that gains an entry each time ``beside`` forks."""
    forked, start = [], parallel._start
    monkeypatch.setattr(parallel, "_start", lambda *a: forked.append(a) or start(*a))
    return forked


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
    with parallel.beside(os.getpid, nbytes=0, threads=2) as pid:  # 2 threads x 2 processes
        assert pid() == os.getpid()
    for cpus, floor, fork in ((1, 0, "ok"), (2, 10, "ok"), (2, 0, "fails"), (2, 0, "missing")):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(parallel, "MIN_BYTES", floor)
        if fork == "fails":
            monkeypatch.setattr(os, "fork", no_process_to_spare)
        elif fork == "missing":
            monkeypatch.delattr(os, "fork")
        with parallel.beside(os.getpid, nbytes=9) as pid:
            assert pid() == os.getpid()


@pytest.mark.parametrize("env, threads", [
    ({}, 4),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3"}, 1),
    ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "3"}, 2),
    ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "x", "OMP_NUM_THREADS": "3"}, 3),
    ({"OPENBLAS_NUM_THREADS": "64"}, 4),
])
def test_blas_threads_are_counted_as_openblas_counts_them(env, threads):
    """In a fresh process held to at most four CPUs, ``blas_threads`` reads
    the count each bundled OpenBLAS took from the environment as it loaded:
    the first of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS
    set to a positive integer, else a thread per CPU, and at most one per
    CPU. ``threads`` is that count on four CPUs."""
    cpus = sorted(os.sched_getaffinity(0))[:4]
    script = ("import os, sys\n"
              "os.sched_setaffinity(0, map(int, sys.argv[1:]))\n"
              "from ozolasso import parallel\n"
              "print(parallel.blas_threads())\n")
    proc = subprocess.run([sys.executable, "-c", script, *map(str, cpus)], env=child_env(env),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{min(threads, len(cpus))}\n"


def test_set_blas_threads_sets_each_bundled_openblas(monkeypatch):
    """``set_blas_threads`` sets numpy's and scipy's OpenBLAS, each reads
    the count back, and ``blas_threads`` is the larger; with no bundled
    OpenBLAS found, nothing is set and it is one thread per usable CPU."""
    names = parallel.set_blas_threads(3)
    assert [name.split("-")[0] for name in names] == ["libscipy_openblas64_", "libscipy_openblas"]
    (_, get_numpy, set_numpy), (_, get_scipy, set_scipy) = parallel._openblas()
    assert (get_numpy(), get_scipy(), parallel.blas_threads()) == (3, 3, 3)
    set_numpy(1)
    assert (get_numpy(), get_scipy(), parallel.blas_threads()) == (1, 3, 3)
    set_scipy(2)
    assert (get_numpy(), get_scipy(), parallel.blas_threads()) == (1, 2, 2)
    assert parallel.set_blas_threads(1) == names
    assert (get_numpy(), get_scipy(), parallel.blas_threads()) == (1, 1, 1)
    monkeypatch.setattr(parallel, "_openblas", lambda: ())
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
    assert (parallel.set_blas_threads(1), parallel.blas_threads()) == ([], 4)


def test_a_library_already_on_the_count_is_not_set_again(monkeypatch):
    """Setting the count a library runs already is skipped: set again by
    each command of paper-max8h's sequence, it raised the peak RSS 3.5 MiB."""
    one, two = [], []
    monkeypatch.setattr(parallel, "_openblas", lambda: (("a.so", lambda: 1, one.append),
                                                        ("b.so", lambda: 2, two.append)))
    assert parallel.set_blas_threads(1) == ["a.so", "b.so"]
    assert (one, two) == ([], [1])


@pytest.mark.parametrize("files", ["clean", "dirty"])
def test_artifacts_are_byte_identical(files, request, tmp_path, monkeypatch):
    data = request.getfixturevalue(files)
    written = {}
    for mode in MODES:
        use(monkeypatch, mode)
        for command in ("ingest", "featurize"):
            assert main([command, *args(data, tmp_path / mode)]) == 0
        written[mode] = {f.name: f.read_bytes() for f in (tmp_path / mode).iterdir()}
    # ingest parses (meteorology in the worker or inline) and keeps the day
    # blocks, which featurize then loads: the cache's bytes match too
    assert sorted(written["worker"]) == ["canonical.csv", "day_blocks.cache",
                                         "feature_manifest.txt", "features.csv",
                                         "ingest_report.txt"]
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


def child_env(blas_env=None) -> dict:
    """This environment for a fresh interpreter that imports ``ozolasso``
    from this checkout; with ``blas_env``, the BLAS thread variables set are
    those and no others."""
    src = str(Path(ozolasso.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)  # without it, a file is block-buffered
    if blas_env is not None:
        env = {var: value for var, value in env.items() if var not in BLAS_VARS} | blas_env
    return env


def run_cli(argv: list[str], script: str = "", blas_env=None, **kwargs) -> subprocess.CompletedProcess:
    """The CLI on ``argv`` in a fresh interpreter, after the lines of
    ``script``; with ``blas_env``, the BLAS thread variables set are those
    and no others."""
    script = ("import functools, sys\n"
              "from ozolasso import cli, parallel, selection\n"
              + script + "sys.exit(cli.main(sys.argv[1:]))\n")
    return subprocess.run([sys.executable, "-c", script, *argv], env=child_env(blas_env),
                          timeout=120, **kwargs)


def run_forking(argv: list[str], script: str = "", **kwargs) -> subprocess.CompletedProcess:
    """``run_cli`` with a ``beside`` that forks at any size."""
    return run_cli(argv, "parallel.MIN_BYTES, parallel.usable_cpus = 0, lambda: 2\n" + script,
                   **kwargs)


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
            "day blocks: cache miss (no file)",
            f"{clean / 'pollutants.csv'}: numpy tokenizer",
            f"{clean / 'meteorology.csv'}: numpy tokenizer",
        ]


# --- cross-validation: the odd folds in the worker ---

def cv_problem(kind: str):
    """(design, y, grid, fit_path) of a small CV of each kind."""
    rng = np.random.default_rng(21)
    base = standardized_matrix(rng, 40, 6)
    y = base[:, 0] - base[:, 1] + rng.normal(size=40)
    design = ExpandedDesign.fit(base) if kind == "lasso-expanded" else DenseDesign(base)
    fit_path = ridge_path if kind == "ridge" else lasso_path
    return design, y, selection.make_lambda_grid(design, y, n_points=8, ratio=1e-3), fit_path


def serial_fold_errors(design, y, grid, fit_path, assignment) -> np.ndarray:
    """The reference: every fold scored in turn, in this process."""
    rows = []
    for fold in range(assignment.max() + 1):
        held, train = np.flatnonzero(assignment == fold), np.flatnonzero(assignment != fold)
        d_te = design.take_rows(held)
        rows.append([np.mean((fit.beta0 + d_te.predict(fit.beta) - y[held]) ** 2)
                     for fit in fit_path(design.take_rows(train), y[train], grid)])
    return np.array(rows)


@pytest.mark.parametrize("kind", ["lasso-dense", "lasso-expanded", "ridge"])
def test_cv_fold_errors_are_bitwise_equal_forked_and_inline(kind, monkeypatch):
    design, y, grid, fit_path = cv_problem(kind)
    forked = count_forks(monkeypatch)
    cvs = {}
    for mode in MODES:
        use(monkeypatch, mode)
        cvs[mode] = selection.kfold_cv(design, y, 5, grid, seed=3, fit_path=fit_path)
    assert len(forked) == 1
    worker, inline = cvs["worker"], cvs["inline"]
    reference = serial_fold_errors(design, y, grid, fit_path, inline.fold_assignment)
    assert inline.fold_errors.tobytes() == reference.tobytes()
    assert worker.fold_errors.tobytes() == reference.tobytes()
    assert worker.cv_mean.tobytes() == inline.cv_mean.tobytes()
    assert worker.cv_se.tobytes() == inline.cv_se.tobytes()
    assert (worker.lambda_min, worker.lambda_1se) == (inline.lambda_min, inline.lambda_1se)


def test_cv_folds_stay_inline_when_the_blas_threads_fill_the_cpus(monkeypatch):
    """Two OpenBLAS threads in each of two processes on two CPUs: a forked
    ridge CV at paper scale (1,095 x 938) took 3.4 times as long."""
    design, y, grid, _ = cv_problem("lasso-dense")
    use(monkeypatch, "worker")
    parallel.set_blas_threads(2)
    forked = count_forks(monkeypatch)
    selection.kfold_cv(design, y, 5, grid, seed=3)
    assert forked == []


def failing_in(folds, raised, y, assignment, then=lasso_path):
    """A fit path that raises ``raised(fold)`` on the training rows of each
    of ``folds`` and calls ``then`` on the others."""
    held_out = {float(y[assignment == fold][0]): fold for fold in folds}

    def fit_path(d_tr, y_tr, grid):
        for value, fold in held_out.items():
            if value not in y_tr:
                raise raised(fold)
        return then(d_tr, y_tr, grid)

    return fit_path


@pytest.mark.parametrize("raised", [
    lambda fold: selection.SelectionError(f"fold {fold} fails"),
    lambda fold: SingularDesignError(f"fold {fold} is singular", pivot=fold + 3),
], ids=["SelectionError", "SingularDesignError"])
@pytest.mark.parametrize("folds", [(1,), (2,), (1, 2), (2, 3)])
def test_a_failing_fold_raises_alike_forked_and_inline(raised, folds, monkeypatch):
    """The first failing fold's exception, with its type, message and
    attributes, whichever process ran it: fold 1 runs in the worker, fold 2
    in the parent."""
    design, y, grid, _ = cv_problem("lasso-dense")
    fit_path = failing_in(folds, raised, y, selection.make_folds(len(y), 5, 3))
    expected = raised(min(folds))
    for mode in MODES:
        use(monkeypatch, mode)
        with pytest.raises(type(expected)) as caught:
            selection.kfold_cv(design, y, 5, grid, seed=3, fit_path=fit_path)
        assert str(caught.value) == str(expected)
        assert vars(caught.value) == vars(expected)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_worker_remains_when_the_parents_own_fold_raises(monkeypatch):
    design, y, grid, _ = cv_problem("lasso-dense")

    def slowly(d_tr, y_tr, grid):
        time.sleep(60)
        return lasso_path(d_tr, y_tr, grid)

    fit_path = failing_in((0,), lambda fold: selection.SelectionError(f"fold {fold} fails"),
                          y, selection.make_folds(len(y), 5, 3), then=slowly)
    use(monkeypatch, "worker")
    began = time.monotonic()
    with pytest.raises(selection.SelectionError, match="fold 0 fails"):
        selection.kfold_cv(design, y, 5, grid, seed=3, fit_path=fit_path)
    assert time.monotonic() - began < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_ill_conditioned_warnings_of_forked_folds_name_the_caller_in_fold_order(monkeypatch):
    """Each fold's ridge_path warning, issued again by the parent with its
    category, message, file and line: the line in ``selection`` that called
    ridge_path, as a serial loop shows it."""
    rng = np.random.default_rng(4)
    col = rng.normal(size=50)
    design = DenseDesign(np.column_stack([col, col + 1e-7 * rng.normal(size=50)]))
    y = rng.normal(size=50)
    source, first = inspect.getsourcelines(selection._score_folds)
    call = first + next(i for i, line in enumerate(source) if "fit_path(d_tr" in line)
    caught = {}
    for mode in MODES:
        use(monkeypatch, mode)
        with pytest.warns(RuntimeWarning, match="ill-conditioned") as caught[mode]:
            selection.kfold_cv(design, y, 4, [1e-16], seed=0, fit_path=ridge_path)
    seen = {mode: [(w.category, str(w.message), w.filename, w.lineno) for w in caught[mode]]
            for mode in MODES}
    assert len(seen["inline"]) == 4
    assert {where[2:] for where in seen["inline"]} == {(selection.__file__, call)}
    assert seen["worker"] == seen["inline"]


@pytest.mark.parametrize("method", ["lasso", "ridge"])
def test_forked_cv_under_default_blas_threads_writes_the_inline_table(method, clean, tmp_path):
    """OpenBLAS with its default thread count on two CPUs, two threads, in
    the parent and in the fold worker: the fork neither deadlocks nor
    changes a byte. ``main`` sets one thread, so here its setting is
    raised to two, in the worker run and in the inline run alike, and
    each process that scores folds reports the count it runs."""
    argv = ["cv", "--set", f"method={method}", "--set", "cv_points=20",
            "--set", "train_start=2015-01-01", "--set", "train_end=2015-01-14",
            "--set", "test_start=2015-01-15", "--set", "test_end=2015-01-20"]
    two_threads = ("import os\n"
                   "pin, parent = parallel.set_blas_threads, os.getpid()\n"
                   "parallel.set_blas_threads = lambda n: pin(2)\n"
                   "score = selection._score_folds\n"
                   "@functools.wraps(score)\n"
                   "def reported(*a):\n"
                   "    where = 'parent' if os.getpid() == parent else 'child'\n"
                   "    print('blas threads', parallel.blas_threads(), 'in', where,\n"
                   "          file=sys.stderr, flush=True)\n"
                   "    return score(*a)\n"
                   "selection._score_folds = reported\n")
    report = ("start = parallel._start\n"
              "parallel._start = lambda fn, a: print('fork', fn.__name__, file=sys.stderr)"
              " or start(fn, a)\n"
              "parallel.usable_cpus = lambda: 4\n")  # room for 2 threads in each of 2 processes
    tables = {}
    for mode, script in (("worker", report), ("inline", "parallel.usable_cpus = lambda: 1\n")):
        proc = run_forking([*argv, *args(clean, tmp_path / mode)], two_threads + script,
                           capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert ("fork _score_folds" in lines) == (mode == "worker")
        assert {line for line in lines if line.startswith("blas")} == (
            {"blas threads 2 in parent", "blas threads 2 in child"} if mode == "worker"
            else {"blas threads 2 in parent"})
        tables[mode] = (tmp_path / mode / "cv_table.csv").read_bytes()
    assert tables["worker"] == tables["inline"]


@pytest.fixture(scope="module")
def season(tmp_path_factory):
    out = tmp_path_factory.mktemp("season")
    assert main(["synth", "--out-dir", str(out), "--n-days", "120", "--seed", "4"]) == 0
    return out


def test_no_blas_thread_variable_changes_a_byte(season, tmp_path):
    """``main`` sets one BLAS thread, so a ridge ``train`` and a Lasso
    ``cv`` write the same bytes with no variable set, with one thread asked
    for and with more: left to OpenBLAS's default of a thread per CPU, the
    ridge model differed on two CPUs."""
    common = ["--set", "cv_points=20", "--set", "train_start=2015-01-01",
              "--set", "train_end=2015-03-31", "--set", "test_start=2015-04-01",
              "--set", "test_end=2015-04-30"]
    written = {}
    for name, blas_env in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"}),
                           ("more", {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "3"})):
        for command, method in (("train", "ridge"), ("cv", "lasso")):
            out = tmp_path / name / command
            proc = run_cli([command, "--set", f"method={method}", *common, *args(season, out)],
                           blas_env=blas_env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        written[name] = {path.relative_to(tmp_path / name): path.read_bytes()
                         for path in (tmp_path / name).glob("*/*")
                         if path.name in ("model.json", "cv_table.csv")}
    assert sorted(map(str, written["unset"])) == ["cv/cv_table.csv", "train/cv_table.csv",
                                                  "train/model.json"]
    assert written["unset"] == written["one"] == written["more"]


def test_verbose_logs_the_blas_setting_and_writes_it_nowhere(clean, tmp_path, monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger="ozolasso.cli")
    names = parallel.set_blas_threads(1)
    assert main(["-v", "ingest", *args(clean, tmp_path / "pinned")]) == 0
    monkeypatch.setattr(parallel, "_openblas", lambda: ())
    assert main(["-v", "ingest", *args(clean, tmp_path / "other")]) == 0
    assert [r.getMessage() for r in caplog.records if r.name == "ozolasso.cli"] == [
        f"blas: one thread in {', '.join(names)}",
        "blas: no bundled OpenBLAS found; thread count left to the library",
    ]
    for out in ("pinned", "other"):
        assert [f.name for f in (tmp_path / out).iterdir() if b"blas" in f.read_bytes()] == []


def test_verbose_holds_for_its_own_call_only(tmp_path, caplog):
    """-v sets the level for the call it is given to: of a quiet, a -v and a
    quiet call in one process, only the second logs the blas line. The
    level is not set through caplog, which would set it for all three."""
    logged = []
    for n, flags in enumerate([[], ["-v"], []]):
        caplog.clear()
        assert main([*flags, "synth", "--out-dir", str(tmp_path / str(n)), "--n-days", "10"]) == 0
        logged.append([(r.name, r.levelname) for r in caplog.records
                       if r.getMessage().startswith("blas: ")])
    assert logged == [[], [("ozolasso.cli", "DEBUG")], []]


def test_the_cli_run_as_a_module_logs_under_its_package(tmp_path):
    """Under python -m the module is __main__; its log lines still carry
    the package's name, so a filter on ozolasso.* keeps them."""
    proc = subprocess.run([sys.executable, "-m", "ozolasso.cli", "-v", "synth",
                           "--out-dir", str(tmp_path), "--n-days", "10"],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert [line.startswith("DEBUG ozolasso.cli: blas: ")
            for line in proc.stderr.splitlines() if "blas:" in line] == [True]


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
