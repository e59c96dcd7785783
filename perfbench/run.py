"""ozolasso CLI benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk-linear --seed 0 --seconds 40 --trace 0

One run: write the workload's seeded fixture, run one discarded warm-up
process (import only: it fills the bytecode cache; the fixture just written
is in the page cache), time the import of ``ozolasso.cli`` in several fresh
processes, then run the workload's CLI command sequence in fresh processes
(one per repeat) for as many repeats as fit in ``--seconds`` (at least one).
Each process imports the program and runs the commands in-process, so cold
costs (first BLAS and LAPACK calls) stay inside ``wall_s``. Every repeat's
outputs are checked.

With ``--trace 0`` the last stdout line holds the end-to-end metrics. With
``--trace 1`` one more repeat runs under the tracer (tracer.py), and the
last line holds the per-layer metrics, including the tracing overhead
(traced wall_s minus the median untraced wall_s of the same run).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = WORK / "digests.json"

sys.path[:0] = [str(HERE), str(SRC)]  # SRC: the fixture writer and KKT tolerance
from tracer import self_times  # noqa: E402
from workloads import WORKLOADS, Workload, command_lines  # noqa: E402

SETUP_SAMPLES = 5
# One BLAS thread: on a 2-vCPU VM a second OpenBLAS thread only competes
# with the interpreter for the cores, and paper-max8h ran slower with it
# (median 32.3 s against 26.6 s with one thread).
BLAS_THREADS = "1"
DEADLINE_S = 170.0  # a run must end within 180 s

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "test_rmse_ppb": ("ppb", "lower"),
    "ok_frac": ("frac", "higher"),
}

LAYERS = ("ingest", "pipeline", "features", "expansion", "solvers",
          "selection", "modelio", "evaluation", "cli")
FUNCTIONS = (
    "ingest.parse_hourly_file", "ingest.merge_records", "ingest.assemble_days",
    "features.build_base_features", "features.fit_standardizer",
    "features.apply_standardizer",
    "expansion.ExpandedDesign.fit", "expansion.ExpandedDesign.block",
    "solvers.fit_lasso", "solvers.design_diag", "solvers.design_block",
    "solvers.design_predict", "solvers.fit_ridge", "solvers.fit_ols",
    "selection.make_lambda_grid", "selection.column_scores", "selection.kfold_cv",
    "modelio.predict_rows", "modelio.save_model", "modelio.load_model",
    "evaluation.evaluate_predictions", "evaluation.comparison_report",
    "cli.main",
)
COUNTS = {
    "pipeline.load_day_blocks.calls": "count",
    "ingest.rows_parsed": "count",
    "ingest.rows_rejected": "count",
    "ingest.rows_per_s": "1/s",
    "features.rows_built": "count",
    "expansion.columns_generated": "count",
    "expansion.design_passes": "count",
    "expansion.bytes_computed": "B",
    "solvers.sweeps": "count",
    "solvers.unconverged_fits": "count",
    "solvers.singular_designs": "count",
    "selection.cv_fits": "count",
    "cli.bytes_written": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    out: dict[str, tuple[str, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = ("s", "lower")
        out[f"{layer}.calls"] = ("count", "lower")
    for fn in FUNCTIONS:
        out[f"{fn}.self_s"] = ("s", "lower")
        out[f"{fn}.first_s"] = ("s", "lower")
        out[f"{fn}.calls"] = ("count", "lower")
    for name, unit in COUNTS.items():
        out[name] = (unit, "higher" if name == "ingest.rows_per_s" else "lower")
    return out


class HarnessError(Exception):
    """The benchmark itself cannot run (program missing, child crashed)."""


# --- fixture ---

def write_fixture(workload: Workload, seed: int, data_dir: Path) -> None:
    """The workload's synth fixture with seed-permuted rows and columns."""
    from ozolasso import synth

    synth.write_files(synth.SynthConfig(n_days=workload.n_days, seed=workload.data_seed),
                      data_dir)
    rng = random.Random(seed)
    for name in ("pollutants.csv", "meteorology.csv"):
        path = data_dir / name
        with path.open(newline="") as fh:
            header, *rows = list(csv.reader(fh))
        order = list(range(len(header)))
        rng.shuffle(order)
        rng.shuffle(rows)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([header[i] for i in order])
            writer.writerows([row[i] for i in order] for row in rows)


# --- child processes ---

def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(work: Path, tag: str, argvs: list[list[str]], deadline: float,
              trace: bool = False) -> dict:
    """One fresh process; returns its result dict."""
    spec = {
        "src": str(SRC),
        "argvs": argvs,
        "trace": trace,
        "spans": str(work / f"{tag}.spans.json"),
        "result": str(work / f"{tag}.result.json"),
    }
    spec_path = work / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError(f"{tag}: out of time before start")
    with (work / f"{tag}.log").open("w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                timeout=timeout, check=False,
            )
        except subprocess.TimeoutExpired as exc:  # the child is killed and reaped
            raise HarnessError(f"{tag}: timed out") from exc
    if proc.returncode != 0:
        tail = (work / f"{tag}.log").read_text()[-2000:]
        raise HarnessError(f"{tag}: child exited {proc.returncode}\n{tail}")
    result = json.loads(Path(spec["result"]).read_text())
    if trace:
        result["spans"] = json.loads(Path(spec["spans"]).read_text())
    return result


# --- output checks ---

def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _metrics_rmse(out: Path) -> tuple[float, int]:
    values = dict(
        line.split("=", 1) for line in (out / "metrics.txt").read_text().splitlines()[:2]
    )
    return float(values["rmse_ppb"]), int(values["n"])


def report_rows(out: Path) -> dict[str, str]:
    """Comparison-table row per method: method -> rest of the line."""
    rows = {}
    for line in (out / "comparison.txt").read_text().splitlines()[1:]:
        if not line.strip():
            break
        method, _, rest = line.partition(" ")
        rows[method] = rest
    return rows


def check_outputs(workload: Workload, out: Path) -> list[str]:
    """Problems with one repeat's artifacts; empty when all checks pass."""
    problems = []
    missing = [a for a in workload.artifacts if not (out / a).is_file()]
    if missing:
        return [f"missing artifacts {missing}"]
    rmse, n = _metrics_rmse(out)
    with (out / "predictions.csv").open(newline="") as fh:
        pairs = [(float(r["observed"]), float(r["predicted"])) for r in csv.DictReader(fh)]
    recomputed = math.sqrt(sum((p - o) ** 2 for o, p in pairs) / len(pairs))
    if n != len(pairs) or not math.isclose(rmse, recomputed, rel_tol=1e-9):
        problems.append(f"metrics.txt rmse {rmse!r} (n={n}) does not match predictions.csv "
                        f"({recomputed!r}, n={len(pairs)})")
    model = json.loads((out / "model.json").read_text())
    if workload.lasso_model:
        from ozolasso.solvers import LassoConfig

        kkt_tol = LassoConfig(lam=model["lambda"], tol=model["solver"]["tol"]).kkt_tol
        worst = max(model["kkt"]["zero_violation"], model["kkt"]["active_violation"])
        if not worst <= kkt_tol:
            problems.append(f"lasso model KKT violation {worst!r} > kkt_tol {kkt_tol!r}")
    if workload.report_methods:
        rows = report_rows(out)
        if sorted(rows) != sorted(workload.report_methods):
            problems.append(f"comparison.txt rows {sorted(rows)} != {list(workload.report_methods)}")
    return problems


def source_digest() -> str:
    """Hash of the program and of the benchmark code that runs it."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "ozolasso").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_digests(workload: Workload, digests: list[dict]) -> list[str]:
    """Artifacts must be byte-identical across every repeat of one program
    version, whatever the seed: the seed only reorders the input files."""
    known = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    key = f"{workload.name}:{source_digest()}"
    reference = known.get(key) or digests[0]
    problems = [
        f"repeat {i}: {name} differs from earlier repeats"
        for i, d in enumerate(digests)
        for name in workload.artifacts
        if d.get(name) != reference.get(name)
    ]
    if key not in known and not problems:
        known[key] = reference
        tmp = DIGESTS.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(DIGESTS)
    return problems


# --- one repeat ---

def run_repeat(workload: Workload, work: Path, data: Path, tag: str, deadline: float,
               trace: bool = False) -> dict:
    out = work / f"out-{tag}"
    argvs = command_lines(workload, str(data), str(out))
    result = run_child(work, tag, argvs, deadline, trace=trace)
    attempted = len(argvs) + 1 + len(workload.report_methods)  # commands + models
    hard = sum(1 for code in result["codes"] if code != 0)
    problems = [f"command {argvs[i][0]} exited {code}"
                for i, code in enumerate(result["codes"]) if code != 0]
    if not problems:
        problems = check_outputs(workload, out)
    soft = sum("did not converge" in m for m in result["warnings"])
    if workload.report_methods and not problems:
        soft += sum("failed" in row for row in report_rows(out).values())
    if problems:
        hard = attempted
    result.update(
        wall_s=sum(result["times"]),
        attempted=attempted,
        hard_failed=hard,
        failed_total=min(attempted, hard + soft),
        problems=problems,
        digests={a: _digest(out / a) for a in workload.artifacts if (out / a).is_file()},
        rmse=_metrics_rmse(out)[0] if (out / "metrics.txt").is_file() else None,
        bytes_written=sum(f.stat().st_size for f in out.rglob("*") if f.is_file()),
    )
    return result


# --- metrics ---

def end_to_end_metrics(reps: list[dict], setup: list[float]) -> dict:
    attempted = sum(r["attempted"] for r in reps)
    rmses = [r["rmse"] for r in reps if r["rmse"] is not None]
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "test_rmse_ppb": rmses[0] if rmses else None,
        "ok_frac": 1.0 - sum(r["failed_total"] for r in reps) / attempted,
    }
    return {k: {"value": values[k], "unit": END_TO_END[k][0]} for k in END_TO_END}


def per_layer_metrics(traced: dict, untraced_wall: float) -> dict:
    spans = traced["spans"]
    selfs = self_times(spans)
    per_fn: dict[str, list] = {}  # name -> [self_s, calls, first self_s]
    for (name, *_), s in zip(spans, selfs):
        acc = per_fn.setdefault(name, [0.0, 0, s])
        acc[0] += s
        acc[1] += 1
    values: dict[str, float] = {}
    for layer in LAYERS:
        hits = [acc for name, acc in per_fn.items() if name.split(".", 1)[0] == layer]
        values[f"{layer}.self_s"] = sum(a[0] for a in hits)
        values[f"{layer}.calls"] = sum(a[1] for a in hits)
    for fn in FUNCTIONS:
        self_s, calls, first = per_fn.get(fn, [0.0, 0, 0.0])
        values.update({f"{fn}.self_s": self_s, f"{fn}.first_s": first, f"{fn}.calls": calls})
    counts = traced["counts"]
    parse_s = values["ingest.parse_hourly_file.self_s"]
    values.update({name: counts.get(name, 0) for name in COUNTS})
    values.update({
        "pipeline.load_day_blocks.calls": per_fn.get("pipeline.load_day_blocks", [0, 0])[1],
        "ingest.rows_per_s": counts.get("ingest.rows_parsed", 0) / parse_s if parse_s else 0.0,
        "cli.bytes_written": traced["bytes_written"],
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - untraced_wall,
        "trace.spans": len(spans),
    })
    units = per_layer_units()
    return {k: {"value": values[k], "unit": units[k][0]} for k in units}


# --- driver ---

def run(workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        data = work / "data"
        write_fixture(workload, seed, data)
        warm = run_child(work, "warmup", [], deadline)  # discarded
        print("machine:", json.dumps(warm["machine"], sort_keys=True))
        setup = [run_child(work, f"setup{i}", [], deadline)["setup_s"]
                 for i in range(SETUP_SAMPLES)]
        reps: list[dict] = []
        start = time.monotonic()
        while True:
            # stop before a repeat that would not end within --seconds (judged
            # by the slowest one so far), or leave no room for the traced one
            if reps:
                longest = max(r["elapsed"] for r in reps)
                now = time.monotonic()
                if (now + longest - start > seconds
                        or now + (2 + trace) * longest > deadline):
                    break
            began = time.monotonic()
            rep = run_repeat(workload, work, data, f"rep{len(reps)}", deadline)
            rep["elapsed"] = time.monotonic() - began
            setup.append(rep["setup_s"])
            reps.append(rep)
            print(f"repeat {len(reps) - 1}: wall_s={rep['wall_s']:.3f} "
                  f"commands={[round(t, 3) for t in rep['times']]} cpu={[round(t, 3) for t in rep['cpu']]} problems={rep['problems']}")
        traced = None
        if trace:
            traced = run_repeat(workload, work, data, "traced", deadline, trace=True)
            reps_checked = reps + [traced]
            print(f"traced: wall_s={traced['wall_s']:.3f} problems={traced['problems']}")
        else:
            reps_checked = reps
        digest_problems = check_digests(workload, [r["digests"] for r in reps_checked])
        for problem in digest_problems:
            print("check failed:", problem)
        failed = sum(r["hard_failed"] for r in reps_checked)
        if digest_problems:
            failed = sum(r["attempted"] for r in reps_checked)
        correct = failed == 0 and not digest_problems
        if trace:
            metrics = per_layer_metrics(traced, statistics.median(r["wall_s"] for r in reps))
        else:
            metrics = end_to_end_metrics(reps, setup)
        return {
            "correct": correct,
            "attempted": sum(r["attempted"] for r in reps_checked),
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "ozolasso" / "cli.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
