"""Workload definitions: a seeded synth fixture plus the CLI command sequence
run on it.

The fixture's data seed is fixed per workload. The solver path on these
fixtures (CV choice, sweep counts, whether the lambda=0.05 fit converges)
changes a lot from one data seed to the next: on the 60-day fixture, data
seeds 17..21 gave 2.6 s to 9.1 s of wall time (2-vCPU x86-64 VM) and test
RMSE from 3.6 to 9.6 ppb. The benchmark seed therefore permutes the row and
column order of the hourly files instead. Ingest sorts by timestamp and
reads columns by header, so every seed poses the same modeling problem and
must give byte-identical artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    n_days: int
    data_seed: int
    common: tuple[str, ...]  # flags shared by every command
    commands: tuple[tuple[str, ...], ...]
    lasso_model: bool  # whether the written model.json is a lasso fit
    report_methods: tuple[str, ...] = ()
    # artifacts that must be byte-identical across repeats of one checkout
    artifacts: tuple[str, ...] = ("model.json", "metrics.txt")


def _split(train: tuple[str, str], test: tuple[str, str]) -> tuple[str, ...]:
    return (
        "--set", f"train_start={train[0]}", "--set", f"train_end={train[1]}",
        "--set", f"test_start={test[0]}", "--set", f"test_end={test[1]}",
    )


PREDICT = ("predict", "--model", "{out}/model.json")
EVALUATE = ("evaluate", "--predictions", "{out}/predictions.csv")

WORKLOADS = {
    # The acceptance-criterion-11 flow: n << p (48 train days, 918 features).
    # Pure-Python active-set coordinate descent (fit_lasso self time) takes
    # about 90% of the traced wall time; ingest is negligible. The report's
    # lambda=0.05 lasso fit does not converge in max_sweeps, so failures
    # stay visible in ok_frac.
    "desk-linear": Workload(
        name="desk-linear",
        n_days=60,
        data_seed=17,
        common=_split(("2015-01-01", "2015-02-17"), ("2015-02-18", "2015-03-01"))
        + ("--set", "cv_k=2", "--set", "cv_points=10", "--set", "cv_ratio=0.05",
           "--seed", "3"),
        commands=(
            ("train",),
            PREDICT,
            EVALUATE,
            ("report", "--lambda", "0.05",
             "--set", "report_methods=lasso-linear,ridge,persistence"),
        ),
        lasso_model=True,
        report_methods=("lasso-linear", "ridge", "persistence"),
        artifacts=("model.json", "metrics.txt", "comparison.txt"),
    ),
    # Paper scale, n > p: four years of hourly records, max8h variant (938
    # features), three years train and one test. Every command re-parses
    # the hourly files, so ingest is a large share; ridge CV makes 101
    # fit_ridge calls; featurize writes a ~26 MB CSV. The report's lasso at
    # n > p hits max_sweeps and the MLR design is singular, so two report
    # rows count as failures.
    "paper-max8h": Workload(
        name="paper-max8h",
        n_days=1461,
        data_seed=0,
        common=("--variant", "max8h")
        + _split(("2015-01-01", "2017-12-31"), ("2018-01-01", "2018-12-31")),
        commands=(
            ("featurize",),
            ("train", "--set", "method=ridge", "--set", "cv_points=20"),
            PREDICT,
            EVALUATE,
            ("report", "--lambda", "0.1",
             "--set", "report_methods=lasso-linear,mlr,persistence"),
        ),
        lasso_model=False,
        report_methods=("lasso-linear", "mlr", "persistence"),
        artifacts=("model.json", "metrics.txt", "comparison.txt"),
    ),
    # Streamed quadratic expansion: 240 train days, 422,739 expanded
    # columns. Full passes over the expanded columns (ExpandedDesign.block)
    # dominate; ingest is negligible. The grid is cut to 2 folds x 4 points
    # because the default 5 x 100 polynomial CV takes more than 30 minutes.
    "poly-cv": Workload(
        name="poly-cv",
        n_days=300,
        data_seed=0,
        common=_split(("2015-01-01", "2015-08-28"), ("2015-08-29", "2015-10-26")),
        commands=(
            ("train", "--expansion", "polynomial",
             "--set", "cv_k=2", "--set", "cv_points=4", "--set", "cv_ratio=0.25"),
            PREDICT,
            EVALUATE,
        ),
        lasso_model=True,
    ),
}


def command_lines(workload: Workload, data_dir: str, out_dir: str) -> list[list[str]]:
    """Full argv for each command of the workload."""
    files = (
        "--set", f"pollutant_file={data_dir}/pollutants.csv",
        "--set", f"meteo_file={data_dir}/meteorology.csv",
        "--out-dir", out_dir,
    )
    return [
        [arg.format(out=out_dir) for arg in cmd] + list(workload.common) + list(files)
        for cmd in workload.commands
    ]
