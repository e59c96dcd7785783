"""Batch command-line interface: ingest, featurize, cv, train, predict,
evaluate, report, synth. Configuration comes from a key=value file with flag
overrides; all randomness flows from explicit seeds."""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from datetime import date as Date
from pathlib import Path

import numpy as np

from . import evaluation, modelio, parallel, pipeline, selection, solvers, synth
from .atomic import write_csv, write_lines, write_text
from .config import (REPORT_METHODS, ConfigError, RunConfig, load_config, set_item,
                     write_effective_config)
from .ingest import write_canonical

# shortcut flag -> the config key it sets: ``--flag VALUE`` is ``--set key=VALUE``
SHORTCUTS = {"--seed": "seed", "--variant": "variant", "--expansion": "expansion",
             "--lambda": "lam", "--folds": "fold_mode", "--out-dir": "out_dir"}


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _build_config(args, splits: bool) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    for item in args.set or []:
        set_item(config, item, "--set")
    for flag, key in SHORTCUTS.items():
        value = getattr(args, key)
        if value is not None:
            set_item(config, f"{key}={value}", flag)
    config.validate_choices()
    if splits:
        config.validate_split()
    return config


# --- subcommands ---

def cmd_ingest(config: RunConfig) -> int:
    out = _out_dir(config)
    days, _, stats = pipeline.load_day_blocks(config)
    write_canonical(days, out / "canonical.csv")
    report = "\n".join(
        [
            f"hourly rows: {stats.n_rows}",
            f"rejected rows: {stats.n_rejected}",
            f"cells coerced to missing: {stats.n_coerced}",
            f"interpolated cells: {stats.n_filled}",
            f"days assembled: {stats.n_days}",
            f"days with incomplete variables: {stats.incomplete_days}",
        ]
    )
    write_text(out / "ingest_report.txt", report + "\n")
    print(report)
    return 0


def cmd_featurize(config: RunConfig) -> int:
    out = _out_dir(config)
    rows, schema = pipeline.build_rows(config)
    header = ["date"] + [d.name for d in schema] + ["target_raw", "current_anchor"]
    # Lines joined as csv.writer would write them: no cell needs quoting, as
    # repr floats and ISO dates never do, once the names are checked.
    quoted = [name for name in header if any(ch in name for ch in ',"\r\n')]
    if quoted:
        raise pipeline.PipelineError(f"feature names need CSV quoting: {quoted}")
    manifest_lines = ["index\tname\tcategory\tparents"]
    for d in schema:
        parents = "" if d.parents is None else f"{d.parents[0]},{d.parents[1]}"
        manifest_lines.append(f"{d.index}\t{d.name}\t{d.category}\t{parents}")
    write_text(out / "feature_manifest.txt", "\n".join(manifest_lines) + "\n")

    def lines(lo, hi):
        # formatted row by row as written: all rows' text at once set the peak memory
        for d, x, target, anchor in zip(rows.dates[lo:hi], rows.x[lo:hi],
                                        rows.target_raw[lo:hi].tolist(),
                                        rows.current_anchor[lo:hi].tolist()):
            yield f"{d.isoformat()},{','.join(map(repr, x.tolist()))},{target!r},{anchor!r}\r\n"

    write_lines(out / "features.csv", ",".join(header) + "\r\n", lines, len(rows))
    print(f"featurized {len(rows)} modeling days, {len(schema)} base features")
    return 0


def _write_cv_table(path: Path, cv: selection.CvResult, nonzero=None) -> None:
    """One row per lambda; ``nonzero`` adds the full-data path's active counts."""
    header = ["lambda", "cv_mean", "cv_se"]
    rows = [[repr(float(v)) for v in row] for row in zip(cv.grid, cv.cv_mean, cv.cv_se)]
    if nonzero is not None:
        header.append("nonzero")
        rows = [row + [nz] for row, nz in zip(rows, nonzero)]
    write_csv(path, header, rows)


def cmd_cv(config: RunConfig) -> int:
    pipeline.cv_path(config.method)  # mlr is rejected before any input is read
    out = _out_dir(config)
    data, _ = pipeline.load_training(config)
    design = pipeline.build_design(data, config.expansion)
    cv = pipeline.cross_validate(config, design, data.y, config.method)
    nonzero = None  # every ridge weight is nonzero: no nonzero column
    if config.method == "lasso":
        nonzero = [int(f.active_set.size) for f in solvers.lasso_path(design, data.y, cv.grid)]
    _write_cv_table(out / "cv_table.csv", cv, nonzero)
    chosen = selection.select_lambda(cv, config.cv_rule)
    summary = "\n".join(
        [
            f"lambda_min={cv.lambda_min!r}",
            f"lambda_1se={cv.lambda_1se!r}",
            f"rule={config.cv_rule}",
            f"chosen={chosen!r}",
        ]
    )
    write_text(out / "cv_summary.txt", summary + "\n")
    print(summary)
    return 0


def cmd_train(config: RunConfig) -> int:
    out = _out_dir(config)
    data, _ = pipeline.load_training(config)
    model, cv, _ = pipeline.fit_method(config, data, config.method, config.expansion)
    modelio.save_model(model, out / "model.json")
    write_effective_config(config, out / "effective_config.cfg")
    if cv is not None:
        _write_cv_table(out / "cv_table.csv", cv)
    n_active = len(model["weights"])
    print(f"trained {model['method']} ({model['expansion']}), "
          f"lambda={model['lambda']!r}, active features: {n_active}")
    return 0


def cmd_predict(config: RunConfig, model_path: str) -> int:
    out = _out_dir(config)
    model = modelio.load_model(model_path)
    modelio.check_variant(model, config.variant)
    rows, _ = pipeline.build_rows(config)
    _, test_rows = pipeline.split_rows(config, rows)
    dates, obs, pred = pipeline.predict_series(model, test_rows)
    write_csv(
        out / "predictions.csv",
        ["date", "observed", "predicted"],
        [
            [d.isoformat(), repr(float(o)), repr(float(p))]
            for d, o, p in zip(dates, obs, pred)
        ],
    )
    print(f"predicted {len(dates)} days")
    return 0


def _read_predictions(path: Path):
    """Dates, observed and predicted values of a predictions file; a missing
    column, a bad date or a value that is not a finite number is rejected."""
    dates, obs, pred = [], [], []
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or ()
        lacks = [name for name in ("date", "observed", "predicted") if name not in header]
        if lacks:
            raise pipeline.PipelineError(f"{path}: header lacks {', '.join(lacks)}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            try:
                dates.append(Date.fromisoformat(row["date"]))
            except (TypeError, ValueError):
                raise pipeline.PipelineError(f"{where}: date {row['date']!r} is not an ISO date")
            for name, values in (("observed", obs), ("predicted", pred)):
                try:
                    values.append(float(row[name]))
                except (TypeError, ValueError):
                    values.append(np.nan)
                if not np.isfinite(values[-1]):
                    raise pipeline.PipelineError(
                        f"{where}: {name} {row[name]!r} is not a finite number")
    return dates, np.array(obs), np.array(pred)


def _metrics_text(metrics: evaluation.EvalMetrics) -> str:
    lines = [
        f"n={metrics.n}",
        f"rmse_ppb={metrics.rmse!r}",
        f"mae_ppb={metrics.mae!r}",
    ]
    for label, t_rmse, t_mae, t_n in metrics.per_trimester:
        lines.append(f"trimester {label}: rmse={t_rmse!r} mae={t_mae!r} n={t_n}")
    if metrics.scatter is not None:
        s = metrics.scatter
        lines.append(
            f"scatter: slope={s.slope!r} intercept={s.intercept!r} r={s.pearson_r!r}"
        )
    return "\n".join(lines)


def cmd_evaluate(config: RunConfig, predictions_path: str) -> int:
    out = _out_dir(config)
    dates, obs, pred = _read_predictions(Path(predictions_path))
    metrics = evaluation.evaluate_predictions(pred, obs, dates)
    text = _metrics_text(metrics)
    write_text(out / "metrics.txt", text + "\n")
    scatter_rows = []
    for label, idx in zip(
        evaluation.TRIMESTER_LABELS, evaluation.trimester_split(dates)
    ):
        for i in idx:
            scatter_rows.append([label, repr(float(obs[i])), repr(float(pred[i]))])
    write_csv(out / "scatter_pairs.csv", ["trimester", "observed", "predicted"], scatter_rows)
    print(text)
    return 0


def cmd_report(config: RunConfig) -> int:
    out = _out_dir(config)
    data, test_rows = pipeline.load_training(config)
    results = []
    top_dump = []
    for method in config.report_method_names():
        if method == "persistence":
            metrics = evaluation.persistence_baseline(test_rows)
            results.append(evaluation.MethodResult("persistence", metrics, None, None))
            continue
        kind, expansion = REPORT_METHODS[method]
        try:
            model, _, fit = pipeline.fit_method(config, data, kind, expansion)
        except solvers.SingularDesignError:
            note = "failed (singular design)"
        else:
            # an uncertified fit is no result: no weights file or top weights either
            note = "" if fit.converged else "failed (not converged)"
        if note:
            results.append(evaluation.MethodResult(method, None, None, None, note=note))
            continue
        dates, obs, pred = pipeline.predict_series(model, test_rows)
        metrics = evaluation.evaluate_predictions(pred, obs, dates)
        results.append(
            evaluation.MethodResult(method, metrics, len(model["weights"]), fit.beta.size)
        )
        write_csv(out / f"weights_{method.replace('-', '_')}.csv", ["index", "name", "weight"],
                  [[w["index"], w["name"], repr(w["weight"])] for w in model["weights"]])
        if kind == "lasso":
            top_dump.append(f"top weights ({method}):")
            top_dump.extend(
                f"  {w:+.4f}  {name}" for w, name in evaluation.top_weights(model["weights"], 10)
            )

    table = evaluation.comparison_report(results, n_test=len(test_rows))
    text = table + "\n" + "\n".join(top_dump) + ("\n" if top_dump else "")
    write_text(out / "comparison.txt", text)
    print(text)
    return 0


def cmd_synth(args) -> int:
    config = synth.SynthConfig(
        n_days=args.n_days,
        seed=args.seed,
        sparsity=args.sparsity,
        snr=None if args.snr == "inf" else float(args.snr),
    )
    manifest = synth.write_files(config, args.out_dir)
    print(
        f"wrote {config.n_days} days to {args.out_dir} "
        f"(support size {len(manifest['support'])}, noise sd {manifest['noise_std']:.3f} ppb)"
    )
    return 0


# command -> (handler, flags it requires, whether it splits train and test
# rows); a handler is called with the checked config (its date ranges too,
# if it splits) and the values of those flags
COMMANDS = {
    "ingest": (cmd_ingest, (), False),
    "featurize": (cmd_featurize, (), False),
    "cv": (cmd_cv, (), True),
    "train": (cmd_train, (), True),
    "predict": (cmd_predict, ("--model",), True),
    "evaluate": (cmd_evaluate, ("--predictions",), False),
    "report": (cmd_report, (), True),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ozolasso",
        description="Sparse linear modeling pipeline for next-day ozone forecasting",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, required, _) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key")
        for flag, key in SHORTCUTS.items():
            p.add_argument(flag, dest=key, metavar="VALUE", help=f"same as --set {key}=VALUE")
        for flag in required:
            p.add_argument(flag, required=True)

    defaults = synth.SynthConfig()
    p_synth = sub.add_parser("synth")
    p_synth.add_argument("--out-dir", required=True)
    p_synth.add_argument("--n-days", type=int, default=defaults.n_days)
    p_synth.add_argument("--seed", type=int, default=defaults.seed)
    p_synth.add_argument("--sparsity", type=int, default=defaults.sparsity)
    p_synth.add_argument("--snr", default=repr(defaults.snr),
                         help="signal-to-noise ratio, or 'inf'")

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    pinned = parallel.set_blas_threads(1)  # so no environment variable changes a result
    logging.getLogger(__name__).debug(
        f"blas: one thread in {', '.join(pinned)}" if pinned
        else "blas: no bundled OpenBLAS found; thread count left to the library")
    try:
        if args.command == "synth":
            return cmd_synth(args)
        handler, required, splits = COMMANDS[args.command]
        config = _build_config(args, splits)
        return handler(config, *(getattr(args, flag[2:]) for flag in required))
    except (ConfigError, pipeline.PipelineError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # surface anything else with a nonzero status
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
