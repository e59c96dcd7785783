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

from . import evaluation, modelio, pipeline, selection, solvers, synth
from .atomic import write_csv, write_text
from .config import ConfigError, RunConfig, load_config, set_option, write_effective_config
from .ingest import write_canonical

logger = logging.getLogger(__name__)

# report method -> (fit method, expansion)
REPORT_METHODS = {
    "lasso-linear": ("lasso", "linear"),
    "lasso-polynomial": ("lasso", "polynomial"),
    "ridge": ("ridge", "linear"),
    "mlr": ("mlr", "linear"),
}


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _build_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        set_option(config, key.strip(), value.strip())
    for key in ("seed", "variant", "expansion", "lam", "fold_mode", "out_dir"):
        value = getattr(args, key, None)
        if value is not None:
            set_option(config, key, str(value))
    config.validate_choices()
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
    rows, schema, _ = pipeline.build_rows(config)
    manifest_lines = ["index\tname\tcategory\tparents"]
    for d in schema:
        parents = "" if d.parents is None else f"{d.parents[0]},{d.parents[1]}"
        manifest_lines.append(f"{d.index}\t{d.name}\t{d.category}\t{parents}")
    write_text(out / "feature_manifest.txt", "\n".join(manifest_lines) + "\n")

    header = ["date"] + [d.name for d in schema] + ["target_raw", "current_anchor"]
    data_rows = [
        [r.date.isoformat()]
        + [repr(float(v)) for v in r.x]
        + [repr(float(r.target_raw)), repr(float(r.current_anchor))]
        for r in rows
    ]
    write_csv(out / "features.csv", header, data_rows)
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
    out = _out_dir(config)
    data, _ = pipeline.load_training(config)
    design = pipeline.build_design(config, data)
    cv = pipeline.cross_validate(config, design, data.y)
    fits = solvers.lasso_path(
        design, data.y, cv.grid, tol=config.tol, max_sweeps=config.max_sweeps
    )
    _write_cv_table(out / "cv_table.csv", cv, [int(f.active_set.size) for f in fits])
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
    model, cv, _ = pipeline.train(config)
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
    rows, _, _ = pipeline.build_rows(config)
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
    dates, obs, pred = [], [], []
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            dates.append(Date.fromisoformat(row["date"]))
            obs.append(float(row["observed"]))
            pred.append(float(row["predicted"]))
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
    methods = [m.strip() for m in config.report_methods.split(",") if m.strip()]

    results = []
    top_dump = []
    for method in methods:
        if method == "persistence":
            metrics = evaluation.persistence_baseline(test_rows)
            results.append(evaluation.MethodResult("persistence", metrics, None, None))
            continue
        if method not in REPORT_METHODS:
            raise pipeline.PipelineError(f"unknown report method {method!r}")
        kind, expansion = REPORT_METHODS[method]
        try:
            model, _, fit = pipeline.fit_method(config, data, kind, expansion)
        except solvers.SingularDesignError:
            results.append(
                evaluation.MethodResult(method, None, None, None, note="failed (singular design)")
            )
            continue
        metrics = pipeline.evaluate_method_on_test(model, test_rows)
        results.append(
            evaluation.MethodResult(method, metrics, len(model["weights"]), fit.beta.size)
        )
        weight_rows = [
            [w["index"], w["name"], repr(w["weight"])] for w in model["weights"]
        ]
        write_csv(
            out / f"weights_{method.replace('-', '_')}.csv",
            ["index", "name", "weight"],
            weight_rows,
        )
        if kind == "lasso":
            if expansion == "polynomial":
                top = sorted(
                    ((w["weight"], w["name"]) for w in model["weights"]),
                    key=lambda t: (-abs(t[0]), t[1]),
                )[:10]
            else:
                top = evaluation.top_weights(fit, data.kept_names, 10)
            top_dump.append(f"top weights ({method}):")
            top_dump.extend(f"  {w:+.4f}  {name}" for w, name in top)

    table = evaluation.comparison_report(results, n_test=len(test_rows))
    text = table + "\n" + "\n".join(top_dump) + ("\n" if top_dump else "")
    write_text(out / "comparison.txt", text)
    print(text)
    return 0


def cmd_synth(args) -> int:
    config = synth.SynthConfig(
        n_days=args.n_days,
        seed=args.seed if args.seed is not None else 0,
        sparsity=args.sparsity,
        snr=None if args.snr in (None, "inf") else float(args.snr),
    )
    manifest = synth.write_files(config, args.out_dir)
    print(
        f"wrote {config.n_days} days to {args.out_dir} "
        f"(support size {len(manifest['support'])}, noise sd {manifest['noise_std']:.3f} ppb)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ozolasso",
        description="Sparse linear modeling pipeline for next-day ozone forecasting",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key")
        p.add_argument("--seed", type=int)
        p.add_argument("--variant", choices=["max", "max8h"])
        p.add_argument("--expansion", choices=["linear", "polynomial"])
        p.add_argument("--lambda", dest="lam", metavar="LAMBDA",
                       help="explicit value or 'cv'")
        p.add_argument("--folds", dest="fold_mode", choices=["shuffled", "blocked"])
        p.add_argument("--out-dir", dest="out_dir")

    handlers = {
        "ingest": cmd_ingest,
        "featurize": cmd_featurize,
        "cv": cmd_cv,
        "train": cmd_train,
        "predict": lambda config: cmd_predict(config, args.model),
        "evaluate": lambda config: cmd_evaluate(config, args.predictions),
        "report": cmd_report,
    }
    for name in handlers:
        add_common(sub.add_parser(name))
    sub.choices["predict"].add_argument("--model", required=True)
    sub.choices["evaluate"].add_argument("--predictions", required=True)

    p_synth = sub.add_parser("synth")
    p_synth.add_argument("--out-dir", required=True)
    p_synth.add_argument("--n-days", type=int, default=300)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--sparsity", type=int, default=5)
    p_synth.add_argument("--snr", default="20", help="signal-to-noise ratio, or 'inf'")

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "synth":
            return cmd_synth(args)
        return handlers[args.command](_build_config(args))
    except (ConfigError, pipeline.PipelineError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # surface anything else with a nonzero status
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
