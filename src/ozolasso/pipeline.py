"""End-to-end orchestration shared by the CLI subcommands.

Every step is a pure function of (input files, config, seed); reruns are
byte-identical.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import evaluation, ingest, modelio, selection, solvers
from .config import ConfigError, RunConfig
from .expansion import ExpandedDesign, expansion_size
from .features import (
    DailyFeatureRow,
    FeatureDescriptor,
    StandardizationParams,
    apply_standardizer,
    build_base_features,
    fit_standardizer,
    stack_rows,
)

logger = logging.getLogger(__name__)


class PipelineError(Exception):
    pass


@dataclass
class IngestStats:
    n_rows: int
    n_rejected: int
    n_coerced: int
    n_days: int
    n_filled: int
    incomplete_days: int


def load_day_blocks(config: RunConfig):
    """Parse the pollutant and meteorology files into assembled day blocks."""
    if not config.pollutant_file or not config.meteo_file:
        raise ConfigError("pollutant_file and meteo_file are required")
    pol_schema = ingest.FileSchema.canonical(ingest.POLLUTANTS)
    met_schema = ingest.FileSchema.canonical(ingest.METEO_VARS)
    pol = ingest.parse_hourly_file(config.pollutant_file, pol_schema)
    met = ingest.parse_hourly_file(config.meteo_file, met_schema)
    records = ingest.merge_records(pol.records, met.records)
    if not records:
        raise PipelineError("input files contain no usable rows")
    days = ingest.assemble_days(records, config.max_gap_hours)

    forecast_days = None
    if config.forecast_file:
        fc = ingest.parse_hourly_file(config.forecast_file, met_schema)
        forecast_days = ingest.assemble_days(
            fc.records, config.max_gap_hours, variables=ingest.METEO_VARS
        )

    stats = IngestStats(
        n_rows=len(records),
        n_rejected=len(pol.rejected) + len(met.rejected),
        n_coerced=pol.coerced_missing + met.coerced_missing,
        n_days=len(days),
        n_filled=sum(sum(d.fill_count.values()) for d in days),
        incomplete_days=sum(1 for d in days if not all(d.complete.values())),
    )
    return days, forecast_days, stats


def build_rows(config: RunConfig):
    days, forecast_days, stats = load_day_blocks(config)
    rows, schema = build_base_features(days, config.variant, forecast_days)
    if not rows:
        raise PipelineError("no complete modeling days")
    return rows, schema, stats


def split_rows(config: RunConfig, rows: list[DailyFeatureRow]):
    config.validate_split()
    tr_lo, tr_hi = config.date_range("train")
    te_lo, te_hi = config.date_range("test")
    train = [r for r in rows if tr_lo <= r.date <= tr_hi]
    test = [r for r in rows if te_lo <= r.date <= te_hi]
    if not train:
        raise PipelineError("train date range selects zero rows")
    if not test:
        raise PipelineError("test date range selects zero rows")
    return train, test


@dataclass
class TrainingData:
    params: StandardizationParams
    base: np.ndarray  # standardized training base matrix
    y: np.ndarray  # standardized training target
    kept_names: list[str]
    all_names: list[str]
    schema: list[FeatureDescriptor]


def prepare_training(config: RunConfig, train_rows, schema) -> TrainingData:
    X_raw, y_raw = stack_rows(train_rows, config.target_mode)
    params = fit_standardizer(X_raw, y_raw)
    base, y = apply_standardizer(params, X_raw, y_raw)
    all_names = [d.name for d in schema]
    kept_names = [all_names[int(j)] for j in params.kept]
    return TrainingData(params, base, y, kept_names, all_names, schema)


def load_training(config: RunConfig):
    """Rows -> train/test split -> standardized training data, test rows."""
    rows, schema, _ = build_rows(config)
    train_rows, test_rows = split_rows(config, rows)
    return prepare_training(config, train_rows, schema), test_rows


def build_design(config: RunConfig, data: TrainingData, expansion: str | None = None):
    """Training design: base matrix, or the streamed quadratic expansion."""
    if expansion is None:
        expansion = config.expansion
    if expansion == "linear":
        return data.base
    n, p0 = data.base.shape
    p = expansion_size(p0)
    working_mb = (p * 2 * 8 + ExpandedDesign.CHUNK * n * 8) / 2**20
    if working_mb > config.memory_budget_mb:
        logger.warning(
            "polynomial working set ~%.0f MiB exceeds budget %d MiB",
            working_mb, config.memory_budget_mb,
        )
    logger.info("polynomial expansion: %d columns, streamed (never materialized)", p)
    return ExpandedDesign.fit(data.base)


def choose_lambda(config: RunConfig, design, y, solver: str = "lasso"):
    """(lambda, CvResult | None) per the config: explicit value or CV."""
    explicit = config.lambda_value()
    if explicit is not None:
        return explicit, None
    cv = cross_validate(config, design, y, solver)
    return selection.select_lambda(cv, config.cv_rule), cv


def cross_validate(config: RunConfig, design, y, solver: str = "lasso") -> selection.CvResult:
    """k-fold CV over the configured grid, descending from lambda_max."""
    grid = selection.make_lambda_grid(design, y, config.cv_points, config.cv_ratio)
    return selection.kfold_cv(
        design, y, config.cv_k, grid, config.seed,
        solver=solver, fold_mode=config.fold_mode,
        tol=config.tol, max_sweeps=config.max_sweeps,
    )


def fit_method(config: RunConfig, data: TrainingData, method: str, expansion: str):
    """Fit one method on the training data; returns (model dict, CvResult|None)."""
    if expansion == "polynomial" and method != "lasso":
        raise PipelineError("polynomial expansion is only solved by the lasso")
    design = build_design(config, data, expansion)
    expanded = design if expansion == "polynomial" else None

    cv = None
    if method == "lasso":
        lam, cv = choose_lambda(config, design, data.y, solver="lasso")
        fit = solvers.fit_lasso(
            design, data.y,
            solvers.LassoConfig(lam=lam, tol=config.tol, max_sweeps=config.max_sweeps),
        )
        if not fit.converged:
            logger.warning("lasso did not converge in %d sweeps", fit.sweeps_used)
    elif method == "ridge":
        lam, cv = choose_lambda(config, design, data.y, solver="ridge")
        fit = solvers.fit_ridge(design, data.y, lam)
    elif method == "mlr":
        fit = solvers.fit_ols(design, data.y)
    else:
        raise PipelineError(f"unknown method {method!r}")

    model = modelio.build_model_dict(
        fit, data.params, data.kept_names, data.all_names,
        variant=config.variant, expansion=expansion, target_mode=config.target_mode,
        design=expanded,
        solver_meta={"tol": config.tol, "max_sweeps": config.max_sweeps, "seed": config.seed},
    )
    return model, cv, fit


def train(config: RunConfig):
    """Full training chain; returns (model dict, CvResult|None, test rows)."""
    config.validate_choices()
    data, test_rows = load_training(config)
    model, cv, _ = fit_method(config, data, config.method, config.expansion)
    return model, cv, test_rows


def predict_series(model: dict, rows: list[DailyFeatureRow]):
    """(dates, observed, predicted) on raw rows."""
    pred = modelio.predict_rows(model, rows)
    obs = np.array([r.target_raw for r in rows])
    return [r.date for r in rows], obs, pred


def evaluate_method_on_test(model: dict, test_rows) -> evaluation.EvalMetrics:
    dates, obs, pred = predict_series(model, test_rows)
    return evaluation.evaluate_predictions(pred, obs, dates)
