"""End-to-end orchestration shared by the CLI subcommands.

Every step is a pure function of (input files, config, seed); reruns are
byte-identical.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ingest, modelio, parallel, selection, solvers
from .config import ConfigError, RunConfig
from .expansion import ExpandedDesign, expansion_size
from .features import (
    FeatureRows,
    StandardizationParams,
    apply_standardizer,
    build_base_features,
    fit_standardizer,
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
    """Parse the pollutant and meteorology files into assembled day grids;
    the meteorology file in a forked child beside the pollutant one when it
    is large enough (``parallel.beside``). Logs the split each file took."""
    if not config.pollutant_file or not config.meteo_file:
        raise ConfigError("pollutant_file and meteo_file are required")
    meteo = config.meteo_file
    size = os.path.getsize(meteo) if os.path.isfile(meteo) else 0  # else the parse fails in turn
    with parallel.beside(ingest.parse_hourly_file, meteo, ingest.METEO_VARS,
                         nbytes=size) as meteorology:
        pol = ingest.parse_hourly_file(config.pollutant_file, ingest.POLLUTANTS)
        logger.debug("%s: %s", Path(config.pollutant_file), pol.split)
        met = meteorology()
    logger.debug("%s: %s", Path(meteo), met.split)
    hourly = ingest.merge_records(pol.records, met.records)
    if not len(hourly):
        raise PipelineError("input files contain no usable rows")
    days = ingest.assemble_days(hourly, config.max_gap_hours)

    forecast_days = None
    if config.forecast_file:
        fc = ingest.parse_hourly_file(config.forecast_file, ingest.METEO_VARS)
        logger.debug("%s: %s", Path(config.forecast_file), fc.split)
        forecast_days = ingest.assemble_days(
            fc.records, config.max_gap_hours, variables=ingest.METEO_VARS
        )

    stats = IngestStats(
        n_rows=len(hourly),
        n_rejected=len(pol.rejected) + len(met.rejected),
        n_coerced=pol.coerced_missing + met.coerced_missing,
        n_days=len(days),
        n_filled=int(sum(count.sum() for count in days.fill_count.values())),
        incomplete_days=int(np.isnan(np.stack(list(days.values.values()))).any(axis=(0, 2)).sum()),
    )
    return days, forecast_days, stats


def build_rows(config: RunConfig):
    days, forecast_days, _ = load_day_blocks(config)
    rows, schema = build_base_features(days, config.variant, forecast_days)
    if not len(rows):
        raise PipelineError("no complete modeling days")
    return rows, schema


def split_rows(config: RunConfig, rows: FeatureRows):
    """Train and test rows by a config whose ranges ``validate_split`` passed."""
    tr_lo, tr_hi = config.date_range("train")
    te_lo, te_hi = config.date_range("test")
    train = rows[(rows.dates >= tr_lo) & (rows.dates <= tr_hi)]
    test = rows[(rows.dates >= te_lo) & (rows.dates <= te_hi)]
    if not len(train):
        raise PipelineError("train date range selects zero rows")
    if not len(test):
        raise PipelineError("test date range selects zero rows")
    return train, test


@dataclass
class TrainingData:
    params: StandardizationParams
    base: np.ndarray  # standardized training base matrix
    y: np.ndarray  # standardized training target
    kept_names: list[str]
    all_names: list[str]


def prepare_training(config: RunConfig, train_rows: FeatureRows, schema) -> TrainingData:
    y_raw = train_rows.target_raw
    if config.target_mode == "delta":
        y_raw = y_raw - train_rows.current_anchor
    params = fit_standardizer(train_rows.x, y_raw)
    base, y = apply_standardizer(params, train_rows.x, y_raw)
    all_names = [d.name for d in schema]
    kept_names = [all_names[int(j)] for j in params.kept]
    return TrainingData(params, base, y, kept_names, all_names)


def load_training(config: RunConfig):
    """Rows -> train/test split -> standardized training data, test rows."""
    rows, schema = build_rows(config)
    train_rows, test_rows = split_rows(config, rows)
    return prepare_training(config, train_rows, schema), test_rows


def build_design(data: TrainingData, expansion: str):
    """Training design: a DenseDesign of the base matrix, or its streamed
    quadratic expansion."""
    if expansion == "linear":
        return solvers.DenseDesign(data.base)
    logger.info("polynomial expansion: %d columns, streamed (never materialized)",
                expansion_size(data.base.shape[1]))
    return ExpandedDesign.fit(data.base)


def cv_path(method: str):
    """The path that cross-validates ``method``'s lambda, looked up at the
    call so that a wrapped solver is the one called; mlr fits no lambda."""
    paths = {"lasso": solvers.lasso_path, "ridge": solvers.ridge_path}
    if method not in paths:
        raise PipelineError(f"method {method} has no lambda to cross-validate")
    return paths[method]


def choose_lambda(config: RunConfig, design, y, method: str):
    """(lambda, CvResult | None) per the config: explicit value or CV."""
    explicit = config.lambda_value()
    if explicit is not None:
        return explicit, None
    cv = cross_validate(config, design, y, method)
    return selection.select_lambda(cv, config.cv_rule), cv


def cross_validate(config: RunConfig, design, y, method: str) -> selection.CvResult:
    """k-fold CV of ``method`` over the configured grid, descending from
    lambda_max."""
    grid = selection.make_lambda_grid(design, y, config.cv_points, config.cv_ratio)
    return selection.kfold_cv(
        design, y, config.cv_k, grid, config.seed,
        fit_path=cv_path(method), fold_mode=config.fold_mode,
    )


def fit_method(config: RunConfig, data: TrainingData, method: str, expansion: str):
    """Fit one of the ``REPORT_METHODS`` pairs on the training data; returns
    (model dict, CvResult | None, fit)."""
    design = build_design(data, expansion)
    cv = None
    if method == "lasso":
        lam, cv = choose_lambda(config, design, data.y, method)
        fit = solvers.fit_lasso(design, data.y, solvers.LassoConfig(lam=lam))
        if not fit.converged:
            logger.warning("lasso did not converge in %d kinks", fit.sweeps_used)
    elif method == "ridge":
        lam, cv = choose_lambda(config, design, data.y, method)
        fit = solvers.fit_ridge(design, data.y, lam)
    else:  # mlr
        fit = solvers.fit_ols(design, data.y)

    model = modelio.build_model_dict(
        fit, data.params, data.kept_names, data.all_names,
        variant=config.variant, expansion=expansion, target_mode=config.target_mode,
        design=design,
        solver_meta={"tol": solvers.TOL, "max_sweeps": solvers.MAX_SWEEPS, "seed": config.seed},
    )
    return model, cv, fit


def predict_series(model: dict, rows: FeatureRows):
    """(dates, observed, predicted) on raw rows."""
    return rows.dates.tolist(), rows.target_raw, modelio.predict_rows(model, rows)
