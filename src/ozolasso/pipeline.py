"""End-to-end orchestration shared by the CLI subcommands.

Every step is a pure function of (input files, config, seed); reruns are
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import logging
import operator
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import ingest, modelio, parallel, selection, solvers
from .atomic import atomic_open
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


# The day grids of the last parse, kept in the out dir: a later command on
# the same inputs loads them instead of parsing the hourly files again.
DAY_CACHE = "day_blocks.cache"
_CACHE_FORMAT = "ozolasso day blocks 1"


class _CacheMiss(Exception):
    """Why the day-block cache cannot be used: no file, key, length or digest."""


def _day_cache_key(config: RunConfig) -> str:
    """sha256 over the cache format, numpy's version, this package's source,
    ``max_gap_hours`` and the bytes of each input file: all that the day
    grids depend on. Raises OSError when a file cannot be read."""
    key = hashlib.sha256(f"{_CACHE_FORMAT}\0numpy {np.__version__}\0"
                         f"max_gap_hours {config.max_gap_hours}\0".encode())
    for source in sorted(Path(__file__).parent.glob("*.py")):
        key.update(source.name.encode() + b"\0" + hashlib.sha256(source.read_bytes()).digest())
    for name in (config.pollutant_file, config.meteo_file, config.forecast_file):
        if not name:
            key.update(b"-")
            continue
        digest = hashlib.sha256()
        with Path(name).open("rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        key.update(b"+" + digest.digest())
    return key.hexdigest()


def _grid_arrays(days: ingest.DayGrid) -> list[np.ndarray]:
    """A day grid's arrays in the cache's order, little-endian: the
    ordinals, each variable's grid, each variable's fill counts."""
    return [np.ascontiguousarray(days.ordinals, "<i8"),
            *(np.ascontiguousarray(days.values[v], "<f8") for v in days.values),
            *(np.ascontiguousarray(days.fill_count[v], "<i8") for v in days.values)]


# The variables of the days' grid and the forecast's, in the order
# _grid_arrays writes them: ingest fixes them, and the key pins its source.
_GRID_VARS = (ingest.ALL_VARS, ingest.METEO_VARS)


def _write_day_cache(path: Path, key: str, days, forecast_days, stats: IngestStats) -> None:
    """Keep the day grids at ``path`` under ``key``: a one-line sorted JSON
    header, then the arrays' raw bytes. The header's ``sha256`` covers the
    rest of the header and the arrays. A cache that cannot be written is
    left out; an empty directory in its place is removed first."""
    arrays = [a for grid in (days, forecast_days) if grid is not None for a in _grid_arrays(grid)]
    header = {"key": key, "days": len(days),
              "forecast": None if forecast_days is None else len(forecast_days),
              "stats": asdict(stats)}
    digest = hashlib.sha256(json.dumps(header, sort_keys=True).encode())
    for a in arrays:
        digest.update(a)
    header["sha256"] = digest.hexdigest()
    try:
        if path.is_dir():
            path.rmdir()
        with atomic_open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for a in arrays:
                fh.write(memoryview(a))
    except OSError as exc:
        logger.debug("day blocks: cache not written (%s)", exc)


def _read_day_cache(path: Path, key: str):
    """The (days, forecast days, stats) kept at ``path`` under ``key``.
    Raises _CacheMiss when the file cannot be read ("no file"), holds
    another key or a header this code does not write ("key"), or a payload
    of another length ("length") or digest ("digest")."""
    try:
        with path.open("rb") as fh:
            line = fh.readline()
            try:
                header = json.loads(line)
                if header["key"] != key:
                    raise _CacheMiss("key")
                # a day count per grid; None for no forecast
                counts = [n if n is None else operator.index(n) for n in (header["days"], header["forecast"])]
                stats = IngestStats(**header["stats"])
                claimed = header.pop("sha256")
            except (ValueError, TypeError, KeyError):
                raise _CacheMiss("key")
            # per day, 8 bytes each: its ordinal, and per variable 24 cells and a fill count
            sizes = [8 * n * (1 + 25 * len(names)) for n, names in zip(counts, _GRID_VARS) if n is not None]
            if min(sizes, default=0) < 0 or len(line) + sum(sizes) != os.fstat(fh.fileno()).st_size:
                raise _CacheMiss("length")
            grids = [None if n is None else ingest.DayGrid(
                         np.empty(n, "<i8"), {v: np.empty((n, 24), "<f8") for v in names},
                         {v: np.empty(n, "<i8") for v in names})
                     for n, names in zip(counts, _GRID_VARS)]
            digest = hashlib.sha256(json.dumps(header, sort_keys=True).encode())
            # each array already has its cache dtype, so _grid_arrays hands
            # back the grids' own arrays and the reads land in them
            for a in [a for grid in grids if grid is not None for a in _grid_arrays(grid)]:
                fh.readinto(a)  # a read cut short leaves bytes the digest rejects
                digest.update(a)
    except OSError:
        raise _CacheMiss("no file")
    if digest.hexdigest() != claimed:
        raise _CacheMiss("digest")
    days, forecast_days = grids
    return days, forecast_days, stats


def load_day_blocks(config: RunConfig):
    """(days, forecast days or None, IngestStats) of the pollutant,
    meteorology and forecast files.

    A ``DAY_CACHE`` file in the out dir written under the same key
    (``_day_cache_key``) is loaded in place of the parse. Otherwise the
    files are parsed and the cache is written: the meteorology file in a
    forked child beside the pollutant one when it is large enough
    (``parallel.beside``), logging the split each file took. An input that
    cannot be read fails as the parse fails, cache or not."""
    if not config.pollutant_file or not config.meteo_file:
        raise ConfigError("pollutant_file and meteo_file are required")
    try:
        key = _day_cache_key(config)
    except OSError:
        return _parse_day_blocks(config)
    cache = Path(config.out_dir) / DAY_CACHE
    try:
        blocks = _read_day_cache(cache, key)
    except _CacheMiss as miss:
        logger.debug("day blocks: cache miss (%s)", miss)
    else:
        logger.debug("day blocks: cache hit %s", cache)
        return blocks
    blocks = _parse_day_blocks(config)
    _write_day_cache(cache, key, *blocks)
    return blocks


def _log_parse(path: str, parsed: ingest.ParseResult) -> None:
    """Log at -v the split a file's parse took and the first rows it rejected."""
    logger.debug("%s: %s", Path(path), parsed.split)
    if parsed.rejected:
        logger.debug("%s: %d rejected row(s): %s", Path(path), len(parsed.rejected),
                     "; ".join(f"line {line}: {why}" for line, why in parsed.rejected[:10]))


def _parse_day_blocks(config: RunConfig):
    meteo = config.meteo_file
    size = os.path.getsize(meteo) if os.path.isfile(meteo) else 0  # else the parse fails in turn
    with parallel.beside(ingest.parse_hourly_file, meteo, ingest.METEO_VARS,
                         nbytes=size) as meteorology:
        pol = ingest.parse_hourly_file(config.pollutant_file, ingest.POLLUTANTS)
        _log_parse(config.pollutant_file, pol)
        met = meteorology()
    _log_parse(meteo, met)
    n_rows = len(np.union1d(pol.records.keys, met.records.keys))
    if not n_rows:
        raise PipelineError("input files contain no usable rows")
    days = ingest.assemble_days(pol.records, met.records, max_gap_hours=config.max_gap_hours)

    forecast_days, parsed = None, [pol, met]
    if config.forecast_file:
        fc = ingest.parse_hourly_file(config.forecast_file, ingest.METEO_VARS)
        _log_parse(config.forecast_file, fc)
        parsed.append(fc)
        forecast_days = ingest.assemble_days(
            fc.records, max_gap_hours=config.max_gap_hours, variables=ingest.METEO_VARS
        )

    stats = IngestStats(
        n_rows=n_rows,
        n_rejected=sum(len(p.rejected) for p in parsed),
        n_coerced=sum(p.coerced_missing for p in parsed),
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
