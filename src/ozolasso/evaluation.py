"""Error metrics, persistence baseline, seasonal breakdowns, and reports."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date as Date

import numpy as np

from .features import FeatureRows

TRIMESTER_LABELS = ("Jan-Mar", "Apr-Jun", "Jul-Sep", "Oct-Dec")


class EvaluationError(Exception):
    pass


@dataclass
class ScatterFit:
    slope: float
    intercept: float
    pearson_r: float


@dataclass
class EvalMetrics:
    rmse: float
    mae: float
    n: int
    per_trimester: list[tuple[str, float, float, int]]  # (label, rmse, mae, n)
    scatter: ScatterFit | None


def rmse(pred: np.ndarray, obs: np.ndarray) -> float:
    pred, obs = _check_pair(pred, obs)
    return float(np.sqrt(np.mean((pred - obs) ** 2)))


def mae(pred: np.ndarray, obs: np.ndarray) -> float:
    pred, obs = _check_pair(pred, obs)
    return float(np.mean(np.abs(pred - obs)))


def _check_pair(pred, obs) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=float)
    obs = np.asarray(obs, dtype=float)
    if pred.shape != obs.shape or pred.size == 0:
        raise EvaluationError("pred/obs must be equal-length and nonempty")
    return pred, obs


def scatter_fit(pred: np.ndarray, obs: np.ndarray) -> ScatterFit:
    """Least-squares line of predicted on observed, plus Pearson correlation.

    Predicted is the y axis, observed the x axis, matching the usual
    forecast-vs-observed scatterplot.
    """
    pred, obs = _check_pair(pred, obs)
    if pred.size < 2:
        raise EvaluationError("scatter fit needs at least 2 points")
    x_c = obs - obs.mean()
    y_c = pred - pred.mean()
    var_x = float(x_c @ x_c)
    if var_x == 0:
        raise EvaluationError("observed values are constant")
    slope = float(x_c @ y_c) / var_x
    intercept = float(pred.mean() - slope * obs.mean())
    denom = np.sqrt(var_x * float(y_c @ y_c))
    r = float(x_c @ y_c) / float(denom) if denom > 0 else 0.0
    return ScatterFit(slope=slope, intercept=intercept, pearson_r=r)


def trimester_of(date: Date) -> int:
    return (date.month - 1) // 3


def trimester_split(dates: list[Date]) -> list[np.ndarray]:
    """Row indices per calendar trimester (4 groups, possibly empty)."""
    groups = [[] for _ in range(4)]
    for i, d in enumerate(dates):
        groups[trimester_of(d)].append(i)
    return [np.array(g, dtype=int) for g in groups]


def evaluate_predictions(
    pred: np.ndarray, obs: np.ndarray, dates: list[Date]
) -> EvalMetrics:
    pred, obs = _check_pair(pred, obs)
    if len(dates) != pred.size:
        raise EvaluationError("dates length mismatch")
    per_trimester = []
    for label, idx in zip(TRIMESTER_LABELS, trimester_split(dates)):
        if idx.size == 0:
            continue
        per_trimester.append((label, rmse(pred[idx], obs[idx]), mae(pred[idx], obs[idx]), int(idx.size)))
    scatter = scatter_fit(pred, obs) if pred.size >= 2 and np.ptp(obs) > 0 else None
    return EvalMetrics(
        rmse=rmse(pred, obs),
        mae=mae(pred, obs),
        n=int(pred.size),
        per_trimester=per_trimester,
        scatter=scatter,
    )


def persistence_baseline(rows: FeatureRows) -> EvalMetrics:
    """Forecast tomorrow's statistic as today's (the no-skill reference)."""
    return evaluate_predictions(rows.current_anchor, rows.target_raw, rows.dates.tolist())


def top_weights(weights: list[dict], k: int) -> list[tuple[float, str]]:
    """(weight, name) of the k largest-magnitude model weight entries, ties
    broken by index."""
    ranked = sorted(weights, key=lambda w: (-abs(w["weight"]), w["index"]))
    return [(w["weight"], w["name"]) for w in ranked[:k]]


@dataclass
class MethodResult:
    label: str
    metrics: EvalMetrics | None
    n_active: int | None
    n_candidates: int | None
    note: str = ""


def comparison_report(results: list[MethodResult], n_test: int) -> str:
    """Fixed-width comparison table across methods on an identical test set."""
    for res in results:
        if res.metrics is not None and res.metrics.n != n_test:
            raise EvaluationError(
                f"{res.label}: evaluated on {res.metrics.n} rows, expected {n_test}"
            )
    lines = [f"{'method':<22}{'RMSE':>8}{'MAE':>8}  #features"]
    for res in results:
        if res.metrics is None:
            lines.append(f"{res.label:<22}{'-':>8}{'-':>8}  {res.note or 'failed'}")
            continue
        if res.n_active is None:
            feats = "n/a"
        else:
            feats = f"{res.n_active}/ {res.n_candidates}"
        lines.append(
            f"{res.label:<22}{res.metrics.rmse:>8.2f}{res.metrics.mae:>8.2f}  {feats}"
        )
    lines.append("")
    lines.append("note: ARMA and SVM-regression comparisons are not generated by this tool")
    return "\n".join(lines) + "\n"
