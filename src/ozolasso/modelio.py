"""Model file schema (versioned JSON) and prediction from saved models.

A saved model is self-contained: sparse weight triples with, for expanded
columns, the parent indices and the training moments needed to rebuild each
column on the fly, plus the full base standardization parameters.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .atomic import write_text
from .expansion import ExpandedDesign
from .features import DailyFeatureRow, StandardizationParams, apply_standardizer
from .solvers import LAMBDA_CONVENTION, ModelFit

MODEL_SCHEMA_VERSION = 1


class ModelIOError(Exception):
    pass


def _params_to_dict(params: StandardizationParams) -> dict:
    return {
        "mu": [float(v) for v in params.mu],
        "sigma": [float(v) for v in params.sigma],
        "kept": [int(v) for v in params.kept],
        "dropped": [int(v) for v in params.dropped],
        "y_mu": float(params.y_mu),
        "y_sigma": float(params.y_sigma),
    }


def _params_from_dict(d: dict) -> StandardizationParams:
    return StandardizationParams(
        mu=np.array(d["mu"], dtype=float),
        sigma=np.array(d["sigma"], dtype=float),
        kept=np.array(d["kept"], dtype=int),
        dropped=np.array(d["dropped"], dtype=int),
        y_mu=float(d["y_mu"]),
        y_sigma=float(d["y_sigma"]),
    )


def standardization_digest(params: StandardizationParams) -> str:
    payload = json.dumps(_params_to_dict(params), sort_keys=True)
    return "sha256:" + hashlib.sha256(payload.encode()).hexdigest()


def build_model_dict(
    fit: ModelFit,
    params: StandardizationParams,
    kept_names: list[str],
    all_names: list[str],
    variant: str,
    expansion: str,
    target_mode: str,
    design: ExpandedDesign | None = None,
    solver_meta: dict | None = None,
) -> dict:
    """Assemble the persistable model document from a fit."""
    if expansion == "polynomial" and design is None:
        raise ModelIOError("polynomial model requires its expanded design")
    weights = []
    for j in fit.active_set:
        j = int(j)
        entry: dict = {"index": j, "weight": float(fit.beta[j])}
        if expansion == "polynomial":
            desc = design.descriptor(j, kept_names)
            entry["name"] = desc.name
            entry["parents"] = list(desc.parents) if desc.parents else None
            entry["col_mean"] = float(design.col_mean[j])
            entry["col_std"] = float(design.col_std[j])
        else:
            entry["name"] = kept_names[j]
            entry["parents"] = None
        weights.append(entry)

    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "method": fit.method,
        "lambda": float(fit.lam),
        "convention": LAMBDA_CONVENTION,
        "variant": variant,
        "expansion": expansion,
        "target_mode": target_mode,
        "beta0": float(fit.beta0),
        "n_base_features": len(kept_names),
        "weights": weights,
        "standardization": _params_to_dict(params),
        "standardization_digest": standardization_digest(params),
        "dropped_columns": [all_names[int(j)] for j in params.dropped],
        "kkt": {
            "zero_violation": fit.kkt_zero_violation,
            "active_violation": fit.kkt_active_violation,
        },
        "solver": dict(solver_meta or {}, sweeps_used=fit.sweeps_used, converged=fit.converged),
    }


def save_model(model: dict, path: str | Path) -> None:
    write_text(path, json.dumps(model, indent=1, sort_keys=True, allow_nan=False) + "\n")


def load_model(path: str | Path) -> dict:
    model = json.loads(Path(path).read_text())
    version = model.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ModelIOError(f"unsupported model schema version {version!r}")
    digest = standardization_digest(_params_from_dict(model["standardization"]))
    if digest != model.get("standardization_digest"):
        raise ModelIOError("standardization does not match standardization_digest")
    return model


def _expanded_column(entry: dict, base: np.ndarray, p0: int) -> np.ndarray:
    j = entry["index"]
    if j < p0:
        raw = base[:, j]
    elif j < 2 * p0:
        raw = base[:, j - p0] ** 2
    else:
        pj, pk = entry["parents"]
        raw = base[:, pj] * base[:, pk]
    std = entry["col_std"]
    if std == 0:
        return np.zeros(base.shape[0])
    return (raw - entry["col_mean"]) / std


def predict_rows(model: dict, rows: list[DailyFeatureRow]) -> np.ndarray:
    """Predictions in ppb for raw feature rows, honoring the anchor mode."""
    params = _params_from_dict(model["standardization"])
    X_raw = np.stack([r.x for r in rows])
    if X_raw.shape[1] != params.mu.shape[0]:
        raise ModelIOError(
            f"schema mismatch: rows have {X_raw.shape[1]} features, "
            f"model expects {params.mu.shape[0]}"
        )
    base, _ = apply_standardizer(params, X_raw)
    p0 = model["n_base_features"]
    if base.shape[1] != p0:
        raise ModelIOError("dropped-column manifest mismatch")

    yhat = np.full(base.shape[0], model["beta0"])
    polynomial = model["expansion"] == "polynomial"
    for entry in model["weights"]:
        if polynomial:
            col = _expanded_column(entry, base, p0)
        else:
            col = base[:, entry["index"]]
        yhat = yhat + entry["weight"] * col

    yhat = yhat * params.y_sigma + params.y_mu
    if model["target_mode"] == "delta":
        yhat = yhat + np.array([r.current_anchor for r in rows])
    return yhat
