"""Model file schema (versioned JSON) and prediction from saved models.

A saved model is self-contained: sparse weight triples with, for expanded
columns, the parent indices and the training moments needed to rebuild each
column on the fly, plus the full base standardization parameters.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .atomic import write_text
from .config import CHOICES, ConfigError
from .expansion import ExpandedDesign, expansion_size
from .features import N_BASE, FeatureRows, StandardizationParams, apply_standardizer
from .solvers import LAMBDA_CONVENTION, DenseDesign, ModelFit

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
    design: DenseDesign | ExpandedDesign | None = None,
    solver_meta: dict | None = None,
) -> dict:
    """Assemble the persistable model document from a fit. ``design`` is
    the fit's design, read only for a polynomial expansion."""
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
            # closed-form fits carry no gap, and their files keep their bytes
            **({} if fit.gap is None else {"gap": fit.gap}),
        },
        "solver": dict(solver_meta or {}, sweeps_used=fit.sweeps_used, converged=fit.converged),
    }


def save_model(model: dict, path: str | Path) -> None:
    write_text(path, json.dumps(model, indent=1, sort_keys=True, allow_nan=False) + "\n")


# every key that predict_rows and the predict command read, and those of a weight entry
REQUIRED_KEYS = ("target_mode", "variant", "n_base_features", "expansion", "weights",
                 "beta0", "standardization")
PARAM_KEYS = ("mu", "sigma", "kept", "dropped", "y_mu", "y_sigma")
ENTRY_KEYS = ("index", "weight")
POLYNOMIAL_ENTRY_KEYS = ENTRY_KEYS + ("parents", "col_mean", "col_std")


def _weight_index(entry: dict, at: int, p: int) -> int:
    """Weight entry ``at``'s column index: an int in [0, p), the design's width."""
    j = entry["index"]
    if type(j) is not int or not 0 <= j < p:
        raise ModelIOError(f"weights[{at}]: index {j!r} outside the {p} columns of the design")
    return j


def _check_number(value, what: str, least: float = -math.inf, strict: bool = False) -> None:
    """``value`` is a finite int or float, not a bool, and >= ``least`` (> if strict)."""
    if type(value) not in (int, float) or not math.isfinite(value) or value < least \
            or strict and value == least:
        bound = "" if least == -math.inf else f" {'>' if strict else '>='} {least:g}"
        raise ModelIOError(f"{what} {value!r} is not a finite number{bound}")


def _check_standardization(params) -> None:
    """The saved standardization has every key _params_from_dict reads, kept
    and dropped split the columns of mu and sigma between them, and its
    numbers are finite, with sigma >= 0 (> 0 where kept) and y_sigma > 0."""
    if not isinstance(params, dict):
        raise ModelIOError("standardization is not an object")
    lacks = [key for key in PARAM_KEYS if key not in params]
    if lacks:
        raise ModelIOError(f"standardization lacks {', '.join(lacks)}")
    for key in ("mu", "sigma", "kept", "dropped"):
        if not isinstance(params[key], list):
            raise ModelIOError(f"standardization.{key} is not a list")
    width, columns = len(params["mu"]), params["kept"] + params["dropped"]
    if len(params["sigma"]) != width or not all(type(j) is int for j in columns) \
            or sorted(columns) != list(range(width)):
        raise ModelIOError(
            f"standardization: sigma, kept and dropped do not match the {width} columns of mu"
        )
    kept = set(params["kept"])
    for j, (mu, sigma) in enumerate(zip(params["mu"], params["sigma"])):
        _check_number(mu, f"standardization.mu[{j}]")
        _check_number(sigma, f"standardization.sigma[{j}]", least=0, strict=j in kept)
    _check_number(params["y_mu"], "standardization.y_mu")
    _check_number(params["y_sigma"], "standardization.y_sigma", least=0, strict=True)


def load_model(path: str | Path) -> dict:
    model = json.loads(Path(path).read_text())
    if not isinstance(model, dict):
        raise ModelIOError("model document is not an object")
    version = model.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ModelIOError(f"unsupported model schema version {version!r}")
    missing = [key for key in REQUIRED_KEYS if key not in model]
    if missing:
        raise ModelIOError(f"model file lacks {', '.join(missing)}")
    for key in ("variant", "expansion", "target_mode"):
        if model[key] not in CHOICES[key]:
            raise ModelIOError(f"{key} {model[key]!r} is not one of {CHOICES[key]}")
    _check_number(model["beta0"], "beta0")
    _check_standardization(model["standardization"])
    digest = standardization_digest(_params_from_dict(model["standardization"]))
    if digest != model.get("standardization_digest"):
        raise ModelIOError("standardization does not match standardization_digest")
    p0, kept = model["n_base_features"], len(model["standardization"]["kept"])
    if p0 != kept:
        raise ModelIOError(f"n_base_features {p0!r} != {kept} kept standardization columns")
    polynomial = model["expansion"] == "polynomial"
    keys, p = (POLYNOMIAL_ENTRY_KEYS, expansion_size(p0)) if polynomial else (ENTRY_KEYS, p0)
    if not isinstance(model["weights"], list):
        raise ModelIOError("weights is not a list")
    seen = set()
    for at, entry in enumerate(model["weights"]):
        if not isinstance(entry, dict):
            raise ModelIOError(f"weights[{at}] is not an object")
        lacks = [key for key in keys if key not in entry]
        if lacks:
            raise ModelIOError(f"weights[{at}] lacks {', '.join(lacks)}")
        j = _weight_index(entry, at, p)
        if j in seen:
            raise ModelIOError(f"weights[{at}]: index {j} repeated")
        seen.add(j)
        _check_number(entry["weight"], f"weights[{at}]: weight")
        if polynomial:
            _check_number(entry["col_mean"], f"weights[{at}]: col_mean")
            _check_number(entry["col_std"], f"weights[{at}]: col_std", least=0)
    return model


def check_variant(model: dict, variant: str) -> None:
    """The model was trained on ``variant``, and its kept and dropped columns
    make up that variant's base features."""
    if model["variant"] != variant:
        raise ConfigError(
            f"variant is {variant!r} but the model was trained on {model['variant']!r}"
        )
    p0, dropped = model["n_base_features"], len(model["standardization"]["dropped"])
    if p0 + dropped != N_BASE[variant]:
        raise ModelIOError(
            f"n_base_features {p0!r} with {dropped} dropped columns is not the "
            f"{N_BASE[variant]} base features of variant {variant!r}"
        )


def _saved_design(model: dict, base: np.ndarray) -> ExpandedDesign:
    """The expansion of ``base`` with the saved moments of each weighted
    column; a saved ``parents`` must match the expansion's layout."""
    p = expansion_size(base.shape[1])
    col_mean, col_std = np.zeros(p), np.ones(p)
    design = ExpandedDesign(base, col_mean, col_std)
    for at, entry in enumerate(model["weights"]):
        j = _weight_index(entry, at, p)
        parents = list(design.parents(j)) if j >= base.shape[1] else None
        if entry["parents"] != parents:
            raise ModelIOError(f"weight {j}: saved parents {entry['parents']} != {parents}")
        col_mean[j], col_std[j] = entry["col_mean"], entry["col_std"]
    return design


def predict_rows(model: dict, rows: FeatureRows) -> np.ndarray:
    """Predictions in ppb for raw feature rows, honoring the anchor mode."""
    params = _params_from_dict(model["standardization"])
    X_raw = rows.x
    if X_raw.shape[1] != params.mu.shape[0]:
        raise ModelIOError(
            f"schema mismatch: rows have {X_raw.shape[1]} features, "
            f"model expects {params.mu.shape[0]}"
        )
    base, _ = apply_standardizer(params, X_raw)
    design = _saved_design(model, base) if model["expansion"] == "polynomial" else DenseDesign(base)
    columns = design.rows([entry["index"] for entry in model["weights"]])
    yhat = np.full(base.shape[0], model["beta0"])
    for entry, col in zip(model["weights"], columns):
        yhat = yhat + entry["weight"] * col

    yhat = yhat * params.y_sigma + params.y_mu
    if model["target_mode"] == "delta":
        yhat = yhat + rows.current_anchor
    return yhat
