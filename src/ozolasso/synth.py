"""Synthetic hourly data with a planted sparse linear relation.

Generates pollutant and meteorology files in the canonical hourly format,
with diurnal O3 cycles whose next-day maximum is a known sparse linear
function of a handful of meteorological features plus seeded noise. The
ground-truth manifest records the planted support and weights so recovery
can be checked without the real monitoring data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import date as Date, timedelta
from pathlib import Path

import numpy as np

from .atomic import write_csv, write_text
from .features import build_base_features
from .ingest import DayGrid, METEO_VARS, POLLUTANTS

START_DATE = Date(2015, 1, 1)
BASE_LEVEL = 45.0  # ppb, center of the planted target
SIGNAL_STD = 10.0  # ppb, spread of the planted signal
HOUR_NOISE = 0.3  # ppb on hourly O3 readings; 0 when snr is None

# Candidate planted features, by base feature schema name.
# sparsity=s uses the first s of these.  The first five sit on variables whose
# hourly readings are close to independent, so no correlated "shadow" feature
# can soak up part of a planted weight and blur the recovered support.
PLANTED_CANDIDATES: list[tuple[str, float]] = [
    ("next-day wind_speed max", -1.6),
    ("next-day rel_humidity min", -1.4),
    ("current-day wind_speed mean", -1.0),
    ("current-day rel_humidity mean", 1.2),
    ("next-day wind_speed hour 18", 0.8),
    ("next-day temperature max", 0.9),
    ("current-day visibility mean", 0.5),
    ("next-day dew_point mean", 0.6),
]


class SynthError(Exception):
    pass


@dataclass
class SynthConfig:
    n_days: int = 300
    seed: int = 0
    sparsity: int = 5
    snr: float | None = 20.0  # None = noiseless target


def _o3_shape() -> np.ndarray:
    h = np.arange(24)
    shape = 0.35 + 0.65 * np.exp(-(((h - 14) / 4.5) ** 2))
    return shape / shape.max()  # max exactly 1 at hour 14


def _generate_meteo(rng: np.random.Generator, n_days: int) -> list[dict[str, np.ndarray]]:
    days = []
    direction = rng.uniform(0, 360)
    for d in range(n_days):
        doy = d % 365
        seasonal = 10.0 + 12.0 * math.sin(2 * math.pi * (doy - 80) / 365.0)
        hours = np.arange(24)
        # Humidity and wind speed carry strong independent hourly noise; the
        # other channels vary mostly through shared day-level terms, so each
        # of their days contributes only a few degrees of freedom.
        level = rng.normal(0, 2.0)
        temp = seasonal + level + 5.0 * np.sin(2 * math.pi * (hours - 9) / 24.0) + rng.normal(0, 0.3, 24)
        spread = rng.uniform(1.0, 8.0)
        dew = temp - spread + rng.normal(0, 0.3, 24)
        rh = np.clip(60.0 + rng.normal(0, 10, 24), 5.0, 100.0)
        direction = (direction + rng.normal(0, 30)) % 360.0
        wdir = (direction + rng.normal(0, 5, 24)) % 360.0
        wspd = np.abs(rng.normal(12, 4, 24))
        vis = np.clip(rng.normal(20, 5) + rng.normal(0, 1, 24), 1.0, 40.0)
        pres = (101.0 + 0.1 * math.sin(2 * math.pi * doy / 365.0)
                + rng.normal(0, 0.3) + rng.normal(0, 0.05, 24))
        days.append(
            {
                "temperature": temp,
                "dew_point": dew,
                "rel_humidity": rh,
                "wind_direction": wdir,
                "wind_speed": wspd,
                "visibility": vis,
                "pressure": pres,
            }
        )
    return days


def _generate_pollutants(rng: np.random.Generator, n_days: int) -> list[dict[str, np.ndarray]]:
    days = []
    hours = np.arange(24)
    rush = np.exp(-(((hours - 8) / 3.0) ** 2)) + 0.7 * np.exp(-(((hours - 18) / 3.0) ** 2))
    for _ in range(n_days):
        # A shared day-level activity factor drives the traffic pollutants;
        # hour-to-hour noise is kept small for the same reason as the smooth
        # meteorology channels (few degrees of freedom per day).
        activity = rng.uniform(0.7, 1.3)
        no = 4.0 + 8.0 * activity * rush + np.abs(rng.normal(0, 0.3, 24))
        no2 = 12.0 + 10.0 * activity * rush + np.abs(rng.normal(0, 0.4, 24))
        days.append(
            {
                "so2": 2.0 * rng.uniform(0.6, 1.4) + np.abs(rng.normal(0, 0.2, 24)),
                "no": no,
                "no2": no2,
                "nox": no + no2 + rng.normal(0, 0.3, 24),
                "co": 0.2 * rng.uniform(0.6, 1.4) + np.abs(rng.normal(0, 0.01, 24)),
                "pm25": 8.0 * rng.uniform(0.6, 1.4) + np.abs(rng.normal(0, 0.5, 24)),
            }
        )
    return days


def generate(config: SynthConfig) -> dict:
    """Generate all hourly series; returns arrays plus the truth manifest."""
    if config.n_days < 10:
        raise SynthError("n_days must be >= 10")
    if not 1 <= config.sparsity <= len(PLANTED_CANDIDATES):
        raise SynthError(f"sparsity must be in [1, {len(PLANTED_CANDIDATES)}]")
    rng = np.random.default_rng(config.seed)
    n_days = config.n_days
    meteo = _generate_meteo(rng, n_days)
    pollutants = _generate_pollutants(rng, n_days)
    planted = PLANTED_CANDIDATES[: config.sparsity]

    # the planted features as the feature builder forms them; its O3 and
    # pollutant inputs are zeros, as O3 is derived from the target below
    grids = {v: np.array([day[v] for day in meteo]) for v in METEO_VARS}
    grids.update({v: np.zeros((n_days, 24)) for v in POLLUTANTS})
    ordinals = START_DATE.toordinal() + np.arange(n_days)
    rows, schema = build_base_features(DayGrid(ordinals, grids, {}), "max")
    names = [d.name for d in schema]
    # a fancy-index gather comes back F-ordered, and the mean below would
    # then sum in another order
    feats = np.ascontiguousarray(rows.x[:, [names.index(name) for name, _ in planted]])
    n_pairs = len(rows)
    mu = feats.mean(axis=0)
    sd = feats.std(axis=0)
    z = (feats - mu) / sd
    raw_weights = np.array([w for _, w in planted])
    signal = z @ raw_weights
    scale = SIGNAL_STD / signal.std()
    signal = signal * scale
    z_weights = raw_weights * scale  # weight per unit-sd feature, in ppb

    if config.snr is None:
        noise_std = 0.0
        hour_noise = 0.0
        noise = np.zeros(n_pairs)
    else:
        if not config.snr > 0:
            raise SynthError("snr must be positive")
        noise_std = SIGNAL_STD / math.sqrt(config.snr)
        hour_noise = HOUR_NOISE
        noise = rng.normal(0, noise_std, n_pairs)

    target = BASE_LEVEL + signal + noise
    clipped = int((target < 1.0).sum())
    target = np.maximum(target, 1.0)

    shape = _o3_shape()
    o3 = np.empty((n_days, 24))
    o3[0] = BASE_LEVEL * shape
    for d in range(1, n_days):
        o3[d] = target[d - 1] * shape
    if hour_noise > 0:
        # hour 14 carries the exact planted maximum; perturb the others only
        perturb = rng.normal(0, hour_noise, (n_days, 24))
        perturb[:, 14] = 0.0
        o3 = np.maximum(o3 + perturb, 0.0)

    manifest = {
        "n_days": n_days,
        "seed": config.seed,
        "sparsity": config.sparsity,
        "snr": config.snr,
        "base_level": BASE_LEVEL,
        "noise_std": noise_std,
        "hour_noise": hour_noise,
        "clipped_targets": clipped,
        "support": [name for name, _ in planted],
        "weights_per_sd": [float(w) for w in z_weights],
    }
    return {"o3": o3, "meteo": meteo, "pollutants": pollutants, "manifest": manifest}


def write_files(config: SynthConfig, out_dir: str | Path) -> dict:
    """Emit pollutants.csv, meteorology.csv, and truth.json; returns manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = generate(config)

    pol_rows = []
    met_rows = []
    for d in range(config.n_days):
        date = (START_DATE + timedelta(days=d)).isoformat()
        pol = dict(data["pollutants"][d], o3=data["o3"][d])
        met = data["meteo"][d]
        for h in range(24):
            pol_rows.append([date, h] + [repr(float(pol[v][h])) for v in POLLUTANTS])
            met_rows.append([date, h] + [repr(float(met[v][h])) for v in METEO_VARS])

    write_csv(out_dir / "pollutants.csv", ["date", "hour", *POLLUTANTS], pol_rows)
    write_csv(out_dir / "meteorology.csv", ["date", "hour", *METEO_VARS], met_rows)
    manifest = data["manifest"]
    write_text(out_dir / "truth.json", json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest
