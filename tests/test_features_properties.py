"""Property test: features built from day grids match the per-day reference
(``features_oracle.py``) bitwise on small generated grids."""

import logging
from datetime import date as Date

import numpy as np
from hypothesis import given, settings, strategies as st

import features_oracle as oracle
from conftest import make_days
from ozolasso.features import build_base_features, compute_8h_means
from ozolasso.ingest import ALL_VARS, METEO_VARS, DayGrid

FIRST_DAY = Date(2016, 2, 27).toordinal()


def random_days(rng, ordinals, variables, hole_share) -> DayGrid:
    """Days with random values; on a share of the days one variable (o3 in
    half of the cases) gets 1-3 nan hours."""
    days = make_days([Date.fromordinal(o) for o in ordinals])
    days.values = {var: days.values[var] for var in variables}
    for var, grid in days.values.items():
        high = 360.0 if var == "wind_direction" else 100.0
        grid[:] = rng.uniform(0.0, high, grid.shape)
    for i in np.flatnonzero(rng.random(len(ordinals)) < hole_share):
        var = "o3" if "o3" in variables and rng.random() < 0.5 else rng.choice(variables)
        days.values[var][i, rng.integers(0, 24, rng.integers(1, 4))] = np.nan
    return days


class Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def skip_messages(logger_name, build):
    handler, logger = Messages(), logging.getLogger(logger_name)
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        result = build()
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return result, handler.messages


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    offsets=st.lists(st.integers(0, 9), max_size=8, unique=True).map(sorted),
    forecast_offsets=st.lists(st.integers(0, 10), max_size=6, unique=True).map(sorted),
    hole_share=st.sampled_from((0.0, 0.2, 0.5)),
    variant=st.sampled_from(("max", "max8h")),
)
def test_grid_features_match_per_day_loop(seed, offsets, forecast_offsets, hole_share, variant):
    rng = np.random.default_rng(seed)
    days = random_days(rng, [FIRST_DAY + o for o in offsets], ALL_VARS, hole_share)
    forecast = None
    if forecast_offsets:
        ordinals = [FIRST_DAY + o for o in forecast_offsets]
        forecast = random_days(rng, ordinals, METEO_VARS, hole_share)

    (rows, schema), got_log = skip_messages(
        "ozolasso.features", lambda: build_base_features(days, variant, forecast)
    )
    want, want_log = skip_messages("features_oracle", lambda: oracle.build_base_features(
        oracle.day_blocks(days), variant, None if forecast is None else oracle.day_blocks(forecast)
    ))

    assert got_log == want_log
    assert len(rows) == len(want)
    assert rows.x.shape == (len(want), len(schema))
    assert rows.dates.tolist() == [r.date for r in want]
    assert rows.x.tobytes() == np.array([r.x for r in want]).reshape(rows.x.shape).tobytes()
    assert rows.target_raw.tobytes() == np.array([r.target_raw for r in want]).tobytes()
    assert rows.current_anchor.tobytes() == np.array([r.current_anchor for r in want]).tobytes()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 5))
def test_8h_means_of_a_grid_match_each_row(seed, n):
    grid = np.random.default_rng(seed).uniform(0.0, 100.0, (n, 24))
    means, wmax, wmin, wmean = compute_8h_means(grid)
    assert means.shape == (n, 17) and wmax.shape == wmin.shape == wmean.shape == (n,)
    for i in range(n):
        row = oracle.compute_8h_means(grid[i])
        assert means[i].tobytes() == row[0].tobytes()
        assert (wmax[i], wmin[i], wmean[i]) == row[1:]
