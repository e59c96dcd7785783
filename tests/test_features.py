"""Feature schema, 8-hour means, targets, and standardization."""

from datetime import date as Date, timedelta

import numpy as np
import pytest

import features_oracle as oracle
from conftest import make_day, make_day_pair, make_days
from ozolasso.config import ConfigError, RunConfig
from ozolasso.features import (
    FeatureError,
    N_BASE_MAX,
    N_BASE_MAX8H,
    apply_standardizer,
    build_base_features,
    build_schema,
    channel_series,
    compute_8h_means,
    fit_standardizer,
)
from ozolasso.pipeline import prepare_training


def test_schema_lengths():
    assert len(build_schema("max")) == N_BASE_MAX == 918
    assert len(build_schema("max8h")) == N_BASE_MAX8H == 938


def test_schema_category_counts():
    schema = build_schema("max8h")
    counts = {}
    for d in schema:
        counts[d.category] = counts.get(d.category, 0) + 1
    assert counts["pollutant-hourly"] == 7 * 24
    assert counts["pollutant-aggregate"] == 7 * 3
    assert counts["meteo-hourly"] == 9 * 24 * 2
    assert counts["meteo-aggregate"] == 9 * 3 * 2
    assert counts["meteo-diff"] == 9 * 27
    assert counts["eighth-hour-mean"] == 20


def test_schema_indices_gapless():
    schema = build_schema("max")
    assert [d.index for d in schema] == list(range(len(schema)))
    assert len({d.name for d in schema}) == len(schema)


def test_unknown_variant():
    with pytest.raises(FeatureError):
        build_schema("weekly")


def _named_value(name: str, cur: oracle.DayBlock, nxt: oracle.DayBlock) -> float:
    """The value a base feature's name says its column holds, from the day
    pair's hourly series: "<current-day|next-day|diff> <channel> <hour HH|
    max|min|mean>" or "current-day o3 8h-mean <start HH|max|min|mean>"."""
    when, channel, *spec = name.split(" ")
    if when == "diff":
        rest = " ".join([channel, *spec])
        return _named_value(f"next-day {rest}", cur, nxt) - _named_value(
            f"current-day {rest}", cur, nxt)
    day = {"current-day": cur, "next-day": nxt}[when]
    if spec[0] == "8h-mean":
        means, *aggs = oracle.compute_8h_means(day.values[channel])
        series, spec = means, spec[1:]
    else:
        series = oracle.channel_series(day, channel)
        aggs = oracle._agg(series)
    if spec[0] in ("hour", "start"):
        return series[int(spec[1])]
    return aggs[("max", "min", "mean").index(spec[0])]


@pytest.mark.parametrize("variant", ["max", "max8h"])
def test_every_name_labels_its_column(variant):
    """Each of the 918/938 columns holds what its name says, on a day pair
    whose every (variable, day, hour) cell is distinct."""
    days = make_day_pair(seed=11)
    cells = np.concatenate([grid.ravel() for grid in days.values.values()])
    assert np.unique(cells).size == cells.size
    rows, schema = build_base_features(days, variant)
    cur, nxt = oracle.day_blocks(days)
    assert [d.index for d in schema] == list(range(rows.x.shape[1]))
    for d in schema:
        assert rows.x[0, d.index] == _named_value(d.name, cur, nxt), d.name


def test_row_lengths_both_variants():
    days = make_day_pair()
    for variant, expected in (("max", 918), ("max8h", 938)):
        rows, schema = build_base_features(days, variant)
        assert len(rows) == 1
        assert rows.x.shape == (1, expected)
        assert len(schema) == expected


def test_constant_temperature_gives_zero_diffs():
    days = make_day_pair()
    days.values["temperature"][:] = 20.0
    rows, schema = build_base_features(days, "max")
    x = rows.x[0]
    diff_idx = [d.index for d in schema if d.category == "meteo-diff" and "temperature" in d.name]
    assert len(diff_idx) == 27
    np.testing.assert_array_equal(x[diff_idx], 0.0)


def test_diff_features_exact():
    days = make_day_pair(seed=3)
    rows, schema = build_base_features(days, "max")
    x = rows.x[0]
    by_name = {d.name: d.index for d in schema}
    for ch in ("temperature", "wind_speed", "wind_dir_cos"):
        for part in [f"hour {h:02d}" for h in range(24)] + ["max", "min", "mean"]:
            cur = x[by_name[f"current-day {ch} {part}"]]
            nxt = x[by_name[f"next-day {ch} {part}"]]
            assert x[by_name[f"diff {ch} {part}"]] == nxt - cur


def test_wind_direction_cos_sin_identity():
    days = make_day_pair(seed=9)
    cos = channel_series(days.values, "wind_dir_cos")
    sin = channel_series(days.values, "wind_dir_sin")
    assert cos.shape == sin.shape == (2, 24)
    np.testing.assert_allclose(cos**2 + sin**2, 1.0, atol=1e-12)


def test_8h_means_constant():
    means, wmax, wmin, wmean = compute_8h_means(np.full(24, 10.0))
    np.testing.assert_array_equal(means, 10.0)
    assert wmax == wmin == wmean == 10.0


def test_8h_means_ramp():
    means, wmax, wmin, wmean = compute_8h_means(np.arange(24, dtype=float))
    np.testing.assert_allclose(means, np.arange(17) + 3.5)
    assert wmax == 19.5
    assert int(np.argmax(means)) == 16
    assert wmin == 3.5


def test_8h_means_first_window():
    hours = np.concatenate([np.arange(8, dtype=float), np.zeros(16)])
    means, _, _, _ = compute_8h_means(hours)
    assert means[0] == 3.5


def test_8h_means_rejects_missing_and_bad_shape():
    bad = np.arange(24, dtype=float)
    bad[5] = np.nan
    with pytest.raises(FeatureError):
        compute_8h_means(bad)
    with pytest.raises(FeatureError):
        compute_8h_means(np.arange(23, dtype=float))


def test_max8h_target_uses_window_max():
    days = make_day_pair(seed=11)
    rows, _ = build_base_features(days, "max8h")
    _, wmax, _, _ = compute_8h_means(days.values["o3"][1])
    assert rows.target_raw[0] == wmax
    _, amax, _, _ = compute_8h_means(days.values["o3"][0])
    assert rows.current_anchor[0] == amax


def test_incomplete_day_skipped():
    days = make_day_pair()
    days.values["o3"][1, 5] = np.nan  # next day's o3 incomplete
    rows, _ = build_base_features(days, "max")
    assert len(rows) == 0 and rows.x.shape == (0, 918)


def test_missing_successor_skipped():
    days = make_day_pair()
    days.ordinals[1] = days.ordinals[0] + 3
    rows, _ = build_base_features(days, "max")
    assert len(rows) == 0


def test_forecast_days_used_for_next_day_meteo():
    days = make_day_pair(seed=13)
    forecast = make_day(Date.fromordinal(days.ordinals[1]), {"temperature": np.full(24, 5.0)})
    rows, schema = build_base_features(days, "max", forecast_days=forecast)
    by_name = {d.name: d.index for d in schema}
    assert rows.x[0, by_name["next-day temperature hour 00"]] == 5.0
    # target still comes from the observed next day, not the forecast
    assert rows.target_raw[0] == days.values["o3"][1].max()


def test_delta_target_modes():
    days = make_days([Date(2016, 7, 1) + timedelta(days=d) for d in range(3)])
    days.values["o3"][1] += 1.0  # two rows with distinct targets
    rows, schema = build_base_features(days, "max")
    rows.target_raw[:], rows.current_anchor[:] = [55.0, 60.0], [48.0, 50.0]

    def training_target(mode):
        data = prepare_training(RunConfig(target_mode=mode), rows, schema)
        return (data.y * data.params.y_sigma + data.params.y_mu).tolist()

    assert training_target("delta") == [7.0, 10.0]
    assert training_target("direct") == [55.0, 60.0]
    with pytest.raises(ConfigError, match="target_mode"):  # before any row is read
        RunConfig(target_mode="weekly").validate_choices()


def test_standardizer_basic_column():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([1.0, 2.0, 4.0])
    params = fit_standardizer(X, y)
    Xs, ys = apply_standardizer(params, X, y)
    expected = np.sqrt(1.5)  # 1/sigma with population sigma = sqrt(2/3)
    np.testing.assert_allclose(Xs[:, 0], [-expected, 0.0, expected], atol=1e-14)
    np.testing.assert_allclose(ys * params.y_sigma + params.y_mu, y, atol=1e-12)


def test_standardizer_drops_constant_column():
    X = np.column_stack([np.array([5.0, 5.0, 5.0]), np.array([1.0, 2.0, 3.0])])
    params = fit_standardizer(X, np.array([1.0, 2.0, 3.0]))
    assert list(params.dropped) == [0]
    assert list(params.kept) == [1]
    Xs, _ = apply_standardizer(params, X, None)
    assert Xs.shape == (3, 1)


def test_standardizer_uses_training_moments_on_test_rows():
    X_train = np.array([[0.0], [2.0]])
    y_train = np.array([0.0, 2.0])
    params = fit_standardizer(X_train, y_train)
    X_test = np.array([[10.0], [12.0]])
    Xs, _ = apply_standardizer(params, X_test, None)
    # training mean 1, population sd 1: test values standardized as (v - 1) / 1
    np.testing.assert_allclose(Xs[:, 0], [9.0, 11.0])


def test_standardized_training_moments():
    rng = np.random.default_rng(17)
    X = rng.uniform(0, 100, size=(40, 6))
    y = rng.uniform(0, 50, 40)
    params = fit_standardizer(X, y)
    Xs, ys = apply_standardizer(params, X, y)
    assert np.abs(Xs.mean(axis=0)).max() < 1e-12
    assert np.abs(Xs.var(axis=0) - 1).max() < 1e-10
    assert abs(ys.mean()) < 1e-12


def test_standardizer_errors():
    with pytest.raises(FeatureError, match="at least 2"):
        fit_standardizer(np.ones((1, 3)), np.ones(1))
    with pytest.raises(FeatureError, match="zero variance"):
        fit_standardizer(np.ones((3, 2)), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(FeatureError, match="target"):
        fit_standardizer(np.arange(6.0).reshape(3, 2), np.ones(3))


def test_apply_standardizer_schema_mismatch():
    params = fit_standardizer(np.arange(6.0).reshape(3, 2), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(FeatureError, match="schema mismatch"):
        apply_standardizer(params, np.ones((2, 5)), None)


def test_stack_rows():
    days = make_days([Date(2016, 7, 1) + timedelta(days=d) for d in range(3)])
    days.values["o3"][1] += 1.0
    rows, schema = build_base_features(days, "max")
    assert rows.x.shape == (2, 918)
    data = prepare_training(RunConfig(target_mode="delta"), rows, schema)
    y = data.y * data.params.y_sigma + data.params.y_mu
    assert y[0] == rows.target_raw[0] - rows.current_anchor[0]
    assert rows[np.array([False, True])].x.tobytes() == rows.x[1:].tobytes()
    with pytest.raises(FeatureError):
        prepare_training(RunConfig(), rows[np.zeros(2, dtype=bool)], schema)
