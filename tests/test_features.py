import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dayahead.features import (
    MODEL_IDS,
    LAMBDA_GRID,
    halfday_lag_profile,
    indicator,
    koyck_transform,
    run_designs,
    target_regressors,
    temp_term,
    training_rows,
)
from dayahead.ingest import SynthParams

import oracles
from conftest import day, default_temp, last_day_window, make_window, same_bits
from oracles import legal_training_days

# The target day's row in a one-day window.
TARGET_ROW = 9


def row(offset: int) -> int:
    """The window row of the day ``offset`` days before the target."""
    return TARGET_ROW - offset


def test_halfday_lag_splices_afternoon_then_morning():
    loads = {
        2: [4000.0] * 12 + [5000.0] * 12,  # two days back: pm = 5000
        1: [4000.0] * 12 + [6000.0] * 12,  # previous day: am = 4000
    }
    window = make_window(load_by_offset=loads)
    out = halfday_lag_profile(window.loads, TARGET_ROW)
    assert np.all(out[:12] == 5000.0)
    assert np.all(out[12:] == 4000.0)


def test_halfday_lag_constant_sources():
    loads = {2: [4500.0] * 24, 1: [4500.0] * 24}
    window = make_window(load_by_offset=loads)
    out = halfday_lag_profile(window.loads, TARGET_ROW)
    assert np.all(out == 4500.0)


def test_row_arrays_give_the_scalar_calls_row_by_row():
    temps = {k: [float(100 * k + h) for h in range(1, 25)] for k in range(1, 10)}
    window = make_window(temp_by_offset=temps)
    loads, temps = window.loads, window.temps
    rows = np.arange(8, 10)
    calls = [(halfday_lag_profile, loads, ())]
    calls += [(temp_term, temps, (lag, mode)) for lag in (2, 8) for mode in ("hour", "day")]
    for build, array, args in calls:
        got = build(array, rows, *args)
        assert got.shape == (len(rows), 24)
        for r, values in zip(rows, got):
            assert same_bits(values, build(array, int(r), *args))


def test_halfday_lag_ignores_other_days():
    base = make_window()
    changed = make_window(load_by_offset={5: [3333.0] * 24})
    assert np.array_equal(
        halfday_lag_profile(base.loads, TARGET_ROW),
        halfday_lag_profile(changed.loads, TARGET_ROW),
    )


@pytest.mark.parametrize("hour", [9, 10, 11, 19, 20, 21])
def test_indicator_unit_pulse(hour):
    vec = indicator(hour)
    assert vec[hour - 1] == 1.0
    assert np.sum(vec) == 1.0


def test_temp_term_flat_is_constant():
    window = make_window(
        temp_by_offset={k: [10.0] * 24 for k in range(1, 10)},
        forecast=[10.0] * 24,
    )
    out = temp_term(window.temps, TARGET_ROW, 2, "hour")
    assert np.all(out == 10.0)


def test_temp_term_hour_mode_wraps_into_previous_day():
    temps = {k: [float(100 * k + h) for h in range(1, 25)] for k in range(1, 10)}
    window = make_window(temp_by_offset=temps)
    out = temp_term(window.temps, row(1), 8, "hour")
    # hour 3 minus 8 wraps to hour 19 of the day before (offset 2)
    assert out[2] == 200.0 + 19
    # hour 9 resolves inside the same day
    assert out[8] == 100.0 + 1


def test_temp_term_target_uses_forecast():
    window = make_window(forecast=[33.0] * 24)
    out = temp_term(window.temps, TARGET_ROW, 2, "hour")
    assert out[5] == 33.0  # hour 6 - 2 = hour 4 of the forecast day


def test_temp_term_day_mode():
    temps = {k: [float(k)] * 24 for k in range(1, 10)}
    window = make_window(temp_by_offset=temps)
    out = temp_term(window.temps, TARGET_ROW, 8, "day")
    assert np.all(out == 8.0)


def test_koyck_frozen_oracle_values():
    # Hand evaluation of the stated sum for an impulse at hour 5,
    # lambda = 0.5, order 3: numerators (1, 0.5, 0.25, 0.125) at hours
    # 5..8, each normalized by 1 + 0.5 + 0.25 + 0.125 = 1.875.
    series = np.zeros(24)
    series[4] = 1.0
    out = koyck_transform(series, (0.5,))[0]
    expected = np.zeros(24)
    expected[4] = 1.0 / 1.875
    expected[5] = 0.5 / 1.875
    expected[6] = 0.25 / 1.875
    expected[7] = 0.125 / 1.875
    assert np.allclose(out, expected, atol=1e-15)


def test_koyck_zero_decay_is_identity():
    series = np.arange(24, dtype=float)
    assert np.array_equal(koyck_transform(series, (0.0,))[0], series)


def test_koyck_stack_keeps_the_bits_of_the_oracle_on_zeros_and_non_finite_values():
    tiny = 5e-324  # the smallest subnormal
    base = np.linspace(-3.0, 4.0, 24) + 0.125
    rows = []
    for hour in (0, 1, 2, 3, 11, 23):
        for zero in (-0.0, 0.0):
            row = base.copy()
            row[hour] = zero
            rows.append(row)
    for bad in (np.inf, -np.inf, np.nan):
        for hour in (0, 1, 2, 3, 11, 23):
            row = base.copy()
            row[hour] = bad
            row[max(hour - 1, 0)], row[min(hour + 1, 23)] = tiny, -tiny
            rows.append(row)
    # Finite and nonzero throughout, subnormals included.
    plain = base.copy()
    plain[::5] = tiny
    plain[1::7] = -2.5e-310
    rows += [np.full(24, -0.0), base * 1e307, -base[::-1] * 3e307, np.full(24, 9e307),
             plain, np.full(24, -tiny)]
    stack = np.array(rows).reshape(2, -1, 24)
    lams = LAMBDA_GRID + (0.05, 0.37, 0.999, 5e-324)
    with np.errstate(over="ignore", invalid="ignore"):  # as in the designs
        got = koyck_transform(stack, lams)
        assert got.shape == stack.shape[:2] + (len(lams), 24)
        for series, lagged in zip(stack.reshape(-1, 24), got.reshape(-1, len(lams), 24)):
            for lam, got_row in zip(lams, lagged):
                assert same_bits(got_row, oracles.koyck_transform(series, lam)), (lam, series)
    # At lam = 0, a -0.0 at hour 1 survives the lag; at hour 12 it turns into
    # +0.0, so the row is not its own lag.  A finite, nonzero row is.
    at_zero = got.reshape(len(rows), len(lams), 24)[:, 0]
    assert same_bits(at_zero[0], rows[0]) and not same_bits(at_zero[8], rows[8])
    assert same_bits(at_zero[8][11], np.float64(0.0))
    assert same_bits(at_zero[-2], plain)


@pytest.mark.parametrize("temp_mode", ["hour", "day"])
def test_signed_zero_temperatures_give_oracle_designs_bit_for_bit(temp_mode):
    temps = {k: default_temp(k) for k in range(1, 10)}
    forecast = default_temp(0)
    for values in (*temps.values(), forecast):
        values[2], values[3] = -0.0, 0.0  # hours 3 and 4
    window = make_window(temp_by_offset=temps, forecast=forecast)
    for model_id in MODEL_IDS:
        days = legal_training_days(window, model_id, temp_mode)
        for lams in ((0.0,), LAMBDA_GRID):
            systems, targets = run_designs(window, model_id, lams, temp_mode)
            matrices, responses = systems[..., :-1], systems[:, 0, :, -1]
            for lam, matrix, target_block in zip(lams, matrices[0], targets[0]):
                want = oracles.design_matrix(window, model_id, days, lam, temp_mode)
                assert same_bits(matrix, want.matrix)
                assert same_bits(responses[0], want.response)
                assert same_bits(target_block, oracles.day_regressors(
                    window, window.target_date, model_id, lam, temp_mode))


def test_koyck_constant_maps_to_itself():
    series = np.full(24, 7.25)
    assert np.allclose(koyck_transform(series, (0.7,))[0], series, atol=1e-12)


@given(
    st.floats(min_value=0.0, max_value=0.95, exclude_max=True),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_koyck_linear_in_series(lam, a, b):
    rng = np.random.default_rng(11)
    x = rng.normal(size=24)
    y = rng.normal(size=24)
    lhs = koyck_transform(a * x + b * y, (lam,))[0]
    rhs = a * koyck_transform(x, (lam,))[0] + b * koyck_transform(y, (lam,))[0]
    assert np.allclose(lhs, rhs, atol=1e-9)


def design(window, model_id: str, lam: float) -> tuple:
    """``run_designs``' training design and response of a one-day window's
    day at one decay."""
    systems, _ = run_designs(window, model_id, (lam,), "hour")
    return systems[0, 0, :, :-1], systems[0, 0, :, -1]


def test_design_matrix_shapes_and_intercept():
    window = make_window()
    for model_id, expected_cols in (("a", 10), ("b", 6), ("c", 9)):
        days = legal_training_days(window, model_id)
        matrix, response = design(window, model_id, 0.3)
        assert matrix.shape == (24 * len(days), expected_cols)
        assert response.shape == (24 * len(days),)
        assert np.all(matrix[:, 0] == 1.0)


def test_design_matrix_model_b_zero_temps():
    window = make_window(
        temp_by_offset={k: [0.0] * 24 for k in range(1, 10)},
        forecast=[0.0] * 24,
    )
    matrix, _ = design(window, "b", 0.4)
    assert np.all(matrix[:, 4] == 0.0)
    assert np.all(matrix[:, 5] == 0.0)


def test_design_matrix_constant_load_degeneracy():
    loads = {k: [4400.0] * 24 for k in range(1, 10)}
    window = make_window(load_by_offset=loads)
    matrix, _ = design(window, "c", 0.2)
    lag1, half, lag7 = matrix[:, 1], matrix[:, 2], matrix[:, 3]
    assert np.array_equal(lag1, half) and np.array_equal(lag1, lag7)
    # interaction columns built from (lag1 - halfday) vanish
    assert np.all(matrix[:, 7] == 0.0)


def test_legal_training_days_default_window():
    window = make_window()
    for model_id in MODEL_IDS:
        assert legal_training_days(window, model_id) == [day(2), day(1)]
        assert training_rows(model_id, "hour") == (row(2), row(1))
    # day-lagged temperatures push the 8-day lag outside the window for d-2
    assert legal_training_days(window, "b", "day") == [day(1)]
    assert legal_training_days(window, "a", "day") == [day(2), day(1)]
    assert training_rows("b", "day") == training_rows("c", "day") == (row(1),)
    assert training_rows("a", "day") == (row(2), row(1))


def test_target_regressors_share_columns_with_training():
    window = make_window()
    for model_id in MODEL_IDS:
        block = target_regressors(window, model_id, 0.1, "hour")
        matrix, _ = design(window, model_id, 0.1)
        assert block.shape == (24, matrix.shape[1])
        assert np.all(block[:, 0] == 1.0)


def test_koyck_matches_oracle_bit_for_bit():
    rng = np.random.default_rng(11)
    lams = LAMBDA_GRID + (0.05, 0.37, 0.999)
    xs = rng.normal(size=(len(lams), 24)) * 1e3
    got = koyck_transform(xs, lams)
    for x, lagged in zip(xs, got):
        for lam, values in zip(lams, lagged):
            assert np.array_equal(values, oracles.koyck_transform(x, lam, 3))


@pytest.mark.parametrize("temp_mode", ["hour", "day"])
def test_design_matrices_match_decay_by_decay_oracle(temp_mode):
    window = last_day_window(SynthParams(days=12, seed=4))
    for model_id in MODEL_IDS:
        days = legal_training_days(window, model_id, temp_mode)
        systems, targets = run_designs(window, model_id, LAMBDA_GRID, temp_mode)
        matrices, responses = systems[..., :-1], systems[:, 0, :, -1]
        for lam, matrix, target_block in zip(LAMBDA_GRID, matrices[0], targets[0]):
            want = oracles.design_matrix(window, model_id, days, lam, temp_mode)
            assert np.array_equal(matrix, want.matrix)
            assert np.array_equal(responses[0], want.response)
            block = target_regressors(window, model_id, lam, temp_mode)
            target = oracles.day_regressors(
                window, window.target_date, model_id, lam, temp_mode
            )
            assert np.array_equal(block, target)
            assert np.array_equal(target_block, target)
