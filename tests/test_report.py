import datetime as dt
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dayahead.backtest import BacktestRow, summarize_monthly
from dayahead.ingest import SynthParams
from dayahead.pipeline import run_day
from dayahead.regress import EngineSettings
from dayahead.cli import forecast_report
from dayahead.report import (
    MU_NORMALIZATION,
    P_R,
    P_V,
    build_report,
    daily_relative_error,
    error_reduction,
    price,
    serialize_report,
    temp_equivalence,
)
from dayahead.thermo import WORK_OFFSET

from conftest import TARGET, last_day_window, profile, stacked, stub_criticals


def mmre(actual, forecast) -> float:
    """The MMRE of one day's forecast profile against its actual profile."""
    return float(daily_relative_error(stacked(actual), stacked(forecast))[0])


def test_price_arithmetic():
    assert price(0.5, 1.4) == pytest.approx(7.0, abs=1e-12)
    assert price(0.5, 0.6) == pytest.approx(7.0, abs=1e-12)  # 2 - 0.6 = 1.4
    assert price(0.7, 1.0) == pytest.approx(7.0, abs=1e-12)


def test_price_continuous_at_one():
    eps = 1e-9
    below = price(0.8, 1.0 - eps)
    above = price(0.8, 1.0 + eps)
    assert abs(below - above) < 1e-7


@given(st.floats(min_value=1e-6, max_value=2.0), st.floats(min_value=0.0, max_value=5.0))
@settings(max_examples=60, deadline=None)
def test_price_dominates_ten_beta(sigma, beta):
    assert price(beta, sigma) >= 10.0 * beta * (1.0 - 1e-15)


def test_error_reduction_normalization_point():
    assert error_reduction(1.0, MU_NORMALIZATION, 0.0) == pytest.approx(10.0, abs=1e-12)


def test_error_reduction_frozen_case():
    # theta1 = 0 so mu = 1/sqrt(W1): delta = 10 (sqrt(11.608)/1.78617 - 0.1).
    mu = 1.0 / math.sqrt(WORK_OFFSET)
    delta = error_reduction(WORK_OFFSET, mu, 0.1)
    expected = 10.0 * (math.sqrt(WORK_OFFSET) / MU_NORMALIZATION - 0.1)
    assert delta == pytest.approx(expected, abs=1e-12)
    assert delta == pytest.approx(18.07, abs=0.01)


def test_error_reduction_cancellation():
    w1, mu = 9.5, 0.21
    assert error_reduction(w1, mu, w1 * mu / MU_NORMALIZATION) == pytest.approx(
        0.0, abs=1e-12
    )


def test_temp_equivalence():
    assert temp_equivalence(0.0) == 0.0
    assert temp_equivalence(4.6) == pytest.approx(2.0, abs=1e-12)
    value = temp_equivalence(1.5)
    assert value == pytest.approx(0.652, abs=5e-4)
    assert abs(value - 0.7) < 0.05


def test_daily_relative_error_hand_case():
    actual_values = [100.0] * 24
    actual_values[11] = 200.0
    actual = profile(TARGET, actual_values)
    forecast = profile(TARGET, [v + 2.0 for v in actual_values])
    assert mmre(actual, forecast) == pytest.approx(1.0, abs=1e-12)


def test_mmre_perfect_forecast_and_errors():
    days = [TARGET + dt.timedelta(days=i) for i in range(3)]
    actuals = stacked(*(profile(d, [100.0 + i] * 24) for i, d in enumerate(days)))
    assert daily_relative_error(actuals, actuals).tolist() == [0.0] * 3
    assert summarize_monthly([]) == []
    # Each day is scored against its own row: shifted rows are 1/101 and
    # 1/102 off, and 2/100 off against the peak of 100.
    shifted = np.roll(actuals, 1, axis=0)
    assert daily_relative_error(actuals, shifted).tolist() == pytest.approx(
        [2.0, 100.0 / 101.0, 100.0 / 102.0])


@given(st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=40, deadline=None)
def test_mmre_scale_invariant(c):
    rng = np.random.default_rng(17)
    actual = profile(TARGET, rng.uniform(50, 150, 24))
    forecast = profile(TARGET, rng.uniform(50, 150, 24))
    scaled_a = profile(TARGET, [c * v for v in actual.values])
    scaled_f = profile(TARGET, [c * v for v in forecast.values])
    assert mmre(scaled_a, scaled_f) == pytest.approx(mmre(actual, forecast), rel=1e-9)


def test_monthly_mmre_groups_by_calendar_month():
    rows = [
        BacktestRow(day, err, err, err, err, 0.0, "ok")
        for day, err in (
            (dt.date(2004, 4, 29), 2.0),
            (dt.date(2004, 4, 30), 4.0),
            (dt.date(2004, 5, 1), 6.0),
        )
    ]
    april, may = summarize_monthly(rows)
    assert (april.year, april.month, may.year, may.month) == (2004, 4, 2004, 5)
    assert april.mmre_ensemble == pytest.approx(3.0)
    assert may.mmre_ensemble == pytest.approx(6.0)


def _sample_window():
    return last_day_window(SynthParams(days=12, seed=3))


def _sample_report(stub):
    return forecast_report(_sample_window(), stub, EngineSettings(), {"method": "exact-ml"})


def test_report_meta_constants(stub_criticals):
    meta = _sample_report(stub_criticals)["meta"]
    assert meta["p_v"] == P_V == 0.8803
    assert meta["p_r"] == P_R == 0.96806
    assert meta["engine_version"]
    assert meta["config"] == {"method": "exact-ml"}


def test_report_schema_keys(stub_criticals):
    dispatch = _sample_report(stub_criticals)
    obj = json.loads(serialize_report(dispatch))
    assert list(obj.keys()) == [
        "target_date", "forecasts", "ensemble", "thermo", "time_test",
        "reserve_test", "price_c", "delta_pct", "temp_equiv_c", "meta",
    ]
    assert list(obj["forecasts"].keys()) == ["a", "b", "c"]
    assert all(len(obj["forecasts"][m]) == 24 for m in "abc")
    assert len(obj["ensemble"]) == 24
    assert list(obj["thermo"].keys()) == [
        "theta1", "theta2", "beta", "w1", "w2", "mu", "sigma",
        "delta_s", "delta_sp",
    ]
    assert list(obj["time_test"].keys()) == [
        "t6_1", "t6_2", "t16", "t24", "exponents", "verdicts",
    ]
    assert list(obj["reserve_test"].keys()) == ["r1", "r2", "pass"]
    assert obj["meta"]["p_v"] == 0.8803
    assert obj["meta"]["p_r"] == 0.96806


def test_report_round_trip(stub_criticals):
    # 17 significant digits are lossless: every number reads back equal.
    dispatch = _sample_report(stub_criticals)
    text = serialize_report(dispatch)
    assert json.loads(text) == dispatch
    # The rendering is deterministic, also for the report of a fresh run.
    assert serialize_report(dispatch) == text
    assert serialize_report(_sample_report(stub_criticals)) == text


def test_report_numbers_have_seventeen_significant_digits(stub_criticals):
    dispatch = _sample_report(stub_criticals)
    text = serialize_report(dispatch)
    rendered = format(dispatch["thermo"]["theta1"], ".17g")
    assert rendered in text


def test_build_report_dates_every_profile_with_the_target_day(stub_criticals):
    dispatch = _sample_report(stub_criticals)
    forecasts, ensemble, [scores] = run_day(_sample_window(), stub_criticals)
    day = TARGET + dt.timedelta(days=9)
    rebuilt = build_report(day, forecasts[:, 0], ensemble[0], scores)
    assert rebuilt["target_date"] == day.isoformat()
    assert rebuilt["forecasts"] == dict(zip("abc", forecasts[:, 0].tolist()))
    assert rebuilt["ensemble"] == ensemble[0].tolist()
    assert rebuilt["thermo"] == asdict(scores.thermo)
    t = scores.time_test
    assert rebuilt["time_test"] == {
        "t6_1": t.t6_1, "t6_2": t.t6_2, "t16": t.t16, "t24": t.t24,
        "exponents": {"i": t.i, "k": t.k, "m": t.m, "n": t.n},
        "verdicts": {"t6": t.pass_t6, "t16": t.pass_t16, "t24": t.pass_t24,
                     "t16_branch": t.branch_t16, "t24_branch": t.branch_t24},
    }
    r = scores.reserve_test
    assert rebuilt["reserve_test"] == {"r1": r.r1, "r2": r.r2, "pass": r.passed}
    assert (rebuilt["price_c"], rebuilt["delta_pct"], rebuilt["temp_equiv_c"]) == (
        scores.price_c, scores.delta_pct, scores.temp_equiv_c)
    assert "config" not in rebuilt["meta"]
    assert serialize_report(rebuilt) == serialize_report(
        {**dispatch, "target_date": day.isoformat(), "meta": rebuilt["meta"]})
