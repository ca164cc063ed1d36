import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dayahead.errors import DegeneracyError, ValidationError
from dayahead.verdict import (
    CriticalValues,
    T6_WINDOW,
    T16_WINDOW,
    T24_WINDOW,
    energy_test,
    load_critical_values,
    raw_times,
    scaled_time,
    time_tests,
)
from dayahead.thermo import WORK_OFFSET


def test_scaled_time_already_inside():
    value, exponent = scaled_time(13.0, 2.0, T16_WINDOW)
    assert (value, exponent) == (13.0, 0)


def test_scaled_time_forced_arithmetic():
    value, exponent = scaled_time(1.3, 2.0, T16_WINDOW)
    assert exponent == 3
    assert value == pytest.approx(10.4, abs=1e-12)


def test_scaled_time_base_three_halves():
    value, exponent = scaled_time(2.0, 1.5, T24_WINDOW)
    # independent enumeration over the full exponent range
    matches = [
        (1.5**e * 2.0, e)
        for e in range(-64, 65)
        if T24_WINDOW[0] < 1.5**e * 2.0 <= T24_WINDOW[1]
    ]
    assert len(matches) == 1
    assert (value, exponent) == matches[0]
    assert exponent == 6
    assert value == pytest.approx(22.78125, abs=1e-12)


def test_scaled_time_t6_rule():
    value, exponent = scaled_time(9.0, 2.0, T6_WINDOW)
    assert (value, exponent) == (9.0, 0)
    value, exponent = scaled_time(9.0000001, 2.0, T6_WINDOW)
    assert exponent == -1
    value, exponent = scaled_time(0.001, 2.0, T6_WINDOW)
    assert 4.5 < value <= 9.0


def test_scaled_time_rejects_nonpositive():
    with pytest.raises(DegeneracyError, match=r"\(11\)"):
        scaled_time(0.0, 2.0, T16_WINDOW)
    with pytest.raises(DegeneracyError, match=r"\(11\)"):
        scaled_time(-3.0, 2.0, T16_WINDOW)


@pytest.mark.parametrize("raw", [math.inf, math.nan])
def test_scaled_time_rejects_non_finite(raw):
    with pytest.raises(DegeneracyError, match=r"non-finite.*\(11\)"):
        scaled_time(raw, 2.0, T16_WINDOW)


def test_scaled_time_exponent_bound():
    with pytest.raises(DegeneracyError, match="no exponent"):
        scaled_time(1e308, 1.5, T24_WINDOW)


@pytest.mark.parametrize("raw", [1e-300, 1e-308, 5e-324])
def test_scaled_time_tiny_raw_aborts_at_eq11(raw):
    # Below about 9 / DBL_MAX, hi / raw overflows: the guess must not.
    with pytest.raises(DegeneracyError, match=r"no exponent in \[-64, 64\].*\(11\)"):
        scaled_time(raw, 2.0, T6_WINDOW)


@given(
    st.floats(min_value=-25, max_value=25),
    st.integers(min_value=-20, max_value=20),
)
@settings(max_examples=80, deadline=None)
def test_scaled_time_invariant_under_prescaling(log_raw, j):
    raw = math.exp(log_raw)
    value, exponent = scaled_time(raw, 2.0, T16_WINDOW)
    value2, exponent2 = scaled_time((2.0**j) * raw, 2.0, T16_WINDOW)
    assert exponent2 == exponent - j
    assert value2 == pytest.approx(value, rel=1e-12)


def test_raw_times_formulas():
    w1 = 12.0
    raw6_1, raw6_2, raw16, raw24 = raw_times(0.5, 0.5, w1, w1)
    x = 0.25 * math.pi
    assert raw24 == pytest.approx(3.0 * math.pi, abs=1e-12)  # tan(pi/4) = 1
    assert raw6_1 == pytest.approx(w1 * x * math.tanh(x), abs=1e-12)
    assert raw6_1 == raw6_2
    assert raw16 == raw24


def test_raw_times_vanish_as_theta1_goes_to_zero():
    raw6_1, _, _, raw24 = raw_times(1e-12, 0.5, 10.0, 10.0)
    assert raw6_1 == pytest.approx(0.0, abs=1e-20)
    assert raw24 == pytest.approx(0.0, abs=1e-20)


def test_raw_times_tan_singularity():
    with pytest.raises(DegeneracyError, match=r"tan singularity"):
        raw_times(0.5, 0.9999999999, 10.0, 10.0)


def test_time_tests_branch_table_trace(stub_criticals):
    # Hand trace of the branch table with the stub values.  With theta1 =
    # 0.66, theta2 = 0.62, W1 = 11.7, W2 = 12.0 the scaled statistics are
    # t16 = 17.19... (>= 16, so the level-2 5% branch applies: pass because
    # 17.19 > 12) and t24 = 20.51... (< 24, so the level-2 10% branch
    # applies: pass against 10.5 but fail against a 25.0 entry).
    result = time_tests(0.66, 0.62, 11.7, 12.0, stub_criticals)
    assert 16.0 <= result.t16 <= 20.0
    assert result.branch_t16 == "lvl2_5pct"
    assert result.pass_t16  # 17.19 > 12.0
    assert 20.0 < result.t24 < 24.0
    assert result.branch_t24 == "lvl2_10pct"
    assert result.pass_t24  # 20.51 > 10.5

    strict = CriticalValues(5.5, 4.8, 12.0, 25.0, 18.0)
    result_strict = time_tests(0.66, 0.62, 11.7, 12.0, strict)
    assert result_strict.branch_t24 == "lvl2_10pct"
    assert not result_strict.pass_t24  # 20.51 < 25.0


def test_time_tests_permissive_sentinel(permissive_criticals):
    result = time_tests(0.5, 0.6, 11.0, 12.0, permissive_criticals)
    assert result.pass_t6 and result.pass_t16 and result.pass_t24


def test_time_tests_doubled_t6_uses_minimum(stub_criticals):
    result = time_tests(0.5, 0.6, 11.0, 12.0, stub_criticals)
    assert result.pass_t6 == (
        2.0 * min(result.t6_1, result.t6_2) > stub_criticals.lvl1_5pct
    )


def test_energy_test_at_zero_offset_fails():
    result = energy_test(WORK_OFFSET, WORK_OFFSET, 0.7)
    assert result.r1 == 1.0 - math.sqrt(2.0)
    assert result.r2 == 1.0 - math.sqrt(2.0)
    assert not result.passed


def test_energy_test_unit_case():
    result = energy_test(WORK_OFFSET + 1.0, WORK_OFFSET + 1.0, 1.0)
    assert result.r1 == pytest.approx(math.e - 1.0, abs=1e-12)
    assert result.passed


def test_energy_test_beta_zero_collapses_exponential():
    result = energy_test(WORK_OFFSET + 4.0, WORK_OFFSET + 4.0, 0.0)
    assert result.r1 == pytest.approx(1.0 - math.sqrt(2.0 / 3.0), abs=1e-12)
    assert result.passed


def test_energy_test_negative_offset_diagnostic():
    result = energy_test(WORK_OFFSET - 0.5, WORK_OFFSET + 1.0, 0.5)
    assert result.r1 is None and result.r2 is None
    assert not result.passed


@given(
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_energy_reserve_increasing_in_beta(w0, beta, step):
    low = energy_test(WORK_OFFSET + w0, WORK_OFFSET + w0, beta)
    high = energy_test(WORK_OFFSET + w0, WORK_OFFSET + w0, beta + step)
    assert high.r1 > low.r1


def test_critical_values_stub_file_loads():
    from pathlib import Path

    stub = Path(__file__).parent / "data" / "critical_values_stub.json"
    cv = load_critical_values(stub.read_text())
    assert cv.lvl1_5pct == 5.5


def test_critical_values_loader():
    good = {
        "lvl1_5pct": 5.5, "lvl1_10pct": 4.8, "lvl2_5pct": 12.0,
        "lvl2_10pct": 10.5, "lvl3_5pct": 18.0,
    }
    cv = load_critical_values(json.dumps(good))
    assert cv.lvl2_5pct == 12.0
    with pytest.raises(ValidationError, match="unknown"):
        load_critical_values(json.dumps({**good, "extra": 1.0}))
    missing = dict(good)
    del missing["lvl3_5pct"]
    with pytest.raises(ValidationError, match="missing"):
        load_critical_values(json.dumps(missing))
    with pytest.raises(ValidationError, match="finite"):
        load_critical_values(json.dumps({**good, "lvl1_5pct": 1e999}))
    # Integers past the double range, and past Python's int-string digit limit.
    with pytest.raises(ValidationError, match="lvl3_5pct must be finite"):
        load_critical_values(json.dumps(missing)[:-1] + ', "lvl3_5pct": 1' + "0" * 400 + "}")
    with pytest.raises(ValidationError, match="bad critical-values JSON"):
        load_critical_values(json.dumps(missing)[:-1] + ', "lvl3_5pct": 1' + "0" * 5000 + "}")
    with pytest.raises(ValidationError, match="JSON"):
        load_critical_values("not json")
