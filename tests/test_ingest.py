import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dayahead.errors import ValidationError
from dayahead.ingest import (
    Record,
    SeriesWindow,
    SynthParams,
    assemble_window,
    parse_csv,
    serialize_csv,
    synth_dataset,
)

from conftest import (
    TARGET,
    day,
    dataset_of,
    last_day_window,
    make_window,
    records_for_window,
    same_dataset,
    same_window,
)
from oracles import index_records, parse_csv_records

HEADER = "date,hour,load_mw,temp_c"


def test_parse_single_row():
    text = f"{HEADER}\n2004-05-01,1,4200.5,11.2\n"
    data = parse_csv(text)
    record = Record(dt.date(2004, 5, 1), 1, 4200.5, 11.2)
    assert same_dataset(data, index_records([record]))
    assert list(data.index) == [dt.date(2004, 5, 1)]
    assert (data.loads[0, 0], data.temps[0, 0]) == (4200.5, 11.2)


def test_parse_empty_load_field():
    text = f"{HEADER}\n2004-05-01,1,,11.2\n"
    data = parse_csv(text)
    assert len(data) == 1
    assert np.isnan(data.loads).all()
    assert data.temps[0, 0] == 11.2


def test_parse_hour_out_of_range():
    text = f"{HEADER}\n2004-05-01,25,4200.5,11.2\n"
    with pytest.raises(ValidationError, match="out of range"):
        parse_csv(text)


def test_parse_duplicate_key_named():
    text = (
        f"{HEADER}\n"
        "2004-05-01,3,4100.0,10.0\n"
        "2004-05-01,4,4100.0,10.0\n"
        "2004-05-01,3,4200.0,11.0\n"
    )
    with pytest.raises(ValidationError, match=r"2004-05-01, hour 3"):
        parse_csv(text)


@pytest.mark.parametrize(
    "row",
    [
        "2004-13-01,1,4200.5,11.2",
        "2004-05-01,one,4200.5,11.2",
        "2004-05-01,1,abc,11.2",
        "2004-05-01,1,4200.5,abc",
        "2004-05-01,1,4200.5",
        "2004-05-01,0,4200.5,11.2",
    ],
)
def test_parse_malformed_row_reports_line(row):
    with pytest.raises(ValidationError, match="line 2"):
        parse_csv(f"{HEADER}\n{row}\n")


def test_parse_requires_header():
    with pytest.raises(ValidationError, match="header"):
        parse_csv("a,b,c,d\n")


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=400),
            st.integers(min_value=1, max_value=24),
            st.one_of(
                st.none(),
                st.floats(min_value=0.001, max_value=1e7, allow_nan=False),
            ),
            st.floats(min_value=-60, max_value=60, allow_nan=False),
        ),
        unique_by=lambda t: (t[0], t[1]),
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_parse_serialize_round_trip(raw):
    records = [
        Record(dt.date(2004, 1, 1) + dt.timedelta(days=d), h, load, temp)
        for d, h, load, temp in raw
    ]
    text = serialize_csv(records)
    assert parse_csv_records(text) == records
    assert same_dataset(parse_csv(text), index_records(records))


def test_assemble_window_complete():
    window = make_window()
    records = records_for_window(window)
    rebuilt = assemble_window(dataset_of(records), TARGET)
    assert same_window(rebuilt, window)
    assert (rebuilt.loads.shape, rebuilt.temps.shape) == ((9, 24), (10, 24))
    assert not rebuilt.loads.flags.writeable


def test_assemble_window_order_independent():
    window = make_window()
    records = records_for_window(window)
    shuffled = list(reversed(records))
    assert same_window(assemble_window(dataset_of(shuffled), TARGET), window)


def test_assemble_window_names_first_gap():
    window = make_window()
    records = [
        r for r in records_for_window(window)
        if not (r.date == day(4) and r.hour == 13)
    ]
    with pytest.raises(ValidationError, match=rf"{day(4)}, hour 13"):
        assemble_window(dataset_of(records), TARGET)


def test_assemble_window_rejects_nonpositive_load():
    window = make_window()
    records = []
    for r in records_for_window(window):
        if r.date == day(2) and r.hour == 5:
            r = Record(r.date, r.hour, 0.0, r.temp_c)
        records.append(r)
    with pytest.raises(ValidationError, match="non-positive load"):
        assemble_window(dataset_of(records), TARGET)


def test_assemble_window_requires_forecast_hours():
    window = make_window()
    records = [
        r for r in records_for_window(window)
        if not (r.date == TARGET and r.hour == 7)
    ]
    with pytest.raises(ValidationError, match=rf"{TARGET}, hour 7"):
        assemble_window(dataset_of(records), TARGET)


def test_synth_degenerate_generator_is_flat():
    params = SynthParams(
        days=2, base_mw=4200.0, peak_amp_mw=0.0, noise_sd_mw=0.0,
        temp_amp_c=0.0, seed=7,
    )
    records = synth_dataset(params)
    assert all(r.load_mw == 4200.0 for r in records)


def test_synth_deterministic_given_seed():
    params = SynthParams(days=12, seed=42)
    first = synth_dataset(params)
    second = synth_dataset(params)
    assert first == second
    assert same_window(last_day_window(params), last_day_window(params))


def test_synth_two_degree_offset_shifts_mean_by_sensitivity():
    # Direct evaluation of the generator's closed form: with a flat
    # temperature path at the reference level, base run mean equals base_mw
    # and a +2 degC offset run differs by exactly the configured percent.
    base = SynthParams(days=6, peak_amp_mw=0.0, noise_sd_mw=0.0,
                       temp_amp_c=0.0, temp_offset_c=0.0,
                       temp_sensitivity_pct_per_2c=4.6, seed=5)
    warm = SynthParams(days=6, peak_amp_mw=0.0, noise_sd_mw=0.0,
                       temp_amp_c=0.0, temp_offset_c=2.0,
                       temp_sensitivity_pct_per_2c=4.6, seed=5)
    m_base = np.mean([r.load_mw for r in synth_dataset(base)])
    m_warm = np.mean([r.load_mw for r in synth_dataset(warm)])
    assert abs((m_warm - m_base) / m_base * 100.0 - 4.6) < 1e-9


def test_synth_default_shape_is_double_peaked():
    params = SynthParams(days=1, noise_sd_mw=0.0)
    records = synth_dataset(params)
    values = [r.load_mw for r in records]
    am_peak = 1 + int(np.argmax(values[0:12]))
    pm_peak = 13 + int(np.argmax(values[12:24]))
    assert am_peak in (9, 10, 11)
    assert pm_peak in (19, 20, 21)


def test_synth_params_validation():
    with pytest.raises(ValidationError):
        SynthParams(days=0)
    with pytest.raises(ValidationError):
        SynthParams(ar_rho=1.0)
    with pytest.raises(ValidationError):
        SynthParams(noise_sd_mw=-1.0)
    with pytest.raises(ValidationError):
        SynthParams(base_mw=0.0)


def test_window_rejects_mismatched_or_short_arrays():
    window = make_window()
    loads, temps = window.loads, window.temps
    assert window.days == 1
    for bad_loads, bad_temps in (
        (loads[:-1], temps),  # one load row short of the temperatures
        (np.vstack([loads, loads[:1]]), temps),  # one load row too many
        (loads[:-1], temps[:-1]),  # nine temperature rows: no target day
        (loads[:, :23], temps),
    ):
        with pytest.raises(ValidationError, match="window requires"):
            SeriesWindow(TARGET, bad_loads, bad_temps)
