"""Engineered datasets for the degeneracy-routing tests, and temperatures
that the generator cannot make.

The recoherence fixture forces theta1 = theta2 through the structure of the
data rather than through luck: the target day's lag-1 load, half-day
recombination and 7-day lag are all the same constant, so every regressor
model b sees for the target day is constant and its prediction is bitwise
flat.  A flat (zero after centering) profile forces both alignment angles
to the same branch value, the recoherence difference vanishes exactly, and
the pipeline aborts at the inverse temperature.  Models a and c keep
genuinely varying predictions (pulse-hour spikes and temperature structure
in the response), so the degenerate-series guard does not fire first.
"""

import datetime as dt
import math

from dayahead.ingest import Record

BASE_LEVEL = 100.0


def _bumpy_load(day_index: int):
    return [
        BASE_LEVEL
        + 12.0 * math.sin(2.0 * math.pi * (h + 2 * day_index) / 24.0)
        + 3.0 * math.cos(2.0 * math.pi * (h * day_index) / 12.0)
        for h in range(1, 25)
    ]


def _bumpy_temp(day_index: int):
    return [
        10.0
        + 4.0 * math.sin(2.0 * math.pi * (h - 7 + day_index) / 24.0)
        + 1.0 * math.sin(2.0 * math.pi * h / 6.0)
        for h in range(1, 25)
    ]


def _spiked_am_response():
    """Morning half for the day before yesterday: pulse-hour spikes so the
    descriptive model keeps nonzero pulse coefficients, plus a smooth bump
    correlated with the temperature pattern so model c keeps nonzero
    temperature coefficients."""
    values = []
    for h in range(1, 13):
        v = BASE_LEVEL
        if h in (9, 10, 11):
            v += {9: 30.0, 10: 38.0, 11: 26.0}[h]
        v += 6.0 * math.sin(2.0 * math.pi * (h - 5) / 24.0)
        values.append(v)
    return values


def recoherence_fixture_records(target: dt.date) -> list[Record]:
    """History + forecast-temperature records whose window forces the
    recoherence difference to vanish (exit path for Eq. 8)."""
    records = []
    for k in range(9, 0, -1):
        day = target - dt.timedelta(days=k)
        if k in (1, 7):
            loads = [BASE_LEVEL] * 24
        elif k == 2:
            loads = _spiked_am_response() + [BASE_LEVEL] * 12
        else:
            loads = _bumpy_load(k)
        temps = _bumpy_temp(k)
        for h in range(1, 25):
            records.append(Record(day, h, loads[h - 1], temps[h - 1]))
    forecast_temps = _bumpy_temp(0)
    for h in range(1, 25):
        records.append(Record(target, h, None, forecast_temps[h - 1]))
    return records


def recoherence_backtest_records(degenerate_day: dt.date, tail_days: int = 1):
    """A backtest dataset where exactly `degenerate_day` aborts.

    Covers [degenerate_day - 10, degenerate_day + tail_days] with generic
    data, overwritten by the recoherence construction for the degenerate
    day's window.  Actual loads for the degenerate day and later days are
    generic so neighbouring windows stay healthy.
    """
    records = {}
    start = degenerate_day - dt.timedelta(days=10)
    end = degenerate_day + dt.timedelta(days=tail_days)
    day = start
    idx = 0
    while day <= end:
        loads = _bumpy_load(idx + 3)
        temps = _bumpy_temp(idx + 3)
        for h in range(1, 25):
            records[(day, h)] = Record(day, h, loads[h - 1], temps[h - 1])
        day += dt.timedelta(days=1)
        idx += 1
    for rec in recoherence_fixture_records(degenerate_day):
        if rec.load_mw is None:
            old = records[(rec.date, rec.hour)]
            records[(rec.date, rec.hour)] = Record(
                rec.date, rec.hour, old.load_mw, rec.temp_c
            )
        else:
            records[(rec.date, rec.hour)] = rec
    return sorted(records.values(), key=lambda r: (r.date, r.hour))


def perturbed_temperatures(records) -> list[Record]:
    """``records`` with 0.3 sin(1.7 i**2 mod 11) degC added to the
    temperature of the i-th.  ``synth`` makes each temperature a function of
    the hour plus one of the day, so under day lags model c's design is
    rank-deficient at every decay; this deterministic jitter breaks that
    structure."""
    return [r._replace(temp_c=r.temp_c + 0.3 * math.sin(1.7 * i * i % 11))
            for i, r in enumerate(records)]
