import datetime as dt
import math
import tracemalloc

import numpy as np
import pytest

from dayahead.ingest import (
    Dataset,
    Record,
    SeriesWindow,
    SynthParams,
    assemble_window,
    parse_csv,
    serialize_csv,
    synth_dataset,
)
from dayahead.verdict import CriticalValues

from oracles import Profile

TARGET = dt.date(2004, 5, 10)


def day(offset: int) -> dt.date:
    """Calendar day `offset` days before the default target."""
    return TARGET - dt.timedelta(days=offset)


def profile(date, values) -> Profile:
    return Profile(date, tuple(float(v) for v in values))


def stacked(*profiles) -> np.ndarray:
    """The values of day profiles as one array, (len(profiles), 24)."""
    return np.stack([p.values for p in profiles])


def same_bits(a, b) -> bool:
    """Two arrays of one shape and dtype hold the same bytes, so -0.0 differs
    from 0.0 and NaN equals only the same NaN."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_window(a, b) -> bool:
    """Two windows start at the same target day and hold equal loads and
    temperatures."""
    return a.target_date == b.target_date and all(
        np.array_equal(getattr(a, f), getattr(b, f)) for f in ("loads", "temps")
    )


def heap_peak(call) -> int:
    """The peak of the heap that ``call()`` allocates, traced by
    ``tracemalloc`` on a second call, after a first for imports and caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_window(load_by_offset=None, temp_by_offset=None, forecast=None,
                target=TARGET) -> SeriesWindow:
    """Read-only one-day window with per-offset overrides; defaults are a
    mild double-peaked load shape and a diurnal temperature curve."""
    load_by_offset = load_by_offset or {}
    temp_by_offset = temp_by_offset or {}
    offsets = range(9, 0, -1)
    temps = [temp_by_offset.get(k, default_temp(k)) for k in offsets]
    arrays = [
        np.array([load_by_offset.get(k, default_load(k)) for k in offsets], dtype=float),
        np.array(temps + [forecast if forecast is not None else default_temp(0)], dtype=float),
    ]
    for arr in arrays:
        arr.flags.writeable = False
    return SeriesWindow(target, *arrays)


def default_load(offset: int):
    return [
        4000.0
        + 500.0 * math.exp(-((h - 10) ** 2) / 6.0)
        + 450.0 * math.exp(-((h - 20) ** 2) / 6.0)
        + 35.0 * math.sin(2.0 * math.pi * (h + 3 * offset) / 24.0)
        + 20.0 * offset
        for h in range(1, 25)
    ]


def default_temp(offset: int):
    return [
        10.0
        + 5.0 * math.sin(2.0 * math.pi * (h - 9) / 24.0)
        + 1.5 * math.sin(2.0 * math.pi * offset / 7.0)
        for h in range(1, 25)
    ]


def dataset_of(records) -> Dataset:
    """The Dataset of records given in any order, read as the commands read
    their input: from CSV text."""
    return parse_csv(serialize_csv(records))


def last_day_window(params: SynthParams) -> SeriesWindow:
    """The window of a synth dataset's last day; needs ``params.days`` of at
    least 10 (nine history days and the target)."""
    target = params.start_date + dt.timedelta(days=params.days - 1)
    return assemble_window(dataset_of(synth_dataset(params)), target)


def same_dataset(a, b) -> bool:
    """Two Datasets hold the same days, the same values (NaN where absent)
    and the same number of records."""
    return (
        list(a.index.items()) == list(b.index.items())
        and all(np.array_equal(getattr(a, f), getattr(b, f), equal_nan=True)
                for f in ("loads", "temps"))
        and len(a) == len(b)
    )


def records_for_window(window: SeriesWindow, target_loads=None):
    """Flatten a one-day window back into CSV records (plus optional target
    loads)."""
    recs = []
    for k, (loads, temps) in enumerate(zip(window.loads, window.temps)):
        date = window.target_date - dt.timedelta(days=9 - k)
        for h in range(1, 25):
            recs.append(Record(date, h, float(loads[h - 1]), float(temps[h - 1])))
    for h in range(1, 25):
        load = None if target_loads is None else float(target_loads[h - 1])
        recs.append(Record(window.target_date, h, load, float(window.temps[9][h - 1])))
    return recs


@pytest.fixture
def stub_criticals() -> CriticalValues:
    # Synthetic stub for exercising the branch logic; NOT calibrated values.
    return CriticalValues(
        lvl1_5pct=5.5, lvl1_10pct=4.8, lvl2_5pct=12.0,
        lvl2_10pct=10.5, lvl3_5pct=18.0,
    )


@pytest.fixture
def permissive_criticals() -> CriticalValues:
    # Dominance sentinel: every statistic passes.
    return CriticalValues(-1e18, -1e18, -1e18, -1e18, -1e18)
