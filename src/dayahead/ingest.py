"""Data model, CSV parsing/validation and synthetic data generation.

The CSV schema is shared by history and forecast files::

    date,hour,load_mw,temp_c
    2004-05-01,1,4200.5,11.2

Dates are ISO-8601, hours run 1..24, the decimal separator is ``.`` and the
line terminator is ``\\n``.  A forecast file carries ``load_mw`` as an empty
field.  Calendar days are opaque labels with exactly 24 hours each; there is
no timezone or DST handling.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .errors import ValidationError

LOAD_KIND = "load_mw"
TEMP_KIND = "temp_c"

HOURS = tuple(range(1, 25))
HISTORY_DAYS = 9

CSV_HEADER = "date,hour,load_mw,temp_c"


class Record(NamedTuple):
    """One CSV row.  ``load_mw`` is None for forecast rows."""

    date: dt.date
    hour: int
    load_mw: Optional[float]
    temp_c: float


@dataclass(frozen=True)
class DayProfile:
    """24 hourly values for one calendar day.

    ``kind`` is either ``load_mw`` or ``temp_c``.  Load values must be
    strictly positive because logarithms of load peaks are taken downstream.
    """

    date: dt.date
    values: tuple
    kind: str

    def __post_init__(self):
        if self.kind not in (LOAD_KIND, TEMP_KIND):
            raise ValidationError(f"unknown profile kind {self.kind!r}")
        vals = tuple(float(v) for v in self.values)
        if len(vals) != 24:
            raise ValidationError(
                f"profile for {self.date} has {len(vals)} values, expected 24"
            )
        for h, v in zip(HOURS, vals):
            if not math.isfinite(v):
                raise ValidationError(f"non-finite value at ({self.date}, hour {h})")
            if self.kind == LOAD_KIND and v <= 0.0:
                raise ValidationError(f"non-positive load at ({self.date}, hour {h})")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class SeriesWindow:
    """Nine consecutive history days of load and temperature plus the target
    day's hourly temperature forecast.

    Row k of the 9 x 24 ``loads`` and ``temps`` is day ``target_date - (9 - k)``;
    ``forecast`` holds the target day's 24 temperatures.  :func:`assemble_window`
    validates the values and returns read-only views of its :class:`Dataset`.
    """

    target_date: dt.date
    loads: np.ndarray
    temps: np.ndarray
    forecast: np.ndarray

    def __post_init__(self):
        shapes = (self.loads.shape, self.temps.shape, self.forecast.shape)
        if shapes != ((HISTORY_DAYS, 24), (HISTORY_DAYS, 24), (24,)):
            raise ValidationError("window requires 9 x 24 history arrays and a 24-hour forecast")

    def __eq__(self, other):
        if not isinstance(other, SeriesWindow):
            return NotImplemented
        return self.target_date == other.target_date and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("loads", "temps", "forecast")
        )

    def _history_index(self, day: dt.date) -> int:
        offset = (self.target_date - day).days
        if not 1 <= offset <= HISTORY_DAYS:
            raise ValidationError(
                f"required history day {day} absent from the window ending {self.target_date}"
            )
        return HISTORY_DAYS - offset

    def load_on(self, day: dt.date) -> np.ndarray:
        return self.loads[self._history_index(day)]

    def temp_on(self, day: dt.date) -> np.ndarray:
        """Temperatures for a day; the target day resolves to the forecast,
        history days to observed temperatures."""
        if day == self.target_date:
            return self.forecast
        return self.temps[self._history_index(day)]

    def has_day(self, day: dt.date) -> bool:
        return 1 <= (self.target_date - day).days <= HISTORY_DAYS


def _reject_first(flat: list, bad: np.ndarray, problem: str) -> None:
    """Reject the first record flagged in ``bad``; ``flat`` holds the
    records' fields one after another."""
    if bad.any():
        i = 4 * int(bad.argmax())
        raise ValidationError(f"{problem} ({flat[i]}, hour {flat[i + 1]})")


# What a (day, hour) can lack, in the order it is checked.
GAP_LEVELS = ("record", "load", "positive")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Every record of a dataset, indexed by calendar day.

    ``index`` maps each day that has a record to its row; rows follow the
    days in calendar order.  Row r of the read-only (D + 1) x 24 arrays holds
    that day's hours: ``has_temp`` marks the hours with a record and
    ``has_load`` those whose record carries a load; ``loads``/``temps`` are
    NaN where absent.  The last row is absent throughout and stands in for
    days without records.  ``len()`` is the number of records.
    """

    index: dict
    loads: np.ndarray
    temps: np.ndarray
    has_load: np.ndarray
    has_temp: np.ndarray
    n_records: int

    def __len__(self) -> int:
        return self.n_records

    @classmethod
    def from_records(cls, records: Iterable[Record]) -> Dataset:
        """Index records given in any order.  Rejects an hour outside 1..24,
        a non-finite value and a duplicate (date, hour) key, each the first
        in record order; a NaN load reads as absent."""
        # The four fields of every record in a row, split by strided slices:
        # one pass over the records, where zip(*records) would make an
        # iterator per record and set the garbage collector off.
        flat = list(chain.from_iterable(records))
        dates, hours, loads, temps = (flat[i::4] for i in range(4))
        n = len(dates)
        hour = np.fromiter(hours, dtype=np.int64, count=n)
        load = np.array(loads, dtype=float)  # None -> NaN
        temp = np.fromiter(temps, dtype=float, count=n)
        _reject_first(flat, (hour < 1) | (hour > 24), "hour out of range 1..24 at")
        _reject_first(flat, ~np.isfinite(temp) | np.isinf(load), "non-finite value at")
        ordinal = np.fromiter(map(dt.date.toordinal, dates), dtype=np.int64, count=n)
        ordinals, day_row = np.unique(ordinal, return_inverse=True)
        slot = 24 * day_row + hour - 1
        repeat = np.ones(n, dtype=bool)
        repeat[np.unique(slot, return_index=True)[1]] = False
        _reject_first(flat, repeat, "duplicate key")

        shape = (len(ordinals) + 1, 24)
        load_arr, temp_arr = np.full(shape, np.nan), np.full(shape, np.nan)
        load_arr.flat[slot] = load
        temp_arr.flat[slot] = temp
        arrays = (load_arr, temp_arr, ~np.isnan(load_arr), ~np.isnan(temp_arr))
        for arr in arrays:
            arr.flags.writeable = False
        index = {dt.date.fromordinal(o): row for row, o in enumerate(ordinals.tolist())}
        return cls(index, *arrays, n)

    def first_gap(
        self, first: dt.date, days: int, need: str = "record"
    ) -> Optional[tuple[dt.date, int, str]]:
        """The first (day, hour, lack) in (day, hour) order over ``days``
        days from ``first``, checking the levels of ``GAP_LEVELS`` up to
        ``need``; None when nothing is lacking."""
        rows = [self.index.get(first + dt.timedelta(days=k), -1) for k in range(days)]
        masks = (self.has_temp[rows], self.has_load[rows], self.loads[rows] > 0.0)
        masks = masks[: GAP_LEVELS.index(need) + 1]
        ok = np.logical_and.reduce(masks)
        if ok.all():
            return None
        d, h = divmod(int(ok.argmin()), 24)
        lack = next(level for level, mask in zip(GAP_LEVELS, masks) if not mask[d, h])
        return first + dt.timedelta(days=d), h + 1, lack


def parse_csv(text: str) -> list[Record]:
    """Parse CSV text into records, preserving file order.

    Raises :class:`ValidationError` for a malformed row (reported with its
    line number), a duplicate (date, hour) key or an hour outside 1..24.
    """
    lines = text.split("\n")
    if not lines or lines[0].strip() != CSV_HEADER:
        raise ValidationError(f"expected header {CSV_HEADER!r}")
    records: list[Record] = []
    seen: set[tuple[dt.date, int]] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if line.strip() == "":
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValidationError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        raw_date, raw_hour, raw_load, raw_temp = (p.strip() for p in parts)
        try:
            date = dt.date.fromisoformat(raw_date)
        except ValueError:
            raise ValidationError(f"line {lineno}: bad date {raw_date!r}") from None
        try:
            hour = int(raw_hour)
        except ValueError:
            raise ValidationError(f"line {lineno}: bad hour {raw_hour!r}") from None
        if hour < 1 or hour > 24:
            raise ValidationError(f"line {lineno}: hour {hour} out of range 1..24")
        load: Optional[float] = None
        if raw_load != "":
            try:
                load = float(raw_load)
            except ValueError:
                raise ValidationError(
                    f"line {lineno}: bad load_mw {raw_load!r}"
                ) from None
            if not math.isfinite(load):
                raise ValidationError(f"line {lineno}: non-finite load_mw")
        try:
            temp = float(raw_temp)
        except ValueError:
            raise ValidationError(f"line {lineno}: bad temp_c {raw_temp!r}") from None
        if not math.isfinite(temp):
            raise ValidationError(f"line {lineno}: non-finite temp_c")
        key = (date, hour)
        if key in seen:
            raise ValidationError(f"line {lineno}: duplicate key ({date}, hour {hour})")
        seen.add(key)
        records.append(Record(date, hour, load, temp))
    return records


def serialize_csv(records: Iterable[Record]) -> str:
    """Render records back to CSV text; parse(serialize(r)) == r."""
    out = [CSV_HEADER]
    for rec in records:
        load = "" if rec.load_mw is None else repr(float(rec.load_mw))
        out.append(f"{rec.date.isoformat()},{rec.hour},{load},{repr(float(rec.temp_c))}")
    return "\n".join(out) + "\n"


_WINDOW_GAPS = {"record": "missing data for", "load": "missing load_mw for",
                "positive": "non-positive load at"}


def assemble_window(data: Dataset | Iterable[Record], target_date: dt.date) -> SeriesWindow:
    """Build a validated window ending the day before ``target_date``.

    Requires full 24-hour load and temperature coverage for each of the nine
    preceding days plus 24 forecast-temperature hours for the target day.
    The first gap found in (day, hour) order is reported; the outcome does
    not depend on record order.  Rows for the target day may carry a load
    value (e.g. in a backtest dataset); it is ignored here.  Records are
    indexed once through :meth:`Dataset.from_records`; the window's arrays
    are views of the dataset's rows.
    """
    if not isinstance(data, Dataset):
        data = Dataset.from_records(data)
    first = target_date - dt.timedelta(days=HISTORY_DAYS)
    gap = data.first_gap(first, HISTORY_DAYS, "positive")
    if gap is not None:
        day, hour, lack = gap
        raise ValidationError(f"{_WINDOW_GAPS[lack]} ({day}, hour {hour})")
    gap = data.first_gap(target_date, 1)
    if gap is not None:
        raise ValidationError(
            f"missing forecast temperature for ({target_date}, hour {gap[1]})"
        )
    i = data.index[first]
    return SeriesWindow(
        target_date,
        data.loads[i : i + HISTORY_DAYS],
        data.temps[i : i + HISTORY_DAYS],
        data.temps[i + HISTORY_DAYS],
    )


@dataclass(frozen=True)
class SynthParams:
    """Parameters of the deterministic synthetic dataset generator.

    The defaults produce a plausible double-peaked daily load shape with
    peaks near hours 9-11 and 19-21.  ``temp_sensitivity_pct_per_2c`` scales
    the linear temperature response so that a uniform 2 degC rise in
    temperature shifts the mean load by that percentage of ``base_mw``.
    All randomness comes from ``seed``; no system entropy is used.
    """

    days: int = 40
    base_mw: float = 4200.0
    peak_amp_mw: float = 600.0
    temp_sensitivity_pct_per_2c: float = 4.6
    ar_rho: float = 0.6
    noise_sd_mw: float = 40.0
    seed: int = 1
    start_date: dt.date = dt.date(2004, 1, 1)
    temp_base_c: float = 10.0
    temp_amp_c: float = 6.0
    temp_offset_c: float = 0.0

    def __post_init__(self):
        if self.days < 1:
            raise ValidationError("days must be a positive integer")
        if self.base_mw <= 0:
            raise ValidationError("base_mw must be positive")
        if not -1.0 < self.ar_rho < 1.0:
            raise ValidationError("ar_rho must lie in (-1, 1)")
        if self.noise_sd_mw < 0:
            raise ValidationError("noise_sd_mw must be nonnegative")


# Gaussian bump centers/width for the two daily load peaks (hours).
PEAK_CENTERS = (10.0, 20.0)
PEAK_WIDTH_H = 1.8
EVENING_PEAK_RATIO = 0.9


def _synth_temp(params: SynthParams, day_index: int, hour: int) -> float:
    diurnal = math.sin(2.0 * math.pi * (hour - 9) / 24.0)
    drift = 0.5 * math.sin(2.0 * math.pi * day_index / 11.0)
    return (
        params.temp_base_c
        + params.temp_amp_c * (diurnal + drift)
        + params.temp_offset_c
    )


def _peak_shape(hour: int) -> float:
    morning = math.exp(-((hour - PEAK_CENTERS[0]) ** 2) / (2.0 * PEAK_WIDTH_H**2))
    evening = math.exp(-((hour - PEAK_CENTERS[1]) ** 2) / (2.0 * PEAK_WIDTH_H**2))
    return morning + EVENING_PEAK_RATIO * evening


def synth_dataset(params: SynthParams) -> tuple[list[Record], dict]:
    """Generate ``params.days`` days of hourly load and temperature records.

    load(d, h) = base + peak_amp * bumps(h)
               + slope * (temp(d, h) - temp_base_c) + AR(1) noise

    where slope = (temp_sensitivity_pct_per_2c / 100) * base_mw / 2 per degC,
    so a uniform +2 degC offset shifts every load value by exactly
    temp_sensitivity_pct_per_2c percent of base_mw.  The AR(1) noise chain is
    stationary with marginal standard deviation ``noise_sd_mw`` and runs
    hour by hour across day boundaries.  Returns the records plus a ground
    truth description of the generating coefficients.
    """
    rng = np.random.default_rng(params.seed)
    slope = params.temp_sensitivity_pct_per_2c / 100.0 * params.base_mw / 2.0
    innov_sd = params.noise_sd_mw * math.sqrt(1.0 - params.ar_rho**2)

    records: list[Record] = []
    noise = rng.normal(0.0, params.noise_sd_mw) if params.noise_sd_mw > 0 else 0.0
    for d in range(params.days):
        day = params.start_date + dt.timedelta(days=d)
        for hour in HOURS:
            temp = _synth_temp(params, d, hour)
            load = (
                params.base_mw
                + params.peak_amp_mw * _peak_shape(hour)
                + slope * (temp - params.temp_base_c)
                + noise
            )
            if load <= 0.0:
                raise ValidationError(
                    f"generator produced non-positive load at ({day}, hour {hour}); "
                    "adjust parameters"
                )
            records.append(Record(day, hour, float(load), float(temp)))
            if params.noise_sd_mw > 0:
                noise = params.ar_rho * noise + rng.normal(0.0, innov_sd)

    truth = {
        "base_mw": params.base_mw,
        "peak_amp_mw": params.peak_amp_mw,
        "peak_centers_h": PEAK_CENTERS,
        "peak_width_h": PEAK_WIDTH_H,
        "evening_peak_ratio": EVENING_PEAK_RATIO,
        "slope_mw_per_c": slope,
        "temp_base_c": params.temp_base_c,
        "temp_amp_c": params.temp_amp_c,
        "temp_offset_c": params.temp_offset_c,
        "ar_rho": params.ar_rho,
        "noise_sd_mw": params.noise_sd_mw,
        "innovation_sd_mw": innov_sd,
        "seed": params.seed,
    }
    return records, truth


def synth_window(params: SynthParams) -> tuple[SeriesWindow, dict]:
    """Generate a dataset and assemble the window targeting its last day.

    Needs at least 10 generated days (9 history plus the target).  The
    target day's generated temperatures serve as the forecast; its loads are
    the ground-truth actuals and are not part of the window.
    """
    if params.days < 10:
        raise ValidationError("synth_window requires days >= 10")
    records, truth = synth_dataset(params)
    target = params.start_date + dt.timedelta(days=params.days - 1)
    return assemble_window(records, target), truth
