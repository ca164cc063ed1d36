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
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .errors import ValidationError

HOURS = tuple(range(1, 25))
HISTORY_DAYS = 9

CSV_HEADER = "date,hour,load_mw,temp_c"


class Record(NamedTuple):
    """One CSV row.  ``load_mw`` is None for forecast rows."""

    date: dt.date
    hour: int
    load_mw: Optional[float]
    temp_c: float


@dataclass(frozen=True, eq=False)
class SeriesWindow:
    """The dataset rows of a run of ``days`` consecutive target days: the
    nine history days of the first, then each target day in turn.

    Row r of ``temps`` ((9 + days) x 24) and of ``loads`` ((8 + days) x 24)
    is day ``target_date - 9 + r``, so target day i is temperature row
    9 + i: its forecast.  Loads stop the day before the last target.
    :meth:`Dataset.window` returns read-only views of the dataset's rows.
    """

    target_date: dt.date
    loads: np.ndarray
    temps: np.ndarray

    @property
    def days(self) -> int:
        """The number of target days."""
        return len(self.temps) - HISTORY_DAYS


# What a (day, hour) can lack, in the order it is checked.
GAP_LEVELS = ("record", "load", "positive")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Every record of a dataset, indexed by calendar day.

    ``index`` maps each day that has a record to its row; rows follow the
    days in calendar order.  Row r of the read-only (D + 1) x 24 ``loads``
    and ``temps`` holds that day's hours, NaN where absent; a record's
    temperature is finite, so only an hour without a record has a NaN one.
    The last row is absent throughout and stands in for days without
    records.  ``slots`` holds each record's flat position in those arrays,
    in record order, so ``len()`` is the number of records.
    """

    index: dict
    loads: np.ndarray
    temps: np.ndarray
    slots: np.ndarray

    def __len__(self) -> int:
        return len(self.slots)

    def __add__(self, other: Dataset) -> Dataset:
        """The records of both datasets, these first, indexed as one
        dataset; a (date, hour) present in both is a duplicate key."""
        if not isinstance(other, Dataset):
            return NotImplemented
        columns = zip(self._columns(), other._columns())
        return _index(*map(np.concatenate, columns), lineno=None)

    def _columns(self) -> tuple:
        """Each record's day ordinal, hour, load and temperature, in
        record order."""
        days = np.fromiter(map(dt.date.toordinal, self.index), np.int64, len(self.index))
        row, hour = np.divmod(self.slots, 24)
        return days[row], hour + 1, self.loads.flat[self.slots], self.temps.flat[self.slots]

    def check_gaps(self, first: dt.date, days: int, messages: dict) -> None:
        """Raise the first (day, hour), in (day, hour) order over ``days``
        days from ``first``, that lacks one of the levels of ``GAP_LEVELS``
        that ``messages`` names, as ``"{messages[lack]} (day, hour h)"``."""
        rows = []
        for k in range(days):
            rows.append(self.index.get(first + dt.timedelta(days=k), -1))
            if rows[-1] < 0:  # a day without records: its hour 1 is a gap
                break
        loads = self.loads[rows]
        has = dict(zip(GAP_LEVELS, (~np.isnan(self.temps[rows]), ~np.isnan(loads), loads > 0.0)))
        checked = [level for level in GAP_LEVELS if level in messages]
        ok = np.logical_and.reduce([has[level] for level in checked])
        if not ok.all():
            d, h = divmod(int(ok.argmin()), 24)
            lack = next(level for level in checked if not has[level][d, h])
            raise ValidationError(f"{messages[lack]} ({first + dt.timedelta(days=d)}, hour {h + 1})")

    def window(self, target_date: dt.date, days: int = 1) -> SeriesWindow:
        """The window of ``days`` target days from ``target_date``, as
        read-only views of the dataset's rows; the rows from nine days
        before ``target_date`` must be consecutive days."""
        i = self.index[target_date - dt.timedelta(days=HISTORY_DAYS)]
        return SeriesWindow(
            target_date,
            self.loads[i : i + HISTORY_DAYS - 1 + days],
            self.temps[i : i + HISTORY_DAYS + days],
        )


def _index(ordinal, hour, load, temp, lineno) -> Dataset:
    """Index records given as columns in record order: day ordinals, hours
    in 1..24, loads (NaN where absent) and finite temperatures.

    This is the one duplicate-key check: it rejects the first record whose
    (date, hour) an earlier record holds, its message prefixed by
    ``line N: `` when ``lineno`` gives each record's line number (None
    when the records have none).
    """
    ordinals, day_row = np.unique(ordinal, return_inverse=True)
    slots = 24 * day_row + hour - 1
    shape = (len(ordinals) + 1, 24)
    taken = np.zeros(shape, dtype=bool)
    taken.flat[slots] = True
    if np.count_nonzero(taken) < len(slots):
        repeat = np.ones(len(slots), dtype=bool)
        repeat[np.unique(slots, return_index=True)[1]] = False
        i = int(repeat.argmax())
        day = dt.date.fromordinal(int(ordinal[i]))
        line = "" if lineno is None else f"line {lineno[i]}: "
        raise ValidationError(f"{line}duplicate key ({day}, hour {hour[i]})")

    load_arr, temp_arr = np.full(shape, np.nan), np.full(shape, np.nan)
    load_arr.flat[slots] = load
    temp_arr.flat[slots] = temp
    arrays = (load_arr, temp_arr, slots)
    for arr in arrays:
        arr.flags.writeable = False
    index = {dt.date.fromordinal(o): row for row, o in enumerate(ordinals.tolist())}
    return Dataset(index, *arrays)


# Characters read per step, so that a file's field strings do not all exist
# at once.
_CHUNK_CHARS = 1 << 15


def _ordinal(field: str) -> int:
    """The day ordinal of an ISO date field; 0 (no day's) when it is bad."""
    try:
        return dt.date.fromisoformat(field.strip()).toordinal()
    except ValueError:
        return 0


def _hour(field: str) -> int:
    """An hour field's value; 0 when it is bad or outside 1..24."""
    try:
        hour = int(field.strip())
    except ValueError:
        return 0
    return hour if 1 <= hour <= 24 else 0


def _by_distinct(convert, fields: list) -> np.ndarray:
    """``convert`` of every field, called once per distinct string."""
    table = {field: convert(field) for field in set(fields)}
    return np.fromiter(map(table.__getitem__, fields), np.int64, len(fields))


def _float(field: str) -> float:
    field = field.strip()
    if not field:
        return math.nan
    try:
        value = float(field)
    except ValueError:
        return math.inf
    return value if math.isfinite(value) else math.inf


def _floats(fields: list) -> np.ndarray:
    """The fields as floats: NaN for a blank field, inf for one that is not
    a finite number."""
    try:
        values = np.fromiter(map(float, fields), float, len(fields))
    except ValueError:
        return np.fromiter(map(_float, fields), float, len(fields))
    values[~np.isfinite(values)] = math.inf
    return values


def _field_problem(fields: list) -> str:
    """What is wrong with a line's four fields, named by the first check
    that fails: date, hour, load, temperature."""
    raw_date, raw_hour, raw_load, raw_temp = map(str.strip, fields)
    if not _ordinal(raw_date):
        return f"bad date {raw_date!r}"
    try:
        hour = int(raw_hour)
    except ValueError:
        return f"bad hour {raw_hour!r}"
    if not 1 <= hour <= 24:
        return f"hour {hour} out of range 1..24"
    numbers = [("load_mw", raw_load)] if raw_load else []  # a blank load is absent
    for name, raw in numbers + [("temp_c", raw_temp)]:
        try:
            value = float(raw)
        except ValueError:
            return f"bad {name} {raw!r}"
        if not math.isfinite(value):
            return f"non-finite {name}"
    raise AssertionError(f"no problem with the fields {fields!r}")


def _read_chunk(piece: str, first: int) -> tuple[tuple, Optional[str]]:
    """The columns of the lines in ``piece``, numbered from ``first``, up to
    its first bad line, and what is wrong with that line (None if none)."""
    # Commas per line, counted on the encoded text: ',' and '\n' are single
    # bytes in UTF-8 and occur in no other character's bytes.
    buf = np.frombuffer(piece.encode("utf-8", "surrogatepass"), np.uint8)
    at = np.flatnonzero(buf == ord(","))
    commas = np.diff(np.searchsorted(at, np.flatnonzero(buf == ord("\n"))),
                     prepend=0, append=len(at))
    # Blank lines are skipped; any other line without four fields is bad.
    lines = piece.split("\n")
    stop = next((i for i in np.flatnonzero(commas != 3).tolist() if lines[i].strip()),
                len(lines))
    problem = None
    if stop < len(lines):
        problem = f"line {first + stop}: expected 4 fields, got {commas[stop] + 1}"
    rows = np.flatnonzero(commas[:stop] == 3)
    fields = ",".join([lines[i] for i in rows.tolist()]).split(",") if len(rows) else []
    columns = (
        _by_distinct(_ordinal, fields[0::4]),
        _by_distinct(_hour, fields[1::4]),
        _floats(fields[2::4]),
        _floats(fields[3::4]),
        first + rows,
    )
    ordinal, hour, load, temp, lineno = columns
    bad = (ordinal == 0) | (hour == 0) | np.isinf(load) | ~np.isfinite(temp)
    if bad.any():
        i = int(bad.argmax())
        problem = f"line {lineno[i]}: {_field_problem(fields[4 * i : 4 * i + 4])}"
        columns = tuple(column[:i] for column in columns)
    return columns, problem


def parse_csv(text: str) -> Dataset:
    """Parse CSV text into a :class:`Dataset`.

    Raises :class:`ValidationError` for a malformed row, an hour outside
    1..24, a non-finite value or a duplicate (date, hour) key, naming the
    first bad line in file order by its number.  The text is read a chunk of
    lines at a time and column by column, with no object per row: each
    distinct date or hour string is parsed once, and loads and temperatures
    go straight into arrays.
    """
    newline = text.find("\n")
    header = text if newline < 0 else text[:newline]
    if header.strip() != CSV_HEADER:
        raise ValidationError(f"expected header {CSV_HEADER!r}")
    end = len(text) - text.endswith("\n")  # the empty line after a final newline
    columns = []
    pos, lineno = len(header) + 1, 2
    while pos < end:
        stop = text.find("\n", pos + _CHUNK_CHARS, end)
        stop = end if stop < 0 else stop
        piece = text[pos:stop]
        chunk, problem = _read_chunk(piece, lineno)
        columns.append(chunk)
        if problem is not None:
            _index_lines(columns)  # a duplicate key on an earlier line comes first
            raise ValidationError(problem)
        lineno += piece.count("\n") + 1
        pos = stop + 1
    return _index_lines(columns)


def _index_lines(columns: list) -> Dataset:
    """Index the columns read from every chunk; errors name the line."""
    if not columns:
        columns = [(np.zeros(0, np.int64),) * 5]
    return _index(*map(np.concatenate, zip(*columns)))


def serialize_csv(records: Iterable[Record]) -> str:
    """Render records back to CSV text, which ``parse_csv`` reads back to
    the same dataset."""
    out = [CSV_HEADER]
    for rec in records:
        load = "" if rec.load_mw is None else repr(float(rec.load_mw))
        out.append(f"{rec.date.isoformat()},{rec.hour},{load},{repr(float(rec.temp_c))}")
    return "\n".join(out) + "\n"


def history_start(target_date: dt.date) -> dt.date:
    """The first of the nine history days before ``target_date``."""
    if target_date.toordinal() <= HISTORY_DAYS:
        raise ValidationError(
            f"missing history: the calendar has fewer than {HISTORY_DAYS} days "
            f"before {target_date}"
        )
    return target_date - dt.timedelta(days=HISTORY_DAYS)


_WINDOW_GAPS = {"record": "missing data for", "load": "missing load_mw for",
                "positive": "non-positive load at"}


def assemble_window(data: Dataset, target_date: dt.date) -> SeriesWindow:
    """Build a validated window ending the day before ``target_date``.

    Requires full 24-hour load and temperature coverage for each of the nine
    preceding days plus 24 forecast-temperature hours for the target day.
    The first gap found in (day, hour) order is reported; the outcome does
    not depend on record order.  Rows for the target day may carry a load
    value (e.g. in a backtest dataset); it is ignored here.  Returns
    ``data.window(target_date)``.
    """
    data.check_gaps(history_start(target_date), HISTORY_DAYS, _WINDOW_GAPS)
    data.check_gaps(target_date, 1, {"record": "missing forecast temperature for"})
    return data.window(target_date)


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
        if self.days - 1 > dt.date.max.toordinal() - self.start_date.toordinal():
            raise ValidationError(f"days run past {dt.date.max} from start_date {self.start_date}")
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")
        for name in ("base_mw", "peak_amp_mw", "temp_sensitivity_pct_per_2c", "ar_rho",
                     "noise_sd_mw", "temp_base_c", "temp_amp_c", "temp_offset_c"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
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


def synth_dataset(params: SynthParams) -> list[Record]:
    """Generate ``params.days`` days of hourly load and temperature records.

    load(d, h) = base + peak_amp * bumps(h)
               + slope * (temp(d, h) - temp_base_c) + AR(1) noise

    where slope = (temp_sensitivity_pct_per_2c / 100) * base_mw / 2 per degC,
    so a uniform +2 degC offset shifts every load value by exactly
    temp_sensitivity_pct_per_2c percent of base_mw.  The AR(1) noise chain is
    stationary with marginal standard deviation ``noise_sd_mw`` and runs
    hour by hour across day boundaries.
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
            if not (math.isfinite(load) and math.isfinite(temp)):
                raise ValidationError(
                    f"generator produced a non-finite value at ({day}, hour {hour}); "
                    "adjust parameters"
                )
            if load <= 0.0:
                raise ValidationError(
                    f"generator produced non-positive load at ({day}, hour {hour}); "
                    "adjust parameters"
                )
            records.append(Record(day, hour, float(load), float(temp)))
            if params.noise_sd_mw > 0:
                noise = params.ar_rho * noise + rng.normal(0.0, innov_sd)

    return records
