"""Regressor construction for the three ensemble models.

Model "a" is the descriptive regression: three load lags, pulse terms for
the two daily demand peaks, and a distributed lag on the last two pulse
columns.  Models "b" and "c" add load-temperature interaction terms; "c"
additionally carries the raw temperature lags and a combined product term.
A flow-integrator substitution replaces the day-lag-2 and day-lag-3 load
regressors by a single recombined half-day profile, so no design matrix
contains a 2-day or 3-day load lag.
"""

from __future__ import annotations

import datetime as dt
import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .ingest import HISTORY_DAYS, SeriesWindow

MODEL_IDS = ("a", "b", "c")

PULSE_HOURS = (9, 10, 11, 19, 20, 21)

# Truncation order of the distributed (Koyck) lag.
KOYCK_ORDER = 3

LAMBDA_GRID = tuple(i / 10.0 for i in range(10))

COLUMN_ROLES = {
    "a": (
        "const",
        "load_lag_1d",
        "load_halfday",
        "load_lag_7d",
        "pulse_h9",
        "pulse_h10",
        "pulse_h19",
        "pulse_h20",
        "dlag_pulse_h11",
        "dlag_pulse_h21",
    ),
    "b": (
        "const",
        "load_lag_1d",
        "load_halfday",
        "load_lag_7d",
        "dlag_coint_near",
        "dlag_coint_far",
    ),
    "c": (
        "const",
        "load_lag_1d",
        "load_halfday",
        "load_lag_7d",
        "temp_lag_2",
        "temp_lag_8",
        "load_temp_combo",
        "dlag_coint_near",
        "dlag_coint_far",
    ),
}

COLUMN_NAMES = {
    "a": tuple(f"a{i}" for i in range(10)),
    "b": tuple(f"b{i}" for i in range(6)),
    "c": tuple(f"c{i}" for i in range(9)),
}


@dataclass(frozen=True)
class DesignMatrix:
    """Named regressor columns with the aligned response for training rows.

    Rows are ordered day-major, hour-minor; every row's lags resolve inside
    the window (no extrapolated regressors).
    """

    model_id: str
    rows: tuple
    names: tuple
    matrix: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        if self.matrix.shape != (len(self.rows), len(self.names)):
            raise ValidationError("design matrix shape mismatch")
        if self.response.shape != (len(self.rows),):
            raise ValidationError("response length mismatch")
        if len(self.rows) and not np.all(self.matrix[:, 0] == 1.0):
            raise ValidationError("first column must be the intercept")


def halfday_lag_profile(window: SeriesWindow, for_day: dt.date) -> np.ndarray:
    """Load profile built from the two most recent complete half-days.

    Hours 1..12 take the afternoon of two days back; hours 13..24 take the
    morning of the previous day.
    """
    afternoon = window.load_on(for_day - dt.timedelta(days=2))[12:]
    return np.concatenate((afternoon, window.load_on(for_day - dt.timedelta(days=1))[:12]))


def indicator(hour: int) -> np.ndarray:
    """Unit pulse at one of the six peak hours, zero elsewhere."""
    if hour not in PULSE_HOURS:
        raise ValidationError(f"hour {hour} is not one of the pulse hours {PULSE_HOURS}")
    vec = np.zeros(24)
    vec[hour - 1] = 1.0
    return vec


def temp_term(
    window: SeriesWindow, for_day: dt.date, lag: int, mode: str = "hour"
) -> np.ndarray:
    """Lagged temperature vector for a day.

    mode="hour" (default): value(t) is the temperature ``lag`` hours earlier,
    wrapping into hour 24+(t-lag) of the previous day when t-lag < 1.  The
    target day's own temperatures come from the forecast.
    mode="day": value(t) is the temperature of day ``for_day - lag`` at hour t.
    """
    if lag not in (2, 8):
        raise ValidationError(f"temperature lag must be 2 or 8, got {lag}")
    if mode == "day":
        return window.temp_on(for_day - dt.timedelta(days=lag))
    if mode != "hour":
        raise ValidationError(f"unknown temperature lag mode {mode!r}")
    tail = window.temp_on(for_day - dt.timedelta(days=1))[24 - lag :]
    return np.concatenate((tail, window.temp_on(for_day)[: 24 - lag]))


@functools.lru_cache(maxsize=64)
def _koyck_weights(lam: float) -> tuple:
    """For each truncation j_max in 0..KOYCK_ORDER: the read-only weight
    prefix lam^0..lam^j_max and its sum."""
    weights = np.array([lam**j for j in range(KOYCK_ORDER + 1)])
    weights.flags.writeable = False
    return tuple((weights[: j + 1], np.sum(weights[: j + 1])) for j in range(KOYCK_ORDER + 1))


def koyck_transform(series: np.ndarray, lam: float) -> np.ndarray:
    """Truncated, renormalized geometric distributed lag within one day.

    out(t) = sum_{j=0..min(KOYCK_ORDER, t-1)} lam^j * series(t-j), divided
    by the sum of lam^j over the same j-range.  Renormalizing at the day
    start avoids zero-padding; lam=0 is the identity and a constant series
    maps to itself for any lam.
    """
    if not 0.0 <= lam < 1.0:
        raise ValidationError(f"lambda must lie in [0, 1), got {lam}")
    x = np.asarray(series, dtype=float)
    if x.shape != (24,):
        raise ValidationError("koyck_transform expects a 24-vector")
    prefixes = _koyck_weights(lam)
    out = np.empty(24)
    for t in range(1, 25):
        j_max = min(KOYCK_ORDER, t - 1)
        w, total = prefixes[j_max]
        seg = x[t - 1 - j_max : t][::-1]
        out[t - 1] = float(np.dot(w, seg) / total)
    return out


@functools.lru_cache(maxsize=128)
def _koyck_column(series: bytes, lam: float) -> np.ndarray:
    """Read-only ``koyck_transform`` of the 24-vector with these bytes.

    Model a's lagged pulse columns do not depend on the data, models b and c
    lag the same two series of a day, and consecutive target days share a
    training day, so most columns are looked up rather than recomputed.
    """
    col = koyck_transform(np.frombuffer(series), lam)
    col.flags.writeable = False
    return col


def legal_training_days(
    window: SeriesWindow, model_id: str, temp_mode: str = "hour"
) -> list[dt.date]:
    """History days whose every lag resolves inside the window.

    With a 9-day window the 7-day load lag restricts training to the last
    two history days; in day-lag temperature mode the 8-day temperature lag
    further restricts models b and c to the last history day.
    """
    if model_id not in MODEL_IDS:
        raise ValidationError(f"unknown model id {model_id!r}")
    days = []
    for k in (2, 1):
        # Training day target - k lags its temperature to target - (k + 8).
        if model_id in ("b", "c") and temp_mode == "day" and k + 8 > HISTORY_DAYS:
            continue
        days.append(window.target_date - dt.timedelta(days=k))
    return days


# Loads near the double range overflow the interaction terms and their
# distributed lags; the fit rejects a design that is not finite.
@np.errstate(over="ignore", invalid="ignore")
def _day_blocks(
    window: SeriesWindow, day: dt.date, model_id: str, lams, temp_mode: str
) -> np.ndarray:
    """len(lams) x 24 x n_cols regressor blocks for one day (training or
    target), one per decay in ``lams``.  Only the two distributed-lag columns
    depend on the decay; the others are built once."""
    lag1 = window.load_on(day - dt.timedelta(days=1))
    half = halfday_lag_profile(window, day)
    lag7 = window.load_on(day - dt.timedelta(days=7))
    fixed = [np.ones(24), lag1, half, lag7]

    if model_id == "a":
        fixed += [indicator(h) for h in (9, 10, 19, 20)]
        series = [indicator(h) for h in (11, 21)]
    elif model_id in ("b", "c"):
        t2 = temp_term(window, day, 2, temp_mode)
        t8 = temp_term(window, day, 8, temp_mode)
        series = [(lag1 - half) * t2, (half - lag7) * t8]
        if model_id == "c":
            fixed += [t2, t8, lag1 * t2 - lag7 * t8]
    else:
        raise ValidationError(f"unknown model id {model_id!r}")
    blocks = np.empty((len(lams), 24, len(fixed) + 2))
    blocks[:, :, :-2] = np.column_stack(fixed)
    keys = [s.tobytes() for s in series]
    for block, lam in zip(blocks, lams):
        block[:, -2] = _koyck_column(keys[0], lam)
        block[:, -1] = _koyck_column(keys[1], lam)
    return blocks


def _follows(prev: SeriesWindow, window: SeriesWindow) -> bool:
    """``window`` targets the day after ``prev`` and the rows they share hold
    the same bits, as for windows assembled from one dataset."""
    return (
        (window.target_date - prev.target_date).days == 1
        and prev.loads[1:].tobytes() == window.loads[:-1].tobytes()
        and prev.temps[1:].tobytes() == window.temps[:-1].tobytes()
        and prev.forecast.tobytes() == window.temps[-1].tobytes()
    )


def run_designs(windows: list[SeriesWindow], model_id: str, lams, temp_mode: str = "hour"):
    """Training designs of consecutive windows of one dataset, at every decay.

    Returns ``(matrices, responses, blocks)``: ``matrices[i, j]`` and
    ``responses[i]`` are the matrix and response of ``design_matrix`` for
    ``windows[i]`` over its legal training days at decay ``lams[j]``.  A
    day's regressors read the same dataset rows whether the day trains one
    window or is the target of another, so each calendar day's blocks are
    built once; ``blocks`` maps every training day to them.
    """
    for prev, window in zip(windows, windows[1:]):
        if not _follows(prev, window):
            raise ValidationError("windows must be consecutive target days of one dataset")
    blocks: dict[dt.date, np.ndarray] = {}
    matrices, responses = [], []
    for window in windows:
        days = legal_training_days(window, model_id, temp_mode)
        for day in days:
            if day not in blocks:
                blocks[day] = _day_blocks(window, day, model_id, lams, temp_mode)
        matrices.append(np.concatenate([blocks[day] for day in days], axis=1))
        responses.append(np.concatenate([window.load_on(day) for day in days]))
    return np.stack(matrices), np.stack(responses), blocks


# No command calls this; the benchmark tracer (perfbench/tracing.py) looks it up.
def design_matrix(
    window: SeriesWindow,
    model_id: str,
    training_days: list[dt.date],
    lam: float = 0.0,
    temp_mode: str = "hour",
) -> DesignMatrix:
    """Stack per-day regressor blocks and responses over the training days."""
    if not training_days:
        raise ValidationError("no training days supplied")
    blocks = [_day_blocks(window, day, model_id, (lam,), temp_mode)[0] for day in training_days]
    response = np.concatenate([window.load_on(day) for day in training_days])
    response.flags.writeable = False
    return DesignMatrix(
        model_id=model_id,
        rows=tuple((day, h) for day in training_days for h in range(1, 25)),
        names=COLUMN_NAMES[model_id],
        matrix=np.concatenate(blocks),
        response=response,
    )


def target_regressors(
    window: SeriesWindow, model_id: str, lam: float = 0.0, temp_mode: str = "hour"
) -> np.ndarray:
    """24 x n_cols regressor block for the target day; temperature terms are
    drawn from the forecast."""
    return _day_blocks(window, window.target_date, model_id, (lam,), temp_mode)[0]
