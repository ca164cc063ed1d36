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

import numpy as np

from .ingest import HISTORY_DAYS, SeriesWindow

MODEL_IDS = ("a", "b", "c")

# Truncation order of the distributed (Koyck) lag.
KOYCK_ORDER = 3

LAMBDA_GRID = tuple(i / 10.0 for i in range(10))


def halfday_lag_profile(loads: np.ndarray, rows) -> np.ndarray:
    """Load profile for the day of each window row in ``rows`` (an int or
    an int array), built from the two most recent complete half-days.

    Hours 1..12 take the afternoon of two days back; hours 13..24 take the
    morning of the previous day.
    """
    return np.concatenate((loads[rows - 2, 12:], loads[rows - 1, :12]), -1)


def indicator(hour: int) -> np.ndarray:
    """Unit pulse at one of the six peak hours, zero elsewhere."""
    vec = np.zeros(24)
    vec[hour - 1] = 1.0
    return vec


def temp_term(temps: np.ndarray, rows, lag: int, mode: str) -> np.ndarray:
    """Lagged temperature vector for the day of each window row in ``rows``.

    mode="hour": value(t) is the temperature ``lag`` hours earlier,
    wrapping into hour 24+(t-lag) of the previous day when t-lag < 1.  A
    target day's own temperatures are its forecast row.
    mode="day": value(t) is the temperature of row ``rows - lag`` at hour t.
    """
    if mode == "day":
        return temps[rows - lag]
    return np.concatenate((temps[rows - 1, 24 - lag :], temps[rows, : 24 - lag]), -1)


def koyck_transform(series: np.ndarray, lams) -> np.ndarray:
    """Truncated, renormalized geometric distributed lag within one day, of
    each 24-vector in ``series`` at each decay in ``lams``, as
    ``series.shape[:-1] + (len(lams), 24)``.

    out(t) = sum_{j=0..min(KOYCK_ORDER, t-1)} lam^j * series(t-j), divided
    by the sum of lam^j over the same j-range.  Renormalizing at the day
    start avoids zero-padding; a constant series maps to itself for any lam,
    and lam=0 keeps a finite series but turns -0.0 past hour 1 into +0.0.

    Each sum is a 1 x 1 slice of one matmul over taps newest first, with
    zero taps under zero weights before hour 1.  This relies on numpy
    computing a 1 x 1-output matmul slice with the dot routine of
    ``np.dot``, so every value has the bits of the per-hour ``np.dot`` of
    the stated sum.  Hour 1 is the series itself: a one-term ``np.dot`` is
    a scalar product and keeps -0.0, which a dot through matmul returns as
    +0.0.
    """
    x = np.asarray(series, dtype=float)
    taps = KOYCK_ORDER + 1
    # Row t - 1 of ``window`` is series(t), series(t-1), ..., zeros before hour 1.
    padded = np.concatenate((x[..., ::-1], np.zeros(x.shape[:-1] + (KOYCK_ORDER,))), -1)
    window = np.lib.stride_tricks.sliding_window_view(padded, taps, axis=-1)[..., ::-1, :]
    powers = np.array([[lam**j for j in range(taps)] for lam in lams])
    weights = np.where(np.arange(taps) <= np.arange(24)[:, None], powers[:, None], 0.0)
    out = (window[..., None, :, None, :] @ weights[..., None])[..., 0, 0]
    out /= np.cumsum(weights, axis=-1)[..., -1]
    out[..., 0] = x[..., None, 0]
    return out


def training_rows(model_id: str, temp_mode: str) -> tuple:
    """The window rows that train the first target day (row 9): those whose
    every lag resolves inside the window.  Target day i trains on these
    rows plus i.

    The 7-day load lag restricts training to the last two history rows; in
    day-lag temperature mode the 8-day temperature lag further restricts
    models b and c to the last one.
    """
    rows = (HISTORY_DAYS - 2, HISTORY_DAYS - 1)
    return rows[1:] if model_id in ("b", "c") and temp_mode == "day" else rows


# Loads near the double range overflow the interaction terms and their
# distributed lags; the fit rejects a design that is not finite.
@np.errstate(over="ignore", invalid="ignore")
def _blocks(loads, temps, rows: np.ndarray, model_id: str, lams, temp_mode: str) -> np.ndarray:
    """len(rows) x len(lams) x 24 x n_cols regressor blocks for the days of
    window rows ``rows`` (training or target), one per decay in ``lams``.
    Only the two distributed-lag columns depend on the decay."""
    lag1 = loads[rows - 1]
    half = halfday_lag_profile(loads, rows)
    lag7 = loads[rows - 7]
    fixed = [np.ones(24), lag1, half, lag7]

    if model_id == "a":
        fixed += [indicator(h) for h in (9, 10, 19, 20)]
        series = [indicator(h)[None] for h in (11, 21)]  # the same for every row
    else:  # "b" or "c"
        t2 = temp_term(temps, rows, 2, temp_mode)
        t8 = temp_term(temps, rows, 8, temp_mode)
        series = [(lag1 - half) * t2, (half - lag7) * t8]
        if model_id == "c":
            fixed += [t2, t8, lag1 * t2 - lag7 * t8]
    blocks = np.empty((len(rows), len(lams), 24, len(fixed) + 2))
    for c, col in enumerate(fixed):
        blocks[..., c] = col[..., None, :]
    blocks[..., -2:] = np.moveaxis(koyck_transform(np.array(series), lams), 0, -1)
    return blocks


def run_designs(window: SeriesWindow, model_id: str, lams, temp_mode: str):
    """Training designs and target-day regressors of every target day of a
    window, at every decay.

    Returns ``(systems, targets)``: for target day i, ``systems[i, j]`` is
    ``[design | response]`` over its training rows (``training_rows`` plus
    i) at decay ``lams[j]``, and ``targets[i, j]`` is its own regressor block
    (row 9 + i).  Each row's blocks, whether it trains a day or is one's
    target, are built in one pass.  Both are views of one array, so the
    blocks are not held beside the systems.
    """
    train = training_rows(model_id, temp_mode)
    first, loads, temps, n = train[0], window.loads, window.temps, window.days
    # blocks[row - first] holds the blocks of window row ``row``.
    blocks = _blocks(loads, temps, np.arange(first, len(temps)), model_id, lams, temp_mode)
    k = blocks.shape[-1]
    # Day i's last training row is target day i - 1's row (9 + i - 1), so
    # one day past the window holds the last target's blocks; its response
    # would be a load past the window, and is NaN.
    systems = np.empty((n + 1, len(lams), 24 * len(train), k + 1))
    for j, row in enumerate(train):
        hours = slice(24 * j, 24 * (j + 1))
        systems[:, :, hours, :k] = blocks[row - first : row - first + n + 1]
        systems[:n, :, hours, k] = loads[row : row + n, None]
    systems[n, :, :, k] = np.nan
    return systems[:n], systems[1:, :, -24:, :k]


# No command calls this; the benchmark tracer (perfbench/tracing.py) looks it up.
def target_regressors(window: SeriesWindow, model_id: str, lam: float, temp_mode: str):
    """24 x n_cols regressor block for the first target day (row 9); its
    temperature terms are drawn from the forecast."""
    rows = np.array([HISTORY_DAYS])
    return _blocks(window.loads, window.temps, rows, model_id, (lam,), temp_mode)[0, 0]
