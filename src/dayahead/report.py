"""Daily outputs: expected price, error reduction, MMRE and the report.

The expected day-ahead electricity price index is c = 10 beta sigma_1
(Eq. 14), where sigma_1 reflects sigma around 1 from below.  The engine
reports it as a dimensionless index; no currency is attached.  The error
reduction delta = 10 (W1 mu / 1.78617 - delta_S) (Eq. 15) is reported in
percent alongside the ensemble forecast, together with its equivalent in
degrees Celsius of average daily temperature (2 degC corresponds to a 4.6%
load change).
"""

from __future__ import annotations

import datetime as dt
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .errors import ValidationError
from .ingest import DayProfile
from .thermo import ThermoState
from .verdict import ReserveTestResult, TimeTestResult

# Normalization constant of the error-reduction formula (Eq. 15).
MU_NORMALIZATION = 1.78617

# Consumer-belief reliability constants carried verbatim in report metadata.
P_V = 0.8803
P_R = 0.96806

# Temperature equivalence: a 2 degC average-temperature change corresponds
# to a 4.6% load change.
TEMP_EQUIV_DEGC = 2.0
TEMP_EQUIV_PCT = 4.6


@dataclass(frozen=True)
class DayScore:
    """A day's results besides its profiles."""

    thermo: ThermoState
    time_test: TimeTestResult
    reserve_test: ReserveTestResult
    price_c: float
    delta_pct: float
    temp_equiv_c: float


@dataclass(frozen=True)
class DispatchReport(DayScore):
    """Everything the engine reports for one target day.

    ``forecasts`` maps model ids "a"/"b"/"c" to their 24-hour profiles;
    the fit diagnostics are not part of the report schema.
    """

    target_date: dt.date
    forecasts: dict
    ensemble: DayProfile
    meta: dict


def price(beta: float, sigma: float) -> float:
    """Expected day-ahead price index c = 10 beta sigma_1 (Eq. 14).

    sigma_1 = sigma for sigma >= 1 and 2 - sigma for sigma < 1; the two
    branches agree at sigma = 1, so the price is continuous there.
    """
    sigma1 = sigma if sigma >= 1.0 else 2.0 - sigma
    return 10.0 * beta * sigma1


def error_reduction(w1: float, mu: float, delta_s: float) -> float:
    """Forecast-error reduction in percent (Eq. 15)."""
    return 10.0 * (w1 * mu / MU_NORMALIZATION - delta_s)


def temp_equivalence(delta_pct: float) -> float:
    """Average-temperature change equivalent to an error reduction."""
    return delta_pct * TEMP_EQUIV_DEGC / TEMP_EQUIV_PCT


def daily_relative_error(actual: np.ndarray, forecast: np.ndarray) -> np.ndarray:
    """Mean absolute hourly error relative to each day's actual peak, in %,
    for actual loads (days, 24) and forecasts (..., days, 24): an array
    (..., days).  Each day's hourly errors are added in hour order, the
    order of a Python ``sum`` over its 24 floats, as 23 vector additions."""
    with np.errstate(over="ignore", invalid="ignore"):  # the backtest CSV refuses inf
        gaps = np.abs(forecast - actual)
        err = gaps[..., 0]
        for h in range(1, 24):
            err = err + gaps[..., h]
        return err / 24.0 / actual.max(axis=-1) * 100.0


def score(thermo: ThermoState, time_test: TimeTestResult,
          reserve_test: ReserveTestResult) -> DayScore:
    """A day's price, error reduction and its temperature equivalent.  The
    time tests (Eq. 11) have kept W1 and W2 finite, and Eq. (13) has kept
    them, and theta2, positive: mu and sigma are finite, and sigma > 0."""
    delta_pct = error_reduction(thermo.w1, thermo.mu, thermo.delta_s)
    return DayScore(thermo, time_test, reserve_test, price(thermo.beta, thermo.sigma),
                    delta_pct, temp_equivalence(delta_pct))


def build_report(target_date: dt.date, forecasts: np.ndarray, ensemble: np.ndarray,
                 day: DayScore, config: Optional[dict] = None) -> DispatchReport:
    """Assemble a day's report from its forecasts (3 x 24, models a, b, c),
    ensemble mean and scores."""
    meta = {"p_v": P_V, "p_r": P_R, "engine_version": __version__}
    if config is not None:
        meta["config"] = dict(config)
    profiles = {m: DayProfile(target_date, f) for m, f in zip("abc", forecasts)}
    return DispatchReport(**vars(day), target_date=target_date, forecasts=profiles,
                          ensemble=DayProfile(target_date, ensemble), meta=meta)


def _num(x: float) -> str:
    """Render a float with 17 significant digits (lossless round-trip)."""
    if not math.isfinite(x):
        raise ValidationError("refusing to serialize a non-finite number")
    return format(float(x), ".17g")


def _json_value(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _num(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dt.date):
        return json.dumps(obj.isoformat())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = (f"{json.dumps(str(k))}: {_json_value(v)}" for k, v in obj.items())
        return "{" + ", ".join(parts) + "}"
    raise ValidationError(f"cannot serialize {type(obj).__name__}")


def serialize_report(report: DispatchReport) -> str:
    """Deterministic JSON rendering of the report schema."""
    t = report.time_test
    payload = {
        "target_date": report.target_date,
        "forecasts": {m: report.forecasts[m].values.tolist() for m in ("a", "b", "c")},
        "ensemble": report.ensemble.values.tolist(),
        "thermo": {name: getattr(report.thermo, name) for name in (
            "theta1", "theta2", "beta", "w1", "w2", "mu", "sigma", "delta_s", "delta_sp")},
        "time_test": {
            "t6_1": t.t6_1,
            "t6_2": t.t6_2,
            "t16": t.t16,
            "t24": t.t24,
            "exponents": {"i": t.i, "k": t.k, "m": t.m, "n": t.n},
            "verdicts": {
                "t6": t.pass_t6,
                "t16": t.pass_t16,
                "t24": t.pass_t24,
                "t16_branch": t.branch_t16,
                "t24_branch": t.branch_t24,
            },
        },
        "reserve_test": {
            "r1": report.reserve_test.r1,
            "r2": report.reserve_test.r2,
            "pass": report.reserve_test.passed,
        },
        "price_c": report.price_c,
        "delta_pct": report.delta_pct,
        "temp_equiv_c": report.temp_equiv_c,
        "meta": report.meta,
    }
    return _json_value(payload) + "\n"

