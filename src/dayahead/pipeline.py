"""End-to-end orchestration for the target days of a window.

Window -> three model fits -> target-day forecasts -> verification layer ->
time and energy tests -> each day's scores.  A day whose chain degenerates
gets the :class:`DegeneracyError` naming the failing formula.
"""

from __future__ import annotations

from typing import Optional

from . import regress, report, thermo, verdict
from .errors import DegeneracyError
from .features import MODEL_IDS
from .ingest import SeriesWindow
from .verdict import CriticalValues


def fit_windows(window: SeriesWindow, settings: regress.EngineSettings) -> dict:
    """Each model's fits of the target days of a window, ``{model_id:
    RunFit}``, at the settings' decays and method; day i of each equals the
    fit of that day's one-day window alone."""
    return {m: regress.fit_models(window, m, settings) for m in MODEL_IDS}


def run_day(window: SeriesWindow, critical_values: CriticalValues,
            settings: regress.EngineSettings = regress.EngineSettings(),
            fits: Optional[dict] = None) -> tuple:
    """Score every target day of a window: ``(forecasts, ensemble, scores)``.

    One array stage computes the window's forecasts (3 x days x 24), their
    finiteness, ensemble means (days x 24), second moments and peaks.  Each
    day's scalar chain then runs on its floats in formula order (Eq. 1-3,
    4-10 and 13, 11-12, 14-15): ``scores`` holds per day its
    :class:`report.DayScore` or the :class:`DegeneracyError` it aborted
    with, and scoring raises nothing.  An ensemble mean can pass the double
    range only where some profile holds a value above DBL_MAX / 2, whose
    centered second moment overflows, so that day has aborted at Eq. (4).  ``fits``
    hold each model's fits of the days (:func:`fit_windows`); without them
    ``regress.fit_model`` fits the window's one day, raising if a fit fails.
    """
    if fits is None:
        fits = {m: regress.fit_model(window, m, settings) for m in MODEL_IDS}
    forecasts, finite = regress.forecast_day(fits)
    ensemble = regress.ensemble_mean(forecasts)
    scores = []
    for day_finite, state in zip(finite.T.tolist(), thermo.compute_state(forecasts)):
        try:
            for model_id, ok in zip(MODEL_IDS, day_finite):
                if not ok:
                    raise DegeneracyError(f"model {model_id}: forecast is not finite",
                                          regress.EQUATIONS[model_id])
            if isinstance(state, DegeneracyError):
                raise state
            time_test = verdict.time_tests(state.theta1, state.theta2, state.w1, state.w2,
                                           critical_values)
            reserve_test = verdict.energy_test(state.w1, state.w2, state.beta)
            scores.append(report.score(state, time_test, reserve_test))
        except DegeneracyError as exc:
            scores.append(exc)
    return forecasts, ensemble, scores
