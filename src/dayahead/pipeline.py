"""End-to-end orchestration for a single target day.

Window -> three model fits -> target-day forecasts -> verification layer ->
time and energy tests -> assembled report.  Numerical degeneracies raised
anywhere in the chain propagate as :class:`DegeneracyError` with the
failing formula named.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from . import regress, report, thermo, verdict
from .features import LAMBDA_GRID, MODEL_IDS
from .ingest import SeriesWindow
from .verdict import CriticalValues


@dataclass(frozen=True)
class EngineSettings:
    """How every model is fitted: the estimation method, the Koyck decays
    each model chooses its lag from by smallest SSR (one decay fixes it), and
    the temperature-lag mode."""
    method: str = "exact_ml_ar1"
    decays: tuple = LAMBDA_GRID
    temp_mode: str = "hour"


def fit_windows(window: SeriesWindow, settings: EngineSettings) -> list[dict]:
    """The three model fits of each target day of a window, at the
    settings' decays and method; each equals the fit of that day's one-day
    window alone."""
    # EngineSettings' fields are the estimation keywords of regress.fit_model(s).
    per_model = [regress.fit_models(window, m, **asdict(settings)) for m in MODEL_IDS]
    return [dict(zip(MODEL_IDS, fits)) for fits in zip(*per_model)]


def run_day(
    window: SeriesWindow,
    critical_values: CriticalValues,
    settings: EngineSettings = EngineSettings(),
    config: Optional[dict] = None,
    fits: Optional[dict] = None,
) -> report.DispatchReport:
    """Run the full chain for one window and return its report.

    ``fits`` are the window's three fits when they were already computed
    (see :func:`fit_windows`); without them each model is fitted here.
    """
    if fits is None:
        fits = {m: regress.fit_model(window, m, **asdict(settings)) for m in MODEL_IDS}
    forecasts = regress.forecast_day(window, fits)
    # An ensemble mean that overflows needs a forecast above 0.89e308, whose
    # profile's sum or second moment overflows: the state aborts at Eq. (4).
    state = thermo.compute_state(forecasts["a"], forecasts["b"], forecasts["c"])
    ensemble = regress.ensemble_mean(forecasts)
    time_test = verdict.time_tests(
        state.theta1, state.theta2, state.w1, state.w2, critical_values
    )
    reserve_test = verdict.energy_test(state.w1, state.w2, state.beta)

    return report.build_report(
        target_date=window.target_date,
        forecasts=forecasts,
        thermo=state,
        time_test=time_test,
        reserve_test=reserve_test,
        ensemble=ensemble,
        config=config,
    )
