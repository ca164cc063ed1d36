"""Multi-day evaluation harness.

The harness checks the requested range and its nine history days before it
fits anything, then forecasts each day from the dataset rows before it and scores each model and
the ensemble against the actual load.  Consecutive days are fitted in runs:
a run is one row slice of the dataset, its days go through one stacked solve
per model and are then scored together, each with its own fits.  A model's
fit of a run holds one ``[design | response]`` system per day and decay, and
an exact-ML fit also holds, per slice it searches, a scaled copy of its
system and its Gram moments (see ``regress``).  Days on which the
computation chain degenerates are flagged as aborted, carry no numeric
results, and are excluded from the monthly summary (their count is reported
instead of being imputed).
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegeneracyError, ValidationError
from .ingest import Dataset, history_start
from .ingest import assemble_window  # noqa: F401  the benchmark tracer looks it up here
from .pipeline import fit_windows, run_day
from .regress import EngineSettings
from .report import daily_relative_error
from .verdict import CriticalValues


# Peak RSS grows with the systems a run stacks per model, and the time per
# day falls with them only up to a point (see README): a run stacks at most
# _SYSTEMS_PER_RUN systems and spans at most _MAX_RUN_DAYS days.
_SYSTEMS_PER_RUN = 160
_MAX_RUN_DAYS = 40


def _run_length(decays) -> int:
    """The days of a backtest run: 16 with the ten decays of the grid, 40
    with one decay (``--koyck off`` or ``fixed=``)."""
    return min(_MAX_RUN_DAYS, _SYSTEMS_PER_RUN // len(decays))


@dataclass(frozen=True)
class BacktestRow:
    date: dt.date
    mmre_a: Optional[float]
    mmre_b: Optional[float]
    mmre_c: Optional[float]
    mmre_ensemble: Optional[float]
    delta_pct: Optional[float]
    status: str

    @property
    def aborted(self) -> bool:
        return self.status != "ok"


@dataclass(frozen=True)
class MonthlySummary:
    year: int
    month: int
    mmre_ensemble: Optional[float]
    excluded_days: int


_COVERAGE_GAPS = {"record": "insufficient coverage: missing",
                  "load": "insufficient coverage: missing load for"}


def run_backtest(
    dataset: Dataset,
    from_date: dt.date,
    to_date: dt.date,
    critical_values: CriticalValues,
    settings: EngineSettings = EngineSettings(),
) -> tuple[list[BacktestRow], list[MonthlySummary]]:
    """Score every day in [from_date, to_date]; returns rows plus the
    calendar-month summary.  The dataset must fully cover
    [from_date - 9 days, to_date]; every window is a row slice of the
    dataset."""
    if from_date > to_date:
        raise ValidationError("from_date must not exceed to_date")
    first = history_start(from_date)
    span = (to_date - first).days + 1
    dataset.check_gaps(first, span, _COVERAGE_GAPS)  # a coverage gap anywhere comes first
    dataset.check_gaps(first, span, {**_COVERAGE_GAPS, "positive": "non-positive load at"})

    days = [from_date + dt.timedelta(days=k) for k in range((to_date - from_date).days + 1)]
    run_length = _run_length(settings.decays)
    rows: list[BacktestRow] = []
    for start in range(0, len(days), run_length):
        run = days[start : start + run_length]
        window = dataset.window(run[0], len(run))
        try:
            windows = [(window, fit_windows(window, settings))]
        except DegeneracyError:
            # Each day is then a run of one, so the error comes from its own day.
            windows = [(dataset.window(day), None) for day in run]
        for window, fits in windows:
            rows += _score_run(dataset, window, critical_values, settings, fits)
    return rows, summarize_monthly(rows)


def _score_run(dataset, window, critical_values, settings, fits) -> list[BacktestRow]:
    """The rows of a window's days: its run through ``run_day``, then the
    MMREs of every model and the ensemble against the actual loads."""
    days = [window.target_date + dt.timedelta(days=i) for i in range(window.days)]
    try:
        forecasts, ensemble, scores = run_day(window, critical_values, settings, fits)
    except DegeneracyError as exc:  # the fit of a day fitted alone
        return [_row(day, exc, None) for day in days]
    first = dataset.index[window.target_date]
    actual = dataset.loads[first : first + len(days)]
    mmres = daily_relative_error(actual, np.concatenate((forecasts, ensemble[None])))
    return [_row(*each) for each in zip(days, scores, mmres.T.tolist())]


def _row(day, score, mmres) -> BacktestRow:
    if isinstance(score, DegeneracyError):
        status = "aborted:eq" + score.equation.strip("()")
        return BacktestRow(day, None, None, None, None, None, status)
    return BacktestRow(day, *mmres, score.delta_pct, "ok")


def summarize_monthly(rows: list[BacktestRow]) -> list[MonthlySummary]:
    groups: dict[tuple[int, int], list[BacktestRow]] = {}
    for row in rows:
        groups.setdefault((row.date.year, row.date.month), []).append(row)
    out = []
    for (year, month), members in sorted(groups.items()):
        scored = [r.mmre_ensemble for r in members if not r.aborted]
        mean = sum(scored) / len(scored) if scored else None
        out.append(MonthlySummary(year, month, mean, len(members) - len(scored)))
    return out


def _cell(value: Optional[float], column: str, where) -> str:
    if value is not None and not math.isfinite(value):
        raise ValidationError(f"refusing to serialize a non-finite number: {column} on {where}")
    return "" if value is None else repr(float(value))


def render_backtest_csv(
    rows: list[BacktestRow], monthly: list[MonthlySummary]
) -> str:
    """Backtest output CSV with a `# monthly` trailer section."""
    columns = ("mmre_a", "mmre_b", "mmre_c", "mmre_ensemble", "delta_pct")
    lines = ["date," + ",".join(columns) + ",status"]
    for r in rows:
        cells = ",".join(_cell(getattr(r, c), c, r.date) for c in columns)
        lines.append(f"{r.date.isoformat()},{cells},{r.status}")
    lines.append("# monthly")
    lines.append("year_month,mmre_ensemble,excluded_days")
    for m in monthly:
        month = f"{m.year:04d}-{m.month:02d}"
        lines.append(f"{month},{_cell(m.mmre_ensemble, 'mmre_ensemble', month)},{m.excluded_days}")
    return "\n".join(lines) + "\n"
