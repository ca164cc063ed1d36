"""Multi-day evaluation harness.

The harness checks the requested range and its nine history days once, then
forecasts each day from the dataset rows before it and scores each model and
the ensemble against the actual load.  Consecutive days are fitted in runs:
a run is one row slice of the dataset, its days go through one stacked solve
per model, and each day's chain then runs with its own fits.  Days on which
the computation chain degenerates are flagged as aborted, carry no numeric
results, and are excluded from the monthly summary (their count is reported
instead of being imputed).
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegeneracyError, ValidationError
from .ingest import Dataset, DayProfile, history_start
from .ingest import assemble_window  # noqa: F401  the benchmark tracer looks it up here
from .pipeline import EngineSettings, fit_windows, run_day
from .report import daily_relative_error
from .verdict import CriticalValues


# The most least-squares systems a model's stacked solve takes: a run of days
# fits each of its days at every decay together, and peak RSS grows with the
# stack (see README).  40 is 40 days without the decay grid, 4 with it.
_SYSTEMS_PER_SOLVE = 40


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
    gap = dataset.first_gap(first, span, "load")
    if gap is not None:
        day, hour, lack = gap
        what = "missing" if lack == "record" else "missing load for"
        raise ValidationError(f"insufficient coverage: {what} ({day}, hour {hour})")
    # The days before the first non-positive load are scored, then it is raised.
    gap = dataset.first_gap(first, span, "positive")
    n_days = (to_date - from_date).days + 1 if gap is None else (gap[0] - from_date).days

    days = [from_date + dt.timedelta(days=k) for k in range(n_days)]
    run_length = max(1, _SYSTEMS_PER_SOLVE // max(1, len(settings.decays)))
    rows: list[BacktestRow] = []
    for start in range(0, len(days), run_length):
        run = days[start : start + run_length]
        try:
            fits = fit_windows(dataset.window(run[0], len(run)), settings)
        except (ValidationError, DegeneracyError, np.linalg.LinAlgError):
            # Each day fits alone instead, so the error comes from its own day.
            fits = [None] * len(run)
        for day, day_fits in zip(run, fits):
            rows.append(_score_day(dataset, day, critical_values, settings, day_fits))
    if gap is not None:
        raise ValidationError(f"non-positive load at ({gap[0]}, hour {gap[1]})")

    return rows, summarize_monthly(rows)


def _score_day(dataset, day, critical_values, settings, fits) -> BacktestRow:
    actual = DayProfile(day, dataset.loads[dataset.index[day]])
    try:
        dispatch = run_day(dataset.window(day), critical_values, settings, fits=fits)
    except DegeneracyError as exc:
        eq = exc.equation.strip("()")
        return BacktestRow(day, None, None, None, None, None, f"aborted:eq{eq}")
    return BacktestRow(
        date=day,
        mmre_a=daily_relative_error(actual, dispatch.forecasts["a"]),
        mmre_b=daily_relative_error(actual, dispatch.forecasts["b"]),
        mmre_c=daily_relative_error(actual, dispatch.forecasts["c"]),
        mmre_ensemble=daily_relative_error(actual, dispatch.ensemble),
        delta_pct=dispatch.delta_pct,
        status="ok",
    )


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


def _cell(value: Optional[float]) -> str:
    if value is not None and not np.isfinite(value):
        raise ValidationError("refusing to serialize a non-finite number")
    return "" if value is None else repr(float(value))


def render_backtest_csv(
    rows: list[BacktestRow], monthly: list[MonthlySummary]
) -> str:
    """Backtest output CSV with a `# monthly` trailer section."""
    lines = ["date,mmre_a,mmre_b,mmre_c,mmre_ensemble,delta_pct,status"]
    for r in rows:
        lines.append(
            f"{r.date.isoformat()},{_cell(r.mmre_a)},{_cell(r.mmre_b)},"
            f"{_cell(r.mmre_c)},{_cell(r.mmre_ensemble)},{_cell(r.delta_pct)},"
            f"{r.status}"
        )
    lines.append("# monthly")
    lines.append("year_month,mmre_ensemble,excluded_days")
    for m in monthly:
        lines.append(f"{m.year:04d}-{m.month:02d},{_cell(m.mmre_ensemble)},{m.excluded_days}")
    return "\n".join(lines) + "\n"
