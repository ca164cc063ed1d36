"""Multi-day evaluation harness.

For each day in the requested range the harness assembles the window ending
the day before, forecasts the day, and scores each model and the ensemble
against the actual load.  Days on which the computation chain degenerates
are flagged as aborted, carry no numeric results, and are excluded from the
monthly summary (their count is reported instead of being imputed).
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Optional

from .errors import DegeneracyError, ValidationError
from .ingest import HISTORY_DAYS, LOAD_KIND, Dataset, DayProfile, Record, assemble_window
from .pipeline import EngineSettings, run_day
from .report import daily_relative_error
from .verdict import CriticalValues


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
    mmre_a: Optional[float]
    mmre_b: Optional[float]
    mmre_c: Optional[float]
    mmre_ensemble: Optional[float]
    scored_days: int
    excluded_days: int


def run_backtest(
    records: list[Record],
    from_date: dt.date,
    to_date: dt.date,
    critical_values: CriticalValues,
    settings: EngineSettings = EngineSettings(),
) -> tuple[list[BacktestRow], list[MonthlySummary]]:
    """Score every day in [from_date, to_date]; returns rows plus the
    calendar-month summary.  The dataset must fully cover
    [from_date - 9 days, to_date]; records are indexed once and every
    window is a row slice of that index."""
    if from_date > to_date:
        raise ValidationError("from_date must not exceed to_date")
    dataset = Dataset.from_records(records)
    first = from_date - dt.timedelta(days=HISTORY_DAYS)
    gap = dataset.first_gap(first, (to_date - first).days + 1, "load")
    if gap is not None:
        day, hour, lack = gap
        what = "missing" if lack == "record" else "missing load for"
        raise ValidationError(f"insufficient coverage: {what} ({day}, hour {hour})")

    rows: list[BacktestRow] = []
    day = from_date
    while day <= to_date:
        window = assemble_window(dataset, day)
        actual = DayProfile(day, dataset.loads[dataset.index[day]], LOAD_KIND)
        try:
            dispatch, _ = run_day(window, critical_values, settings)
        except DegeneracyError as exc:
            eq = exc.equation.strip("()")
            rows.append(
                BacktestRow(day, None, None, None, None, None, f"aborted:eq{eq}")
            )
        else:
            rows.append(
                BacktestRow(
                    date=day,
                    mmre_a=daily_relative_error(actual, dispatch.forecasts["a"]),
                    mmre_b=daily_relative_error(actual, dispatch.forecasts["b"]),
                    mmre_c=daily_relative_error(actual, dispatch.forecasts["c"]),
                    mmre_ensemble=daily_relative_error(actual, dispatch.ensemble),
                    delta_pct=dispatch.delta_pct,
                    status="ok",
                )
            )
        day += dt.timedelta(days=1)

    return rows, summarize_monthly(rows)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def summarize_monthly(rows: list[BacktestRow]) -> list[MonthlySummary]:
    groups: dict[tuple[int, int], list[BacktestRow]] = {}
    for row in rows:
        groups.setdefault((row.date.year, row.date.month), []).append(row)
    out = []
    for (year, month), members in sorted(groups.items()):
        scored = [r for r in members if not r.aborted]
        excluded = len(members) - len(scored)
        if scored:
            out.append(
                MonthlySummary(
                    year=year,
                    month=month,
                    mmre_a=_mean([r.mmre_a for r in scored]),
                    mmre_b=_mean([r.mmre_b for r in scored]),
                    mmre_c=_mean([r.mmre_c for r in scored]),
                    mmre_ensemble=_mean([r.mmre_ensemble for r in scored]),
                    scored_days=len(scored),
                    excluded_days=excluded,
                )
            )
        else:
            out.append(MonthlySummary(year, month, None, None, None, None, 0, excluded))
    return out


def _cell(value: Optional[float]) -> str:
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
