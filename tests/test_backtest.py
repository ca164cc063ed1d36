import datetime as dt
import tracemalloc

import pytest

from dayahead import backtest, cli
from dayahead.backtest import render_backtest_csv, run_backtest
from dayahead.errors import DegeneracyError, ValidationError
from dayahead.ingest import Dataset, SeriesWindow, SynthParams, synth_dataset
from dayahead.pipeline import fit_windows, run_day
from dayahead.regress import EngineSettings

from conftest import dataset_of
from fixtures import recoherence_backtest_records
from oracles import model_a_records

OLS_OFF = EngineSettings(method="ols", decays=(0.0,))


def test_single_day_range_gives_one_row(permissive_criticals):
    records = synth_dataset(SynthParams(days=12, seed=6))
    target = records[-1].date
    rows, monthly = run_backtest(
        dataset_of(records), target, target, permissive_criticals
    )
    assert len(rows) == 1
    assert rows[0].date == target
    assert rows[0].status == "ok"
    # The month's mean over its one scored day is that day's error.
    assert monthly == [backtest.MonthlySummary(2004, 1, rows[0].mmre_ensemble, 0)]


def test_model_a_generator_recovered(permissive_criticals):
    # Generator-as-oracle: data produced exactly by the descriptive model's
    # functional form must be forecast by model a almost perfectly.
    records = model_a_records(16)
    start = records[0].date + dt.timedelta(days=10)
    end = records[-1].date
    rows, _ = run_backtest(dataset_of(records), start, end, permissive_criticals, OLS_OFF)
    assert all(r.status == "ok" for r in rows)
    assert all(r.mmre_a < 0.1 for r in rows)


def test_coverage_validation(permissive_criticals):
    records = synth_dataset(SynthParams(days=12, seed=6))
    target = records[-1].date
    with pytest.raises(ValidationError, match="insufficient coverage"):
        run_backtest(dataset_of(records[:-24]), target, target, permissive_criticals)
    with pytest.raises(ValidationError, match="from_date"):
        run_backtest(dataset_of(records), target, target - dt.timedelta(days=1),
                     permissive_criticals)


def test_coverage_check_stops_at_the_first_missing_day(permissive_criticals):
    # A range running centuries past the data: the check looks no further
    # than the first day without records, whose hour 1 is the first gap.
    data = dataset_of(synth_dataset(SynthParams(days=12, seed=6)))
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r"^insufficient coverage: "
                                                  r"missing \(2004-01-13, hour 1\)$"):
            run_backtest(data, dt.date(2004, 1, 10), dt.date(2300, 1, 1),
                         permissive_criticals, OLS_OFF)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_aborted_day_bookkeeping(permissive_criticals):
    degenerate = dt.date(2004, 5, 10)
    records = recoherence_backtest_records(degenerate, tail_days=1)
    rows, monthly = run_backtest(
        dataset_of(records),
        degenerate,
        degenerate + dt.timedelta(days=1),
        permissive_criticals,
    )
    assert [r.status for r in rows] == ["aborted:eq8", "ok"]
    aborted = rows[0]
    assert aborted.mmre_a is None and aborted.mmre_ensemble is None
    assert aborted.delta_pct is None
    (summary,) = monthly
    assert summary.excluded_days == 1
    # The one scored day's error is the month's mean.
    assert summary.mmre_ensemble == rows[1].mmre_ensemble


def test_summary_means_daily_errors(permissive_criticals):
    records = synth_dataset(SynthParams(days=14, seed=9))
    start = records[0].date + dt.timedelta(days=10)
    end = records[-1].date
    rows, monthly = run_backtest(dataset_of(records), start, end, permissive_criticals)
    scored = [r for r in rows if r.status == "ok"]
    assert len(scored) == len(rows)
    by_month = {}
    for r in scored:
        by_month.setdefault((r.date.year, r.date.month), []).append(r.mmre_ensemble)
    for m in monthly:
        expected = sum(by_month[(m.year, m.month)]) / len(by_month[(m.year, m.month)])
        assert abs(m.mmre_ensemble - expected) <= 1e-12


def test_backtest_deterministic(permissive_criticals):
    records = synth_dataset(SynthParams(days=13, seed=2))
    start = records[0].date + dt.timedelta(days=10)
    end = records[-1].date
    first = run_backtest(dataset_of(records), start, end, permissive_criticals)
    second = run_backtest(dataset_of(records), start, end, permissive_criticals)
    assert render_backtest_csv(*first) == render_backtest_csv(*second)


def test_render_backtest_csv_shape(permissive_criticals):
    degenerate = dt.date(2004, 5, 10)
    records = recoherence_backtest_records(degenerate, tail_days=1)
    rows, monthly = run_backtest(
        dataset_of(records), degenerate, degenerate + dt.timedelta(days=1),
        permissive_criticals,
    )
    text = render_backtest_csv(rows, monthly)
    lines = text.strip().split("\n")
    assert lines[0] == "date,mmre_a,mmre_b,mmre_c,mmre_ensemble,delta_pct,status"
    assert lines[1].startswith("2004-05-10,,,,,,aborted:eq8")
    assert "# monthly" in lines
    trailer = lines[lines.index("# monthly") + 1:]
    assert trailer[0] == "year_month,mmre_ensemble,excluded_days"
    assert trailer[1].startswith("2004-05,")
    assert trailer[1].endswith(",1")
    assert "nan" not in text.lower()


def _alone(window, settings):
    """The fits of each day of the window, fitted on its own one-day window."""
    return [fit_windows(SeriesWindow(window.target_date + dt.timedelta(days=i),
                                     window.loads[i:i + 9], window.temps[i:i + 10]),
                        settings)[0] for i in range(window.days)]


def _singular(window, settings):
    """A run's stacked fit failing as an SVD that does not converge fails."""
    raise DegeneracyError("model a: SVD did not converge in Linear Least Squares", "(1)")


def test_grid_runs_are_16_days_and_single_decay_runs_40():
    assert backtest._run_length(cli._parse_koyck("grid")) == 16
    assert backtest._run_length(cli._parse_koyck("off")) == 40
    assert backtest._run_length(cli._parse_koyck("fixed=0.35")) == 40


@pytest.mark.parametrize("replacement", [_alone, _singular])
@pytest.mark.parametrize("settings, span", [
    (OLS_OFF, 45),  # two runs: 40 days, then 5
    (EngineSettings(), 6),  # one run under the decay grid
    (EngineSettings(method="ols", decays=(0.5,), temp_mode="day"), 41),
    (EngineSettings(), 18),  # runs of 16 days under the decay grid, then 2
])
def test_runs_of_days_score_as_days_fitted_alone(
        monkeypatch, stub_criticals, settings, span, replacement):
    # The day at 2004-05-10 aborts inside the first run.
    degenerate = dt.date(2004, 5, 10)
    data = dataset_of(recoherence_backtest_records(degenerate, tail_days=span))
    first, last = degenerate - dt.timedelta(days=1), degenerate + dt.timedelta(days=span - 2)
    rows, monthly = run_backtest(data, first, last, stub_criticals, settings)
    assert rows[1].aborted and len(rows) == span
    # Every day fitted alone: by _alone, or as a run of one when a run's
    # stacked fit fails.
    monkeypatch.setattr(backtest, "fit_windows", replacement)
    assert run_backtest(data, first, last, stub_criticals, settings) == (rows, monthly)


@pytest.mark.parametrize("settings, last, bad, value", [
    # Runs of 40 days: 2004-01-10 .. 2004-02-18, then 2004-02-19 .. 2004-02-23.
    (OLS_OFF, "2004-02-23", "2004-01-05", 0.0),  # a history day
    (OLS_OFF, "2004-02-23", "2004-01-10", -3.5),  # the first target day
    (OLS_OFF, "2004-02-23", "2004-01-30", -0.0),  # mid-run
    (OLS_OFF, "2004-02-23", "2004-02-23", 0.0),  # the last day, in the second run
    # Runs of 16 days under the decay grid: 2004-01-10 .. 2004-01-25, then
    # 2004-01-26 .. 2004-01-28.
    (EngineSettings(), "2004-01-28", "2004-01-03", -0.0),
    (EngineSettings(), "2004-01-28", "2004-01-10", 0.0),
    (EngineSettings(), "2004-01-28", "2004-01-18", -3.5),
    (EngineSettings(), "2004-01-28", "2004-01-28", 0.0),
], ids=["ols-history", "ols-first", "ols-mid-run", "ols-last",
        "grid-history", "grid-first", "grid-mid-run", "grid-last"])
def test_days_before_a_non_positive_load_are_scored_first(
        monkeypatch, permissive_criticals, settings, last, bad, value):
    # Despite the name, kept for its case ids, no day is fitted or scored:
    # every case raises before the first fit.
    first, bad = dt.date(2004, 1, 10), dt.date.fromisoformat(bad)
    records = [r._replace(load_mw=value) if (r.date, r.hour) == (bad, 17) else r
               for r in synth_dataset(SynthParams(days=54, seed=5))]
    monkeypatch.setattr(backtest, "fit_windows", None)  # a call would raise
    monkeypatch.setattr(backtest, "run_day", None)
    with pytest.raises(ValidationError) as exc:
        run_backtest(dataset_of(records), first, dt.date.fromisoformat(last),
                     permissive_criticals, settings)
    assert str(exc.value) == f"non-positive load at ({bad}, hour 17)"


def test_a_backtest_checks_its_range_in_two_scans(monkeypatch, permissive_criticals):
    scans, check_gaps = [], Dataset.check_gaps
    monkeypatch.setattr(Dataset, "check_gaps",
                        lambda self, *args: scans.append(args) or check_gaps(self, *args))
    monkeypatch.setattr(backtest, "assemble_window", None)  # a call would raise
    data = dataset_of(synth_dataset(SynthParams(days=60, seed=6)))
    rows, _ = run_backtest(data, dt.date(2004, 1, 10), dt.date(2004, 2, 29),
                           permissive_criticals, OLS_OFF)
    assert len(rows) == 51
    coverage = {"record": "insufficient coverage: missing",
                "load": "insufficient coverage: missing load for"}
    assert scans == [(dt.date(2004, 1, 1), 60, coverage),
                     (dt.date(2004, 1, 1), 60, {**coverage, "positive": "non-positive load at"})]
