import datetime as dt

import pytest

from dayahead.backtest import render_backtest_csv, run_backtest
from dayahead.errors import ValidationError
from dayahead.ingest import Dataset, SynthParams, synth_dataset
from dayahead.pipeline import EngineSettings

from fixtures import recoherence_backtest_records
from oracles import model_a_records

OLS_OFF = EngineSettings(method="ols", lambda_policy="off")


def test_single_day_range_gives_one_row(permissive_criticals):
    records, _ = synth_dataset(SynthParams(days=12, seed=6))
    target = records[-1].date
    rows, monthly = run_backtest(
        Dataset.from_records(records), target, target, permissive_criticals
    )
    assert len(rows) == 1
    assert rows[0].date == target
    assert rows[0].status == "ok"
    assert len(monthly) == 1
    assert monthly[0].scored_days == 1


def test_model_a_generator_recovered(permissive_criticals):
    # Generator-as-oracle: data produced exactly by the descriptive model's
    # functional form must be forecast by model a almost perfectly.
    records = model_a_records(16)
    start = records[0].date + dt.timedelta(days=10)
    end = records[-1].date
    rows, monthly = run_backtest(
        Dataset.from_records(records), start, end, permissive_criticals, OLS_OFF
    )
    assert all(r.status == "ok" for r in rows)
    assert all(r.mmre_a < 0.1 for r in rows)
    assert all(m.mmre_a < 0.1 for m in monthly)


def test_coverage_validation(permissive_criticals):
    records, _ = synth_dataset(SynthParams(days=12, seed=6))
    target = records[-1].date
    with pytest.raises(ValidationError, match="insufficient coverage"):
        run_backtest(Dataset.from_records(records[:-24]), target, target, permissive_criticals)
    with pytest.raises(ValidationError, match="from_date"):
        run_backtest(Dataset.from_records(records), target, target - dt.timedelta(days=1),
                     permissive_criticals)


def test_aborted_day_bookkeeping(permissive_criticals):
    degenerate = dt.date(2004, 5, 10)
    records = recoherence_backtest_records(degenerate, tail_days=1)
    rows, monthly = run_backtest(
        Dataset.from_records(records),
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
    assert summary.scored_days == 1


def test_summary_means_daily_errors(permissive_criticals):
    records, _ = synth_dataset(SynthParams(days=14, seed=9))
    start = records[0].date + dt.timedelta(days=10)
    end = records[-1].date
    rows, monthly = run_backtest(Dataset.from_records(records), start, end, permissive_criticals)
    scored = [r for r in rows if r.status == "ok"]
    assert len(scored) == len(rows)
    by_month = {}
    for r in scored:
        by_month.setdefault((r.date.year, r.date.month), []).append(r.mmre_ensemble)
    for m in monthly:
        expected = sum(by_month[(m.year, m.month)]) / len(by_month[(m.year, m.month)])
        assert abs(m.mmre_ensemble - expected) <= 1e-12


def test_backtest_deterministic(permissive_criticals):
    records, _ = synth_dataset(SynthParams(days=13, seed=2))
    start = records[0].date + dt.timedelta(days=10)
    end = records[-1].date
    first = run_backtest(Dataset.from_records(records), start, end, permissive_criticals)
    second = run_backtest(Dataset.from_records(records), start, end, permissive_criticals)
    assert render_backtest_csv(*first) == render_backtest_csv(*second)


def test_render_backtest_csv_shape(permissive_criticals):
    degenerate = dt.date(2004, 5, 10)
    records = recoherence_backtest_records(degenerate, tail_days=1)
    rows, monthly = run_backtest(
        Dataset.from_records(records), degenerate, degenerate + dt.timedelta(days=1),
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
