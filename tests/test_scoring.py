"""Two-stage scoring against the per-day chain in oracles.py.

``pipeline.run_day`` scores a run of days as (days, 24) arrays and then runs
each day's scalar chain; every backtest row, every report and every abort
must have the bits, and the message, of the day scored alone through
validated profiles and Python sums.
"""

import datetime as dt
import json

import pytest

from dayahead import backtest, cli
from dayahead.backtest import render_backtest_csv, run_backtest, summarize_monthly
from dayahead.cli import forecast_report
from dayahead.ingest import SynthParams, parse_csv, serialize_csv, synth_dataset
from dayahead.pipeline import run_day
from dayahead.regress import EngineSettings
from dayahead.report import serialize_report
from dayahead.verdict import load_critical_values

import oracles
from fixtures import recoherence_backtest_records

CV_JSON = json.dumps({"lvl1_5pct": 5.5, "lvl1_10pct": 4.8, "lvl2_5pct": 12.0,
                      "lvl2_10pct": 10.5, "lvl3_5pct": 18.0})
CV = load_critical_values(CV_JSON)
FIRST = dt.date(2004, 1, 10)
OLS_OFF = EngineSettings("ols", (0.0,))


def synth(days, seed, scale=1.0):
    records = synth_dataset(SynthParams(days=days, seed=seed))
    return parse_csv(serialize_csv([r._replace(load_mw=r.load_mw * scale) for r in records]))


@pytest.mark.parametrize("seed", [1, 20071])
@pytest.mark.parametrize("mode", ["hour", "day"])
def test_exact_ml_grid_rows_equal_the_oracle_rows(seed, mode):
    # Day mode aborts days at Eq. (11) inside runs of 16.
    data, settings = synth(40, seed), EngineSettings(temp_mode=mode)
    last = FIRST + dt.timedelta(days=30)
    rows, _ = run_backtest(data, FIRST, last, CV, settings)
    assert repr(rows) == repr(oracles.backtest_rows(data, FIRST, last, CV, settings))


def test_scaled_exact_ml_grid_rows_equal_the_oracle_rows():
    # Loads near the double range: days abort at Eq. (3) and (4) inside runs.
    data, settings = synth(40, 1, 1.8731585468859675e303), EngineSettings()
    last = FIRST + dt.timedelta(days=30)
    rows, _ = run_backtest(data, FIRST, last, CV, settings)
    assert {r.status for r in rows} == {"aborted:eq3", "aborted:eq4"}
    assert repr(rows) == repr(oracles.backtest_rows(data, FIRST, last, CV, settings))


def test_ols_year_rows_equal_the_oracle_rows():
    data, last = synth(400, 1), FIRST + dt.timedelta(days=390)
    rows, _ = run_backtest(data, FIRST, last, CV, OLS_OFF)
    assert repr(rows) == repr(oracles.backtest_rows(data, FIRST, last, CV, OLS_OFF))


@pytest.mark.parametrize("settings", [EngineSettings(), OLS_OFF,
                                      EngineSettings("ols", temp_mode="day")],
                         ids=["exact-grid", "ols-off", "ols-grid-day"])
def test_a_forecast_report_equals_the_oracle_report(settings):
    data = synth(40, 7)
    window = data.window(FIRST + dt.timedelta(days=30))
    config = {"method": settings.method}
    got = serialize_report(forecast_report(window, CV, settings, config))
    assert got == serialize_report(oracles.run_day(window, CV, settings, config=config))


def backtest_through_cli(tmp_path, records, first, last, flags):
    """The bytes ``dayahead backtest`` writes for ``records``."""
    data, out, cv = tmp_path / "data.csv", tmp_path / "bt.csv", tmp_path / "cv.json"
    data.write_text(serialize_csv(records))
    cv.write_text(CV_JSON)
    assert cli.main(["backtest", "--data", str(data), "--from", str(first), "--to", str(last),
                     "--critical-values", str(cv), "--report", str(out), *flags]) == 0
    return out.read_text()


def oracle_csv(records, first, last, settings):
    rows = oracles.backtest_rows(parse_csv(serialize_csv(records)), first, last, CV, settings)
    return render_backtest_csv(rows, summarize_monthly(rows))


# One day's loads or temperatures scaled, in a nine-day range from two days
# before it; the statuses are the oracle's.
DAMAGED = dt.date(2004, 1, 20)


@pytest.mark.parametrize("field, factor, flags, statuses", [
    # Model a's prediction for the next day overflows in the array stage.
    ("load_mw", 1e200, ["--method", "ols", "--koyck", "off"], "...1444.."),
    # Model b's prediction on the day overflows; the next days' stacked fits
    # raise, so they are fitted alone and abort at their own fits.
    ("temp_c", 1e304, [], "..2222..."),
    ("temp_c", 1e304, ["--method", "ols", "--koyck", "off"], "..3333..."),
    # One day's profiles vanish after centering, between two scored days.
    ("load_mw", 1e-300, ["--method", "ols", "--koyck", "off"], "...4....."),
    # Eq. (11), (8) and (4) in one run.
    ("temp_c", 1e100, ["--method", "ols", "--koyck", "off"], "..B844..."),
], ids=["eq1-ols", "eq2-exact-ml", "eq3-ols", "eq4-ols", "eq11-eq8-ols"])
def test_a_day_aborting_mid_run_leaves_its_neighbours_the_oracle_bits(
        tmp_path, capfd, field, factor, flags, statuses):
    records = [r._replace(**{field: getattr(r, field) * factor}) if r.date == DAMAGED else r
               for r in synth_dataset(SynthParams(days=30, seed=1))]
    first, last = DAMAGED - dt.timedelta(days=2), DAMAGED + dt.timedelta(days=6)
    settings = EngineSettings("ols", (0.0,)) if flags else EngineSettings()
    text = backtest_through_cli(tmp_path, records, first, last, flags)
    assert capfd.readouterr() == ("", "")
    assert text == oracle_csv(records, first, last, settings)
    got = [line.split(",")[-1] for line in text.splitlines()[1:10]]
    code = {"ok": ".", "aborted:eq11": "B"}
    assert "".join(code.get(s, s[-1]) for s in got) == statuses


def test_a_day_aborting_at_eq8_mid_run_leaves_its_neighbours_the_oracle_bits(tmp_path, capfd):
    degenerate = dt.date(2004, 5, 10)
    records = recoherence_backtest_records(degenerate, tail_days=3)
    first, last = degenerate - dt.timedelta(days=1), degenerate + dt.timedelta(days=3)
    for flags, settings, statuses in (
            ([], EngineSettings(), ["ok", "aborted:eq8", "ok", "aborted:eq11", "ok"]),
            (["--method", "ols"], EngineSettings("ols"),
             ["ok", "aborted:eq8", "aborted:eq8", "ok", "ok"])):
        text = backtest_through_cli(tmp_path, records, first, last, flags)
        assert capfd.readouterr() == ("", "")
        assert text == oracle_csv(records, first, last, settings)
        assert [line.split(",")[-1] for line in text.splitlines()[1:6]] == statuses


def test_a_run_whose_stacked_fit_raises_scores_each_day_as_a_run_of_one(monkeypatch):
    # Loads of one day times 1e303: the exact-ML fits of the run holding the
    # days after it raise at model b's formula.
    damaged = dt.date(2004, 1, 24)
    records = [r._replace(load_mw=r.load_mw * 1e303) if r.date == damaged else r
               for r in synth_dataset(SynthParams(days=42, seed=1))]
    data = parse_csv(serialize_csv(records))
    first, last = damaged - dt.timedelta(days=14), damaged + dt.timedelta(days=18)
    calls = []

    def recorder(window, critical_values, settings, fits):
        calls.append((window.target_date, window.days, fits is None))
        return run_day(window, critical_values, settings, fits)

    monkeypatch.setattr(backtest, "run_day", recorder)
    rows, _ = run_backtest(data, first, last, CV, EngineSettings())
    assert ("".join({"ok": "."}.get(r.status, r.status[-1]) for r in rows)
            == "...............1222..322.........")
    assert repr(rows) == repr(oracles.backtest_rows(data, first, last, CV, EngineSettings()))
    # Runs of 16 days: the second one's stacked fit raises, so its days are
    # scored alone; the first and the last run score their fits.
    alone = [(first + dt.timedelta(days=k), 1, True) for k in range(16, 32)]
    assert calls == [(first, 16, False), *alone, (last, 1, False)]
