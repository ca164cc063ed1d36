import datetime as dt
import json

import pytest

from dayahead import cli, regress
from dayahead.ingest import serialize_csv

from conftest import profile
from fixtures import recoherence_fixture_records
from oracles import parse_csv_records

CV_JSON = json.dumps({
    "lvl1_5pct": 5.5, "lvl1_10pct": 4.8, "lvl2_5pct": 12.0,
    "lvl2_10pct": 10.5, "lvl3_5pct": 18.0,
})


def write_cv(tmp_path):
    path = tmp_path / "cv.json"
    path.write_text(CV_JSON)
    return str(path)


def synth_to(tmp_path, name, days=14, seed=6, extra=()):
    out = tmp_path / name
    code = cli.main([
        "synth", "--days", str(days), "--seed", str(seed),
        "--out", str(out), *extra,
    ])
    assert code == 0
    return out


def split_forecast_inputs(tmp_path, dataset_path, target=None):
    """Split a dataset CSV into history (the days before ``target``, by
    default the last day) and a temperature-forecast file for ``target``."""
    records = parse_csv_records(dataset_path.read_text())
    target = target or records[-1].date
    history = [r for r in records if r.date < target]
    forecast = [r._replace(load_mw=None) for r in records if r.date == target]
    hist_path = tmp_path / "history.csv"
    fc_path = tmp_path / "forecast.csv"
    hist_path.write_text(serialize_csv(history))
    fc_path.write_text(serialize_csv(forecast))
    return hist_path, fc_path, target


def test_synth_deterministic_byte_identical(tmp_path):
    a = synth_to(tmp_path, "a.csv", days=14, seed=1)
    b = synth_to(tmp_path, "b.csv", days=14, seed=1)
    assert a.read_bytes() == b.read_bytes()


def test_synth_validation_exit_code(tmp_path, capsys):
    code = cli.main(["synth", "--days", "0", "--seed", "1",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flags, name", [
    (["--start-date", "9999-12-30"], "days run past 9999-12-31"),
    (["--seed", "-1"], "seed"),
    (["--base-mw", "nan"], "base_mw"),
    (["--noise-sd-mw", "inf"], "noise_sd_mw"),
    (["--temp-base-c", "nan"], "temp_base_c"),
    (["--base-mw", "1e308", "--peak-amp-mw", "1e308"], "non-finite value at (2004-01-01"),
])
def test_synth_rejects_parameters_it_cannot_generate_from(tmp_path, capsys, flags, name):
    out = tmp_path / "x.csv"
    code = cli.main(["synth", "--days", "5", "--seed", "1", *flags, "--out", str(out)])
    _, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("dayahead: error: ") and name in err
    assert not out.exists()


def test_synth_stdout_only_payload(capsys):
    code = cli.main(["synth", "--days", "1", "--seed", "5", "--out", "-"])
    out, err = capsys.readouterr()
    assert code == 0
    assert out.startswith("date,hour,load_mw,temp_c\n")
    assert err == ""


def test_forecast_happy_path(tmp_path, capsys):
    data = synth_to(tmp_path, "data.csv")
    hist, fc, target = split_forecast_inputs(tmp_path, data)
    out = tmp_path / "report.json"
    code = cli.main([
        "forecast", "--history", str(hist), "--temp-forecast", str(fc),
        "--target-date", target.isoformat(),
        "--critical-values", write_cv(tmp_path),
        "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    report = json.loads(out.read_text())
    assert report["target_date"] == target.isoformat()
    assert len(report["ensemble"]) == 24
    assert report["meta"]["p_v"] == 0.8803
    assert report["meta"]["config"]["method"] == "exact-ml"
    assert "nan" not in out.read_text().lower()


def test_forecast_writes_stdout_with_dash(tmp_path, capsys):
    data = synth_to(tmp_path, "data.csv")
    hist, fc, target = split_forecast_inputs(tmp_path, data)
    code = cli.main([
        "forecast", "--history", str(hist), "--temp-forecast", str(fc),
        "--target-date", target.isoformat(),
        "--critical-values", write_cv(tmp_path),
        "--out", "-", "--method", "ols", "--koyck", "fixed=0.3",
    ])
    out, _ = capsys.readouterr()
    assert code == 0
    report = json.loads(out)
    assert report["meta"]["config"]["koyck"] == "fixed=0.3"


@pytest.mark.parametrize("damage", ["absent", "critical_values_not_utf8", "history_not_utf8"])
def test_forecast_missing_critical_values(tmp_path, capsys, damage):
    data = synth_to(tmp_path, "data.csv")
    hist, fc, target = split_forecast_inputs(tmp_path, data)
    cv = unreadable = tmp_path / "cv.json"  # absent unless written below
    if damage == "critical_values_not_utf8":
        cv.write_bytes(b"\xff" + CV_JSON.encode())
    elif damage == "history_not_utf8":
        cv.write_text(CV_JSON)
        unreadable = hist
        text = hist.read_bytes()
        first_field = text.index(b"\n") + 1
        hist.write_bytes(text[:first_field] + b"\xff" + text[first_field:])
    code = cli.main([
        "forecast", "--history", str(hist), "--temp-forecast", str(fc),
        "--target-date", target.isoformat(),
        "--critical-values", str(cv),
    ])
    assert code == 2
    assert f"cannot read {unreadable}" in capsys.readouterr().err


def test_forecast_bad_koyck_flag(tmp_path, capsys):
    data = synth_to(tmp_path, "data.csv")
    hist, fc, target = split_forecast_inputs(tmp_path, data)
    code = cli.main([
        "forecast", "--history", str(hist), "--temp-forecast", str(fc),
        "--target-date", target.isoformat(),
        "--critical-values", write_cv(tmp_path),
        "--koyck", "fixed=1.5",
    ])
    assert code == 2


def test_forecast_recoherence_fixture_exits_3_naming_eq8(tmp_path, capsys):
    target = dt.date(2004, 5, 10)
    records = recoherence_fixture_records(target)
    history = [r for r in records if r.load_mw is not None]
    forecast = [r for r in records if r.load_mw is None]
    hist_path = tmp_path / "history.csv"
    fc_path = tmp_path / "forecast.csv"
    hist_path.write_text(serialize_csv(history))
    fc_path.write_text(serialize_csv(forecast))
    out = tmp_path / "report.json"
    code = cli.main([
        "forecast", "--history", str(hist_path), "--temp-forecast", str(fc_path),
        "--target-date", target.isoformat(),
        "--critical-values", write_cv(tmp_path),
        "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert "Eq. (8)" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_forecast_sigma_fixture_exits_3_naming_eq13(tmp_path, capsys, monkeypatch):
    # Injected forecasts: model c's centered prediction is exactly
    # orthogonal to model b's (disjoint supports), so theta2 = 0 while
    # theta1 stays generic; the chain must abort at the evolution moments.
    data = synth_to(tmp_path, "data.csv")
    hist, fc, target = split_forecast_inputs(tmp_path, data)

    def injected(window, fits):
        base = [100.0] * 24
        va, vb, vc = list(base), list(base), list(base)
        va[0], va[1] = 140.0, 60.0
        vb[0], vb[1] = 150.0, 50.0
        vc[2], vc[3] = 160.0, 40.0
        return {
            m: profile(window.target_date, v)
            for m, v in (("a", va), ("b", vb), ("c", vc))
        }

    monkeypatch.setattr(regress, "forecast_day", injected)
    out = tmp_path / "report.json"
    code = cli.main([
        "forecast", "--history", str(hist), "--temp-forecast", str(fc),
        "--target-date", target.isoformat(),
        "--critical-values", write_cv(tmp_path),
        "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert "Eq. (13)" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_backtest_row_count_and_determinism(tmp_path):
    data = synth_to(tmp_path, "data.csv", days=40, seed=1)
    records = parse_csv_records(data.read_text())
    start = records[0].date + dt.timedelta(days=9)
    end = records[-1].date
    assert (end - start).days + 1 == 31
    outputs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        code = cli.main([
            "backtest", "--data", str(data),
            "--from", start.isoformat(), "--to", end.isoformat(),
            "--critical-values", write_cv(tmp_path),
            "--report", str(out), "--method", "ols",
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    lines = outputs[0].decode().strip().split("\n")
    scored = [ln for ln in lines[1:] if not ln.startswith("#")
              and not ln.startswith("year_month")]
    day_rows = [ln for ln in scored if ln.count(",") == 6]
    assert len(day_rows) == 31


@pytest.mark.parametrize("method", ["ols", "exact-ml"])
def test_backtest_koyck_off_writes_the_bytes_of_fixed_zero(tmp_path, method):
    data = synth_to(tmp_path, "data.csv", days=14, seed=8)
    outputs = {}
    for koyck in ("off", "fixed=0", "fixed=0.5"):
        out = tmp_path / f"{koyck}.csv"
        assert cli.main([
            "backtest", "--data", str(data), "--from", "2004-01-10", "--to", "2004-01-14",
            "--critical-values", write_cv(tmp_path), "--report", str(out),
            "--method", method, "--koyck", koyck,
        ]) == 0
        outputs[koyck] = out.read_bytes()
    assert outputs["off"].count(b",ok\n") == 5
    assert outputs["off"] == outputs["fixed=0"] != outputs["fixed=0.5"]


def test_backtest_from_after_to(tmp_path, capsys):
    data = synth_to(tmp_path, "data.csv")
    code = cli.main([
        "backtest", "--data", str(data),
        "--from", "2004-01-20", "--to", "2004-01-10",
        "--critical-values", write_cv(tmp_path),
        "--report", str(tmp_path / "r.csv"),
    ])
    assert code == 2
    assert "from_date" in capsys.readouterr().err


def test_backtest_partially_degenerate_dataset_exits_zero(tmp_path):
    from fixtures import recoherence_backtest_records

    degenerate = dt.date(2004, 5, 10)
    records = recoherence_backtest_records(degenerate, tail_days=1)
    data = tmp_path / "data.csv"
    data.write_text(serialize_csv(records))
    out = tmp_path / "bt.csv"
    code = cli.main([
        "backtest", "--data", str(data),
        "--from", degenerate.isoformat(),
        "--to", (degenerate + dt.timedelta(days=1)).isoformat(),
        "--critical-values", write_cv(tmp_path),
        "--report", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert "aborted:eq8" in text
    trailer = text.strip().split("\n")[-1]
    assert trailer.endswith(",1")  # one excluded day reported


def test_synth_output_feeds_backtest_unmodified(tmp_path):
    data = synth_to(tmp_path, "data.csv", days=12, seed=4)
    records = parse_csv_records(data.read_text())
    target = records[-1].date
    out = tmp_path / "bt.csv"
    code = cli.main([
        "backtest", "--data", str(data),
        "--from", target.isoformat(), "--to", target.isoformat(),
        "--critical-values", write_cv(tmp_path),
        "--report", str(out),
    ])
    assert code == 0
    assert out.read_text().count("ok") >= 1


def scaled_loads_to(tmp_path, factor, days=12, seed=1):
    """A synth dataset with every load multiplied by ``factor``."""
    records = parse_csv_records(synth_to(tmp_path, "raw.csv", days=days, seed=seed).read_text())
    data = tmp_path / "scaled.csv"
    data.write_text(serialize_csv([r._replace(load_mw=r.load_mw * factor) for r in records]))
    return data


def test_forecast_loads_times_1e200_exits_3_naming_eq4(tmp_path, capsys):
    # The centered profiles' second moments overflow; the NaN they leave
    # must stop at Eq. (4) instead of reaching the time statistics.
    hist, fc, target = split_forecast_inputs(tmp_path, scaled_loads_to(tmp_path, 1e200))
    code = cli.main([
        "forecast", "--history", str(hist), "--temp-forecast", str(fc),
        "--target-date", target.isoformat(),
        "--critical-values", write_cv(tmp_path),
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "(Eq. (4))" in captured.err
    assert only_the_cli_line(captured.err)


@pytest.mark.parametrize("factor, first, last", [
    (1e200, 10, 12),
    # On 2004-01-18 the moments also meet inf * 0, which numpy flags as invalid.
    (1e300, 18, 18),
    # The 24-hour sum in the profiles' mean overflows.
    (1.8731585468859675e303, 18, 19),
], ids=["1e200", "1e300", "1.87e303"])
def test_backtest_loads_times_1e200_aborts_days_at_eq4(tmp_path, capsys, factor, first, last):
    data = scaled_loads_to(tmp_path, factor, days=last)
    out = tmp_path / "bt.csv"
    code = cli.main([
        "backtest", "--data", str(data),
        "--from", f"2004-01-{first}", "--to", f"2004-01-{last}",
        "--critical-values", write_cv(tmp_path),
        "--report", str(out),
    ])
    assert code == 0
    days = last - first + 1
    rows = out.read_text().split("\n")[1:1 + days]
    assert [r.split(",")[-1] for r in rows] == ["aborted:eq4"] * days
    assert "nan" not in out.read_text().lower()
    assert capsys.readouterr() == ("", "")


def test_backtest_mmre_overflowing_to_inf_exits_2(tmp_path, capsys):
    # A forecast of about 4,200 MW against actual loads of 1e-307 MW gives
    # an MMRE past the double range; the CSV must not carry it as inf.
    records = parse_csv_records(synth_to(tmp_path, "raw.csv", days=12, seed=1).read_text())
    tiny = dt.date(2004, 1, 12)
    data = tmp_path / "tiny.csv"
    data.write_text(serialize_csv(
        [r._replace(load_mw=1e-307) if r.date == tiny else r for r in records]))
    code = cli.main([
        "backtest", "--data", str(data), "--from", "2004-01-11", "--to", "2004-01-12",
        "--critical-values", write_cv(tmp_path), "--report", "-",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "non-finite" in captured.err
    assert only_the_cli_line(captured.err)


@pytest.mark.parametrize("factor, method, equation, days, target", [
    # Model b's interaction columns pass the double range.
    (2e304, "ols", "2", 18, "2004-01-18"),
    # Model a's design is finite, but its AR(1) whitening is not.
    (2e304, "exact-ml", "1", 18, "2004-01-18"),
    # Model a fits; whitening model b's infinite design meets 0 * inf.
    (5e303, "exact-ml", "2", 18, "2004-01-18"),
    # The largest load is 1.7e308; model a's OLS residuals overflow as well.
    (3.2e304, "ols", "2", 18, "2004-01-18"),
    # The largest load is 1e307.  Model c's training system is finite, but
    # its target-day prediction is not.
    (1.8731585468859675e303, "exact-ml", "3", 40, "2004-02-06"),
], ids=["2e304-ols", "2e304-exact-ml", "5e303-exact-ml", "3.2e304-ols",
        "1.87e303-exact-ml-forecast"])
def test_overflowing_least_squares_system_aborts_at_its_model(
        tmp_path, capfd, factor, method, equation, days, target):
    # LAPACK must never see the system: it cannot solve it and prints to file
    # descriptor 1, which capfd captures.
    data = scaled_loads_to(tmp_path, factor, days=days)
    out = tmp_path / "bt.csv"
    code = cli.main([
        "backtest", "--data", str(data), "--from", target, "--to", target,
        "--critical-values", write_cv(tmp_path), "--report", str(out), "--method", method,
    ])
    assert code == 0
    assert out.read_text().split("\n")[1] == f"{target},,,,,,aborted:eq{equation}"
    assert capfd.readouterr() == ("", "")
    hist, fc, target = split_forecast_inputs(tmp_path, data, dt.date.fromisoformat(target))
    code = cli.main([
        "forecast", "--history", str(hist), "--temp-forecast", str(fc),
        "--target-date", target.isoformat(), "--critical-values", write_cv(tmp_path),
        "--method", method,
    ])
    captured = capfd.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("dayahead: degeneracy: ")
    assert f"(Eq. ({equation}))" in captured.err
    assert only_the_cli_line(captured.err)


@pytest.mark.parametrize("method", ["ols", "exact-ml"])
def test_overflowing_ensemble_mean_aborts_at_eq4(tmp_path, capfd, method):
    # The largest load is 1e307 and temperatures are tiny, so every design is
    # finite; the target day's temperatures turn negative, so model a
    # forecasts about 1e307 while b and c forecast above 0.9e308 at hours
    # 13-15.  The ensemble mean there passes the double range, but the
    # profiles' centered second moments overflow first, at Eq. (4).
    records = parse_csv_records(synth_to(tmp_path, "raw.csv", days=40, seed=1).read_text())
    top, target = max(r.load_mw for r in records), records[-1].date
    data = tmp_path / "data.csv"
    data.write_text(serialize_csv([
        r._replace(load_mw=r.load_mw * (1e307 / top),
                   temp_c=r.temp_c * (-1e-7 if r.date == target else 1e-10))
        for r in records
    ]))
    out = tmp_path / "bt.csv"
    code = cli.main([
        "backtest", "--data", str(data), "--from", str(target), "--to", str(target),
        "--critical-values", write_cv(tmp_path), "--report", str(out),
        "--method", method, "--koyck", "off",
    ])
    assert code == 0
    assert capfd.readouterr() == ("", "")
    assert out.read_text().split("\n")[1] == f"{target},,,,,,aborted:eq4"
    hist, fc, _ = split_forecast_inputs(tmp_path, data)
    code = cli.main([
        "forecast", "--history", str(hist), "--temp-forecast", str(fc),
        "--target-date", target.isoformat(), "--critical-values", write_cv(tmp_path),
        "--method", method, "--koyck", "off",
    ])
    captured = capfd.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "(Eq. (4))" in captured.err and only_the_cli_line(captured.err)


def test_forecast_loads_times_1e150_exits_0_without_warnings(tmp_path, capsys):
    # The responses' y @ y overflows in the rho tie-break test; nothing of it
    # may reach stderr, and the report must stay finite.
    hist, fc, target = split_forecast_inputs(tmp_path, scaled_loads_to(tmp_path, 1e150))
    out = tmp_path / "report.json"
    code = cli.main([
        "forecast", "--history", str(hist), "--temp-forecast", str(fc),
        "--target-date", target.isoformat(),
        "--critical-values", write_cv(tmp_path), "--out", str(out),
    ])
    assert code == 0
    assert capsys.readouterr() == ("", "")
    assert "nan" not in out.read_text().lower()


# Loads of synth --days 14 --seed 3 scaled by 10**k, and scaled so that the
# largest load is each of the last four values.
SWEEP_POWERS = range(-300, 301, 20)
SWEEP_TOPS = (1e306, 1e307, 5e307, 1.79e308)


@pytest.mark.parametrize("method", ["exact-ml", "ols"])
def test_backtest_contract_holds_for_every_scale_of_finite_loads(tmp_path, capfd, method):
    records = parse_csv_records(synth_to(tmp_path, "raw.csv", days=14, seed=3).read_text())
    top = max(r.load_mw for r in records)
    factors = [10.0 ** k for k in SWEEP_POWERS] + [t / top for t in SWEEP_TOPS]
    data, out, cv = tmp_path / "scaled.csv", tmp_path / "bt.csv", write_cv(tmp_path)
    capfd.readouterr()
    for factor in factors:
        data.write_text(serialize_csv([r._replace(load_mw=r.load_mw * factor) for r in records]))
        out.unlink(missing_ok=True)
        code = cli.main([
            "backtest", "--data", str(data), "--from", "2004-01-14", "--to", "2004-01-14",
            "--critical-values", cv, "--report", str(out), "--method", method,
        ])
        captured = capfd.readouterr()
        assert code in (0, 2, 3), factor
        assert captured.out == "", factor
        assert captured.err == "" or only_the_cli_line(captured.err), factor
        if out.exists():
            text = out.read_text().lower()
            assert "nan" not in text and "inf" not in text, factor


def only_the_cli_line(err: str) -> bool:
    """stderr holds the one ``dayahead:`` message and nothing else."""
    return len(err.splitlines()) == 1 and err.startswith("dayahead: ")


def test_forecast_at_the_calendar_start_exits_2(tmp_path, capsys):
    data = synth_to(tmp_path, "data.csv", days=5, extra=("--start-date", "0001-01-01"))
    hist, fc, target = split_forecast_inputs(tmp_path, data)
    assert target == dt.date(1, 1, 5)
    code = cli.main([
        "forecast", "--history", str(hist), "--temp-forecast", str(fc),
        "--target-date", target.isoformat(), "--critical-values", write_cv(tmp_path),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "missing history" in captured.err and "0001-01-05" in captured.err
    assert only_the_cli_line(captured.err)


def test_backtest_from_the_calendar_start_exits_2(tmp_path, capsys):
    data = synth_to(tmp_path, "data.csv", days=5, extra=("--start-date", "0001-01-01"))
    code = cli.main([
        "backtest", "--data", str(data), "--from", "0001-01-02", "--to", "0001-01-03",
        "--critical-values", write_cv(tmp_path), "--report", str(tmp_path / "bt.csv"),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "missing history" in captured.err and "0001-01-02" in captured.err
    assert only_the_cli_line(captured.err)
    assert not (tmp_path / "bt.csv").exists()


def test_forecast_day_lag_mode_on_the_first_day_with_history_exits_0(tmp_path, capsys):
    # The 8-day temperature lag of the earliest training day would fall
    # before 0001-01-01; the day must be left out, not dated.
    data = synth_to(tmp_path, "data.csv", days=10, seed=1, extra=("--start-date", "0001-01-01"))
    hist, fc, target = split_forecast_inputs(tmp_path, data)
    assert target == dt.date(1, 1, 10)
    code = cli.main([
        "forecast", "--history", str(hist), "--temp-forecast", str(fc),
        "--target-date", target.isoformat(), "--critical-values", write_cv(tmp_path),
        "--temp-lag-mode", "day", "--out", str(tmp_path / "report.json"),
    ])
    assert code == 0
    assert capsys.readouterr() == ("", "")


def test_backtest_day_lag_mode_from_the_first_day_with_history_exits_0(tmp_path, capsys):
    data = synth_to(tmp_path, "data.csv", days=11, seed=1, extra=("--start-date", "0001-01-01"))
    out = tmp_path / "bt.csv"
    code = cli.main([
        "backtest", "--data", str(data), "--from", "0001-01-10", "--to", "0001-01-11",
        "--critical-values", write_cv(tmp_path), "--report", str(out),
        "--temp-lag-mode", "day",
    ])
    assert code == 0
    assert capsys.readouterr() == ("", "")
    rows = out.read_text().split("\n")
    assert [r.split(",")[0] for r in rows[1:3]] == ["0001-01-10", "0001-01-11"]


def test_backtest_to_the_calendar_end_exits_0(tmp_path, capsys):
    data = synth_to(tmp_path, "data.csv", days=11, extra=("--start-date", "9999-12-21"))
    out = tmp_path / "bt.csv"
    code = cli.main([
        "backtest", "--data", str(data), "--from", "9999-12-30", "--to", "9999-12-31",
        "--critical-values", write_cv(tmp_path), "--report", str(out),
        "--method", "ols", "--koyck", "off",
    ])
    assert code == 0
    assert capsys.readouterr() == ("", "")
    rows = out.read_text().split("\n")
    assert [r.split(",")[0] for r in rows[1:3]] == ["9999-12-30", "9999-12-31"]
    assert "9999-12," in out.read_text()


def forecast_with_weather(tmp_path, capsys, edit_weather):
    """Run ``forecast`` after replacing the weather file's records with
    ``edit_weather(weather, history)``; returns the exit code, stdout,
    stderr, the target day and the history records."""
    hist, fc, target = split_forecast_inputs(tmp_path, synth_to(tmp_path, "data.csv"))
    weather = edit_weather(parse_csv_records(fc.read_text()), parse_csv_records(hist.read_text()))
    fc.write_text(serialize_csv(weather))
    code = cli.main([
        "forecast", "--history", str(hist), "--temp-forecast", str(fc),
        "--target-date", target.isoformat(),
        "--critical-values", write_cv(tmp_path),
    ])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, target, parse_csv_records(hist.read_text())


def test_forecast_weather_repeating_a_history_key_exits_2(tmp_path, capsys):
    # History and weather are merged into one dataset, so a (date, hour)
    # present in both files is a duplicate even though each file is clean.
    code, out, err, _, history = forecast_with_weather(
        tmp_path, capsys,
        lambda weather, history: weather + [history[-1]._replace(load_mw=None)],
    )
    last = history[-1]
    assert code == 2
    assert out == ""
    assert f"duplicate key ({last.date}, hour {last.hour})" in err


def test_forecast_weather_missing_an_hour_exits_2(tmp_path, capsys):
    code, out, err, target, _ = forecast_with_weather(
        tmp_path, capsys,
        lambda weather, history: [r for r in weather if r.hour != 17],
    )
    assert code == 2
    assert out == ""
    assert f"missing forecast temperature for ({target}, hour 17)" in err
