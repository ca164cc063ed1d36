"""The benchmark's tracer patches names in the engine's modules; a rename
there would otherwise only surface when a traced benchmark run breaks."""

import importlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracing import PATCHES, Tracer  # noqa: E402

from dayahead import cli  # noqa: E402


def test_every_patched_name_resolves():
    for module_name, attr, span in PATCHES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} ({span})"


def write_inputs(tmp_path, days=12, seed=3):
    """A synthetic dataset (12 days at seed 3 by default), the history and
    weather files for its last day, and critical values."""
    data = tmp_path / "data.csv"
    assert cli.main(["synth", "--days", str(days), "--seed", str(seed),
                     "--out", str(data)]) == 0
    header, *lines = data.read_text().splitlines()
    history, weather = tmp_path / "history.csv", tmp_path / "weather.csv"
    history.write_text("\n".join([header, *lines[:-24]]) + "\n")
    weather.write_text("\n".join(
        [header, *(",".join(ln.split(",")[:2] + ["", ln.split(",")[3]]) for ln in lines[-24:])]
    ) + "\n")
    cv = tmp_path / "cv.json"
    cv.write_text(json.dumps({"lvl1_5pct": 5.5, "lvl1_10pct": 4.8, "lvl2_5pct": 12.0,
                              "lvl2_10pct": 10.5, "lvl3_5pct": 18.0}))
    return data, history, weather, cv


def test_traced_default_commands_write_the_untraced_bytes(tmp_path):
    data, history, weather, cv = write_inputs(tmp_path)
    commands = {
        # exact ML over the decay grid, three days in one run
        "bt.csv": ["backtest", "--data", str(data), "--from", "2004-01-10",
                   "--to", "2004-01-12", "--critical-values", str(cv), "--report"],
        "fc.json": ["forecast", "--history", str(history), "--temp-forecast", str(weather),
                    "--target-date", "2004-01-12", "--critical-values", str(cv), "--out"],
    }
    originals = [getattr(importlib.import_module(m), a) for m, a, _ in PATCHES]
    for name, argv in commands.items():
        out = tmp_path / name  # the report echoes its path
        assert cli.main([*argv, str(out)]) == 0
        untraced = out.read_bytes()
        out.unlink()
        tracer = Tracer()
        tracer.install()
        try:
            assert cli.main([*argv, str(out)]) == 0
        finally:
            assert tracer.uninstall()
        assert out.read_bytes() == untraced
        assert tracer.summary("setup")["cli.main"]["calls"] == 1
        restored = [getattr(importlib.import_module(m), a) for m, a, _ in PATCHES]
        assert all(now is was for now, was in zip(restored, originals))


def test_traced_commands_count_parsed_rows_and_indexed_records(tmp_path):
    data, history, weather, cv = write_inputs(tmp_path)
    flags = ["--critical-values", str(cv), "--method", "ols", "--koyck", "off"]

    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["backtest", "--data", str(data), "--from", "2004-01-11",
                         "--to", "2004-01-12", "--report", str(tmp_path / "bt.csv"),
                         *flags]) == 0
        assert cli.main(["forecast", "--history", str(history),
                         "--temp-forecast", str(weather), "--target-date", "2004-01-12",
                         "--out", str(tmp_path / "fc.json"), *flags]) == 0
    finally:
        assert tracer.uninstall()

    counts = tracer.counts["setup"]
    # len() of each parse_csv result: the dataset, then history and weather
    assert counts["ingest.rows_parsed"] == 288 + 264 + 24
    # len() of each dataset handed to assemble_window: only the merged
    # forecast input, since a backtest checks its range without it
    assert counts["ingest.records_scanned"] == 288
    assert tracer.summary("setup")["ingest.assemble_window"]["calls"] == 1


def test_traced_forecast_records_the_decay_of_each_model(tmp_path):
    # The benchmark's lambda-flip check reads Tracer.lambdas, which the
    # regress.fit_model span fills on the forecast path.
    _, history, weather, cv = write_inputs(tmp_path, days=40, seed=1)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["forecast", "--history", str(history), "--temp-forecast", str(weather),
                         "--target-date", "2004-02-09", "--critical-values", str(cv),
                         "--out", str(tmp_path / "fc.json")]) == 0
    finally:
        assert tracer.uninstall()
    assert tracer.lambdas == {("2004-02-09", "a"): {0.0}, ("2004-02-09", "b"): {0.9},
                              ("2004-02-09", "c"): {0.9}}
