"""Workload definitions shared by the orchestrator (run.py) and the worker.

Every workload starts from ``dayahead synth`` with the benchmark's seed; the
program only ever sees the generated files.  A workload is a closed loop of
CLI commands with one client in one process: the next command starts when
the previous one has returned.
"""

from __future__ import annotations

import datetime as dt
import json
from pathlib import Path

DEFAULT_SEED = 1
# Never used while this benchmark was written: later changes re-check a
# claim on it, on inputs not seen during development.
HOLDOUT_SEED = 20071

# ``synth`` starts on this date; the engine needs 9 history days before the
# first target day.
SYNTH_START = dt.date(2004, 1, 1)
WINDOW_DAYS = 9

# Synthetic stub values (tests/data/critical_values_stub.json): they only
# route the verdict branches, they are not calibrated.
CRITICAL_VALUES = {
    "lvl1_5pct": 5.5,
    "lvl1_10pct": 4.8,
    "lvl2_5pct": 12.0,
    "lvl2_10pct": 10.5,
    "lvl3_5pct": 18.0,
}

WORKLOADS = {
    # Acceptance criterion 6 and the ROADMAP baseline: exact-ML AR(1), the
    # lambda grid and hour temperature lags.  Estimation-bound.
    "backtest_exactml_31d": {
        "kind": "backtest",
        "synth_days": 40,
        "days": 31,
        "smoke_days": 2,
        "flags": [],
    },
    # OLS without the Koyck grid: 3 small solves per day, so the per-day
    # rescans of the dataset in ingest/backtest are a large share.
    "backtest_ols_1y": {
        "kind": "backtest",
        "synth_days": 400,
        "days": 391,
        "smoke_days": 4,
        "flags": ["--method", "ols", "--koyck", "off"],
    },
    # The operational request path: every command parses a 365-day history
    # and a 1-day weather file and serializes a report.
    "forecast_1y_history": {
        "kind": "forecast",
        "synth_days": 400,
        "history_days": 365,
        "days": 35,
        "smoke_days": 2,
        "flags": [],
    },
}


def synth_argv(workload: str, seed: int, out: str) -> list[str]:
    days = WORKLOADS[workload]["synth_days"]
    return ["synth", "--days", str(days), "--seed", str(seed), "--out", out]


def plan(workload: str, smoke: bool = False) -> dict:
    """Commands of one workload: a warm-up command and the timed cycle.

    Each command is ``{"key", "argv", "out", "dates"}``; ``dates`` are the
    ISO target days it forecasts and ``key`` names its output, which must
    be byte-identical every time the command repeats.
    """
    spec = WORKLOADS[workload]
    n_days = spec["smoke_days"] if smoke else spec["days"]
    if spec["kind"] == "backtest":
        first = SYNTH_START + dt.timedelta(days=WINDOW_DAYS)
        dates = [(first + dt.timedelta(days=i)).isoformat() for i in range(n_days)]

        def backtest(key: str, last: str) -> dict:
            out = f"out/{key}.csv"
            argv = ["backtest", "--data", "data.csv", "--from", dates[0], "--to", last,
                    "--critical-values", "cv.json", "--report", out, *spec["flags"]]
            return {"key": key, "argv": argv, "out": out,
                    "dates": dates[: dates.index(last) + 1]}

        return {"warmup": backtest("warmup", dates[0]),
                "cycle": [backtest("backtest", dates[-1])]}

    first = SYNTH_START + dt.timedelta(days=spec["history_days"])
    cycle = []
    for i in range(n_days):
        day = (first + dt.timedelta(days=i)).isoformat()
        out = f"out/{day}.json"
        argv = ["forecast", "--history", f"in/history_{day}.csv",
                "--temp-forecast", f"in/weather_{day}.csv", "--target-date", day,
                "--critical-values", "cv.json", "--out", out, *spec["flags"]]
        cycle.append({"key": day, "argv": argv, "out": out, "dates": [day]})
    return {"warmup": cycle[0], "cycle": cycle}


def write_inputs(workload: str, smoke: bool, run_dir: Path) -> None:
    """Derive the per-command input files from the synthesized ``data.csv``.

    A forecast command gets the ``history_days`` days before its target day
    and a weather file holding the target day's temperatures with the load
    field left empty.
    """
    spec = WORKLOADS[workload]
    (run_dir / "out").mkdir()
    (run_dir / "cv.json").write_text(json.dumps(CRITICAL_VALUES), encoding="utf-8")
    if spec["kind"] != "forecast":
        return
    (run_dir / "in").mkdir()
    header, *lines = (run_dir / "data.csv").read_text(encoding="utf-8").splitlines()
    by_day: dict[str, list[str]] = {}
    for line in lines:
        by_day.setdefault(line[:10], []).append(line)
    days = list(by_day)
    for cmd in plan(workload, smoke)["cycle"]:
        target = cmd["key"]
        end = days.index(target)
        history = [ln for day in days[end - spec["history_days"]:end] for ln in by_day[day]]
        weather = []
        for line in by_day[target]:
            date, hour, _load, temp = line.split(",")
            weather.append(f"{date},{hour},,{temp}")
        for name, body in (("history", history), ("weather", weather)):
            text = "\n".join([header, *body]) + "\n"
            (run_dir / "in" / f"{name}_{target}.csv").write_text(text, encoding="utf-8")
