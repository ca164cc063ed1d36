"""Digest of everything a fixed set of commands outputs, for checking that a
change leaves the program's outputs byte for byte as they were.

Usage::

    PYTHONPATH=<tree>/src python tests/output_digest.py OUT

Each command runs through ``dayahead.cli.main`` in this process and writes
its files under the directory ``OUT`` (created if absent).  Two header lines
starting with ``#`` name the numpy and the BLAS the bits were computed with.
Then one line per command is printed: its name, its exit code, then the
sha256 of its stdout, of its stderr and of each file it wrote.  Reports echo
their input paths, so every occurrence of ``OUT`` is replaced by a fixed
token before hashing.  Run it on two trees, each with its own ``OUT``, and
``diff`` the two outputs.  ``tests/data/output_digest.txt`` pins this
output, and ``tests/test_output_digest.py`` checks every command against it.

The commands: seeds 1, 7 and 20071 in both temperature-lag modes, each under
exact ML with the decay grid and without the lag and OLS with the grid,
without the lag and at the fixed decay 0.35, as a 31-day backtest and as a
forecast; 391-day OLS backtests; a 50-day exact-ML backtest on the decay
grid; exact ML with every load times 1e9, 1e150, 1e300 and 1.87e303; OLS
without the lag and with the decay grid on temperatures of -0.0 at hour 3
and 0.0 at hour 4; backtests with a load of 0 on a history day, mid-range
and on the last day; a three-day backtest whose middle day aborts at Eq. (8),
and the forecast of that day; a backtest whose actual loads of 1e-307
overflow the MMRE; two coverage errors; and exact ML with the decay grid
and day lags on seed 1's temperatures perturbed by
``fixtures.perturbed_temperatures``, as a backtest and as a forecast.  That
is 90 commands.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import hashlib
import io
import sys
from pathlib import Path

import numpy as np

from dayahead import cli
from dayahead.ingest import SynthParams, serialize_csv, synth_dataset
from fixtures import perturbed_temperatures, recoherence_backtest_records

TOKEN = "<OUT>"
CRITICAL_VALUES = ('{"lvl1_5pct": 5.5, "lvl1_10pct": 4.8, "lvl2_5pct": 12.0, '
                   '"lvl2_10pct": 10.5, "lvl3_5pct": 18.0}\n')
START = dt.date(2004, 1, 1)
SETTINGS = {
    "exact-grid": ["--method", "exact-ml", "--koyck", "grid"],
    "exact-off": ["--method", "exact-ml", "--koyck", "off"],
    "ols-grid": ["--method", "ols", "--koyck", "grid"],
    "ols-off": ["--method", "ols", "--koyck", "off"],
    "ols-fixed": ["--method", "ols", "--koyck", "fixed=0.35"],
}


def _digest(data: bytes, out: str) -> str:
    return hashlib.sha256(data.replace(out.encode(), TOKEN.encode())).hexdigest()


def run(name: str, argv: list, out: Path) -> str:
    """Run one command in ``out / name``; its digest line."""
    workdir = out / name
    workdir.mkdir(parents=True, exist_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([arg.replace("{dir}", str(workdir)) for arg in argv])
    fields = [name, str(code), _digest(stdout.getvalue().encode(), str(out)),
              _digest(stderr.getvalue().encode(), str(out))]
    for path in sorted(workdir.iterdir()):
        fields.append(f"{path.name}={_digest(path.read_bytes(), str(out))}")
    return " ".join(fields)


def split_forecast_inputs(data: Path, target: dt.date, workdir: Path) -> tuple[Path, Path]:
    """History (every day before ``target``) and weather (``target``'s
    temperatures, blank loads) files cut from a dataset file."""
    header, *lines = data.read_text().splitlines()
    day = target.isoformat()
    history = [ln for ln in lines if ln.split(",")[0] < day]
    weather = []
    for ln in lines:
        date, hour, _, temp = ln.split(",")
        if date == day:
            weather.append(f"{date},{hour},,{temp}")
    workdir.mkdir(parents=True, exist_ok=True)
    hist, fc = workdir / "history.csv", workdir / "weather.csv"
    hist.write_text("\n".join([header, *history]) + "\n")
    fc.write_text("\n".join([header, *weather]) + "\n")
    return hist, fc


def scaled(data: Path, factor: float, dest: Path) -> Path:
    """``data`` with every load multiplied by ``factor``."""
    header, *lines = data.read_text().splitlines()
    out = [header]
    for ln in lines:
        date, hour, load, temp = ln.split(",")
        out.append(f"{date},{hour},{float(load) * factor!r},{temp}")
    dest.write_text("\n".join(out) + "\n")
    return dest


def signed_zero_temps(data: Path, dest: Path) -> Path:
    """``data`` with every hour-3 temperature -0.0 and every hour-4 one 0.0."""
    zeros = {"3": "-0.0", "4": "0.0"}
    header, *lines = data.read_text().splitlines()
    out = [header]
    for ln in lines:
        date, hour, load, temp = ln.split(",")
        out.append(f"{date},{hour},{load},{zeros.get(hour, temp)}")
    dest.write_text("\n".join(out) + "\n")
    return dest


def with_loads(data: Path, day: dt.date, hours: range, load: str, dest: Path) -> Path:
    """``data`` with the loads of ``day`` at ``hours`` set to ``load``."""
    header, *lines = data.read_text().splitlines()
    out = [header]
    for ln in lines:
        date, hour, old, temp = ln.split(",")
        hit = date == day.isoformat() and int(hour) in hours
        out.append(f"{date},{hour},{load if hit else old},{temp}")
    dest.write_text("\n".join(out) + "\n")
    return dest


def environment() -> list:
    """The header lines: the numpy version and the BLAS name and version."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.25 only prints its config
        name = "unknown"
    return [f"# numpy {np.__version__}", f"# blas {name}"]


def digest(out: Path) -> list:
    """The digest line of every command, each run under ``out``."""
    out = out.resolve()
    inputs = out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    cv = inputs / "cv.json"
    cv.write_text(CRITICAL_VALUES)
    lines = []

    def synth(seed: int, days: int) -> Path:
        name = f"synth-s{seed}-d{days}"
        lines.append(run(name, ["synth", "--days", str(days), "--seed", str(seed),
                                "--out", "{dir}/data.csv"], out))
        return out / name / "data.csv"

    def backtest(name, data, first, last, flags):
        lines.append(run(name, ["backtest", "--data", str(data), "--from", first.isoformat(),
                                "--to", last.isoformat(), "--critical-values", str(cv),
                                "--report", "{dir}/bt.csv", *flags], out))

    def forecast(name, data, target, flags):
        hist, fc = split_forecast_inputs(data, target, inputs / name)
        lines.append(run(name, ["forecast", "--history", str(hist), "--temp-forecast", str(fc),
                                "--target-date", target.isoformat(),
                                "--critical-values", str(cv), "--out", "-", *flags], out))

    first, last = START + dt.timedelta(days=9), START + dt.timedelta(days=39)
    for seed in (1, 7, 20071):
        data = synth(seed, 40)
        for mode in ("hour", "day"):
            for setting, flags in SETTINGS.items():
                flags = [*flags, "--temp-lag-mode", mode]
                backtest(f"backtest-s{seed}-{mode}-{setting}", data, first, last, flags)
                forecast(f"forecast-s{seed}-{mode}-{setting}", data, last, flags)

    year = synth(1, 400)
    for mode, setting in (("hour", "ols-off"), ("hour", "ols-grid"), ("day", "ols-off")):
        backtest(f"backtest-391d-{mode}-{setting}", year, first, first + dt.timedelta(days=390),
                 [*SETTINGS[setting], "--temp-lag-mode", mode])
    # 50 days of exact ML on the decay grid: three full runs and a short one.
    backtest("backtest-50d-hour-exact-grid", year, first, first + dt.timedelta(days=49),
             SETTINGS["exact-grid"])

    raw = out / "synth-s1-d40" / "data.csv"
    for label, factor in (("1e9", 1e9), ("1e150", 1e150), ("1e300", 1e300),
                          ("1.87e303", 1.8731585468859675e303)):
        data = scaled(raw, factor, inputs / f"scaled-{label}.csv")
        backtest(f"backtest-x{label}", data, first, last, SETTINGS["exact-grid"])
        forecast(f"forecast-x{label}", data, last, SETTINGS["exact-grid"])

    data = signed_zero_temps(raw, inputs / "signed-zero.csv")
    backtest("backtest-signed-zero", data, first, last, SETTINGS["ols-off"])
    forecast("forecast-signed-zero", data, last, SETTINGS["ols-off"])
    backtest("backtest-signed-zero-grid", data, first, last, SETTINGS["ols-grid"])
    forecast("forecast-signed-zero-grid", data, last, SETTINGS["ols-grid"])

    # A load of 0 at hour 17 of a history day, mid-range and on the last
    # day: the backtest exits 2 before it fits any day.
    for label, day, setting in (("history", START + dt.timedelta(days=4), "ols-off"),
                                ("mid", first + dt.timedelta(days=13), "ols-grid"),
                                ("last", last, "exact-grid")):
        data = with_loads(raw, day, range(17, 18), "0.0", inputs / f"zero-{label}.csv")
        backtest(f"backtest-zero-{label}", data, first, last, SETTINGS[setting])

    # Three days in one run, the middle one built so that its recoherence
    # difference vanishes: it aborts at Eq. (8) between two scored days.
    degenerate = dt.date(2004, 5, 10)
    data = inputs / "recoherence.csv"
    data.write_text(serialize_csv(recoherence_backtest_records(degenerate, tail_days=1)))
    backtest("backtest-mid-run-eq8", data, degenerate - dt.timedelta(days=1),
             degenerate + dt.timedelta(days=1), [])
    # The same day as a forecast: its scalar chain aborts, and it exits 3.
    forecast("forecast-recoherence-eq8", data, degenerate, [])

    # Actual loads of 1e-307 on the last day: its MMREs overflow to inf.
    data = with_loads(raw, last, range(1, 25), "1e-307", inputs / "tiny-actual.csv")
    backtest("backtest-tiny-actual", data, last - dt.timedelta(days=1), last, [])

    # Nine days of history are missing before the first target; the weather
    # file lacks the target's hour 17.
    backtest("backtest-coverage", raw, START + dt.timedelta(days=4), last, [])
    hist, fc = split_forecast_inputs(raw, last, inputs / "forecast-coverage")
    fc.write_text("".join(ln for ln in fc.read_text().splitlines(keepends=True)
                          if ",17,," not in ln))
    lines.append(run("forecast-coverage", [
        "forecast", "--history", str(hist), "--temp-forecast", str(fc),
        "--target-date", last.isoformat(), "--critical-values", str(cv), "--out", "-"], out))

    # Temperatures that synth cannot make: model c's day-lag designs are
    # full rank, so its searches run on the Gram path.
    data = inputs / "perturbed.csv"
    data.write_text(serialize_csv(perturbed_temperatures(synth_dataset(SynthParams(seed=1)))))
    flags = [*SETTINGS["exact-grid"], "--temp-lag-mode", "day"]
    backtest("backtest-perturbed-day-exact-grid", data, first, last, flags)
    forecast("forecast-perturbed-day-exact-grid", data, last, flags)
    return lines


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    print("\n".join([*environment(), *digest(Path(argv[0]))]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
