"""Command-line surface.

Three subcommands tie the pipeline together::

    dayahead synth    --days 40 --seed 1 --out data.csv
    dayahead forecast --history h.csv --temp-forecast f.csv \\
                      --target-date 2004-05-10 --critical-values cv.json
    dayahead backtest --data data.csv --from 2004-02-10 --to 2004-03-11 \\
                      --critical-values cv.json --report out.csv

Exit codes partition disjointly: 0 success, 2 input or validation error,
3 numerical degeneracy (the message on stderr names the failing equation).
``--out -`` writes to standard output; nothing else is printed there.
"""

from __future__ import annotations

import argparse
import datetime as dt
import functools
import sys
from pathlib import Path

from . import report
from .backtest import render_backtest_csv, run_backtest
from .errors import DegeneracyError, ValidationError
from .features import LAMBDA_GRID
from .ingest import SynthParams, assemble_window, parse_csv, serialize_csv, synth_dataset
from .pipeline import run_day
from .regress import EngineSettings
from .report import serialize_report
from .verdict import load_critical_values

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERACY = 3


def _parse_date(text: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise ValidationError(f"bad ISO date {text!r}") from None


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot read {path}: not UTF-8 at byte {exc.start}") from None


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None


def _parse_koyck(value: str) -> tuple[float, ...]:
    """The Koyck decays a ``--koyck`` value lets each model choose from."""
    if value == "grid":
        return LAMBDA_GRID
    if value == "off":
        return (0.0,)
    if value.startswith("fixed="):
        try:
            lam = float(value[len("fixed="):])
        except ValueError:
            raise ValidationError(f"bad koyck value {value!r}") from None
        if not 0.0 <= lam < 1.0:
            raise ValidationError("fixed koyck decay must lie in [0, 1)")
        return (lam,)
    raise ValidationError(f"bad koyck policy {value!r} (grid|off|fixed=<decay>)")


def _settings(args) -> EngineSettings:
    method = {"ols": "ols", "exact-ml": "exact_ml_ar1"}[args.method]
    return EngineSettings(method, _parse_koyck(args.koyck), args.temp_lag_mode)


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--temp-lag-mode", choices=("hour", "day"), default="hour")
    parser.add_argument("--method", choices=("ols", "exact-ml"), default="exact-ml")
    parser.add_argument("--koyck", default="grid", metavar="grid|off|fixed=<decay>")


def cmd_forecast(args) -> int:
    history = parse_csv(_read_text(args.history))
    forecast = parse_csv(_read_text(args.temp_forecast))
    target = _parse_date(args.target_date)
    cv = load_critical_values(_read_text(args.critical_values))
    window = assemble_window(history + forecast, target)
    echoed = ("history", "temp_forecast", "target_date", "critical_values", "out",
              "temp_lag_mode", "method", "koyck")
    config = {key: getattr(args, key) for key in echoed}
    _write_text(args.out, serialize_report(forecast_report(window, cv, _settings(args), config)))
    return EXIT_OK


def forecast_report(window, critical_values, settings, config):
    """A one-day window's report: the day as a run of one through ``run_day``,
    then ``build_report``.  An aborted day raises its degeneracy."""
    forecasts, ensemble, [day] = run_day(window, critical_values, settings)
    if isinstance(day, DegeneracyError):
        raise day
    return report.build_report(window.target_date, forecasts[:, 0], ensemble[0], day, config)


def cmd_backtest(args) -> int:
    dataset = parse_csv(_read_text(args.data))
    cv = load_critical_values(_read_text(args.critical_values))
    rows, monthly = run_backtest(
        dataset,
        _parse_date(args.from_date),
        _parse_date(args.to_date),
        cv,
        _settings(args),
    )
    _write_text(args.report, render_backtest_csv(rows, monthly))
    return EXIT_OK


def cmd_synth(args) -> int:
    params = SynthParams(
        days=args.days,
        base_mw=args.base_mw,
        peak_amp_mw=args.peak_amp_mw,
        temp_sensitivity_pct_per_2c=args.temp_sensitivity,
        ar_rho=args.ar_rho,
        noise_sd_mw=args.noise_sd_mw,
        seed=args.seed,
        start_date=_parse_date(args.start_date),
        temp_base_c=args.temp_base_c,
        temp_amp_c=args.temp_amp_c,
        temp_offset_c=args.temp_offset_c,
    )
    _write_text(args.out, serialize_csv(synth_dataset(params)))
    return EXIT_OK


# Built once per process: building it costs about 1 ms, and parsing leaves
# it unchanged.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dayahead",
        description="Day-ahead load and price forecasting engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_forecast = sub.add_parser("forecast", help="forecast one target day")
    p_forecast.add_argument("--history", required=True)
    p_forecast.add_argument("--temp-forecast", required=True)
    p_forecast.add_argument("--target-date", required=True)
    p_forecast.add_argument("--critical-values", required=True)
    p_forecast.add_argument("--out", default="-")
    _add_model_flags(p_forecast)
    p_forecast.set_defaults(func=cmd_forecast)

    p_backtest = sub.add_parser("backtest", help="evaluate over a date range")
    p_backtest.add_argument("--data", required=True)
    p_backtest.add_argument("--from", dest="from_date", required=True)
    p_backtest.add_argument("--to", dest="to_date", required=True)
    p_backtest.add_argument("--critical-values", required=True)
    p_backtest.add_argument("--report", required=True)
    _add_model_flags(p_backtest)
    p_backtest.set_defaults(func=cmd_backtest)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--days", type=int, required=True)
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--out", default="-")
    p_synth.add_argument("--base-mw", type=float, default=4200.0)
    p_synth.add_argument("--peak-amp-mw", type=float, default=600.0)
    p_synth.add_argument("--temp-sensitivity", type=float, default=4.6)
    p_synth.add_argument("--ar-rho", type=float, default=0.6)
    p_synth.add_argument("--noise-sd-mw", type=float, default=40.0)
    p_synth.add_argument("--start-date", default="2004-01-01")
    p_synth.add_argument("--temp-base-c", type=float, default=10.0)
    p_synth.add_argument("--temp-amp-c", type=float, default=6.0)
    p_synth.add_argument("--temp-offset-c", type=float, default=0.0)
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"dayahead: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DegeneracyError as exc:
        print(f"dayahead: degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERACY


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
