"""Output checks: stored reference outputs, and invariants for any seed.

The reference files under ``reference/`` hold this benchmark's outputs at
the default and holdout seeds, produced by the scalar path the benchmark
was written against.  Statuses, verdicts and other non-float fields must
match exactly; every float (forecasts, MMRE, delta_pct, price, ...) within
1e-9 relative, the tolerance ROADMAP item 3 allows a faster path.  The
invariants below need no reference and hold at every seed.  The checks
parse the program's outputs themselves and import nothing from it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-9
# Lets a value that is zero in one output and a rounding residue in the
# other compare equal; far below any reported quantity's scale.
ABS_TOL = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

BACKTEST_HEADER = "date,mmre_a,mmre_b,mmre_c,mmre_ensemble,delta_pct,status"
BACKTEST_FLOATS = ("mmre_a", "mmre_b", "mmre_c", "mmre_ensemble", "delta_pct")


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.json"


def load_reference(workload: str, seed: int):
    path = reference_path(workload, seed)
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def parse_backtest(text: str) -> tuple[dict, list]:
    """Backtest CSV -> ({date: row}, [(year_month, mmre_ensemble, excluded)])."""
    body, marker, trailer = text.partition("# monthly\n")
    lines = body.rstrip("\n").split("\n")
    if not marker or lines[0] != BACKTEST_HEADER:
        raise ValueError("backtest CSV lacks its header or monthly trailer")
    rows = {}
    for line in lines[1:]:
        date, *numbers, status = line.split(",")
        if len(numbers) != len(BACKTEST_FLOATS):
            raise ValueError(f"bad backtest row {line!r}")
        rows[date] = {"status": status}
        for key, cell in zip(BACKTEST_FLOATS, numbers):
            rows[date][key] = float(cell) if cell else None
    tlines = trailer.rstrip("\n").split("\n")
    if tlines[0] != "year_month,mmre_ensemble,excluded_days":
        raise ValueError("bad monthly trailer header")
    monthly = []
    for line in tlines[1:]:
        month, value, excluded = line.split(",")
        monthly.append((month, float(value) if value else None, int(excluded)))
    return rows, monthly


def check_backtest(text: str, dates: list[str], reference) -> tuple[dict, list, list]:
    """Check one backtest output.

    Returns ({date: [problems]}, [problems of the whole output], ensemble
    MMRE of each scored day).  An aborted day is a problem of that day.
    """
    try:
        rows, monthly = parse_backtest(text)
    except ValueError as exc:
        return {}, [f"unparseable backtest output: {exc}"], []
    per_day: dict[str, list] = {}
    whole: list[str] = []
    if list(rows) != dates:
        whole.append(f"rows cover {len(rows)} days, expected {len(dates)} from {dates[0]}")
    ref_rows = reference["rows"] if reference else {}
    mmre = []
    for date, row in rows.items():
        problems = per_day.setdefault(date, [])
        if row["status"] != "ok":
            problems.append(f"status {row['status']}")
        elif not all(row[k] is not None and math.isfinite(row[k]) for k in BACKTEST_FLOATS):
            problems.append("missing or non-finite value")
        else:
            mmre.append(row["mmre_ensemble"])
        ref = ref_rows.get(date)
        if ref is None:
            continue
        if row["status"] != ref["status"]:
            problems.append(f"status {row['status']} != reference {ref['status']}")
        for key in BACKTEST_FLOATS:
            got, want = row[key], ref[key]
            if (got is None) != (want is None) or (got is not None and not close(got, want)):
                problems.append(f"{key} {got!r} != reference {want!r}")
    expected = {}
    for date, row in rows.items():
        scored, excluded = expected.setdefault(date[:7], ([], [0]))
        if row["status"] == "ok":
            scored.append(row["mmre_ensemble"])
        else:
            excluded[0] += 1
    got_months = [m for m, _, _ in monthly]
    if got_months != list(expected):
        whole.append(f"monthly trailer months {got_months} != {list(expected)}")
    else:
        for month, value, excluded in monthly:
            scored, n_excluded = expected[month]
            want = sum(scored) / len(scored) if scored else None
            if excluded != n_excluded[0] or (value is None) != (want is None) or (
                value is not None and not close(value, want)
            ):
                whole.append(f"monthly {month}: {value!r}/{excluded} != {want!r}/{n_excluded[0]}")
    return {d: p for d, p in per_day.items() if p}, whole, mmre


def _numbers(obj):
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _numbers(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _numbers(value)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


def _diff(got, want, path: str, out: list) -> None:
    if isinstance(want, dict) and isinstance(got, dict):
        if list(got) != list(want):
            out.append(f"{path}: keys {list(got)} != {list(want)}")
            return
        for key in want:
            _diff(got[key], want[key], f"{path}.{key}", out)
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            out.append(f"{path}: length {len(got)} != {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _diff(g, w, f"{path}[{i}]", out)
    elif (isinstance(want, (int, float)) and isinstance(got, (int, float))
          and not isinstance(want, bool) and not isinstance(got, bool)):
        same = got == want if isinstance(want, int) and isinstance(got, int) else close(got, want)
        if not same:
            out.append(f"{path}: {got!r} != reference {want!r}")
    elif got != want or type(got) is not type(want):
        out.append(f"{path}: {got!r} != reference {want!r}")


def check_report(text: str, date: str, reference, actual: list[float]) -> tuple[list, float]:
    """Check one forecast report; returns (problems, ensemble daily error %).

    The daily error is the README's metric: mean absolute hourly error over
    the day's actual peak, in percent.
    """
    try:
        report = json.loads(text)
        ensemble = report["ensemble"]
        forecasts = [report["forecasts"][m] for m in ("a", "b", "c")]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable report: {exc}"], math.nan
    problems = []
    if report.get("target_date") != date:
        problems.append(f"target_date {report.get('target_date')!r} != {date}")
    if not all(math.isfinite(x) for x in _numbers(report)):
        problems.append("non-finite number in report")
    elif len(ensemble) != 24 or any(len(f) != 24 for f in forecasts):
        problems.append("profiles must have 24 hours")
    elif not all(close(e, (a + b + c) / 3.0) for e, a, b, c in zip(ensemble, *forecasts)):
        problems.append("ensemble is not the hourwise mean of models a, b, c")
    ref = (reference or {}).get("reports", {}).get(date)
    if ref is not None:
        _diff(report, ref, "report", problems)
    if problems:
        return problems, math.nan
    error = sum(abs(e - a) for e, a in zip(ensemble, actual)) / 24.0
    return problems, error / max(actual) * 100.0


def lambda_flips(chosen: dict, reference) -> list[str]:
    """Every (day, model) whose kept decay lambda differs from the reference
    or between repeats in one run, by name."""
    flips = []
    ref = (reference or {}).get("lambdas", {})
    for key, lams in sorted(chosen.items()):
        if len(lams) > 1:
            flips.append(f"{key}: lambda varies between repeats {lams}")
        elif key in ref and lams[0] != ref[key]:
            flips.append(f"{key}: lambda {lams[0]} != reference {ref[key]}")
    return flips


def reference_from(workload_kind: str, outputs: dict, lambdas: dict) -> dict:
    """Build a reference file's content from one checked run's outputs."""
    ref: dict = {"lambdas": {key: lams[0] for key, lams in sorted(lambdas.items())}}
    if workload_kind == "backtest":
        ref["rows"] = parse_backtest(outputs["backtest"])[0]
    else:
        ref["reports"] = {key: json.loads(text) for key, text in sorted(outputs.items())}
    return ref
