#!/usr/bin/env python3
"""The dayahead benchmark.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a checkout.  Without ``--workload`` it runs every
workload in turn.  Each run sets up the workload's inputs several times in
fresh interpreters (``setup_s`` is their median), then measures the
workload in a fresh single-threaded worker process for ``--seconds``
seconds, checks every output, and prints every metric by name with its unit
and direction.  Every time of an end-to-end metric is scaled by the speed
of a fixed calibration kernel timed between the set-ups and between the
commands (calibration.py), which takes the host's drifting speed out.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are BENCHMARK.json's ``end_to_end`` ones, with ``--trace 1`` its
``per_layer`` ones, taken from every other command, which runs with the
tracer installed.  The full result, with the environment block, goes to
``perfbench/_results/``.

``--write-reference`` regenerates the stored reference outputs for the
given seed (default and holdout seeds only).  Do it only when the output
contract changes on purpose: later changes are checked against them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = HERE / "_work"
RESULTS_DIR = HERE / "_results"

SETUP_REPEATS = 5
# The latency tail is reported at this fixed percentile so that it compares
# across commits.  In a 35 s run the forecast workload completes over 100
# requests, so at least 10 samples lie beyond it; each run prints the count.
TAIL_PERCENTILE = 90
# A command's time is scaled by the probes this many places either side of
# it: the end of the batch before a backtest command and the start of the
# one after it, or about 3 s of forecast requests.  Nearer probes track the
# host better; fewer are noisier.
PROBE_REACH = 2
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

TIMED_LAYERS = (
    "cli.main",
    "ingest.parse_csv",
    "ingest.assemble_window",
    "features.design_matrix",
    "features.koyck_transform",
    "features.target_regressors",
    "regress.fit_model",
    "regress.exact_ml_ar1_fit",
    "regress.ols_fit",
    "regress.forecast_day",
    "regress.ensemble_mean",
    "regress.lstsq",
    "thermo.compute_state",
    "verdict.time_tests",
    "verdict.energy_test",
    "report.build_report",
    "report.serialize_report",
    "report.daily_relative_error",
    "backtest.run_backtest",
    "backtest.render_backtest_csv",
    "pipeline.run_day",
)
COUNTED_LAYERS = (
    "ingest.assemble_window",
    "features.design_matrix",
    "features.koyck_transform",
    "regress.fit_model",
    "regress.lstsq",
    "pipeline.run_day",
)


class BenchError(Exception):
    """The benchmark could not measure: no result line is printed."""


def _env() -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(args: list[str], cwd: Path, timeout: float) -> float:
    """Run one worker process to completion; returns its wall time."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=cwd, env=_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} exceeded {timeout:.0f} s") from None
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return elapsed


def _pin_to_one_cpu() -> None:
    """Keep this process and every worker it starts on one CPU, so that the
    calibration probes time the same core as the set-ups and commands."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _tree_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(str(file.relative_to(path)).encode())
        digest.update(file.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    """Where and on what a result was measured (worker adds numpy/BLAS)."""
    sources = sorted((ROOT / "src").rglob("*.py"))
    cpu = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text(errors="replace").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources),
        "src_sha256": _tree_digest(ROOT / "src" / "dayahead"),
        "git_commit": commit,
        "seed": seed,
    }


def _setups(work: Path, workload: str, seed: int, smoke: bool) -> tuple[list[float], list[float]]:
    """Set the workload up SETUP_REPEATS times in fresh interpreters; every
    set-up must produce the same files.  Keeps the first in ``setup0``.

    Returns the set-up times and the calibration probes taken before the
    first set-up and after each one.
    """
    times, digests = [], set()
    probe = calibration.Probe()
    probe.measure()
    for k in range(SETUP_REPEATS):
        run_dir = work / f"setup{k}"
        run_dir.mkdir(parents=True)
        args = ["setup", "--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
        times.append(_worker(args, run_dir, timeout=120))
        probe.measure()
        digests.add(_tree_digest(run_dir))
        if k:
            shutil.rmtree(run_dir)
    if len(digests) != 1:
        raise BenchError("repeated set-ups produced different input files")
    return times, probe.times


def _measure(run_dir: Path, workload: str, seed: int, seconds: float, smoke: bool,
             spans: Path | None) -> dict:
    result_path = run_dir / "measure.json"
    args = ["measure", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--result", str(result_path)]
    if smoke:
        args.append("--smoke")
    if spans:
        args += ["--trace", "--spans", str(spans)]
    _worker(args, run_dir, timeout=seconds + 150)
    return json.loads(result_path.read_text(encoding="utf-8"))


def _actual_loads(data_csv: Path) -> dict[str, list[float]]:
    loads: dict[str, list[float]] = {}
    for line in data_csv.read_text(encoding="utf-8").splitlines()[1:]:
        date, _hour, load, _temp = line.split(",")
        loads.setdefault(date, []).append(float(load))
    return loads


def _check_outputs(workload: str, dates: dict, outputs: dict, reference, actual) -> dict:
    """Per output key: days with problems, problems of the whole output, and
    the ensemble daily errors (%) of its scored days."""
    verdicts = {}
    for key, text in outputs.items():
        if workloads.WORKLOADS[workload]["kind"] == "backtest":
            per_day, whole, errors = checks.check_backtest(text, dates[key], reference)
        else:
            problems, error = checks.check_report(text, key, reference, actual[key])
            per_day, whole = ({key: problems} if problems else {}), []
            errors = [] if problems else [error]
        verdicts[key] = {"per_day": per_day, "whole": whole, "errors": errors}
    return verdicts


def _tally(runs: list[dict], verdicts: dict, dates: dict,
           bad_keys=frozenset(), bad_dates=frozenset()) -> tuple[int, int]:
    """(attempted, failed) operations: a forecast command or a backtest day.

    A run fails whole on a non-zero exit, a repeat that differs from the
    first output, a problem of the whole output or, when traced, a key in
    ``bad_keys``; otherwise its days with problems, or in ``bad_dates``, fail.
    """
    attempted = failed = 0
    for run in runs:
        attempted += run["days"]
        verdict = verdicts.get(run["key"])
        if (run["exit"] != 0 or not run["repeat_identical"] or verdict is None
                or verdict["whole"] or (run["traced"] and run["key"] in bad_keys)):
            failed += run["days"]
        else:
            failed += len(set(verdict["per_day"]) | (set(bad_dates) & set(dates[run["key"]])))
    return attempted, failed


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def _timed(result: dict, traced: bool) -> list[dict]:
    return [r for r in result["runs"] if r["phase"] == "timed" and r["traced"] == traced]


def _throughput(runs: list[dict]) -> float:
    return sum(r["days"] for r in runs) / sum(r["seconds"] for r in runs)


def _scaled_seconds(runs: list[dict], probes: list[float]) -> list[float]:
    """Each command's time divided by the host's slowness factor around it:
    that of the PROBE_REACH probes taken before it and after it."""
    return [r["seconds"] / calibration.factor(
                probes[max(0, r["probes_before"] - PROBE_REACH):r["probes_before"] + PROBE_REACH])
            for r in runs]


def _end_to_end(setup_times: list[float], setup_probes: list[float], measured: dict,
                mmre: list[float]) -> tuple[dict, dict, dict]:
    """End-to-end values, their raw (unscaled) times and the sample counts
    behind them.  Times are divided by the host's slowness factor: set-up
    times by that of the probes between the set-ups, each command's time by
    that of the probes around it."""
    runs = _timed(measured, traced=False)
    seconds = [r["seconds"] for r in runs]
    scaled = _scaled_seconds(runs, measured["probes"])
    beyond = len(seconds) - math.ceil(TAIL_PERCENTILE / 100.0 * len(seconds))
    raw = {
        "setup_s": statistics.median(setup_times),
        "days_per_s": _throughput(runs),
        "request_p50_ms": 1000.0 * statistics.median(seconds),
        "request_tail_ms": 1000.0 * _percentile(seconds, TAIL_PERCENTILE),
    }
    setup_factor = calibration.factor(setup_probes)
    timed_factor = calibration.factor(measured["probes"])
    values = {
        "setup_s": raw["setup_s"] / setup_factor,
        "days_per_s": sum(r["days"] for r in runs) / sum(scaled),
        "request_p50_ms": 1000.0 * statistics.median(scaled),
        "request_tail_ms": 1000.0 * _percentile(scaled, TAIL_PERCENTILE),
        "peak_rss_mb": measured["maxrss_kb"] / 1024.0,
        "mmre_ensemble_pct": statistics.fmean(mmre),
    }
    samples = {"setups": len(setup_times), "requests": len(seconds),
               "tail": f"p{TAIL_PERCENTILE}", "tail_samples_beyond": beyond,
               "setup_probes": len(setup_probes), "timed_probes": len(measured["probes"])}
    calib = {"setup_factor": setup_factor, "timed_factor": timed_factor, "raw": raw,
             "timed_seconds": seconds, "timed_probes_before": [r["probes_before"] for r in runs],
             "probes": measured["probes"]}
    return values, samples, calib


def _per_layer(measured: dict) -> dict:
    """Per-layer values from the traced commands of the timed phase, per
    target day."""
    layers, counts = measured["layers"]["timed"], measured["counts"]["timed"]
    traced = _timed(measured, traced=True)
    days = sum(r["days"] for r in traced)
    values = {}
    for name in TIMED_LAYERS:
        values[f"{name}.self_ms"] = 1000.0 * layers.get(name, {}).get("self_s", 0.0) / days
    for name in COUNTED_LAYERS:
        values[f"{name}.calls"] = layers.get(name, {}).get("calls", 0) / days
    for name in ("ingest.rows_parsed", "ingest.records_scanned"):
        values[name] = counts.get(name, 0) / days
    setup = measured["layers"]["setup"].get("ingest.serialize_csv", {})
    values["ingest.serialize_csv.self_ms"] = 1000.0 * setup.get("self_s", 0.0)
    searches = counts.get("regress.rho_searches", 0)
    values["regress.rho_iterations"] = (
        counts.get("regress.rho_iterations", 0) / searches if searches else 0.0
    )
    designs = layers.get("features.design_matrix", {}).get("calls", 0)
    fits = layers.get("regress.fit_model", {}).get("calls", 0)
    values["regress.lambda_kept_frac"] = fits / designs if designs else 0.0
    values["backtest.days_aborted"] = counts.get("backtest.days_aborted", 0)
    values["pipeline.degeneracies"] = counts.get("pipeline.degeneracies", 0)
    values["trace.overhead_frac"] = (
        1.0 - _throughput(traced) / _throughput(_timed(measured, traced=False))
    )
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, reference=None) -> dict:
    """Set up, measure and check one workload; returns the full result.

    ``reference`` defaults to the stored reference outputs for ``seed``
    (none for most seeds: then only the invariants are checked).
    """
    if reference is None:
        reference = checks.load_reference(workload, seed)
    commands = workloads.plan(workload, smoke)
    kind = workloads.WORKLOADS[workload]["kind"]
    _pin_to_one_cpu()
    work = WORK_DIR / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    RESULTS_DIR.mkdir(exist_ok=True)
    spans = RESULTS_DIR / f"{workload}-spans.jsonl" if trace else None
    try:
        setup_times, setup_probes = _setups(work, workload, seed, smoke)
        run_dir = work / "setup0"
        measured = _measure(run_dir, workload, seed, seconds, smoke, spans)
        actual = _actual_loads(run_dir / "data.csv") if kind == "forecast" else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outputs, traced_outputs = measured["outputs"]["untraced"], measured["outputs"]["traced"]
    dates = {cmd["key"]: cmd["dates"] for cmd in [commands["warmup"], *commands["cycle"]]}
    problems: list[str] = []
    verdicts = _check_outputs(workload, dates, outputs, reference, actual)
    for key, verdict in verdicts.items():
        problems += [f"{key}: {p}" for p in verdict["whole"]]
        problems += [f"{day}: {p}" for day, ps in verdict["per_day"].items() for p in ps]
    for run in measured["runs"]:
        if run["exit"] != 0:
            problems.append(f"{run['key']}: exit code {run['exit']}")
        elif not run["repeat_identical"]:
            problems.append(f"{run['key']}: repeat output differs from the first")
    differs = {key for key, text in traced_outputs.items() if outputs.get(key) != text}
    problems += [f"{key}: traced output differs from untraced" for key in sorted(differs)]
    flips: list[str] = []
    if trace:
        if not measured["traced_setup_identical"]:
            problems.append("traced synth output differs from the set-up's")
        if not measured["trace_restored"]:
            problems.append("tracer left a patched name behind")
        flips = checks.lambda_flips(measured["lambdas"], reference)
        problems += [f"lambda flip {flip}" for flip in flips]
    flipped = {flip.split("/")[0] for flip in flips}
    attempted, failed = _tally(measured["runs"], verdicts, dates, differs, flipped)

    if kind == "backtest":
        mmre = verdicts.get("backtest", {"errors": []})["errors"]
    else:
        mmre = [e for cmd in commands["cycle"]
                for e in verdicts.get(cmd["key"], {"errors": []})["errors"]]
    if not mmre:
        raise BenchError(f"{workload}: no day could be scored: {problems[:5]}")
    values, samples, calib = _end_to_end(setup_times, setup_probes, measured, mmre)
    if trace:
        values.update(_per_layer(measured))
    values["failed_frac"] = failed / attempted

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "environment": {**environment(seed), **measured["environment"]},
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "lambda_flips": flips,
        "samples": samples,
        "calibration": calib,
        "values": values,
        "outputs": outputs,
        "lambdas": measured.get("lambdas", {}),
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def emitted(result: dict, spec: dict) -> dict:
    """The metrics of the result line: BENCHMARK.json's per_layer metrics
    for a traced run, else its end_to_end ones, with their units."""
    section = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    return {m["name"]: {"value": result["values"][m["name"]], "unit": m["unit"]}
            for m in section}


def report(result: dict, spec: dict) -> None:
    """Human-readable summary (everything before the result line)."""
    env = result["environment"]
    print(f"== {result['workload']}  seed={result['seed']}  seconds={result['seconds']}"
          f"  trace={int(result['trace'])}")
    print(f"   python {env['python']} | numpy {env['numpy']} | {env['blas']} "
          f"| BLAS threads {env['blas_threads_env']} | nproc {env['nproc']} | {env['cpu']}")
    print(f"   src {env['src_lines']} lines | commit {env['git_commit'] or 'n/a (not a git checkout)'}"
          f" | src sha256 {env['src_sha256'][:16]}")
    s = result["samples"]
    print(f"   samples: {s['setups']} set-ups, {s['requests']} timed requests; tail = {s['tail']} "
          f"with {s['tail_samples_beyond']} samples beyond it"
          + (" (fewer than 10: indicative only)" if s["tail_samples_beyond"] < 10 else ""))
    c = result["calibration"]
    print(f"   host slowness (mean probe / {calibration.NOMINAL_S} s): set-up {c['setup_factor']:.4f} "
          f"over {s['setup_probes']} probes, timed {c['timed_factor']:.4f} over {s['timed_probes']} probes; "
          "raw: " + ", ".join(f"{k} {v:.6g}" for k, v in c["raw"].items()))
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in result["values"].items():
        better = f"({directions[name]} is better)" if name in directions else ""
        unit = units.get(name, "fraction")
        print(f"   {name:38s} {value:14.6g} {unit:12s} {better}")
    if result["trace"]:
        per_day = {f"{name}.self_ms": result["values"][f"{name}.self_ms"] for name in TIMED_LAYERS}
        total = sum(per_day.values())
        shares = sorted(((v / total, k) for k, v in per_day.items()), reverse=True)
        print("   self-time share: " + ", ".join(f"{k[:-8]} {share:.1%}" for share, k in shares[:8]))
    print(f"   checks: attempted {result['attempted']} failed {result['failed']} "
          f"failed_frac {result['values']['failed_frac']:.6g}; lambda flips: "
          + (", ".join(result["lambda_flips"]) or "none"))
    for problem in result["problems"][:20]:
        print(f"   PROBLEM {problem}")
    if len(result["problems"]) > 20:
        print(f"   ... {len(result['problems']) - 20} more problems")


def save(result: dict) -> Path:
    path = RESULTS_DIR / f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json"
    path.write_text(json.dumps({k: v for k, v in result.items() if k != "outputs"}, indent=1),
                    encoding="utf-8")
    return path


def write_reference(workload: str, seed: int) -> Path:
    result = run_workload(workload, seed, 0.0, trace=True, reference={})
    if not result["correct"]:
        raise BenchError(f"{workload}: outputs fail their invariants: {result['problems'][:5]}")
    kind = workloads.WORKLOADS[workload]["kind"]
    path = checks.reference_path(workload, seed)
    path.parent.mkdir(exist_ok=True)
    ref = checks.reference_from(kind, result["outputs"], result["lambdas"])
    path.write_text(json.dumps(ref) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help=f"input seed (default {workloads.DEFAULT_SEED}; "
                             f"holdout for re-checking claims: {workloads.HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dayahead" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'dayahead'} is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        if args.write_reference:
            if args.seed not in (workloads.DEFAULT_SEED, workloads.HOLDOUT_SEED):
                raise BenchError("references are kept for the default and holdout seeds only")
            for name in names:
                print(f"wrote {write_reference(name, args.seed)}")
            return 0
        results = [run_workload(name, args.seed, seconds, bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for result in results:
        report(result, spec)
        print(f"   full result: {save(result).relative_to(ROOT)}")
    metrics = {}
    for result in results:
        prefix = "" if args.workload else f"{result['workload']}."
        metrics.update({prefix + k: v for k, v in emitted(result, spec).items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
