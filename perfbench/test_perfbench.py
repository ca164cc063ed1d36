"""Tests of the benchmark itself (not of the engine).

    python3 -m pytest -q perfbench

Reduced-size ("smoke") runs of every workload must pass their checks and
emit every metric BENCHMARK.json names; a perturbed reference value must
make operations fail, which shows the output check can fail.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()


@pytest.fixture(scope="module")
def smoke_results():
    return {
        name: run.run_workload(name, workloads.DEFAULT_SEED, 0.0, trace=True, smoke=True)
        for name in workloads.WORKLOADS
    }


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_its_checks(smoke_results, workload):
    result = smoke_results[workload]
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert result["values"]["failed_frac"] == 0.0
    assert result["lambda_flips"] == []


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_in_benchmark_json_is_emitted(smoke_results, workload):
    result = smoke_results[workload]
    for section in ("end_to_end", "per_layer"):
        names = [m["name"] for m in SPEC[section]]
        as_run = dict(result, trace=section == "per_layer")
        metrics = run.emitted(as_run, SPEC)
        assert list(metrics) == names
        for metric in metrics.values():
            assert isinstance(metric["value"], (int, float))
    for metric in SPEC["end_to_end"]:
        assert result["values"][metric["name"]] > 0, metric["name"]


def test_workloads_in_benchmark_json_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _perturbed(workload: str, edit) -> dict:
    reference = copy.deepcopy(checks.load_reference(workload, workloads.DEFAULT_SEED))
    edit(reference)
    return reference


def test_perturbed_backtest_reference_fails_operations():
    workload = "backtest_exactml_31d"
    first_day = workloads.plan(workload, smoke=True)["cycle"][0]["dates"][0]

    def edit(reference):
        reference["rows"][first_day]["mmre_ensemble"] *= 1.0 + 1e-6

    result = run.run_workload(workload, workloads.DEFAULT_SEED, 0.0, trace=False,
                              smoke=True, reference=_perturbed(workload, edit))
    assert not result["correct"]
    assert result["values"]["failed_frac"] > 0
    assert any(first_day in p and "mmre_ensemble" in p for p in result["problems"])


def test_perturbed_forecast_reference_fails_operations():
    workload = "forecast_1y_history"
    day = workloads.plan(workload, smoke=True)["cycle"][-1]["key"]

    def edit(reference):
        reference["reports"][day]["price_c"] *= 1.0 + 1e-6

    result = run.run_workload(workload, workloads.DEFAULT_SEED, 0.0, trace=False,
                              smoke=True, reference=_perturbed(workload, edit))
    assert result["failed"] == 1
    assert result["values"]["failed_frac"] > 0


def test_lambda_flip_is_reported_by_name():
    reference = {"lambdas": {"2004-01-10/a": 0.3}}
    flips = checks.lambda_flips({"2004-01-10/a": [0.4], "2004-01-10/b": [0.1, 0.2]}, reference)
    assert flips == ["2004-01-10/a: lambda 0.4 != reference 0.3",
                     "2004-01-10/b: lambda varies between repeats [0.1, 0.2]"]


def test_float_tolerance_is_1e9_relative():
    assert checks.close(1000.0, 1000.0 * (1 + 5e-10))
    assert not checks.close(1000.0, 1000.0 * (1 + 5e-9))
    problems: list[str] = []
    checks._diff({"x": [1.0, True]}, {"x": [1.0, False]}, "r", problems)
    assert problems == ["r.x[1]: True != reference False"]


def test_no_program_means_non_zero_exit_and_no_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "backtest_exactml_31d", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_tracer_restores_every_patched_name():
    import tracing

    tracer = tracing.Tracer()
    modules = {m: __import__(m, fromlist=["_"]) for m, _, _ in tracing.PATCHES}
    before = {(m, a): getattr(modules[m], a) for m, a, _ in tracing.PATCHES}
    tracer.install()
    assert all(getattr(modules[m], a) is not f for (m, a), f in before.items())
    assert tracer.uninstall()
    assert all(getattr(modules[m], a) is f for (m, a), f in before.items())


def test_reference_files_hold_json_for_both_seeds():
    for name in workloads.WORKLOADS:
        for seed in (workloads.DEFAULT_SEED, workloads.HOLDOUT_SEED):
            path = checks.reference_path(name, seed)
            assert json.loads(path.read_text())["lambdas"], path


def test_calibration_probe_keeps_every_time_and_restores_gc():
    import gc

    import calibration

    probe = calibration.Probe()
    times = [probe.measure(), probe.measure()]
    assert probe.times == times and all(t > 0 for t in times)
    assert gc.isenabled()


def test_times_are_scaled_by_host_slowness():
    import calibration

    slow = 2.0 * calibration.NOMINAL_S
    measured = {
        "runs": [{"phase": "timed", "traced": False, "seconds": s, "days": 1, "probes_before": k}
                 for k, s in enumerate((0.1, 0.2, 0.3), start=1)],
        "probes": [slow, slow],
        "maxrss_kb": 1024,
    }
    values, _, calib = run._end_to_end([0.5, 0.7, 0.6], [slow], measured, [2.0])
    assert calib["timed_factor"] == calib["setup_factor"] == 2.0
    assert values["days_per_s"] == pytest.approx(2.0 * 3 / 0.6)
    assert values["request_p50_ms"] == pytest.approx(100.0)
    assert values["setup_s"] == pytest.approx(0.3)
    assert calib["raw"]["setup_s"] == pytest.approx(0.6)
