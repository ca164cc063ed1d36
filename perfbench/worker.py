"""Benchmark worker: each phase of a run in its own fresh process.

    worker.py setup   --workload W --seed N [--smoke]
    worker.py measure --workload W --seed N --seconds S --result FILE
                      [--smoke] [--trace --spans FILE]

Both run in the workload's run directory.  ``setup`` synthesizes
``data.csv`` through ``dayahead.cli.main`` and derives the command inputs.
``measure`` runs one warm-up command, then the workload's command cycle
back to back until ``--seconds`` have passed and the cycle has run at least
once; it times each ``cli.main`` call, keeps the first output of every
command and checks that repeats are byte-identical.  Between commands it
times the calibration kernel (calibration.py), for about
CALIBRATION_SHARE of the command time, so that the orchestrator can take
the host's speed out of the figures.  With ``--trace`` every
other command runs with the per-layer tracer installed, and a traced
``synth`` reproduces the set-up.  Results go to ``--result`` as JSON; the
orchestrator (run.py) checks them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import calibration
import workloads

# Time spent on the calibration kernel per second of command time.
CALIBRATION_SHARE = 0.25
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def setup(args) -> int:
    from dayahead import cli

    code = cli.main(workloads.synth_argv(args.workload, args.seed, "data.csv"))
    if code == 0:
        workloads.write_inputs(args.workload, args.smoke, Path.cwd())
    return code


def _environment() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure(args) -> int:
    from dayahead import cli

    commands = workloads.plan(args.workload, args.smoke)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    runs: list[dict] = []
    outputs: dict[str, dict] = {"untraced": {}, "traced": {}}
    restored = True
    probe = calibration.Probe()
    result = {"environment": _environment(), "runs": runs, "outputs": outputs,
              "probes": probe.times}
    owed = 0.0

    def call(argv: list[str], phase: str, traced: bool) -> tuple[int, float]:
        nonlocal restored
        if traced:
            tracer.set_phase(phase)
            tracer.install()
        try:
            start = time.perf_counter()
            code = cli.main(argv)
            return code, time.perf_counter() - start
        finally:
            if traced:
                restored = tracer.uninstall() and restored

    def execute(cmd: dict, phase: str, traced: bool = False) -> None:
        nonlocal owed
        probes_before = len(probe.times)
        out = Path(cmd["out"])
        out.unlink(missing_ok=True)
        code, seconds = call(cmd["argv"], phase, traced)
        text = out.read_text(encoding="utf-8") if code == 0 else None
        mode = outputs["traced" if traced else "untraced"]
        first = mode.setdefault(cmd["key"], text) if text is not None else None
        runs.append({
            "key": cmd["key"],
            "phase": phase,
            "traced": traced,
            "seconds": seconds,
            "exit": code,
            "days": len(cmd["dates"]),
            "probes_before": probes_before,
            "repeat_identical": text is not None and text == first,
        })
        owed += CALIBRATION_SHARE * seconds
        while owed > 0.0:
            owed -= probe.measure()

    if tracer:
        code, _ = call(workloads.synth_argv(args.workload, args.seed, "traced_data.csv"),
                       "setup", True)
        result["traced_setup_identical"] = code == 0 and (
            Path("traced_data.csv").read_bytes() == Path("data.csv").read_bytes()
        )
    execute(commands["warmup"], "warmup")
    cycle = commands["cycle"]
    n = len(cycle)
    # A traced run alternates traced and untraced commands, so both see the
    # same machine state, and runs the cycle at least twice.  With an even
    # cycle length the parity shifts each pass, so every command runs both
    # ways.
    passes = 2 if tracer else 1
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < passes * n or time.perf_counter() < deadline:
        traced = tracer is not None and (i + (i // n) * (1 - n % 2)) % 2 == 1
        execute(cycle[i % n], "timed", traced)
        i += 1
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        result["trace_restored"] = restored
        result["layers"] = {phase: tracer.summary(phase) for phase in ("setup", "timed")}
        result["counts"] = {phase: dict(c) for phase, c in tracer.counts.items()}
        result["lambdas"] = {
            f"{date}/{model}": sorted(lams) for (date, model), lams in tracer.lambdas.items()
        }
        tracer.write_spans(args.spans)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    return setup(args) if args.mode == "setup" else measure(args)


if __name__ == "__main__":
    sys.exit(main())
