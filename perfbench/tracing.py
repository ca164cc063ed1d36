"""Per-layer spans taken from outside the program.

The tracer rebinds, for the duration of each traced command, the names through
which one ``dayahead`` module calls into another (and ``numpy.linalg.lstsq``)
to timing wrappers, then puts the originals back.  No file under ``src/``
changes.  Each call records a span: its name (the layer and function
entered), its parent span, start and end.  Spans stay in memory in flat
arrays and are written out when the run ends.  A layer's self time is its
span's duration minus the durations of its child spans, which nest without
overlap in a single-threaded process.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter

# (module where the caller looks the name up, attribute, span name)
PATCHES = (
    ("dayahead.cli", "main", "cli.main"),
    ("dayahead.cli", "parse_csv", "ingest.parse_csv"),
    ("dayahead.cli", "assemble_window", "ingest.assemble_window"),
    ("dayahead.cli", "serialize_csv", "ingest.serialize_csv"),
    ("dayahead.cli", "run_day", "pipeline.run_day"),
    ("dayahead.cli", "serialize_report", "report.serialize_report"),
    ("dayahead.cli", "run_backtest", "backtest.run_backtest"),
    ("dayahead.cli", "render_backtest_csv", "backtest.render_backtest_csv"),
    ("dayahead.backtest", "assemble_window", "ingest.assemble_window"),
    ("dayahead.backtest", "run_day", "pipeline.run_day"),
    ("dayahead.backtest", "daily_relative_error", "report.daily_relative_error"),
    # pipeline calls these through the module objects it imports
    ("dayahead.regress", "fit_model", "regress.fit_model"),
    ("dayahead.regress", "forecast_day", "regress.forecast_day"),
    ("dayahead.regress", "ensemble_mean", "regress.ensemble_mean"),
    ("dayahead.thermo", "compute_state", "thermo.compute_state"),
    ("dayahead.verdict", "time_tests", "verdict.time_tests"),
    ("dayahead.verdict", "energy_test", "verdict.energy_test"),
    ("dayahead.report", "build_report", "report.build_report"),
    ("dayahead.regress", "design_matrix", "features.design_matrix"),
    ("dayahead.regress", "target_regressors", "features.target_regressors"),
    ("dayahead.regress", "ols_fit", "regress.ols_fit"),
    ("dayahead.regress", "exact_ml_ar1_fit", "regress.exact_ml_ar1_fit"),
    ("dayahead.features", "koyck_transform", "features.koyck_transform"),
    ("numpy.linalg", "lstsq", "regress.lstsq"),
)

PHASES = ("setup", "timed")


class Tracer:
    """Span recorder; ``install`` patches the names, ``uninstall`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_phase = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.phase = 0
        self.counts = {phase: Counter() for phase in PHASES}
        # (target date, model id) -> every decay lambda fit_model kept
        self.lambdas: dict[tuple[str, str], set] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def set_phase(self, phase: str) -> None:
        self.phase = PHASES.index(phase)

    def _count(self, key: str, amount=1) -> None:
        self.counts[PHASES[self.phase]][key] += amount

    def _after(self, name: str, args, result) -> None:
        if name == "ingest.parse_csv":
            self._count("ingest.rows_parsed", len(result))
        elif name == "ingest.assemble_window":
            self._count("ingest.records_scanned", len(args[0]))
        elif name == "regress.exact_ml_ar1_fit" and "iterations" in result.diagnostics:
            self._count("regress.rho_iterations", result.diagnostics["iterations"])
            self._count("regress.rho_searches")
        elif name == "regress.fit_model":
            key = (args[0].target_date.isoformat(), args[1])
            self.lambdas.setdefault(key, set()).add(result.lam)
        elif name == "backtest.run_backtest":
            self._count("backtest.days_aborted", sum(row.aborted for row in result[0]))

    def _wrap(self, name: str, fn):
        if name not in self._name_ix:
            self._name_ix[name] = len(self.names)
            self.names.append(name)
        ix = self._name_ix[name]
        clock, stack = time.perf_counter, self._stack
        span_name, span_parent, span_phase = self.span_name, self.span_parent, self.span_phase
        span_start, span_end = self.span_start, self.span_end
        from dayahead.errors import DegeneracyError

        def traced(*args, **kwargs):
            sid = len(span_start)
            span_name.append(ix)
            span_parent.append(stack[-1] if stack else -1)
            span_phase.append(self.phase)
            span_end.append(0.0)
            stack.append(sid)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except DegeneracyError:
                span_end[sid] = clock()
                if name == "pipeline.run_day":
                    self._count("pipeline.degeneracies")
                raise
            except BaseException:
                span_end[sid] = clock()
                raise
            finally:
                stack.pop()
            span_end[sid] = clock()
            self._after(name, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> bool:
        """Restore every patched name; True when all originals are back."""
        saved, self._saved = self._saved, []
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
        return all(getattr(module, attr) is original for module, attr, original in saved)

    def summary(self, phase: str) -> dict:
        """Per span name: calls, busy seconds and self seconds in a phase."""
        want = PHASES.index(phase)
        n = len(self.span_start)
        child = [0.0] * n
        for sid in range(n):
            parent = self.span_parent[sid]
            if parent >= 0:
                child[parent] += self.span_end[sid] - self.span_start[sid]
        out: dict[str, dict] = {}
        for sid in range(n):
            if self.span_phase[sid] != want:
                continue
            busy = self.span_end[sid] - self.span_start[sid]
            entry = out.setdefault(self.names[self.span_name[sid]],
                                   {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += busy
            entry["self_s"] += busy - child[sid]
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: [id, parent, name, phase, start_s, end_s]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["id", "parent", "name", "phase", "start_s", "end_s"]\n')
            for sid in range(len(self.span_start)):
                fh.write(
                    f'[{sid}, {self.span_parent[sid]}, "{self.names[self.span_name[sid]]}", '
                    f'"{PHASES[self.span_phase[sid]]}", {self.span_start[sid]!r}, '
                    f"{self.span_end[sid]!r}]\n"
                )
