"""Machine-speed calibration: a fixed reference kernel timed between commands.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes, for every kind of code at once.  To keep that
drift out of the figures, a run interleaves the program's commands with
this kernel, which never changes, and scales its times by how fast the
kernel ran: ``normalized = raw * NOMINAL_S / mean(kernel times)``.  A
change to the program moves the raw times and not the kernel's, so it shows
in full; a slower host moves both, so it cancels.

The kernel mimics the engine's mix of work: CSV parsing into dicts, indexing
hourly records by (date, hour) to assemble a nine-day window, a short
distributed-lag loop of small numpy dot products, a ρ grid of small
least-squares solves, and JSON serialization.  It runs in the process that
times the commands, right after them, so it sees the same core.  It uses
inputs of its own, and the garbage collector is paused while it runs, so the
objects the program keeps alive barely change its speed.
"""

from __future__ import annotations

import datetime as dt
import gc
import json
import time

# Kernels per probe; one probe takes about NOMINAL_S.
KERNELS_PER_PROBE = 8
# Mean probe time on the reference machine (README, "Measured at the commit
# that added the benchmark").  It only sets the scale of normalized figures:
# on a host running at that speed they equal the raw ones.
NOMINAL_S = 0.2


def _inputs():
    import numpy as np

    def wave(*shape):
        return np.sin(np.arange(1.0, 1.0 + np.prod(shape)) * 0.7071).reshape(shape)

    lines = [
        f"2004-{1 + d // 28 % 12:02d}-{1 + d % 28:02d},{h},"
        f"{900 + (d * 24 + h) % 977 * 0.61:.3f},{8 + (d * 7 + h) % 41 * 0.37:.2f}"
        for d in range(48) for h in range(1, 25)
    ]
    text = "date,hour,load,temp\n" + "\n".join(lines) + "\n"
    start = dt.date(2004, 1, 1)
    records = [(start + dt.timedelta(days=d), h, 900.0 + d + h) for d in range(100) for h in range(1, 25)]
    return text, records, wave(48, 10), wave(48) ** 3, wave(40, 24)


class Kernel:
    def __init__(self):
        import numpy as np

        self.np = np
        self.text, self.records, self.x, self.y, self.series = _inputs()

    def _parse(self) -> dict:
        by_day: dict = {}
        for line in self.text.splitlines()[1:]:
            date, hour, load, temp = line.split(",")
            by_day.setdefault(date, {})[int(hour)] = (float(load), float(temp))
        return by_day

    def _window(self, last: dt.date) -> float:
        by_key = {}
        for rec in self.records:
            key = (rec[0], rec[1])
            if key in by_key:
                raise ValueError(f"duplicate key {key}")
            by_key[key] = rec
        return sum(by_key[(last - dt.timedelta(days=k), h)][2] for k in range(9) for h in range(1, 25))

    def _lag(self, series, lam: float) -> float:
        np = self.np
        weights = np.array([lam**j for j in range(4)])
        out = np.empty(24)
        for t in range(1, 25):
            j = min(3, t - 1)
            w = weights[: j + 1]
            out[t - 1] = float(np.dot(w, series[t - 1 - j : t][::-1]) / np.sum(w))
        return float(out[5])

    def _rho_grid(self) -> float:
        np = self.np
        best = float("inf")
        for rho in np.linspace(-0.9, 0.9, 31):
            xs = self.x[1:] - rho * self.x[:-1]
            ys = self.y[1:] - rho * self.y[:-1]
            coef = np.linalg.lstsq(xs, ys, rcond=None)[0]
            resid = ys - xs @ coef
            best = min(best, float(resid @ resid))
        return best

    def run(self) -> float:
        for _ in range(4):
            self._parse()
        by_day = self._parse()
        total = sum(self._window(dt.date(2004, 4, 9 - k)) for k in range(4))
        total += sum(self._lag(self.series[k], 0.1 + 0.02 * k) for k in range(40))
        total += sum(self._rho_grid() for _ in range(4))
        rows = {d: {str(h): round(v[0] * 1.01, 6) for h, v in hours.items()}
                for d, hours in list(by_day.items())[:20]}
        return total + len(json.dumps(rows, indent=1, sort_keys=True))

    def probe(self) -> float:
        """Wall time of one probe, in seconds."""
        start = time.perf_counter()
        for _ in range(KERNELS_PER_PROBE):
            self.run()
        return time.perf_counter() - start


class Probe:
    """Times probes of the kernel in this process, with the garbage
    collector paused so that the objects the program keeps alive do not
    change the kernel's speed."""

    def __init__(self):
        self.kernel = Kernel()
        self.kernel.probe()  # warm-up: imports, allocator and caches
        self.times: list[float] = []

    def measure(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.times.append(self.kernel.probe())
        finally:
            if enabled:
                gc.enable()
        return self.times[-1]


def factor(times: list[float]) -> float:
    """How much slower than nominal the host ran: mean probe ÷ NOMINAL_S."""
    return sum(times) / len(times) / NOMINAL_S
