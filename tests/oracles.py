"""Independent oracles used by the tests.

These deliberately re-derive quantities without calling the engine's own
construction code, so that tests compare two separate routes to the same
number.
"""

import datetime as dt
import math
from dataclasses import replace
from decimal import Decimal, getcontext

import numpy as np

from dayahead.errors import ValidationError
from dayahead.features import (
    COLUMN_NAMES,
    LAMBDA_GRID,
    DesignMatrix,
    indicator,
    legal_training_days,
)
from dayahead.ingest import CSV_HEADER, HOURS, Record, SeriesWindow
from dayahead.regress import (
    MAX_GOLDEN_ITER,
    RHO_BOUND,
    RHO_TOL,
    FitResult,
    _concentrated_loglik,
    ols_fit,
)

PI_50 = Decimal("3.14159265358979323846264338327950288419716939937511")

# Descriptive-model coefficients used by the noiseless generator.  The lag
# weights sum to 0.9 so the day-to-day recursion is a contraction.
MODEL_A_COEFFS = {
    "a0": 400.0,
    "a1": 0.45,
    "a2": 0.30,
    "a3": 0.15,
    "a4": 120.0,   # pulse hour 9
    "a5": 150.0,   # pulse hour 10
    "a6": 180.0,   # pulse hour 19
    "a7": 140.0,   # pulse hour 20
    "a8": 100.0,   # pulse hour 11 (distributed-lag position, decay 0)
    "a9": 130.0,   # pulse hour 21 (distributed-lag position, decay 0)
}

PULSE_AT = {9: "a4", 10: "a5", 19: "a6", 20: "a7", 11: "a8", 21: "a9"}


def model_a_records(n_days: int, start=dt.date(2004, 2, 1)) -> list[Record]:
    """Generate n_days of hourly loads exactly following the descriptive
    model's recursion (decay 0), with smooth seed days and deterministic
    temperatures (unused by the model)."""
    days: list[list[float]] = []
    for d in range(7):
        days.append([
            4000.0 + 300.0 * math.sin(2.0 * math.pi * (h + 5 * d) / 24.0)
            + 60.0 * d
            for h in range(1, 25)
        ])
    while len(days) < n_days:
        prev = days[-1]
        two_back = days[-2]
        week_back = days[-7]
        new = []
        for h in range(1, 25):
            half = two_back[h + 12 - 1] if h <= 12 else prev[h - 12 - 1]
            value = (
                MODEL_A_COEFFS["a0"]
                + MODEL_A_COEFFS["a1"] * prev[h - 1]
                + MODEL_A_COEFFS["a2"] * half
                + MODEL_A_COEFFS["a3"] * week_back[h - 1]
            )
            if h in PULSE_AT:
                value += MODEL_A_COEFFS[PULSE_AT[h]]
            new.append(value)
        days.append(new)

    records = []
    for d, values in enumerate(days[:n_days]):
        date = start + dt.timedelta(days=d)
        for h in range(1, 25):
            temp = 10.0 + 4.0 * math.sin(2.0 * math.pi * (h + d) / 24.0)
            records.append(Record(date, h, values[h - 1], temp))
    return records


def sigma_oracle(theta2: float, w2: float, digits: int = 50) -> float:
    """High-precision evaluation of the evolution standard deviation.

    sigma = (exp(-x)/sqrt(W2)) / (exp(-2x) + 1/(8 W2 x^2)), x = (pi/2) theta2,
    computed with the decimal module at `digits` precision and rounded to a
    double at the end.
    """
    getcontext().prec = digits
    x = PI_50 / 2 * Decimal(repr(theta2))
    w = Decimal(repr(w2))
    num = (-x).exp() / w.sqrt()
    den = (-2 * x).exp() + 1 / (8 * w * x * x)
    return float(num / den)


def mu_oracle(theta1: float, w1: float, digits: int = 50) -> float:
    getcontext().prec = digits
    x = PI_50 / 2 * Decimal(repr(theta1))
    return float((-x).exp() / Decimal(repr(w1)).sqrt())


def entropy_oracle(theta: float, digits: int = 50) -> tuple[float, float]:
    """High-precision system/environment entropies at an angle."""
    getcontext().prec = digits
    cos_chi = (-(PI_50 / 2) * Decimal(repr(theta))).exp()
    sin_chi = (1 - cos_chi * cos_chi).sqrt()

    def h2(p: Decimal) -> Decimal:
        if p <= 0 or p >= 1:
            return Decimal(0)
        q = 1 - p
        return -(p * p.ln() + q * q.ln())

    return float(h2((1 - cos_chi) / 2)), float(h2((1 - sin_chi) / 2))


# --- Scalar estimation path -------------------------------------------------
# The decay-by-decay design build and the one-design golden-section rho
# search, kept as the reference for the engine's shared-column builder and
# lockstep search.  Both must agree with these bit for bit.

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def koyck_transform(series, lam: float, order: int = 3) -> np.ndarray:
    x = np.asarray(series, dtype=float)
    weights = np.array([lam**j for j in range(order + 1)])
    out = np.empty(24)
    for t in range(1, 25):
        j_max = min(order, t - 1)
        w = weights[: j_max + 1]
        seg = x[t - 1 - j_max : t][::-1]
        out[t - 1] = float(np.dot(w, seg) / np.sum(w))
    return out


# --- Line-by-line CSV parser ------------------------------------------------
# One Record per line and a set of seen keys: the reference for the engine's
# columnar parse_csv, and the way tests read a CSV back into records.


def parse_csv_records(text: str) -> list:
    """Parse CSV text into records, preserving file order.

    Raises ValidationError for a malformed row (reported with its line
    number), a duplicate (date, hour) key or an hour outside 1..24.
    """
    lines = text.split("\n")
    if not lines or lines[0].strip() != CSV_HEADER:
        raise ValidationError(f"expected header {CSV_HEADER!r}")
    records = []
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if line.strip() == "":
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValidationError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        raw_date, raw_hour, raw_load, raw_temp = (p.strip() for p in parts)
        try:
            date = dt.date.fromisoformat(raw_date)
        except ValueError:
            raise ValidationError(f"line {lineno}: bad date {raw_date!r}") from None
        try:
            hour = int(raw_hour)
        except ValueError:
            raise ValidationError(f"line {lineno}: bad hour {raw_hour!r}") from None
        if hour < 1 or hour > 24:
            raise ValidationError(f"line {lineno}: hour {hour} out of range 1..24")
        load = None
        if raw_load != "":
            try:
                load = float(raw_load)
            except ValueError:
                raise ValidationError(
                    f"line {lineno}: bad load_mw {raw_load!r}"
                ) from None
            if not math.isfinite(load):
                raise ValidationError(f"line {lineno}: non-finite load_mw")
        try:
            temp = float(raw_temp)
        except ValueError:
            raise ValidationError(f"line {lineno}: bad temp_c {raw_temp!r}") from None
        if not math.isfinite(temp):
            raise ValidationError(f"line {lineno}: non-finite temp_c")
        key = (date, hour)
        if key in seen:
            raise ValidationError(f"line {lineno}: duplicate key ({date}, hour {hour})")
        seen.add(key)
        records.append(Record(date, hour, load, temp))
    return records


# --- Dict-based window path -------------------------------------------------
# A (date, hour) dict over every record, rebuilt per window, and hour-by-hour
# regressor loops: the reference for the engine's indexed Dataset and its
# array slices.


def assemble_window(records, target_date: dt.date) -> SeriesWindow:
    by_key = {}
    for rec in records:
        key = (rec.date, rec.hour)
        if key in by_key:
            raise ValidationError(f"duplicate key ({rec.date}, hour {rec.hour})")
        by_key[key] = rec

    loads = []
    temps = []
    for k in range(9, 0, -1):
        day = target_date - dt.timedelta(days=k)
        load_vals = []
        temp_vals = []
        for hour in HOURS:
            rec = by_key.get((day, hour))
            if rec is None:
                raise ValidationError(f"missing data for ({day}, hour {hour})")
            if rec.load_mw is None:
                raise ValidationError(f"missing load_mw for ({day}, hour {hour})")
            if rec.load_mw <= 0.0:
                raise ValidationError(f"non-positive load at ({day}, hour {hour})")
            load_vals.append(rec.load_mw)
            temp_vals.append(rec.temp_c)
        loads.append(load_vals)
        temps.append(temp_vals)

    forecast = []
    for hour in HOURS:
        rec = by_key.get((target_date, hour))
        if rec is None:
            raise ValidationError(
                f"missing forecast temperature for ({target_date}, hour {hour})"
            )
        forecast.append(rec.temp_c)
    return SeriesWindow(target_date, np.array(loads), np.array(temps), np.array(forecast))


def backtest_input_error(records, start: dt.date, end: dt.date):
    """The message with which a backtest over [start, end] rejects its input
    before any forecast can fail, or None: duplicate keys, then coverage of
    [start - 9 days, end], then day by day the window and the actual load."""
    by_key = {}
    try:
        for rec in records:
            if (rec.date, rec.hour) in by_key:
                raise ValidationError(f"duplicate key ({rec.date}, hour {rec.hour})")
            by_key[(rec.date, rec.hour)] = rec
        day = start - dt.timedelta(days=9)
        while day <= end:
            for hour in HOURS:
                rec = by_key.get((day, hour))
                if rec is None:
                    return f"insufficient coverage: missing ({day}, hour {hour})"
                if rec.load_mw is None:
                    return f"insufficient coverage: missing load for ({day}, hour {hour})"
            day += dt.timedelta(days=1)
        day = start
        while day <= end:
            assemble_window(records, day)
            for hour in HOURS:
                if by_key[(day, hour)].load_mw <= 0.0:
                    return f"non-positive load at ({day}, hour {hour})"
            day += dt.timedelta(days=1)
    except ValidationError as exc:
        return str(exc)
    return None


def _temp_row(window, day) -> list:
    if day == window.target_date:
        return list(window.forecast)
    return list(window.temps[9 - (window.target_date - day).days])


def _load_row(window, day) -> list:
    return list(window.loads[9 - (window.target_date - day).days])


def halfday_lag_profile(window, day) -> np.ndarray:
    afternoon = _load_row(window, day - dt.timedelta(days=2))
    morning = _load_row(window, day - dt.timedelta(days=1))
    values = [afternoon[t + 12 - 1] for t in range(1, 13)]
    values += [morning[t - 12 - 1] for t in range(13, 25)]
    return np.asarray(values)


def temp_term(window, day, lag: int, mode: str) -> np.ndarray:
    if mode == "day":
        return np.asarray(_temp_row(window, day - dt.timedelta(days=lag)))
    same = _temp_row(window, day)
    tail = _temp_row(window, day - dt.timedelta(days=1))
    values = []
    for t in range(1, 25):
        idx = t - lag
        values.append(same[idx - 1] if idx >= 1 else tail[24 + idx - 1])
    return np.asarray(values)


def day_regressors(window, day, model_id: str, lam: float, temp_mode: str) -> np.ndarray:
    lag1 = np.asarray(_load_row(window, day - dt.timedelta(days=1)))
    half = halfday_lag_profile(window, day)
    lag7 = np.asarray(_load_row(window, day - dt.timedelta(days=7)))
    ones = np.ones(24)
    if model_id == "a":
        cols = [ones, lag1, half, lag7]
        cols += [indicator(h) for h in (9, 10, 19, 20)]
        cols += [koyck_transform(indicator(h), lam) for h in (11, 21)]
        return np.column_stack(cols)
    t2 = temp_term(window, day, 2, temp_mode)
    t8 = temp_term(window, day, 8, temp_mode)
    near = (lag1 - half) * t2
    far = (half - lag7) * t8
    cols = [ones, lag1, half, lag7]
    if model_id == "c":
        cols += [t2, t8, lag1 * t2 - lag7 * t8]
    cols += [koyck_transform(near, lam), koyck_transform(far, lam)]
    return np.column_stack(cols)


def design_matrix(window, model_id: str, days, lam: float, temp_mode: str) -> DesignMatrix:
    return DesignMatrix(
        model_id=model_id,
        rows=tuple((day, h) for day in days for h in range(1, 25)),
        names=COLUMN_NAMES[model_id],
        matrix=np.vstack([day_regressors(window, d, model_id, lam, temp_mode) for d in days]),
        response=np.concatenate([_load_row(window, d) for d in days]),
    )


def ar1_whiten(matrix: np.ndarray, y: np.ndarray, rho: float):
    xs = matrix.copy()
    ys = y.copy()
    scale = math.sqrt(1.0 - rho * rho)
    xs[0] *= scale
    ys[0] *= scale
    xs[1:] -= rho * matrix[:-1]
    ys[1:] -= rho * y[:-1]
    return xs, ys


def gls_at_rho(matrix: np.ndarray, y: np.ndarray, rho: float):
    """GLS coefficients, whitened SSR and rank at one rho."""
    xs, ys = ar1_whiten(matrix, y, rho)
    coef, _, rank, _ = np.linalg.lstsq(xs, ys, rcond=None)
    resid = ys - xs @ coef
    return coef, float(resid @ resid), int(rank)


def exact_ml_ar1_fit(design) -> FitResult:
    """Golden-section search for the exact-ML rho of one design."""
    n, k = design.matrix.shape
    if n < k + 1:
        raise ValidationError(f"need at least {k + 1} rows, got {n}")
    matrix, y = design.matrix, design.response

    _, ssr0, _ = gls_at_rho(matrix, y, 0.0)
    if ssr0 <= 1e-16 * (float(y @ y) + 1.0):
        base = ols_fit(design)
        return replace(base, method="exact_ml_ar1",
                       diagnostics={**base.diagnostics, "rho_tie_break": True})

    def objective(rho: float) -> float:
        _, ssr, _ = gls_at_rho(matrix, y, rho)
        return _concentrated_loglik(ssr, rho, n)

    lo, hi = -RHO_BOUND, RHO_BOUND
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = objective(c), objective(d)
    iterations = 0
    while hi - lo > RHO_TOL:
        iterations += 1
        if iterations > MAX_GOLDEN_ITER:
            raise ValidationError("rho search failed to converge in 200 iterations")
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = objective(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = objective(d)
    rho_hat = 0.5 * (lo + hi)
    if objective(rho_hat) < objective(0.0):
        rho_hat = 0.0
    coef, ssr_white, rank = gls_at_rho(matrix, y, rho_hat)
    residuals = y - matrix @ coef
    diagnostics = {
        "loglik": _concentrated_loglik(ssr_white, rho_hat, n),
        "iterations": iterations,
    }
    if rank < k:
        diagnostics["rank_deficient"] = True
        diagnostics["rank"] = rank
    return FitResult(
        model_id=design.model_id,
        coefficients=dict(zip(design.names, (float(v) for v in coef))),
        residuals=residuals,
        ssr=float(residuals @ residuals),
        rho=float(rho_hat),
        lam=0.0,
        method="exact_ml_ar1",
        diagnostics=diagnostics,
    )


def fit_model_grid(window, model_id: str, temp_mode: str = "hour") -> FitResult:
    """Exact-ML fit at every decay of the grid, one at a time; keeps the
    first minimal-SSR fit."""
    days = legal_training_days(window, model_id, temp_mode)
    best = None
    for lam in LAMBDA_GRID:
        fit = exact_ml_ar1_fit(design_matrix(window, model_id, days, lam, temp_mode))
        fit = replace(fit, lam=lam, diagnostics={**fit.diagnostics, "temp_mode": temp_mode})
        if best is None or fit.ssr < best.ssr:
            best = fit
    return best
