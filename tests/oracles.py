"""Independent oracles used by the tests.

These deliberately re-derive quantities without calling the engine's own
construction code, so that tests compare two separate routes to the same
number.
"""

import datetime as dt
import math
from dataclasses import asdict, dataclass, replace
from decimal import Decimal, getcontext

import numpy as np

from dayahead import regress, report, thermo, verdict
from dayahead.backtest import BacktestRow
from dayahead.errors import DegeneracyError, ValidationError
from dayahead.features import LAMBDA_GRID, MODEL_IDS, indicator
from dayahead.ingest import CSV_HEADER, HOURS, Record, SeriesWindow
from dayahead.regress import (
    RHO_BOUND,
    RHO_TOL,
    FitResult,
    _concentrated_loglik,
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
MAX_GOLDEN_ITER = 200


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


# --- Dict-based dataset and window path -------------------------------------
# A (date, hour) dict over every record, rebuilt per window, and hour-by-hour
# regressor loops: the reference for the engine's indexed Dataset and its
# array slices.


@dataclass(frozen=True, eq=False)
class Indexed:
    """Records indexed as a Dataset holds them: ``index`` maps each day
    with a record to its row in calendar order, ``loads`` and ``temps`` are
    (D + 1) x 24 with NaN where absent, and ``len()`` counts the records."""

    index: dict
    loads: np.ndarray
    temps: np.ndarray
    count: int

    def __len__(self) -> int:
        return self.count


def index_records(records) -> Indexed:
    """Index records given in any order; rejects the first record whose
    (date, hour) an earlier record holds."""
    by_key = {}
    for rec in records:
        if (rec.date, rec.hour) in by_key:
            raise ValidationError(f"duplicate key ({rec.date}, hour {rec.hour})")
        by_key[(rec.date, rec.hour)] = rec
    index = {day: row for row, day in enumerate(sorted({day for day, _ in by_key}))}
    loads, temps = np.full((2, len(index) + 1, 24), np.nan)
    for (day, hour), rec in by_key.items():
        if rec.load_mw is not None:
            loads[index[day], hour - 1] = rec.load_mw
        temps[index[day], hour - 1] = rec.temp_c
    return Indexed(index, loads, temps, len(by_key))


def assemble_window(records, target_date: dt.date) -> SeriesWindow:
    """The window of records with no repeated (date, hour) key."""
    by_key = {(rec.date, rec.hour): rec for rec in records}

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
    return SeriesWindow(target_date, np.array(loads), np.array(temps + [forecast]))


def backtest_input_error(records, start: dt.date, end: dt.date):
    """The message with which a backtest over [start, end] rejects records
    with no repeated (date, hour) key before any forecast can fail, or None:
    coverage of [start - 9 days, end], then day by day the window and the
    actual load."""
    by_key = {(rec.date, rec.hour): rec for rec in records}
    try:
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
    return list(window.temps[9 + (day - window.target_date).days])


def _load_row(window, day) -> list:
    return list(window.loads[9 + (day - window.target_date).days])


def legal_training_days(window, model_id: str, temp_mode: str = "hour") -> list:
    """The days that train a one-day window's model: the two history days
    before the target, whose 7-day load lags reach back to the window's
    first day; in day-lag temperature mode models b and c only the last,
    since the 8-day temperature lag of the one before falls outside."""
    if model_id not in ("a", "b", "c"):
        raise ValidationError(f"unknown model id {model_id!r}")
    days = [window.target_date - dt.timedelta(days=k) for k in (2, 1)]
    return days[1:] if model_id in ("b", "c") and temp_mode == "day" else days


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


COLUMN_NAMES = {
    "a": tuple(f"a{i}" for i in range(10)),
    "b": tuple(f"b{i}" for i in range(6)),
    "c": tuple(f"c{i}" for i in range(9)),
}


@dataclass(frozen=True)
class DesignMatrix:
    """Named regressor columns with the aligned response for training rows,
    in the form the engine's one-design fits (``regress.ols_fit``,
    ``regress.exact_ml_ar1_fit``) read.

    Rows are ordered day-major, hour-minor; every row's lags resolve inside
    the window (no extrapolated regressors).
    """

    model_id: str
    rows: tuple
    names: tuple
    matrix: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        if self.matrix.shape != (len(self.rows), len(self.names)):
            raise ValidationError("design matrix shape mismatch")
        if self.response.shape != (len(self.rows),):
            raise ValidationError("response length mismatch")
        if len(self.rows) and not np.all(self.matrix[:, 0] == 1.0):
            raise ValidationError("first column must be the intercept")


def design_matrix(window, model_id: str, days, lam: float,
                  temp_mode: str = "hour") -> DesignMatrix:
    return DesignMatrix(
        model_id=model_id,
        rows=tuple((day, h) for day in days for h in range(1, 25)),
        names=COLUMN_NAMES[model_id],
        matrix=np.vstack([day_regressors(window, d, model_id, lam, temp_mode) for d in days]),
        response=np.concatenate([_load_row(window, d) for d in days]),
    )


def ols_fit(design) -> FitResult:
    """Least squares of one design through ``np.linalg.lstsq``."""
    n, k = design.matrix.shape
    if n < k:
        raise ValidationError(f"need at least {k} rows, got {n}")
    coef, _, rank, _ = np.linalg.lstsq(design.matrix, design.response, rcond=None)
    residuals = design.response - design.matrix @ coef
    diagnostics = {"rank_deficient": True, "rank": int(rank)} if rank < k else {}
    with np.errstate(over="ignore"):
        ssr = float(residuals @ residuals)
    return FitResult(
        model_id=design.model_id,
        coef=coef,
        residuals=residuals,
        ssr=ssr,
        rho=0.0,
        lam=0.0,
        method="ols",
        diagnostics=diagnostics,
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
        coef=coef,
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


def fit_model(window, model_id: str, method: str = "exact_ml_ar1",
              decays=LAMBDA_GRID, temp_mode: str = "hour") -> FitResult:
    """One window fitted alone, decay by decay: each decay's design comes
    from ``design_matrix`` above and is solved on its own, by ``ols_fit``
    above or the engine's one-design exact ML; keeps the first minimal-SSR
    fit."""
    days = legal_training_days(window, model_id, temp_mode)
    designs = [design_matrix(window, model_id, days, decay, temp_mode) for decay in decays]
    solve = ols_fit if method == "ols" else regress.exact_ml_ar1_fit
    fits = [solve(design) for design in designs]
    best = min(range(len(fits)), key=lambda i: fits[i].ssr)
    return replace(fits[best], lam=decays[best],
                   diagnostics={**fits[best].diagnostics, "temp_mode": temp_mode})


# --- Tuple form of the day profiles -----------------------------------------
# Hour-by-hour loops over 24 Python floats: the reference for the engine's
# clamp and its ensemble mean, and the profiles of the scoring chain below.


def profile_problem(date, values):
    """The message with which a load profile of ``values`` is rejected, or
    None: the first bad hour in hour order names the problem."""
    vals = tuple(float(v) for v in values)
    if len(vals) != 24:
        return f"profile for {date} has {len(vals)} values, expected 24"
    for h, v in zip(HOURS, vals):
        if not math.isfinite(v):
            return f"non-finite value at ({date}, hour {h})"
        if v <= 0.0:
            return f"non-positive load at ({date}, hour {h})"
    return None


@dataclass(frozen=True, eq=False)
class Profile:
    """24 hourly loads of one day as a read-only float array: a profile
    ``profile_problem`` accepts, or a ``ValidationError`` with its message."""

    date: dt.date
    values: np.ndarray

    def __post_init__(self):
        problem = profile_problem(self.date, self.values)
        if problem is not None:
            raise ValidationError(problem)
        vals = np.array(self.values, dtype=float)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def clamp(raw) -> tuple:
    """Raw predictions with every hour below the floor raised to it."""
    floor = regress.CLAMP_FLOOR_MW
    return tuple(floor if r < floor else r for r in map(float, raw))


def ensemble_mean(a, b, c) -> tuple:
    """min + ((mid - min) + (max - min)) / 3 over each hour's sorted triple."""
    values = []
    for h in range(24):
        lo, mid, hi = sorted((float(a[h]), float(b[h]), float(c[h])))
        values.append(lo + ((mid - lo) + (hi - lo)) / 3.0)
    return tuple(values)


# --- The per-day scoring chain ----------------------------------------------
# Each target day scored on its own, through validated day profiles and
# Python sums: the reference for the engine's two-stage scoring of a run
# (``pipeline.run_day``), whose array stage covers every day at once.


def forecast_profiles(window, fits: dict) -> dict:
    """``{model_id: Profile}``: each model's ``target_block @ coef``,
    clamped at the floor; a prediction that is not finite raises at its
    model's formula, in model order."""
    out = {}
    for model_id in MODEL_IDS:
        fit = fits[model_id]
        with np.errstate(over="ignore", invalid="ignore"):
            raw = fit.target_block @ fit.coef
        if not np.isfinite(raw).all():
            raise DegeneracyError(f"model {model_id}: forecast is not finite",
                                  regress.EQUATIONS[model_id])
        out[model_id] = Profile(window.target_date, clamp(raw))
    return out


def ensemble_profile(forecasts: dict) -> Profile:
    """The sorted-triple mean of the three profiles; ``Profile`` rejects a
    mean past the double range."""
    a, b, c = (forecasts[m].values for m in MODEL_IDS)
    return Profile(forecasts["a"].date, ensemble_mean(a, b, c))


def demean(x) -> np.ndarray:
    with np.errstate(over="ignore"):
        mean = x.mean()
    return x - mean


def cointegration_angle(p, q) -> float:
    """The angle of two centered profiles, from their three dot products."""
    with np.errstate(over="ignore", invalid="ignore"):
        pp = float(p @ p) / 24.0
        qq = float(q @ q) / 24.0
        pq = float(p @ q) / 24.0
    return thermo.cointegration_angle(pp, qq, pq)


def compute_state(pa, pb, pc) -> thermo.ThermoState:
    """The thermo chain over one day's three profiles."""
    theta1 = cointegration_angle(demean(pa.values), demean(pb.values))
    theta2 = cointegration_angle(demean(pc.values), demean(pb.values))
    delta_s, delta_sp = thermo.coherence_deltas(theta1, theta2)
    beta = thermo.inverse_temperature(delta_s, delta_sp)
    am = [float(p.values[:12].max()) for p in (pa, pb, pc)]
    pm = [float(p.values[12:].max()) for p in (pa, pb, pc)]
    w1, w2 = thermo.daily_work(min(am), max(am), min(pm), max(pm), beta)
    mu, sigma = thermo.evolution_moments(theta1, theta2, w1, w2)
    return thermo.ThermoState(theta1, theta2, delta_s, delta_sp, beta, w1, w2, mu, sigma)


def daily_relative_error(actual, forecast) -> float:
    """Mean absolute hourly error over the actual peak, in %, as a Python
    sum over the day's hours."""
    if actual.date != forecast.date:
        raise ValidationError(f"misaligned dates: actual {actual.date}, forecast {forecast.date}")
    actual_mw = actual.values.tolist()
    err = sum(abs(f - a) for f, a in zip(forecast.values.tolist(), actual_mw)) / 24.0
    return err / max(actual_mw) * 100.0


def score_day(window, critical_values, settings, fits=None) -> tuple:
    """One day's ``(forecasts, ensemble, DayScore)``; each model is fitted
    on the window alone when no fits are given.  Raises the first
    degeneracy of the chain."""
    if fits is None:
        fits = {m: regress.fit_model(window, m, **asdict(settings)) for m in MODEL_IDS}
    forecasts = forecast_profiles(window, fits)
    state = compute_state(forecasts["a"], forecasts["b"], forecasts["c"])
    ensemble = ensemble_profile(forecasts)
    time_test = verdict.time_tests(state.theta1, state.theta2, state.w1, state.w2,
                                   critical_values)
    reserve_test = verdict.energy_test(state.w1, state.w2, state.beta)
    delta_pct = report.error_reduction(state.w1, state.mu, state.delta_s)
    day = report.DayScore(state, time_test, reserve_test, report.price(state.beta, state.sigma),
                          delta_pct, report.temp_equivalence(delta_pct))
    return forecasts, ensemble, day


def run_day(window, critical_values, settings, fits=None, config=None) -> dict:
    """One day's report payload, built by ``report.build_report`` from the
    scores of :func:`score_day`."""
    forecasts, ensemble, day = score_day(window, critical_values, settings, fits)
    stack = np.stack([forecasts[m].values for m in MODEL_IDS])
    return report.build_report(window.target_date, stack, ensemble.values, day, config)


def backtest_rows(dataset, first: dt.date, last: dt.date, critical_values,
                  settings) -> list:
    """The backtest row of each day in [first, last], each day fitted and
    scored alone; a degeneracy aborts only its day."""
    rows = []
    for k in range((last - first).days + 1):
        day = first + dt.timedelta(days=k)
        actual = Profile(day, dataset.loads[dataset.index[day]])
        try:
            forecasts, ensemble, scores = score_day(dataset.window(day), critical_values,
                                                    settings)
        except DegeneracyError as exc:
            rows.append(BacktestRow(day, None, None, None, None, None,
                                    f"aborted:eq{exc.equation.strip('()')}"))
            continue
        mmres = [daily_relative_error(actual, forecasts[m]) for m in MODEL_IDS]
        rows.append(BacktestRow(day, *mmres, daily_relative_error(actual, ensemble),
                                scores.delta_pct, "ok"))
    return rows
