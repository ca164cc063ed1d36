"""Estimation of the three regressions and the 24-hour target-day forecasts.

The default estimator maximizes the exact Gaussian likelihood of a linear
model with stationary AR(1) disturbances, retaining the first observation:
the disturbance chain runs along rows ordered day-major then hour, treating
the day boundary as a continuous chain.  Ordinary least squares is kept as
the fast baseline and as the rho=0 oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import ValidationError
from .features import (
    LAMBDA_GRID,
    MODEL_IDS,
    design_matrices,
    design_matrix,  # noqa: F401  re-exported: callers may look it up here
    legal_training_days,
    target_regressors,
)
from .ingest import LOAD_KIND, DayProfile, SeriesWindow

RHO_BOUND = 0.999
RHO_TOL = 1e-6
MAX_GOLDEN_ITER = 200

# Predictions below this floor are clamped so downstream logarithms stay
# defined.
CLAMP_FLOOR_MW = 1.0

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

try:  # the gufunc behind np.linalg.lstsq; older numpy splits it in two
    from numpy.linalg._umath_linalg import lstsq as _LSTSQ_GUFUNC
except ImportError:
    _LSTSQ_GUFUNC = None


@dataclass(frozen=True)
class FitResult:
    model_id: str
    coefficients: dict
    residuals: np.ndarray
    ssr: float
    rho: float
    lam: float
    method: str
    diagnostics: dict = field(default_factory=dict)

    def coef_vector(self) -> np.ndarray:
        return np.array(list(self.coefficients.values()))


@dataclass(frozen=True)
class ModelForecast:
    model_id: str
    fit: Optional[FitResult]
    prediction: DayProfile
    clamped_hours: tuple = ()


def _lstsq(matrix: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int]:
    coef, _, rank, _ = np.linalg.lstsq(matrix, y, rcond=None)
    return coef, int(rank)


def ols_fit(design) -> FitResult:
    """Least squares via orthogonal (SVD) decomposition.

    When the numerical rank falls below the column count the minimum-norm
    solution is returned and the condition is reported in diagnostics; the
    fitted values still minimize the sum of squared residuals exactly.
    """
    n, k = design.matrix.shape
    if n < k:
        raise ValidationError(f"need at least {k} rows, got {n}")
    coef, rank = _lstsq(design.matrix, design.response)
    residuals = design.response - design.matrix @ coef
    diagnostics = {}
    if rank < k:
        diagnostics["rank_deficient"] = True
        diagnostics["rank"] = rank
    with np.errstate(over="ignore"):  # an infinite SSR ranks last on the decay grid
        ssr = float(residuals @ residuals)
    return FitResult(
        model_id=design.model_id,
        coefficients=dict(zip(design.names, (float(c) for c in coef))),
        residuals=residuals,
        ssr=ssr,
        rho=0.0,
        lam=0.0,
        method="ols",
        diagnostics=diagnostics,
    )


def _raise_svd_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq_stack(matrices: np.ndarray, responses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.lstsq(matrices[i], responses[i], rcond=None)`` for every
    slice of a stack, in one call.

    This calls the LAPACK (dgelsd) gufunc that ``np.linalg.lstsq`` calls, with
    the same rcond and floating-point error handling, so every slice's
    solution and rank have the same bits as the public call and a slice the
    SVD cannot solve raises ``LinAlgError``.  Where numpy does not expose the
    gufunc the public call is looped.
    """
    if _LSTSQ_GUFUNC is None:
        solved = [np.linalg.lstsq(a, b, rcond=None) for a, b in zip(matrices, responses)]
        return np.array([s[0] for s in solved]), np.array([s[2] for s in solved])
    m, n = matrices.shape[-2:]
    rcond = np.finfo(np.float64).eps * max(m, n)
    with np.errstate(call=_raise_svd_error, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        coef, _, rank, _ = _LSTSQ_GUFUNC(
            matrices, responses[..., None], rcond, signature="ddd->ddid"
        )
    return coef[..., 0], rank


def _ar1_whiten(systems: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Stationary AR(1) whitening transform that keeps the first row, applied
    to a stack of [design | response] systems with one rho per slice."""
    scale = np.sqrt(1.0 - rho * rho)
    white = systems.copy()
    white[:, 0] *= scale[:, None]
    white[:, 1:] -= rho[:, None, None] * systems[:, :-1]
    return white


def _gls_stack(systems: np.ndarray, rho: np.ndarray):
    """GLS coefficients, whitened SSR and rank of every slice at its rho.

    The stacked matmuls run, slice by slice, the same BLAS calls as
    ``w - x @ b`` and ``r @ r`` on one slice.
    """
    white = _ar1_whiten(systems, rho)
    xs, ws = white[..., :-1], white[..., -1]
    coef, rank = _lstsq_stack(xs, ws)
    resid = ws - np.matmul(xs, coef[..., None])[..., 0]
    ssr = np.matmul(resid[:, None, :], resid[:, :, None])[:, 0, 0]
    return coef, ssr.tolist(), rank


def _concentrated_loglik(ssr_white: float, rho: float, n: int) -> float:
    if ssr_white <= 0.0:
        return math.inf
    return (
        -0.5 * n * (math.log(2.0 * math.pi) + 1.0)
        - 0.5 * n * math.log(ssr_white / n)
        + 0.5 * math.log(1.0 - rho * rho)
    )


def _residuals_vanish(ssr: float, y: np.ndarray) -> bool:
    """``ssr <= 1e-16 * (y @ y + 1)``; where ``y @ y`` overflows, the same
    test on y scaled by its largest magnitude."""
    yy = float(y @ y)
    if math.isfinite(yy):
        return ssr <= 1e-16 * (yy + 1.0)
    top = float(np.max(np.abs(y)))
    unit = y / top
    return ssr / top / top <= 1e-16 * (float(unit @ unit) + 1.0 / top / top)


def exact_ml_ar1_fit(design) -> FitResult:
    """Exact maximum likelihood for a linear model with AR(1) disturbances.

    The likelihood concentrated over the disturbance autocorrelation rho is
    maximized by golden-section search on (-0.999, 0.999) to |delta rho| <
    1e-6; coefficients are the generalized-least-squares solution at the
    optimum.  When the residuals vanish rho is unidentified and the tie is
    broken at rho = 0.  The returned rho never has lower exact likelihood
    than rho = 0 with the OLS coefficients.
    """
    return exact_ml_ar1_fits([design])[0]


# Loads near the double range overflow y @ y and the SSRs: the tie-break test
# rescales, and an infinite SSR has likelihood -inf and ranks last on the
# decay grid.  One errstate per call keeps it off the golden-section steps.
@np.errstate(over="ignore")
def exact_ml_ar1_fits(designs: list) -> list[FitResult]:
    """``exact_ml_ar1_fit`` of each design; all designs share one shape.

    The rho searches run in lockstep: each golden-section step whitens the
    designs still searching, each at its own probe, and solves them in one
    stacked call.  A search that has converged leaves the stack, so every
    design takes the branches and iteration count it would take alone, and
    its result has the same bits.
    """
    n, k = designs[0].matrix.shape
    if n < k + 1:
        raise ValidationError(f"need at least {k + 1} rows, got {n}")
    systems = np.stack([np.column_stack([d.matrix, d.response]) for d in designs])

    def objective(rho: np.ndarray, idx: np.ndarray) -> np.ndarray:
        _, ssr, _ = _gls_stack(systems[idx], rho)
        return np.array([_concentrated_loglik(s, r, n) for s, r in zip(ssr, rho.tolist())])

    coef0, ssr0, rank0 = _gls_stack(systems, np.zeros(len(designs)))
    fits = {}
    for i, design in enumerate(designs):
        if _residuals_vanish(ssr0[i], design.response):
            base = ols_fit(design)
            fits[i] = replace(base, method="exact_ml_ar1",
                              diagnostics={**base.diagnostics, "rho_tie_break": True})
    search = np.array([i for i in range(len(designs)) if i not in fits], dtype=int)

    lo = np.full(len(search), -RHO_BOUND)
    hi = np.full(len(search), RHO_BOUND)
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = objective(c, search), objective(d, search)
    iterations = np.zeros(len(search), dtype=int)
    active = hi - lo > RHO_TOL
    while active.any():
        iterations[active] += 1
        if iterations.max() > MAX_GOLDEN_ITER:
            raise ValidationError("rho search failed to converge in 200 iterations")
        left = active & (fc >= fd)
        right = active & ~(fc >= fd)
        hi[left], d[left], fd[left] = d[left], c[left], fc[left]
        c[left] = hi[left] - _GOLDEN * (hi[left] - lo[left])
        lo[right], c[right], fc[right] = c[right], d[right], fd[right]
        d[right] = lo[right] + _GOLDEN * (hi[right] - lo[right])
        value = objective(np.where(left, c, d)[active], search[active])
        fc[left] = value[left[active]]
        fd[right] = value[right[active]]
        active = hi - lo > RHO_TOL
    rho_hat = 0.5 * (lo + hi)
    coef_hat, ssr_hat, rank_hat = _gls_stack(systems[search], rho_hat)

    for j, i in enumerate(search.tolist()):
        design = designs[i]
        rho = float(rho_hat[j])
        loglik = _concentrated_loglik(ssr_hat[j], rho, n)
        coef, rank = coef_hat[j], rank_hat[j]
        # Keep whichever of {rho_hat, 0} has the better exact likelihood;
        # this guarantees monotone improvement over the OLS baseline.
        loglik0 = _concentrated_loglik(ssr0[i], 0.0, n)
        if loglik < loglik0:
            rho, loglik, coef, rank = 0.0, loglik0, coef0[i], rank0[i]
        residuals = design.response - design.matrix @ coef
        diagnostics = {"loglik": loglik, "iterations": int(iterations[j])}
        if rank < k:
            diagnostics["rank_deficient"] = True
            diagnostics["rank"] = int(rank)
        fits[i] = FitResult(
            model_id=design.model_id,
            coefficients=dict(zip(design.names, (float(v) for v in coef))),
            residuals=residuals,
            ssr=float(residuals @ residuals),
            rho=rho,
            lam=0.0,
            method="exact_ml_ar1",
            diagnostics=diagnostics,
        )
    return [fits[i] for i in range(len(designs))]


def fit_model(
    window: SeriesWindow,
    model_id: str,
    method: str = "exact_ml_ar1",
    lambda_policy: str = "grid",
    lam: Optional[float] = None,
    temp_mode: str = "hour",
) -> FitResult:
    """Fit one model over the legal training days.

    lambda_policy "grid" fits at each decay value in {0.0, ..., 0.9} and
    keeps the minimal-SSR fit (ties break toward the smaller value);
    "fixed" uses ``lam``; "off" is equivalent to fixed 0.
    """
    days = legal_training_days(window, model_id, temp_mode)
    if not days:
        raise ValidationError(f"no legal training days for model {model_id}")

    if lambda_policy == "off":
        candidates = [0.0]
    elif lambda_policy == "fixed":
        if lam is None:
            raise ValidationError("lambda_policy 'fixed' requires lam")
        candidates = [float(lam)]
    elif lambda_policy == "grid":
        candidates = list(LAMBDA_GRID)
    else:
        raise ValidationError(f"unknown lambda policy {lambda_policy!r}")

    designs = design_matrices(window, model_id, days, candidates, temp_mode)
    if method == "ols":
        fits = [ols_fit(design) for design in designs]
    elif method == "exact_ml_ar1":
        fits = exact_ml_ar1_fits(designs)
    else:
        raise ValidationError(f"unknown estimation method {method!r}")
    best = min(range(len(fits)), key=lambda i: fits[i].ssr)
    return replace(
        fits[best],
        lam=candidates[best],
        diagnostics={**fits[best].diagnostics, "temp_mode": temp_mode},
    )


def forecast_day(window: SeriesWindow, fits: dict) -> dict:
    """Apply the three fits to the target day's regressors.

    Temperature terms are drawn from the forecast.  Predictions below 1 MW
    are clamped to 1 MW and the affected hours are flagged.
    """
    for model_id in MODEL_IDS:
        if model_id not in fits:
            raise ValidationError(f"missing fit for model {model_id}")
    out = {}
    for model_id in MODEL_IDS:
        fit = fits[model_id]
        temp_mode = fit.diagnostics.get("temp_mode", "hour")
        block = target_regressors(window, model_id, fit.lam, temp_mode)
        raw = block @ fit.coef_vector()
        clamped = tuple(h for h in range(1, 25) if raw[h - 1] < CLAMP_FLOOR_MW)
        values = tuple(
            CLAMP_FLOOR_MW if h in clamped else float(raw[h - 1]) for h in range(1, 25)
        )
        prediction = DayProfile(window.target_date, values, LOAD_KIND)
        out[model_id] = ModelForecast(model_id, fit, prediction, clamped)
    return out


def ensemble_mean(forecasts: dict) -> DayProfile:
    """Hourwise arithmetic mean of the three model predictions.

    Each hour's mean is evaluated as min + ((mid - min) + (max - min)) / 3
    over the sorted triple, which keeps the result independent of model
    order and exact when predictions coincide.
    """
    for model_id in MODEL_IDS:
        if model_id not in forecasts:
            raise ValidationError(f"missing forecast for model {model_id}")
    profiles = [forecasts[m].prediction for m in MODEL_IDS]
    values = []
    for h in range(24):
        lo, mid, hi = sorted(p.values[h] for p in profiles)
        values.append(lo + ((mid - lo) + (hi - lo)) / 3.0)
    target = profiles[0].date
    return DayProfile(target, tuple(values), LOAD_KIND)
