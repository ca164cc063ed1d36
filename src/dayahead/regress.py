"""Estimation of the three regressions and the 24-hour target-day forecasts.

The default estimator maximizes the exact Gaussian likelihood of a linear
model with stationary AR(1) disturbances, retaining the first observation:
the disturbance chain runs along rows ordered day-major then hour, treating
the day boundary as a continuous chain.  Ordinary least squares is kept as
the fast baseline and as the rho=0 oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegeneracyError, ValidationError
from .features import LAMBDA_GRID, MODEL_IDS
from .features import run_designs as design_matrix  # the name the benchmark tracer patches
from .features import target_regressors  # noqa: F401  the benchmark tracer looks it up here
from .ingest import SeriesWindow

RHO_BOUND = 0.999
RHO_TOL = 1e-6

# Predictions below this floor are clamped so downstream logarithms stay
# defined.
CLAMP_FLOOR_MW = 1.0

# Each model's regression in the README's formula catalog.
EQUATIONS = {"a": "(1)", "b": "(2)", "c": "(3)"}

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# A golden-section step shrinks the bracket by _GOLDEN whichever way it
# branches, so every rho search takes the same 31 steps to reach RHO_TOL.
RHO_STEPS = math.ceil(math.log(RHO_TOL / (2.0 * RHO_BOUND)) / math.log(_GOLDEN))
assert 2.0 * RHO_BOUND * _GOLDEN**RHO_STEPS <= RHO_TOL < 2.0 * RHO_BOUND * _GOLDEN**(RHO_STEPS - 1)

try:  # the gufunc behind np.linalg.lstsq; older numpy splits it in two
    from numpy.linalg._umath_linalg import lstsq as _LSTSQ_GUFUNC
except ImportError:
    _LSTSQ_GUFUNC = None


@dataclass(frozen=True)
class FitResult:
    model_id: str
    method: str
    lam: float
    # float64, one entry per column of the model's design, in that order
    coef: np.ndarray
    residuals: np.ndarray
    ssr: float
    rho: float
    diagnostics: dict = field(default_factory=dict)
    # The window's target-day regressors at ``lam`` (24 x n_cols), which
    # forecast_day applies the coefficients to; set by fit_models.
    target_block: Optional[np.ndarray] = field(default=None, compare=False, repr=False)


def _rank_diagnostics(rank: int, k: int) -> dict:
    return {"rank_deficient": True, "rank": int(rank)} if rank < k else {}


def _residuals(matrices: np.ndarray, responses: np.ndarray, coef: np.ndarray):
    """Residuals and SSR of every slice.  The stacked matmuls run, slice by
    slice, the same BLAS calls as ``y - x @ b`` and ``r @ r`` on one slice."""
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite SSR ranks last
        residuals = responses - np.matmul(matrices, coef[..., None])[..., 0]
        ssr = np.matmul(residuals[:, None, :], residuals[:, :, None])[:, 0, 0]
    return residuals, ssr.tolist()


def _solve(systems: np.ndarray):
    """Least squares of every slice of a stack of ``[design | response]``
    systems: ``(coef, residuals, ssr, rank)``.  A system that is not finite
    raises ``FloatingPointError`` before LAPACK sees it (``dgelsd`` cannot
    solve one and prints its complaint to standard output); testing the one
    stack costs a third of testing its two strided views."""
    if not np.isfinite(systems).all():
        raise FloatingPointError("least-squares system is not finite")
    xs, ys = systems[..., :-1], systems[..., -1]
    coef, rank = _lstsq_stack(xs, ys)
    return (coef, *_residuals(xs, ys, coef), rank)


# No command calls this; the benchmark tracer (perfbench/tracing.py) looks it up.
def ols_fit(design) -> FitResult:
    """Least squares via orthogonal (SVD) decomposition.

    When the numerical rank falls below the column count the minimum-norm
    solution is returned and the condition is reported in diagnostics; the
    fitted values still minimize the sum of squared residuals exactly.
    """
    n, k = design.matrix.shape
    if n < k:
        raise ValidationError(f"need at least {k} rows, got {n}")
    coef, residuals, ssr, rank = _solve(np.column_stack((design.matrix, design.response))[None])
    return FitResult(design.model_id, "ols", 0.0, coef[0], residuals[0], ssr[0], 0.0,
                     _rank_diagnostics(rank[0], k))


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
    """GLS coefficients, whitened SSR and rank of every slice at its rho."""
    with np.errstate(over="ignore", invalid="ignore"):  # _solve rejects it
        white = _ar1_whiten(systems, rho)
    coef, _, ssr, rank = _solve(white)
    return coef, ssr, rank


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


# No command calls this; the benchmark tracer (perfbench/tracing.py) looks it up.
def exact_ml_ar1_fit(design) -> FitResult:
    """Exact maximum likelihood for a linear model with AR(1) disturbances.

    The likelihood concentrated over the disturbance autocorrelation rho is
    maximized by golden-section search on (-0.999, 0.999) to |delta rho| <
    1e-6; coefficients are the generalized-least-squares solution at the
    optimum.  When the residuals vanish rho is unidentified and the tie is
    broken at rho = 0.  The returned rho never has lower exact likelihood
    than rho = 0 with the OLS coefficients.
    """
    solved = _exact_ml_stack(design.matrix[None], design.response[None])[0]
    return FitResult(design.model_id, "exact_ml_ar1", 0.0, *solved)


# A decay is searched only if its OLS SSR, a lower bound on its exact-ML
# fit's final SSR, is at most the group's first fit's final SSR times
# (1 + _SSR_MARGIN) plus _SSR_FLOOR * y @ y.  Both SSRs compared are rounded:
# each is the square norm of a residual that the solver's backward error and
# the residual's own matmul move by at most about u * |y|, so each is off by
# at most about 2u * sqrt(ssr * y @ y).  By the AM-GM inequality the two
# together, 4u * sqrt(ssr * y @ y), stay under 1e-9 * ssr + 4e9 * u**2 * y @ y,
# which the margin and the floor cover for u up to 1.6e-11, about 70,000
# ulps, at every ssr: a vanishing SSR never skips a decay whose residuals are
# within rounding of it.  A NaN or infinite bound skips nothing.
_SSR_MARGIN = 1e-9
_SSR_FLOOR = 1e-12
# Below this magnitude the AR(1) whitening, |a - rho * b| <= |a| + |b| with
# |rho| < 1, cannot overflow, so no search can end in a non-finite system.
_HALF_MAX = float(np.finfo(np.float64).max) / 2.0


# Loads near the double range overflow y @ y and the SSRs: the tie-break test
# rescales, and an infinite SSR has likelihood -inf and ranks last on the
# decay grid.
@np.errstate(over="ignore")
def _exact_ml_stack(matrices: np.ndarray, responses: np.ndarray, group: int = 1) -> list:
    """Exact-ML AR(1) fit of every slice of a stack, as
    ``(coef, residuals, ssr, rho, diagnostics)``, or ``None`` for a slice
    whose fit cannot win its group.

    The stack is made of consecutive groups of ``group`` slices that share
    their response and compete for the smallest final SSR, as a window's
    decays do in ``fit_models``.  The rho searches run in lockstep: each
    golden-section step whitens every slice, each at its own probe, and
    solves them in one stacked call.  Every search takes ``RHO_STEPS`` steps,
    as it would alone, and the branches it would take alone, so every slice's
    result has the same bits.

    The rho = 0 solve gives every slice's OLS SSR, which its final SSR cannot
    be below.  So a first lockstep searches each group's slice with the
    smallest OLS SSR, and a second only the slices whose OLS SSR is not above
    that fit's final SSR (within the margin above).  A skipped slice's final
    SSR would have been strictly above that fit's, so it could not be its
    group's first minimum.  Nothing is skipped from a slice whose rho = 0
    solve is rank-deficient (dgelsd's truncation can leave its SSR above the
    minimum), nor anywhere in a stack holding a value of magnitude at least
    DBL_MAX / 2 (a skipped search could have overflowed and raised).
    """
    count, n, k = matrices.shape
    if n < k + 1:
        raise ValidationError(f"need at least {k + 1} rows, got {n}")
    systems = np.concatenate((matrices, responses[:, :, None]), axis=2)

    def objective(stack: np.ndarray, rho: np.ndarray) -> np.ndarray:
        _, ssr, _ = _gls_stack(stack, rho)
        return np.array([_concentrated_loglik(s, r, n) for s, r in zip(ssr, rho.tolist())])

    coef0, ssr0, rank0 = _gls_stack(systems, np.zeros(count))
    ties = [i for i in range(count) if _residuals_vanish(ssr0[i], responses[i])]
    fits = {}
    if ties:
        coef, resid, ssr, rank = _solve(systems[ties])
        for j, i in enumerate(ties):
            fits[i] = (coef[j], resid[j], ssr[j], 0.0,
                       {**_rank_diagnostics(rank[j], k), "rho_tie_break": True})

    def search_rho(slices: list) -> None:
        if not slices:
            return
        search = np.array(slices, dtype=int)
        stack = systems[search]
        lo = np.full(len(search), -RHO_BOUND)
        hi = np.full(len(search), RHO_BOUND)
        c = hi - _GOLDEN * (hi - lo)
        d = lo + _GOLDEN * (hi - lo)
        fc, fd = objective(stack, c), objective(stack, d)
        for _ in range(RHO_STEPS):
            left = fc >= fd  # a NaN comparison moves the bracket right
            lo, hi = np.where(left, lo, c), np.where(left, d, hi)
            step = _GOLDEN * (hi - lo)
            c, d = np.where(left, hi - step, d), np.where(left, c, lo + step)
            value = objective(stack, np.where(left, c, d))
            fc, fd = np.where(left, value, fd), np.where(left, fc, value)
        rho_hat = 0.5 * (lo + hi)
        coef_hat, ssr_hat, rank_hat = _gls_stack(stack, rho_hat)

        kept = []
        coefs = np.empty((len(search), k))
        for j, i in enumerate(search.tolist()):
            rho = float(rho_hat[j])
            loglik = _concentrated_loglik(ssr_hat[j], rho, n)
            coefs[j], rank = coef_hat[j], rank_hat[j]
            # Keep whichever of {rho_hat, 0} has the better exact likelihood;
            # this guarantees monotone improvement over the OLS baseline.
            loglik0 = _concentrated_loglik(ssr0[i], 0.0, n)
            if loglik < loglik0:
                rho, loglik, coefs[j], rank = 0.0, loglik0, coef0[i], rank0[i]
            kept.append((rho, {"loglik": loglik, "iterations": RHO_STEPS,
                               **_rank_diagnostics(rank, k)}))
        residuals, ssr = _residuals(matrices[search], responses[search], coefs)
        for j, i in enumerate(search.tolist()):
            fits[i] = (coefs[j], residuals[j], ssr[j], *kept[j])

    starts = range(0, count, group)
    firsts = [min(range(g, g + group), key=ssr0.__getitem__) for g in starts]
    search_rho([i for i in firsts if i not in fits])
    prune = group > 1 and max(systems.max(), -systems.min()) < _HALF_MAX
    rest = []
    for g, first in zip(starts, firsts):
        rivals = [i for i in range(g, g + group) if i not in fits]
        top = float(np.max(np.abs(responses[first]))) if prune else 0.0
        if top > 0.0:  # in units of top**2, so that y @ y cannot overflow
            unit = responses[first] / top
            bound = (fits[first][2] / top / top * (1.0 + _SSR_MARGIN)
                     + _SSR_FLOOR * float(unit @ unit))
            rivals = [i for i in rivals if rank0[i] < k or not ssr0[i] / top / top > bound]
        rest += rivals
    search_rho(rest)
    return [fits.get(i) for i in range(count)]


# The benchmark tracer (perfbench/tracing.py) also looks this name up.
def fit_model(
    window: SeriesWindow,
    model_id: str,
    method: str = "exact_ml_ar1",
    decays: tuple = LAMBDA_GRID,
    temp_mode: str = "hour",
) -> FitResult:
    """Fit one model for the first target day of a window:
    ``fit_models(window, ...)[0]``."""
    return fit_models(window, model_id, method, decays, temp_mode)[0]


def fit_models(
    window: SeriesWindow,
    model_id: str,
    method: str = "exact_ml_ar1",
    decays: tuple = LAMBDA_GRID,
    temp_mode: str = "hour",
) -> list[FitResult]:
    """Fit one model to each target day of a window, over each day's
    training rows (see ``run_designs``).

    Each day is fitted at every Koyck decay in ``decays`` (by default the
    grid {0.0, ..., 0.9}; ``(0.0,)`` turns the lag off) and keeps the
    minimal-SSR fit, the earliest decay on a tie, with its target-day
    regressors at that decay.  The designs of every day and decay are solved
    together, in one stacked least-squares call for OLS or two lockstep rho
    searches for exact ML; each day's fit has the same bits as when its
    one-day window is fitted alone.  Exact ML prunes the decays: one whose
    OLS SSR is already above the final SSR of the day's best-OLS decay
    cannot have the minimal final SSR, so its rho is not searched (see
    ``_exact_ml_stack``) and it ranks last.  The kept decay, and every bit
    of its fit, are those of the full list.  A design or whitened system
    that is not finite raises :class:`DegeneracyError` naming the model's
    formula, and so does an SVD that does not converge.
    """
    if not decays:
        raise ValidationError("no Koyck decay to fit")
    matrices, responses, targets = design_matrix(window, model_id, decays, temp_mode)
    count, n_decays, n, k = matrices.shape
    matrices = matrices.reshape(count * n_decays, n, k)
    responses = np.repeat(responses, n_decays, axis=0)
    try:
        if method == "ols":
            systems = np.concatenate((matrices, responses[:, :, None]), axis=2)
            coef, residuals, ssr, rank = _solve(systems)
            solved = [(coef[i], residuals[i], ssr[i], 0.0, _rank_diagnostics(rank[i], k))
                      for i in range(len(ssr))]
        elif method == "exact_ml_ar1":
            solved = _exact_ml_stack(matrices, responses, n_decays)
        else:
            raise ValidationError(f"unknown estimation method {method!r}")
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise DegeneracyError(f"model {model_id}: {exc}", EQUATIONS[model_id]) from None
    fits = []
    for i in range(count):
        # A decay whose exact-ML search was skipped could not win: it ranks last.
        ssr = [math.inf if s is None else s[2] for s in solved[i * n_decays:(i + 1) * n_decays]]
        best = min(range(n_decays), key=ssr.__getitem__)
        *fitted, diagnostics = solved[i * n_decays + best]
        fits.append(FitResult(model_id, method, decays[best], *fitted,
                              {**diagnostics, "temp_mode": temp_mode}, targets[i, best]))
    return fits


def forecast_day(fits: list) -> tuple[np.ndarray, np.ndarray]:
    """The forecasts of a run of days, (3, days, 24) in model order, from
    each day's ``{model_id: FitResult}``: each fit applied to the
    target-day regressors it carries (the gemv of ``target_block @ coef``,
    as one slice of a stacked matmul), clamped to 1 MW from below.  Also
    returns whether each model's prediction is finite, (3, days).  Every
    fit comes from ``fit_models``, which gives each its target-day regressors.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the mask marks it
        raw = np.stack([np.matmul(np.stack([day[m].target_block for day in fits]),
                                  np.stack([day[m].coef for day in fits])[:, :, None])[..., 0]
                        for m in MODEL_IDS])
        return np.maximum(raw, CLAMP_FLOOR_MW), np.isfinite(raw).all(axis=2)


def ensemble_mean(forecasts: np.ndarray) -> np.ndarray:
    """Hourwise arithmetic mean of the three model forecasts, (3, ..., 24).

    Each hour's mean is evaluated as min + ((mid - min) + (max - min)) / 3
    over the sorted triple, which keeps the result independent of model
    order and exact when predictions coincide.
    """
    lo, mid, hi = np.sort(forecasts, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # the day's chain rejects it
        return lo + ((mid - lo) + (hi - lo)) / 3.0
