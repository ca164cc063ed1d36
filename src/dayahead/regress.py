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

from .errors import DegeneracyError
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

# The gufuncs behind np.linalg.cholesky, where a stack whose factor fails
# comes back as NaN instead of raising, and behind np.linalg.lstsq.
from numpy.linalg._umath_linalg import cholesky_lo as _CHOLESKY
from numpy.linalg._umath_linalg import lstsq as _LSTSQ_GUFUNC


@dataclass(frozen=True)
class EngineSettings:
    """How every model is fitted: the estimation method, the Koyck decays
    each model chooses its lag from by smallest SSR (one decay fixes it), and
    the temperature-lag mode."""
    method: str = "exact_ml_ar1"
    decays: tuple = LAMBDA_GRID
    temp_mode: str = "hour"


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


@dataclass(frozen=True, eq=False)
class RunFit:
    """One model's fits of a run's days, as arrays; ``run[i]`` builds day i's :class:`FitResult`."""
    model_id: str
    method: str
    temp_mode: str
    lam: np.ndarray
    rho: np.ndarray
    ssr: np.ndarray
    coef: np.ndarray
    residuals: np.ndarray
    diagnostics: list
    target_block: np.ndarray

    def __len__(self) -> int:
        return len(self.coef)

    def __getitem__(self, i: int) -> FitResult:
        return FitResult(self.model_id, self.method, float(self.lam[i]), self.coef[i],
                         self.residuals[i], float(self.ssr[i]), float(self.rho[i]),
                         {**self.diagnostics[i], "temp_mode": self.temp_mode},
                         self.target_block[i])


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
    coef, residuals, ssr, rank = _solve(np.column_stack((design.matrix, design.response))[None])
    return FitResult(design.model_id, "ols", 0.0, coef[0], residuals[0], ssr[0], 0.0,
                     _rank_diagnostics(rank[0], design.matrix.shape[1]))


def _raise_svd_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq_stack(matrices: np.ndarray, responses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.lstsq(matrices[i], responses[i], rcond=None)`` for every
    slice of a stack, in one call.

    This calls the LAPACK (dgelsd) gufunc that ``np.linalg.lstsq`` calls, with
    the same rcond and floating-point error handling, so every slice's
    solution and rank have the same bits as the public call and a slice the
    SVD cannot solve raises ``LinAlgError``.
    """
    m, n = matrices.shape[-2:]
    rcond = np.finfo(np.float64).eps * max(m, n)
    with np.errstate(call=_raise_svd_error, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        coef, _, rank, _ = _LSTSQ_GUFUNC(
            matrices, responses[..., None], rcond, signature="ddd->ddid"
        )
    return coef[..., 0], rank


# The most slices that a whitened dgelsd solve (_gls_stack) or a bound on
# final SSRs (_GramSearch.final_ssr) works on at a time, which bounds their
# temporaries; every slice is solved alone, so chunks keep its bits.
_CHUNK = 32


def _gls_stack(systems: np.ndarray, rows: np.ndarray, rho: np.ndarray):
    """GLS coefficients, whitened SSR and rank of every slice ``systems[rows]``
    at its rho, ``_CHUNK`` slices at a time.  Each chunk is copied once and
    whitened in place by the stationary AR(1) transform that keeps the first
    row."""
    coef, ssr, rank = [], [], []
    for start in range(0, len(rows), _CHUNK):
        white, part = systems[rows[start:start + _CHUNK]], rho[start:start + _CHUNK]
        with np.errstate(over="ignore", invalid="ignore"):  # _solve rejects it
            white[:, 1:] -= part[:, None, None] * white[:, :-1]
            white[:, 0] *= np.sqrt(1.0 - part * part)[:, None]
        part_coef, _, part_ssr, part_rank = _solve(white)
        coef.append(part_coef)
        ssr += part_ssr
        rank.append(part_rank)
    return np.concatenate(coef), ssr, np.concatenate(rank)


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
    solved = _exact_ml_stack(np.column_stack((design.matrix, design.response))[None])[0]
    return FitResult(design.model_id, "exact_ml_ar1", 0.0, *solved)


# A decay's OLS SSR, a lower bound on its exact-ML fit's final SSR, drops
# its search only where it is above its group's threshold (another fit's
# final SSR, or a bound above one; see _exact_ml_stack) times (1 +
# _SSR_MARGIN) plus _SSR_FLOOR * y @ y.  The SSRs compared are rounded: each
# is the square norm of a residual that the solver's backward error and the
# residual's own matmul move by at most about u * |y|, so each is off by at
# most about 2u * sqrt(ssr * y @ y).  By the AM-GM inequality two together,
# 4u * sqrt(ssr * y @ y), stay under 1e-9 * ssr + 4e9 * u**2 * y @ y, which
# the margin and the floor cover for u up to 1.6e-11, about 70,000 ulps, at
# every ssr: a vanishing SSR never drops a decay whose residuals are within
# rounding of it.  A NaN or infinite threshold drops nothing.
_SSR_MARGIN = 1e-9
_SSR_FLOOR = 1e-12
# Below this magnitude the AR(1) whitening, |a - rho * b| <= |a| + |b| with
# |rho| < 1, cannot overflow, so no search can end in a non-finite system.
_HALF_MAX = float(np.finfo(np.float64).max) / 2.0
# The golden-section steps before which live rivals' final SSRs are bounded
# (_final_ssr_bounds).  A bound costs about as much as a probe of the same
# slices, and on the 31-day backtests, bounded at every step, all but a few
# of the rivals that are ever dropped are dropped by step 17.
_BOUND_STEPS = frozenset(range(8, 21, 3))


# The rho search needs only the outcome of each comparison fc >= fd of two
# log-likelihoods, each computed from the SSR of a dgelsd solve of the
# whitened system.  _GramSearch gives each a value within a proven radius of
# that log-likelihood, at the cost of one small Cholesky factor, and where
# two values differ by more than their radii the comparison has the exact
# outcome.  The argument, per slice, with u = 2**-53, gamma(m) = m u / (1 -
# m u), n rows, k columns and K = k + 1 (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., ch. 3, 8, 10 and 20):
#
# - Scaling.  The columns of S = [X | y] are scaled by powers of two, which
#   is exact, to norms in [1/2, 1].  The AR(1) whitening W (||W|| < 2) is
#   linear, so the Gram matrix of W S is G = A0 + rho A1 + rho**2 A2 with
#   A0 = S'S, A1 = -(S1'S0 + S0'S1) and A2 = S'S over rows 1 .. n-2 (S1
#   and S0 drop the first and the last row).  With v = [-c; 1] the scaled
#   SSR of c is v'Gv, whose least value s* is the square of the last
#   diagonal entry of G's Cholesky factor L.
# - Gram error.  The whitening the exact path computes moves each entry by
#   at most u (|s_t| + 2.01 |rho s_t-1|), and the first row, whose
#   sqrt(1 - rho**2) carries rho**2's rounding, by omega u |s_0|, omega =
#   2 + 0.5 / (1 - rho**2) <= OMEGA at RHO_BOUND.  With the moments' dot
#   products, the product forming G, and the factor's backward error
#   (Higham Thm 10.3, plus one rounding for a reciprocal), L L' is the Gram
#   matrix of the exact path's scaled system plus F, |F_ij| <= eps
#   (_bound_constants).
# - Inverse.  The factor of [[G, J], [J', T I]], J the first k columns of
#   the identity, holds L and below it Z, the first k rows of inv(L)'.  By
#   the same theorem L_xx Z_xx' = I + E1 with ||E1|| <= t = gamma(2k + 3)
#   ||L_xx||_F h, h = ||Z_xx||_F and ||L_xx||_F**2 <= 4.02 k; so where t <=
#   1/2 the exact path's Gram matrix of X has least eigenvalue lam >= ((1 -
#   t) / h)**2 - k eps.  T = 2**200 keeps the factor from failing.
# - Coefficients.  c = -l_yy Z_y.  The computed ||l_y - L_xx'c||, plus
#   gamma(K) (2.01 + ||L_xx||_F ||c||) for its rounding, times ||L_xx||_F,
#   plus K eps ||v||, bounds by gb the gradient g of the exact path's SSR at
#   c, so s*, which is that SSR less g'inv(G_xx)g, is within gb**2 / lam
#   of it.
# - A posteriori.  The whitened residual of c computed from S is within
#   zc = (2.01 gamma(K) + 2.02 u (omega + 3.01)) ||v||_1 of the exact
#   path's, and its SSR, computed within gamma(n+1), is x**2.
# - dgelsd.  Stated model: dgelsd is normwise backward stable; its solution
#   is the exact least-squares solution of X + E, y + f, and its rank the
#   rank of X + E, with ||E||_F <= p u ||X||_F, ||f|| <= p u ||y|| and p =
#   8 n k (Higham's gamma~(nk), ch. 20, with its constant made explicit).
#   In scaled units ||E|| <= e_a = p u nu, nu = 2.01 max(d) sqrt(sum(d**-2))
#   over the column scales d of X.  Where sqrt(lam) > 2 nu (rcond + 2 p u)
#   no singular value falls under dgelsd's rcond and e_a <= sqrt(lam) / 4;
#   its solution's exact SSR exceeds s* by at most phi**2 (Pythagoras), phi
#   = a_d (1 + e_a / s1), a_d = e_a (1.0001 x / s1 + ||c*||) + 2.01 p u,
#   s1 = sqrt(lam) - e_a, ||c*|| <= ||c|| + gb / lam; its computed residual
#   is within zd = 2.02 gamma(K) (||v||_1 + sqrt(k) (gb / lam + a_d / s1))
#   of exact, its SSR within gamma(n+1).
# - Log-likelihood.  With a = (zc + zd) / x, P = phi**2 / x**2 and D =
#   gb**2 / (lam x**2), where a + P + D <= 2**-19, the exact path's SSR and
#   x**2 both lie in [lo, hi] with hi / lo - 1 <= W = (1 + 2**-14) (5
#   gamma(n+1) + 4 a + P + 2 D) (first order in each; the remainder is
#   under 2**-14 of it).  So the two log-likelihoods differ by at most 0.5
#   n W (log x <= x - 1) plus the rounding of both evaluations, under
#   2**-44 (n (3 + |log(ssr/n)|) + 8).  Norms computed in floating point
#   are within 2**-40 of exact, which a factor 1 + 2**-12 on W covers.
#
# Every column's largest magnitude lies in [2**-250, 2**250] and the scaled
# SSR x**2 is at least 2**-299, so nothing overflows, the exact SSR is
# positive, and every underflow error is under 2**-270 of what it perturbs,
# which the margins of 0.01 cover.  Other slices, and those whose rho = 0
# solve is rank-deficient, are searched with dgelsd throughout.  A failed
# factor (NaN), a near-singular one, a tiny SSR and a bound outside its
# first-order range get an infinite radius.
_U = 2.0 ** -53
_OMEGA = 2.0 + 0.5 / (1.0 - RHO_BOUND * RHO_BOUND)
_SCALE_RANGE = 2.0 ** 250
_SCALED_SSR_FLOOR = 2.0 ** -299
_T = 2.0 ** 200


def _gamma(m: int) -> float:
    return m * _U / (1.0 - m * _U)


class _GramSearch:
    """The log-likelihoods of a stack of in-range ``[design | response]``
    systems at their probes, each with the radius the argument above gives
    (infinite where it fails), and bounds on their final SSRs
    (``final_ssr``).  ``rows`` are the positions in their search of the
    slices still certifying, ``held`` of those still searched; ``keep``
    drops the slices whose search turns exact from ``rows``, ``drop`` the
    slices that stop searching from both.

    Per certifying slice it holds the system, scaled in place in ``stack``
    (each probe reads its design and response through views); per held
    slice, the three moments of the lower triangle of G, which is all the
    factor reads."""

    def __init__(self, stack: np.ndarray, rows: np.ndarray):
        count, n, width = stack.shape
        k = width - 1
        exponent = np.frexp(np.abs(stack).max(axis=1))[1]
        np.ldexp(stack, -exponent[:, None, :], out=stack)
        norms = np.frexp(np.sqrt(np.vecdot(stack, stack, axis=1)))[1]
        np.ldexp(stack, -norms[:, None, :], out=stack)
        exponent += norms
        self.lower = i, j = np.tril_indices(width)
        lagged = np.matmul(stack[:, 1:].swapaxes(1, 2), stack[:, :-1])
        # G = A0 + rho A1 + rho**2 A2 is their product with (1, rho, rho**2).
        moments = np.empty((count, len(i), 3))
        moments[..., 0] = np.matmul(stack.swapaxes(1, 2), stack)[:, i, j]
        moments[..., 1] = -(lagged + lagged.swapaxes(1, 2))[:, i, j]
        moments[..., 2] = np.matmul(stack[:, 1:-1].swapaxes(1, 2), stack[:, 1:-1])[:, i, j]
        # The rows of [J', T I] below G, which each factor overwrites.
        self.below = np.hstack((np.eye(k), np.zeros((k, 1)), _T * np.eye(k)))
        scale = np.ldexp(1.0, -exponent[:, :k])
        nu = 2.01 * scale.max(axis=1) * np.sqrt((scale ** -2.0).sum(axis=1))
        self.constants = _bound_constants(n, k)
        pu, rcond = self.constants[3], np.finfo(np.float64).eps * max(n, k)
        self.rows = rows
        self.held = rows
        self.scaled = stack
        self.moments = moments
        # Per slice: e_a, the least lam with no rcond truncation, and the
        # power of two that scales the SSR back.
        self.per_slice = (pu * nu, (2.0 * nu * (rcond + 2.0 * pu)) ** 2, 2 * exponent[:, k])

    def keep(self, mask: np.ndarray) -> None:
        self.rows = self.rows[mask]
        self.scaled = self.scaled[mask]

    def drop(self, live: np.ndarray) -> None:
        """Forget the slices of the search that ``live`` (over its
        positions) marks False, and renumber the others."""
        self.keep(live[self.rows])
        mask = live[self.held]
        self.moments = self.moments[mask]
        self.per_slice = tuple(a[mask] for a in self.per_slice)
        position = np.cumsum(live) - 1
        self.rows, self.held = position[self.rows], position[self.held[mask]]

    def _factor(self, moments: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """The factor of [[G, J], [J', T I]] at each slice's rho."""
        k = self.below.shape[0]
        powers = np.ones((len(rho), 3, 1))
        powers[:, 1, 0] = rho
        powers[:, 2, 0] = rho * rho
        fac = np.empty((len(rho), 2 * k + 1, 2 * k + 1))
        fac[:, k + 1:] = self.below
        i, j = self.lower
        fac[:, i, j] = np.matmul(moments, powers)[:, :, 0]
        return _CHOLESKY(fac, out=fac)

    def loglik(self, rho: np.ndarray) -> np.ndarray:
        """Value and radius, (2, slices), of each certifying slice at its
        ``rho``."""
        k = self.scaled.shape[2] - 1
        if len(self.rows) == len(self.held):
            moments, per_slice = self.moments, self.per_slice
        else:
            at = np.searchsorted(self.held, self.rows)
            moments, per_slice = self.moments[at], tuple(a[at] for a in self.per_slice)
        fac = self._factor(moments, rho)
        z = fac[:, k + 1:, :k + 1]
        q = z[:, :, k] * fac[:, k, k, None]  # -c
        e = self.scaled[:, :, k] + np.matmul(self.scaled[:, :, :k], q[:, :, None])[:, :, 0]
        r = e[:, 1:] - rho[:, None] * e[:, :-1]
        res = fac[:, k, :k] + np.matmul(q[:, None, :], fac[:, :k, :k])[:, 0]
        squares = np.vecdot(z, z, axis=1)
        columns = (rho, np.vecdot(r, r), e[:, 0], np.abs(q).sum(axis=1),
                   squares[:, k] * (fac[:, k, k] * fac[:, k, k]), squares[:, :k].sum(axis=1),
                   np.vecdot(res, res), *per_slice)
        return np.array([_loglik_bound(self.constants, *slice_)
                         for slice_ in zip(*(a.tolist() for a in columns))]).reshape(-1, 2).T

    def final_ssr(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """For each held slice, whose rho-hat lies in [lo, hi]: bounds on
        the computed SSR of its final fit at rho-hat, and a floor under the
        computed log-likelihood at rho-hat, (3, slices) (see the argument
        beside ``_final_ssr_bounds``); (0, inf, -inf) where they fail."""
        k = self.below.shape[0]
        width = k + 1
        i, j = self.lower
        out = []
        for start in range(0, len(self.held), _CHUNK):
            part = slice(start, start + _CHUNK)
            moments, rho = self.moments[part], 0.5 * (lo[part] + hi[part])
            fac = self._factor(moments, rho)
            v = np.ones((len(rho), width))
            v[:, :k] = fac[:, width:, k] * fac[:, k, k, None]  # -c
            full = np.empty((len(rho), 3, width, width))
            full[:, :, i, j] = full[:, :, j, i] = moments.swapaxes(1, 2)
            out.append(_final_ssr_bounds(self.constants, tuple(a[part] for a in self.per_slice),
                                         lo[part], hi[part], rho, fac[:, width:, :k], v, full))
        return np.concatenate(out, axis=1)


def _bound_constants(n: int, k: int) -> tuple:
    """The constants of the argument above for n rows and k columns."""
    eps = (4.02 * _gamma(n) + 16.1 * _U + 4.01 * _U * (_OMEGA + 3.01)
           + 4.02 * _gamma(2 * k + 3))  # the bound on every entry of F
    root_k = math.sqrt(4.02 * k)  # bounds ||L_xx||_F
    gamma_k = _gamma(k + 1)
    return (n, k * eps, _gamma(2 * k + 3) * root_k, 8.0 * n * k * _U,
            root_k, 2.01 * root_k * gamma_k, root_k * root_k * gamma_k, (k + 1) * eps,
            2.01 * gamma_k + 2.02 * _U * 5.01, 2.02 * _U * 0.5, 2.02 * gamma_k, math.sqrt(k),
            5.0 * _gamma(n + 1), -0.5 * n * (math.log(2.0 * math.pi) + 1.0))


_UNCERTIFIED = (math.nan, math.inf)


def _loglik_bound(constants, rho, tail, e0, c1, c2_sq, h_sq, res_sq, e_a, lam_min, shift):
    """``(value, radius)`` of one slice at ``rho``, from the whitened SSR of
    its residual's tail and its first residual, and from ||c||_1, ||c||**2,
    ||Z_xx||_F**2 and ||l_y - L_xx'c||**2 (see above)."""
    (n, k_eps, t_per_h, pu, root_k, g0, g1, g2, z_c, z_w, z_d, root_k1, gamma5,
     base) = constants
    h = math.sqrt(h_sq)
    t = t_per_h * h
    lam = ((1.0 - t) / h) ** 2 - k_eps
    if not (t <= 0.5 and lam > lam_min):
        return _UNCERTIFIED  # a failed or near-singular factor
    one_less = 1.0 - rho * rho
    ssr = tail + one_less * (e0 * e0)
    if not ssr >= _SCALED_SSR_FLOOR:
        return _UNCERTIFIED  # the exact SSR could underflow: loglik +inf
    s1 = math.sqrt(lam) - e_a
    c2, v1, x = math.sqrt(c2_sq), 1.0 + c1, math.sqrt(ssr)
    gb = root_k * math.sqrt(res_sq) + g0 + g1 * c2 + g2 * v1
    gl = gb / lam
    a_d = e_a * (1.0001 * x / s1 + c2 + gl) + 2.01 * pu
    a = ((z_c + z_w / one_less) * v1 + z_d * (v1 + root_k1 * (gl + a_d / s1))) / x
    p = (a_d * (1.0 + e_a / s1)) ** 2 / ssr
    d = gb * gl / ssr
    if not a + p + d <= 2.0 ** -19:
        return _UNCERTIFIED
    log_ssr = math.log(math.ldexp(ssr, shift) / n)
    width = (1.0 + 2.0 ** -12) * (1.0 + 2.0 ** -14) * (gamma5 + 4.0 * a + p + 2.0 * d)
    return (base - 0.5 * n * log_ssr + 0.5 * math.log(one_less),
            0.5 * n * width + 2.0 ** -44 * (n * (3.0 + abs(log_ssr)) + 8.0))


# A rival decay may stop its search once its final SSR is certainly above
# another slice's in its group (_exact_ml_stack): that slice's final SSR
# is then below it, so it cannot be the group's first minimum.  A certified
# comparison has the exact outcome, so at every step its rho-hat, half the
# sum of its last bracket, lies in its bracket [lo, hi] (each golden-section
# probe lies in its bracket in floating point too), also after the slice
# has turned exact.  Its final SSR is the computed ||y - X c_d||**2 of the
# dgelsd solution c_d at rho-hat, or, if the log-likelihood there is below
# the one at rho = 0 (fallback), of its rho = 0 solution.  The argument, in
# the scaled units above, with G(rho) = A0 + rho A1 + rho**2 A2 exact, A2 =
# S'S over rows 1 .. n-2 positive semidefinite, and w >= |rho-hat - m| for
# the bracket's midpoint m:
#
# - Reference.  The factor of [[G(m), J], [J', T I]] gives L (its xx block
#   L_xx, H = L_xx L_xx'), Z_xx, and c_m; v = [-c_m; 1].  L Z_xx' = I + E1,
#   ||E1|| <= t (above), so i = h / (1 - t) >= ||inv(L_xx)||, and H is G_xx(m)
#   plus F with |F_ij| <= 2 eps (the exact path's Gram and the exact G(m)
#   differ by the whitening's share of eps), so kF = 2 k eps i**2 bounds
#   ||inv(L_xx) (G_xx(m) - H) inv(L_xx)'||.
# - Quantities through Z.  For a vector b computed from the moments, each
#   entry within eps ||v||_1 of exact, Z_xx'b is inv(L_xx) b within err = i
#   (sqrt(k) eps ||v||_1 + (t + gamma(k)) ||b||), and a product of two such
#   vectors within N_a err_b + err_a N_b + gamma(k) N_a N_b, N their computed
#   norms times 1 + 2**-40 plus err.  For a matrix A of the moments, with
#   entries within e_A of exact (eps for A0 and A2, 3 eps for G' = A1 + 2 m
#   A2), ||inv(L_xx) A_xx inv(L_xx)'|| is at most the Frobenius norm of
#   Z_xx'A_xx Z_xx times 1 + 2**-40, plus i**2 (k e_A + (3 t + 2 gamma(k))
#   ||A_xx||_F).  This gives zeta**2, mu1 and mu2 for A0, G'(m) and A2.
# - Coefficients over the bracket.  With tau = rho - m, |tau| <= w: G(rho)
#   is G(m) + tau G'(m) + tau**2 A2, at least G(m) + tau G'(m) (A2 is
#   semidefinite), so in the coordinates of L_xx it is at least D = 1 - kF -
#   w mu1 times I.  c*(rho) - c_m = inv(G_xx(rho)) b(rho), b(rho) = [G(rho)
#   v]_x = b0 + tau b1 + tau**2 b2, so ||L_xx'(c*(rho) - c_m)|| <= Delta =
#   (N_b0 + w N_b1 + w**2 N_b2) / D.
# - SSR over the bracket.  f(rho) = ||y - X c*(rho)||**2 = q - 2 a'(c* - c_m)
#   + (c* - c_m)'A0_xx(c* - c_m), q = v'A0 v, a = [A0 v]_x.  Expanding
#   inv(G_xx(rho)) = inv(H) - inv(H) (G_xx(rho) - H) inv(G_xx(rho)), a'(c* -
#   c_m) is p0 + tau p1 + tau**2 p2 (p_r the product of Z'a and Z'b_r) within
#   N_a (kF + w mu1 + w**2 mu2) Delta, and the last term is in [0, zeta**2
#   Delta**2].  q is computed within 2 eps ||v||_1**2.
# - Final fit.  Let A = W X at rho-hat and b = W y, exact.  The computed
#   whitened system and dgelsd's backward error make A + E', b + f', ||E'||
#   <= eE = e_a + u (omega + 3.01) sqrt(k), ||f'|| <= ef = 2.01 p u + u
#   (omega + 3.01).  sigma = sqrt(D) / i bounds A's least singular value;
#   where sigma - eE > sqrt(lam_min) nothing is truncated (above).  v'G(rho)
#   v is a convex quadratic in rho, so at rho-hat the residual of c_m is at
#   most sqrt(Qmax), Qmax its larger value at lo and hi (within 8 eps
#   ||v||_1**2), and the perturbed residual of c_d, which is least, at most
#   R = sqrt(Qmax) + ef + eE ||c_m||.  The perturbed normal equations give
#   ||A (c_d - c*)|| <= eE (R / sigma + ||c_d||) + ef, and ||c_d|| <= ||c_m||
#   + i Delta + ||A (c_d - c*)|| / sigma, so ||A (c_d - c*)|| <= phi = (eE (R
#   / sigma + ||c_m|| + i Delta) + ef) / (1 - eE / sigma) and ||c_d|| <= C =
#   ||c_m|| + i Delta + phi / sigma.  So ||X (c_d - c*)|| <= zeta phi /
#   sqrt(D); the residual's rounding adds gamma(K) (1 + sqrt(k) C) and the
#   SSR's a factor 1 +- gamma(n+1).  The final SSR, unless it falls back,
#   lies between the bounds so found from f's least and largest values.
# - No fallback.  The computed whitened SSR at rho-hat is at most U,
#   sqrt(U) = sqrt(1 + gamma(n+1)) (R + ef + eE C + 2.01 gamma(K) (1 +
#   sqrt(k) C)), so its computed log-likelihood is at least the floor that
#   U and 1 - max(lo**2, hi**2) give, less 2**-43 (n (3 + |log(U/n)|) + 8)
#   for the rounding of both evaluations.  Above the computed rho = 0
#   log-likelihood, that floor rules the fallback out.
#
# Each bound is widened by 2**-44 of its terms' magnitudes for its own
# rounding.  A failed factor (NaN), t > 1/2, D < 1/2 and sigma - eE <=
# sqrt(lam_min) give no bound.
def _final_ssr_bounds(constants, per_slice, lo, hi, mid, z, v, full) -> np.ndarray:
    """(lower, upper, loglik floor), (3, slices), from the factor at each
    bracket's midpoint: its Z_xx ``z``, ``v`` and the full moments ``full``
    (slices, 3, K, K)."""
    n, k_eps, t_per_h, pu = constants[:4]
    base = constants[-1]
    k = z.shape[1]
    e_a, lam_min, shift = per_slice
    eps, root_k, g_k, g_big = k_eps / k, math.sqrt(k), _gamma(k), _gamma(k + 1)
    w = np.maximum(hi - mid, mid - lo) * (1.0 + 2.0 ** -50)
    h = np.sqrt((z * z).sum(axis=(1, 2)))
    t = t_per_h * h
    inv = h / (1.0 - t)
    v1 = np.abs(v).sum(axis=1)
    av = np.matmul(full, v[:, None, :, None])[..., 0]  # A0 v, A1 v, A2 v
    quad = np.vecdot(av, v[:, None, :])
    mid1, mid2 = mid[:, None], (mid * mid)[:, None]
    b = np.stack((av[:, 0], av[:, 0] + mid1 * av[:, 1] + mid2 * av[:, 2],
                  av[:, 1] + 2.0 * mid1 * av[:, 2], av[:, 2]), axis=1)[:, :, :k]  # a, b0..b2
    zb = np.matmul(b, z)
    err = inv[:, None] * (root_k * eps * v1[:, None]
                          + (t[:, None] + g_k) * np.sqrt(np.vecdot(b, b)))
    big = np.sqrt(np.vecdot(zb, zb)) * (1.0 + 2.0 ** -40) + err
    p = np.vecdot(zb[:, :1], zb[:, 1:])
    dp = big[:, :1] * err[:, 1:] + err[:, :1] * big[:, 1:] + g_k * big[:, :1] * big[:, 1:]
    # Z_xx'A Z_xx for A0, A1 and A2; G'(m) = A1 + 2 m A2 by linearity.
    congruent = np.matmul(z.swapaxes(1, 2)[:, None], np.matmul(full[:, :, :k, :k], z[:, None]))
    congruent[:, 1] += 2.0 * mid[:, None, None] * congruent[:, 2]
    flat, whole = congruent.reshape(len(mid), 3, -1), full.reshape(len(mid), 3, -1)
    size = np.sqrt(np.vecdot(whole, whole))  # ||A||_F >= ||A_xx||_F
    size[:, 1] += 2.0 * np.abs(mid) * size[:, 2]
    norms = (np.sqrt(np.vecdot(flat, flat)) * (1.0 + 2.0 ** -40)
             + (inv * inv)[:, None] * (k * eps * np.array([1.0, 3.0, 1.0])
                                       + (3.0 * t[:, None] + 2.0 * g_k) * size))
    zeta_sq, mu1, mu2 = norms.T
    k_f = 2.0 * k * eps * inv * inv
    d = 1.0 - k_f - w * mu1
    delta = (big[:, 1] + w * big[:, 2] + w * w * big[:, 3]) / d
    drift = (2.0 * (dp[:, 0] + w * dp[:, 1] + w * w * dp[:, 2])
             + 2.0 * big[:, 0] * (k_f + w * mu1 + w * w * mu2) * delta + 2.0 * eps * v1 * v1)
    sure = 2.0 * (p[:, 0] + w * np.abs(p[:, 1]))
    f_lo = quad[:, 0] - sure - 2.0 * w * w * np.maximum(p[:, 2], 0.0) - drift
    f_hi = (quad[:, 0] - sure + 4.0 * w * np.abs(p[:, 1]) - 2.0 * w * w * np.minimum(p[:, 2], 0.0)
            + drift + zeta_sq * delta * delta)
    rounding = 2.0 ** -44 * (quad[:, 0] + 2.0 * (np.abs(p[:, 0]) + w * np.abs(p[:, 1])
                                                 + w * w * np.abs(p[:, 2]))
                             + drift + zeta_sq * delta * delta)
    e_w = _U * (_OMEGA + 3.01)
    e_big, e_f = e_a + e_w * root_k, 2.01 * pu + e_w
    sigma = np.sqrt(d) / inv
    top = np.maximum(np.abs(lo), np.abs(hi))
    ends = np.stack((lo, hi), axis=1)
    ends = quad[:, :1] + ends * (quad[:, 1:2] + ends * quad[:, 2:])
    q_max = (ends.max(axis=1) + 8.0 * eps * v1 * v1) * (1.0 + 2.0 ** -44)
    c_m = np.sqrt(np.vecdot(v[:, :k], v[:, :k]))
    r_big = np.sqrt(q_max) + e_f + e_big * c_m
    phi = (e_big * (r_big / sigma + c_m + inv * delta) + e_f) / (1.0 - e_big / sigma)
    c_big = c_m + inv * delta + phi / sigma
    r_f = np.sqrt(zeta_sq) * phi / np.sqrt(d) + g_big * (1.0 + root_k * c_big)
    scale = np.ldexp(1.0, shift)
    lower = ((1.0 - _gamma(n + 1)) * (1.0 - 2.0 ** -44) * scale
             * np.maximum(np.sqrt(np.maximum(f_lo - rounding, 0.0)) - r_f, 0.0) ** 2)
    upper = ((1.0 + _gamma(n + 1)) * (1.0 + 2.0 ** -44) * scale
             * (np.sqrt(f_hi + rounding) + r_f) ** 2)
    u_big = ((1.0 + _gamma(n + 1)) * (1.0 + 2.0 ** -44) * scale
             * (r_big + e_f + e_big * c_big + 2.01 * g_big * (1.0 + root_k * c_big)) ** 2)
    log_u = np.log(u_big / n)
    floor = (base - 0.5 * n * log_u + 0.5 * np.log1p(-top * top)
             - 2.0 ** -43 * (n * (3.0 + np.abs(log_u)) + 8.0))
    ok = (t <= 0.5) & (d >= 0.5) & (sigma - e_big > np.sqrt(lam_min)) & np.isfinite(
        lower + upper + floor)
    return np.where(ok, np.array([lower, upper, floor]),
                    np.array([0.0, math.inf, -math.inf])[:, None])


def _exact_loglik(systems: np.ndarray, rows: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The log-likelihood of each slice ``systems[rows]`` at its ``rho``, from
    the SSR of a dgelsd solve of its whitened system."""
    _, ssr, _ = _gls_stack(systems, rows, rho)
    n = systems.shape[1]
    return np.array([_concentrated_loglik(s, r, n) for s, r in zip(ssr, rho.tolist())])


def _rho_search(systems: np.ndarray, search: np.ndarray, exact: np.ndarray,
                losing=None) -> np.ndarray:
    """The golden-section estimate of rho of every slice ``systems[search]``,
    searched in lockstep for ``RHO_STEPS`` steps.  Comparisons are decided by
    ``_GramSearch`` while its radii allow; the slices marked ``exact``, and
    each slice from its first comparison that the radii cannot decide, are
    whitened and solved with dgelsd at every probe.

    ``losing(slices, lower, upper, floor)``, where given, marks the slices
    that cannot win their group from bounds on their final SSRs and floors
    under their log-likelihoods at rho-hat (see ``_final_ssr_bounds``;
    ``(0, inf, -inf)`` where there are none): it is asked before the first
    probe without bounds and at the steps ``_BOUND_STEPS`` with them, and
    the slices it marks stop their search and get rho NaN."""
    unbounded = np.array([0.0, math.inf, -math.inf])[:, None]
    rho_hat = np.full(len(search), math.nan)
    live = np.arange(len(search))
    if losing is not None:
        kept = ~losing(search, *np.repeat(unbounded, len(search), axis=1))
        live, search, exact = live[kept], search[kept], exact[kept]
    if not len(search):
        return rho_hat
    gram = _GramSearch(systems[search[~exact]], np.flatnonzero(~exact))
    exact_rows = np.flatnonzero(exact)

    def probe(rho: np.ndarray) -> np.ndarray:
        """Each slice's log-likelihood at its rho and a radius that bounds
        its distance from the exact one (0 where it is exact)."""
        out = np.zeros((2, len(search)))
        if len(exact_rows):
            out[0, exact_rows] = _exact_loglik(systems, search[exact_rows], rho[exact_rows])
        if len(gram.rows):
            out[:, gram.rows] = gram.loglik(rho[gram.rows])
        return out

    lo = np.full(len(search), -RHO_BOUND)
    hi = np.full(len(search), RHO_BOUND)
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = probe(c), probe(d)
    for index in range(RHO_STEPS):
        if losing is not None and index in _BOUND_STEPS and len(gram.held):
            bounds = np.repeat(unbounded, len(search), axis=1)
            bounds[:, gram.held] = gram.final_ssr(lo[gram.held], hi[gram.held])
            kept = ~losing(search, *bounds)
            if not kept.all():
                gram.drop(kept)
                live, search, exact, lo, hi, c, d = (
                    a[kept] for a in (live, search, exact, lo, hi, c, d))
                fc, fd = fc[:, kept], fd[:, kept]
                exact_rows = np.flatnonzero(exact)
                if not len(search):
                    return rho_hat
        # A comparison the radii cannot decide is made with dgelsd, and its
        # slice is searched with dgelsd from then on.
        unsure = ~exact & ~(np.abs(fc[0] - fd[0]) > fc[1] + fd[1])
        if unsure.any():
            exact |= unsure
            exact_rows = np.flatnonzero(exact)
            gram.keep(~unsure[gram.rows])
            rows = search[unsure]
            both = _exact_loglik(systems, np.concatenate((rows, rows)),
                                 np.concatenate((c[unsure], d[unsure])))
            fc[0, unsure], fd[0, unsure] = np.split(both, 2)
        left = fc[0] >= fd[0]  # a NaN comparison moves the bracket right
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
        step = _GOLDEN * (hi - lo)
        c, d = np.where(left, hi - step, d), np.where(left, c, lo + step)
        value = probe(np.where(left, c, d))
        fc, fd = np.where(left, value, fd), np.where(left, fc, value)
    rho_hat[live] = 0.5 * (lo + hi)
    return rho_hat


# Loads near the double range overflow y @ y and the SSRs: the tie-break test
# rescales, and an infinite SSR has likelihood -inf and ranks last on the
# decay grid.  A failed Gram factor is NaN, and log-likelihoods compared in
# the rho search can be infinite.
@np.errstate(over="ignore", invalid="ignore")
def _exact_ml_stack(systems: np.ndarray, group: int = 1) -> list:
    """Exact-ML AR(1) fit of every slice of a stack of ``[design |
    response]`` systems, as ``(coef, residuals, ssr, rho, diagnostics)``, or
    ``None`` for a slice whose fit cannot win its group.

    The stack is made of consecutive groups of ``group`` slices that share
    their response and compete for the smallest final SSR, as a window's
    decays do in ``fit_models``.  The rho searches run in lockstep: each
    golden-section step evaluates every slice at its own probe.  A slice's
    comparisons are decided by its Gram-matrix log-likelihoods while their
    radii (see ``_GramSearch``) allow; from the first they do not, it is
    whitened and solved with dgelsd, stacked with the other such slices.
    Every search takes ``RHO_STEPS`` steps, as it would alone, and the
    branches it would take alone, so every slice's result has the same bits.

    A first lockstep searches each group's slice with the smallest OLS SSR
    (the rho = 0 solve), a second the others, its rivals.  A rival stops, or
    never starts, its search once its final SSR is certainly above another
    slice's in its group: above the threshold, the smaller of the first
    fit's final SSR and every live rival's upper bound (see
    ``_final_ssr_bounds``).  Its final SSR is at least its OLS SSR (within
    the margin above), and, where a floor under its log-likelihood at
    rho-hat rules out the fallback to rho = 0, at least its lower bound.  A
    dropped rival's final SSR would have been strictly above another's, so
    it could not be its group's first minimum, and the second lockstep ends
    once no rival is live.  Nothing is dropped from a group holding a
    rank-deficient rho = 0 solve (dgelsd's truncation can leave its SSR above
    the minimum), nor anywhere in a stack holding a value of magnitude at
    least DBL_MAX / 2 (a dropped search could have overflowed and raised);
    slices outside the argument's range, and where a factor fails or is near
    singular, get no bounds.

    Beside the stack, a slice holds its response, its rho = 0 fit and,
    while searched, its ``_GramSearch`` state.  Every whitened dgelsd solve
    and every bound on final SSRs works on at most ``_CHUNK`` slices at a
    time.
    """
    count, n, width = systems.shape
    k = width - 1
    responses = np.ascontiguousarray(systems[:, :, k])  # y @ y sums a contiguous y
    tops = np.abs(systems).max(axis=1)
    # Where the argument above holds: every column's largest magnitude lies
    # in [2**-250, 2**250].
    in_range = ((tops >= 1.0 / _SCALE_RANGE) & (tops <= _SCALE_RANGE)).all(axis=1)

    coef0, ssr0, rank0 = _gls_stack(systems, np.arange(count), np.zeros(count))
    ties = [i for i in range(count) if _residuals_vanish(ssr0[i], responses[i])]
    fits = {}
    if ties:
        coef, resid, ssr, rank = _solve(systems[ties])
        for j, i in enumerate(ties):
            fits[i] = (coef[j], resid[j], ssr[j], 0.0,
                       {**_rank_diagnostics(rank[j], k), "rho_tie_break": True})

    def search_rho(slices: list, losing=None) -> None:
        if not slices:
            return
        search = np.array(slices, dtype=int)
        rho_hat = _rho_search(systems, search, (rank0[search] < k) | ~in_range[search], losing)
        searched = ~np.isnan(rho_hat)  # the others cannot win their group
        search, rho_hat = search[searched], rho_hat[searched]
        if not len(search):
            return
        coef_hat, ssr_hat, rank_hat = _gls_stack(systems, search, rho_hat)

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
        residuals, ssr = _residuals(systems[search, :, :k], responses[search], coefs)
        for j, i in enumerate(search.tolist()):
            fits[i] = (coefs[j], residuals[j], ssr[j], *kept[j])

    starts = range(0, count, group)
    firsts = [min(range(g, g + group), key=ssr0.__getitem__) for g in starts]
    search_rho([i for i in firsts if i not in fits])

    # Each group's SSRs in units of top**2, the square of its response's
    # largest magnitude, so that y @ y cannot overflow.
    top = np.max(np.abs(responses[firsts]), axis=1)
    able = (top > 0.0) & (rank0.reshape(-1, group) == k).all(axis=1) & (tops.max() < _HALF_MAX)
    top = np.where(able, top, 1.0)
    unit = responses[firsts] / top[:, None]
    ssr_floor = _SSR_FLOOR * np.vecdot(unit, unit)
    ceiling = np.array([fits[first][2] for first in firsts]) / top / top
    ols = np.array(ssr0) / np.repeat(top, group) / np.repeat(top, group)
    loglik0 = np.array([_concentrated_loglik(s, 0.0, n) for s in ssr0])

    def losing(slices, lower, upper, floor):
        """The slices whose final SSR is certainly above another's in their
        group: above the first fit's, or above a live rival's upper bound."""
        g = slices // group
        threshold = ceiling.copy()
        np.minimum.at(threshold, g, upper / top[g] / top[g])
        threshold = threshold[g]
        # The final SSR is at least the OLS SSR (within the margin), and
        # where the fallback to rho = 0 is ruled out, at least ``lower``.
        above = (ols[slices] > threshold * (1.0 + _SSR_MARGIN) + ssr_floor[g]) | (
            (floor > loglik0[slices]) & (lower / top[g] / top[g] > threshold))
        return able[g] & above

    search_rho([i for i in range(count) if i not in fits], losing)
    return [fits.get(i) for i in range(count)]


# The benchmark tracer (perfbench/tracing.py) also looks this name up.
def fit_model(window: SeriesWindow, model_id: str, settings: EngineSettings) -> FitResult:
    """Fit one model for the first target day of a window:
    ``fit_models(window, model_id, settings)[0]``."""
    return fit_models(window, model_id, settings)[0]


def _kept_decays(ssr: np.ndarray) -> np.ndarray:
    """Each row's first minimum, as ``min(range(n), key=row.__getitem__)``
    picks it: a NaN only at decay 0, where ``np.argmin`` keeps the first."""
    best = np.zeros(len(ssr), dtype=int)
    for j in range(1, ssr.shape[1]):
        best[ssr[:, j] < ssr[np.arange(len(ssr)), best]] = j
    return best


def fit_models(window: SeriesWindow, model_id: str, settings: EngineSettings) -> RunFit:
    """Fit one model to each target day of a window by ``settings.method``,
    over each day's training rows in ``settings.temp_mode`` (see
    ``run_designs``).

    Each day is fitted at every Koyck decay in ``settings.decays`` (the grid
    {0.0, ..., 0.9} of ``EngineSettings()``; ``(0.0,)`` turns the lag off)
    and keeps the minimal-SSR fit, the earliest decay on a tie, with its
    target-day regressors at that decay.  The designs of every day and decay
    are solved together, in one stacked least-squares call for OLS or two
    lockstep rho searches for exact ML; day i of the :class:`RunFit` has the
    bits of its one-day window fitted alone.  Exact ML prunes the decays:
    one whose final SSR is certainly above another decay's, from its OLS SSR
    before its rho search or from bounds during it, cannot have the minimal
    final SSR, so its search stops (see ``_exact_ml_stack``) and it ranks
    last.  The kept decay, and every bit of its fit, are those of the full
    list.  A design or whitened system that is not finite raises
    :class:`DegeneracyError` naming the model's formula, and so does an SVD
    that does not converge.
    """
    decays, temp_mode = settings.decays, settings.temp_mode
    systems, targets = design_matrix(window, model_id, decays, temp_mode)
    count, n_decays, n, width = systems.shape
    systems = systems.reshape(count * n_decays, n, width)
    try:
        if settings.method == "ols":
            coef, residuals, ssr, rank = _solve(systems)
        else:
            solved = _exact_ml_stack(systems, n_decays)
            # A decay whose search was dropped could not win: it ranks last.
            ssr = [math.inf if s is None else s[2] for s in solved]
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise DegeneracyError(f"model {model_id}: {exc}", EQUATIONS[model_id]) from None
    best = _kept_decays(np.reshape(ssr, (count, n_decays)))
    kept = np.arange(count) * n_decays + best
    if settings.method == "ols":
        coef, residuals, ssr, rho = coef[kept], residuals[kept], np.take(ssr, kept), np.zeros(count)
        diagnostics = [_rank_diagnostics(r, width - 1) for r in rank[kept].tolist()]
    else:
        coef, residuals, ssr, rho, diagnostics = zip(*(solved[i] for i in kept.tolist()))
    return RunFit(model_id, settings.method, temp_mode, np.take(decays, best), np.asarray(rho),
                  np.asarray(ssr), np.asarray(coef), np.asarray(residuals), list(diagnostics),
                  targets[np.arange(count), best])


def forecast_day(fits: dict) -> tuple[np.ndarray, np.ndarray]:
    """The forecasts of a run of days, (3, days, 24) in model order, from
    ``{model_id: RunFit}``, or ``{model_id: FitResult}`` for one day: each
    day's target-day regressors times its coefficients (the gemv of
    ``target_block @ coef``, as one slice of a stacked matmul), clamped to
    1 MW from below.  Also returns whether each model's prediction is
    finite, (3, days)."""
    with np.errstate(over="ignore", invalid="ignore"):  # the mask marks it
        raw = np.stack([np.matmul(fits[m].target_block, fits[m].coef[..., None])[..., 0]
                        .reshape(-1, 24) for m in MODEL_IDS])
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
