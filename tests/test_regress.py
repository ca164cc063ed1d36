import datetime as dt
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dayahead import backtest, regress
from dayahead.features import LAMBDA_GRID, run_designs, target_regressors
from dayahead.ingest import Dataset, SynthParams, assemble_window, synth_dataset
from dayahead.regress import (
    _concentrated_loglik,
    ensemble_mean,
    exact_ml_ar1_fit,
    fit_model,
    forecast_day,
    ols_fit,
)

import oracles
from fixtures import perturbed_temperatures
from conftest import (
    TARGET,
    dataset_of,
    day,
    last_day_window,
    make_window,
    profile,
    same_bits,
    stacked,
)
from oracles import (
    COLUMN_NAMES,
    MODEL_A_COEFFS,
    DesignMatrix,
    design_matrix,
    legal_training_days,
    model_a_records,
)


def full_rank_design(model_id="a", seed=2, lam=0.0) -> DesignMatrix:
    window = last_day_window(SynthParams(days=12, seed=seed))
    return design_matrix(
        window, model_id, legal_training_days(window, model_id), lam
    )


def with_response(design: DesignMatrix, y: np.ndarray) -> DesignMatrix:
    return DesignMatrix(
        model_id=design.model_id,
        rows=design.rows,
        names=design.names,
        matrix=design.matrix,
        response=np.asarray(y, dtype=float),
    )


def stack_design(matrix: np.ndarray, y: np.ndarray) -> DesignMatrix:
    n, k = matrix.shape
    start = dt.date(2004, 3, 1)
    rows = tuple(
        (start + dt.timedelta(days=i // 24), 1 + i % 24) for i in range(n)
    )
    return DesignMatrix(
        model_id="a",
        rows=rows,
        names=tuple(f"x{j}" for j in range(k)),
        matrix=matrix,
        response=np.asarray(y, dtype=float),
    )


def test_ols_recovers_known_coefficients():
    design = full_rank_design()
    beta_star = np.array([200.0, 0.4, 0.3, 0.2, 90.0, 80.0, 70.0, 60.0, 50.0, 40.0])
    y = design.matrix @ beta_star
    fit = ols_fit(with_response(design, y))
    assert np.max(np.abs(fit.coef - beta_star)) < 1e-8
    assert fit.ssr <= 1e-12 * float(y @ y)


def test_ols_orthogonal_response_zeroes_slopes():
    rng = np.random.default_rng(7)
    cols = rng.normal(size=(60, 4))
    cols -= cols.mean(axis=0)  # orthogonal to the intercept
    matrix = np.column_stack([np.ones(60), cols])
    y = np.ones(60) * 5.0  # constant: orthogonal to every centered column
    fit = ols_fit(stack_design(matrix, y))
    coef = fit.coef
    assert abs(coef[0] - 5.0) < 1e-8
    assert np.max(np.abs(coef[1:])) < 1e-8


def test_ols_residuals_orthogonal_to_columns():
    design = full_rank_design(seed=9)
    fit = ols_fit(design)
    r = fit.residuals
    for j in range(len(design.names)):
        col = design.matrix[:, j]
        bound = 1e-6 * np.linalg.norm(col) * max(np.linalg.norm(r), 1e-30)
        assert abs(col @ r) <= max(bound, 1e-12)


def test_ols_flags_rank_deficiency():
    base = full_rank_design()
    matrix = base.matrix.copy()
    matrix[:, 3] = matrix[:, 1]  # duplicate column
    fit = ols_fit(stack_design(matrix, base.response))
    assert fit.diagnostics.get("rank_deficient") is True


def test_exact_ml_matches_ols_on_noiseless_data():
    design = full_rank_design(seed=4)
    beta_star = np.array([300.0, 0.5, 0.25, 0.15, 10.0, 20.0, 30.0, 40.0, 5.0, 6.0])
    y = design.matrix @ beta_star
    noiseless = with_response(design, y)
    ols = ols_fit(noiseless)
    ml = exact_ml_ar1_fit(noiseless)
    assert np.max(np.abs(ml.coef - ols.coef)) < 1e-6
    assert abs(ml.rho) < 1e-3
    assert ml.diagnostics.get("rho_tie_break") is True


def test_exact_ml_recovers_ar1_coefficient():
    # 30 days of hourly rows with disturbances generated at rho = 0.6.
    rng = np.random.default_rng(123)
    n = 30 * 24
    t = np.arange(n)
    matrix = np.column_stack([
        np.ones(n),
        np.sin(2 * np.pi * t / 24.0),
        np.cos(2 * np.pi * t / 24.0),
        0.001 * t,
        rng.normal(size=n),
    ])
    beta_star = np.array([100.0, 12.0, -8.0, 3.0, 5.0])
    rho_true = 0.6
    innov = rng.normal(0.0, 1.0, size=n)
    u = np.empty(n)
    u[0] = innov[0] / np.sqrt(1 - rho_true**2)
    for i in range(1, n):
        u[i] = rho_true * u[i - 1] + innov[i]
    y = matrix @ beta_star + u
    fit = exact_ml_ar1_fit(stack_design(matrix, y))
    assert abs(fit.rho - rho_true) <= 0.1
    assert np.max(np.abs(fit.coef - beta_star)) < 1.0


def test_exact_ml_constant_response_tie_break():
    n = 48
    matrix = np.ones((n, 1))
    y = np.full(n, 7.5)
    fit = exact_ml_ar1_fit(stack_design(matrix, y))
    assert fit.rho == 0.0
    assert abs(fit.coef[0] - 7.5) < 1e-12


def test_tie_break_test_survives_an_overflowing_response():
    # Loads x 1e150 square past the double range in y @ y.  Residuals that do
    # not vanish must still run the rho search, and the fits must agree with
    # those at x 1e140, where y @ y is finite.
    window = last_day_window(SynthParams(days=12, seed=1))

    def scaled(factor):
        loads = window.loads * factor
        loads.flags.writeable = False
        return replace(window, loads=loads)

    for model_id in "abc":
        big, ref = fit_model(scaled(1e150), model_id), fit_model(scaled(1e140), model_id)
        assert "rho_tie_break" not in big.diagnostics
        assert big.lam == ref.lam
        assert abs(big.rho - ref.rho) <= 1e-5
    constant = exact_ml_ar1_fit(stack_design(np.ones((48, 1)), np.full(48, 7.5e160)))
    assert constant.diagnostics["rho_tie_break"] and constant.rho == 0.0


def test_exact_ml_loglik_never_below_rho_zero():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        design = full_rank_design(seed=seed + 10)
        y = design.response + rng.normal(0, 30, size=len(design.rows))
        noisy = with_response(design, y)
        fit = exact_ml_ar1_fit(noisy)
        n = len(noisy.rows)
        _, ssr_hat, _ = oracles.gls_at_rho(noisy.matrix, noisy.response, fit.rho)
        _, ssr0, _ = oracles.gls_at_rho(noisy.matrix, noisy.response, 0.0)
        assert (
            _concentrated_loglik(ssr_hat, fit.rho, n)
            >= _concentrated_loglik(ssr0, 0.0, n) - 1e-9
        )


def test_fit_model_grid_recovers_zero_decay_generator():
    records = model_a_records(12)
    target = records[-1].date
    window = assemble_window(dataset_of(records), target)
    fit = fit_model(window, "a", method="ols", decays=LAMBDA_GRID)
    assert fit.lam == 0.0
    coefficients = dict(zip(COLUMN_NAMES["a"], fit.coef))
    for name, value in MODEL_A_COEFFS.items():
        assert abs(coefficients[name] - value) < 1e-6


def test_fit_model_shape():
    window = last_day_window(SynthParams(days=12, seed=5))
    fit = fit_model(window, "a", method="exact_ml_ar1", decays=(0.0,))
    assert fit.coef.shape == (10,) and fit.coef.dtype == np.float64
    assert -1.0 < fit.rho < 1.0


def test_forecast_day_fixed_point_on_identical_days():
    base = [
        4000.0
        + 600.0 * np.exp(-((h - 10) ** 2) / 6.5)
        + 540.0 * np.exp(-((h - 20) ** 2) / 6.5)
        for h in range(1, 25)
    ]
    window = make_window(
        load_by_offset={k: base for k in range(1, 10)},
        temp_by_offset={k: [10.0] * 24 for k in range(1, 10)},
        forecast=[10.0] * 24,
    )
    fits = {m: fit_model(window, m, method="ols", decays=(0.0,))
            for m in ("a", "b", "c")}
    forecasts, _ = forecast_day([fits])
    predicted = forecasts[0, 0]
    assert np.max(np.abs(predicted - np.asarray(base))) < 1e-6


def test_forecast_day_clamps_negative_predictions():
    window = last_day_window(SynthParams(days=12, seed=6))
    fits = {m: fit_model(window, m, method="ols", decays=(0.0,))
            for m in ("a", "b", "c")}
    # Force a negative prediction through a doctored intercept.
    coef = fits["a"].coef.copy()
    coef[0] -= 1e7  # a0
    fits["a"] = replace(fits["a"], coef=coef)
    raw = fits["a"].target_block @ fits["a"].coef
    assert np.all(raw < regress.CLAMP_FLOOR_MW)
    forecasts, finite = forecast_day([fits])
    assert all(v == 1.0 for v in forecasts[0, 0]) and finite.all()


def test_forecast_day_deterministic():
    window = last_day_window(SynthParams(days=12, seed=13))
    fits = {m: fit_model(window, m) for m in ("a", "b", "c")}
    first, _ = forecast_day([fits])
    second, _ = forecast_day([fits])
    assert same_bits(first, second)


def _constant_forecast(value: float):
    return profile(TARGET, [value] * 24)


def test_ensemble_mean_of_constants():
    forecasts = stacked(_constant_forecast(3000.0), _constant_forecast(4000.0),
                        _constant_forecast(5000.0))
    out = ensemble_mean(forecasts)
    assert np.array_equal(out, np.full(24, 4000.0))


def test_ensemble_mean_identical_and_symmetric():
    window = last_day_window(SynthParams(days=12, seed=3))
    fits = {m: fit_model(window, m, method="ols") for m in ("a", "b", "c")}
    forecasts, _ = forecast_day([fits])
    same = ensemble_mean(forecasts[[0, 0, 0]])
    assert same_bits(same, forecasts[0])
    permuted = ensemble_mean(forecasts[[1, 2, 0]])
    assert same_bits(ensemble_mean(forecasts), permuted)


# --- Lockstep rho search against the scalar oracle --------------------------

def assert_same_fit(got, want):
    """Field-by-field equality with ``==``: no tolerance."""
    for name in ("model_id", "method", "lam", "rho", "ssr", "diagnostics"):
        assert getattr(got, name) == getattr(want, name), name
    assert np.array_equal(got.coef, want.coef)
    assert np.array_equal(got.residuals, want.residuals)


def assert_backtest_fits_match_scalar_oracle(data: Dataset, temp_mode: str):
    """Every fit of the 31-day acceptance backtest of ``data`` (from synth
    --days 40) equals the scalar oracle's."""
    target = dt.date(2004, 1, 10)
    while target <= dt.date(2004, 2, 9):
        window = assemble_window(data, target)
        for model_id in ("a", "b", "c"):
            got = fit_model(window, model_id, temp_mode=temp_mode)
            want = oracles.fit_model_grid(window, model_id, temp_mode)
            assert_same_fit(got, want)
        target += dt.timedelta(days=1)


@pytest.mark.parametrize("seed", [1, 20071])
@pytest.mark.parametrize("temp_mode", ["hour", "day"])
def test_fit_model_matches_scalar_oracle_over_backtest(seed, temp_mode):
    assert_backtest_fits_match_scalar_oracle(backtest_data(40, seed), temp_mode)


def test_fit_model_matches_scalar_oracle_over_perturbed_day_lag_backtest():
    # Model c's day-lag designs are full rank here, so its searches run on
    # the Gram path that synth's own temperatures never reach.
    assert_backtest_fits_match_scalar_oracle(backtest_data(40, 1, perturbed=True), "day")


# synth --days, backtest days from 2004-01-10, method, decays
RUN_CASES = {
    "exact_ml_grid": (40, 31, "exact_ml_ar1", LAMBDA_GRID),
    "ols_off": (72, 63, "ols", (0.0,)),
    "ols_grid": (72, 63, "ols", LAMBDA_GRID),
}


FIRST = dt.date(2004, 1, 10)


def backtest_data(synth_days: int, seed: int, perturbed: bool = False) -> Dataset:
    """The dataset of synth --days ``synth_days``, its temperatures
    perturbed by ``fixtures.perturbed_temperatures`` if asked."""
    records = synth_dataset(SynthParams(days=synth_days, seed=seed))
    return dataset_of(perturbed_temperatures(records) if perturbed else records)


def day_windows(data: Dataset, n_days: int) -> list:
    """The one-day windows of the first ``n_days`` backtest days."""
    return [assemble_window(data, FIRST + dt.timedelta(days=i)) for i in range(n_days)]


def run_window(data: Dataset, start: int, days: int):
    """The window of ``days`` backtest days from the ``start``-th."""
    return data.window(FIRST + dt.timedelta(days=start), days)


def assert_runs_match_each_window_fitted_alone(case: str, data: Dataset, temp_mode: str):
    """The fits of ``data``'s runs, at the method and decays of ``case``,
    equal each day's fit of its one-day window alone."""
    _, n_days, method, decays = RUN_CASES[case]
    windows = day_windows(data, n_days)
    run_length = backtest._run_length(decays)
    # (first day, days) of one window over every day (well past the
    # backtest's run length), of the backtest's runs, and of a run of one day.
    runs = [(0, n_days), *((i, min(run_length, n_days - i)) for i in range(0, n_days, run_length)),
            (n_days // 2, 1)]
    for model_id in ("a", "b", "c"):
        want = [oracles.fit_model(w, model_id, method, decays, temp_mode) for w in windows]
        for start, days in runs:
            got = regress.fit_models(run_window(data, start, days), model_id, method, decays,
                                     temp_mode)
            assert len(got) == days
            for fit, window, alone in zip(got, windows[start:], want[start:]):
                assert_same_fit(fit, alone)
                block = target_regressors(window, model_id, alone.lam, temp_mode)
                assert np.array_equal(fit.target_block, block)


@pytest.mark.parametrize("case", sorted(RUN_CASES))
@pytest.mark.parametrize("seed", [1, 20071])
@pytest.mark.parametrize("temp_mode", ["hour", "day"])
def test_fit_models_match_each_window_fitted_alone(case, seed, temp_mode):
    assert_runs_match_each_window_fitted_alone(case, backtest_data(RUN_CASES[case][0], seed),
                                               temp_mode)


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_fit_models_match_each_window_fitted_alone_on_perturbed_day_lags(case):
    data = backtest_data(RUN_CASES[case][0], 1, perturbed=True)
    assert_runs_match_each_window_fitted_alone(case, data, "day")


# --- Pruning the exact-ML decay grid ----------------------------------------

def run_fits(data: Dataset, n_days: int, model_id: str, temp_mode="hour"):
    """fit_models over the backtest's runs of the first ``n_days`` days."""
    run_length = backtest._run_length(LAMBDA_GRID)
    return [fit for i in range(0, n_days, run_length)
            for fit in regress.fit_models(run_window(data, i, min(run_length, n_days - i)),
                                          model_id, temp_mode=temp_mode)]


def exact_ml_stack(matrices, responses, group=1) -> list:
    """``regress._exact_ml_stack`` of the ``[design | response]`` systems of
    a stack of designs and responses."""
    return regress._exact_ml_stack(np.concatenate((matrices, responses[:, :, None]), axis=2),
                                   group)


@pytest.mark.parametrize("seed", [1, 20071])
@pytest.mark.parametrize("temp_mode", ["hour", "day"])
@pytest.mark.parametrize("model_id", ["a", "b", "c"])
def test_a_grid_run_fits_in_a_bounded_heap(model_id, temp_mode, seed):
    # One full-length grid run (16 days) of synth --days 40.  Measured with
    # numpy 2.4.6, the largest peak is model a's: 1.88 MB at seed 1 and
    # 1.97 MB at seed 20071, in either lag mode; b and c peak at 0.49 to
    # 1.51 MB.  Without the chunks of final_ssr model a peaks at 2.57 and
    # 2.72 MB, and with _gls_stack solving every slice in one chunk at
    # 2.26 MB.
    window = run_window(backtest_data(40, seed), 0, backtest._run_length(LAMBDA_GRID))
    assert window.days == 16
    regress.fit_models(window, model_id, temp_mode=temp_mode)  # imports and caches
    tracemalloc.start()
    try:
        regress.fit_models(window, model_id, temp_mode=temp_mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_100_000


def test_exact_ml_grid_skips_decays_that_cannot_win(monkeypatch):
    solved = []
    gls_stack = regress._gls_stack

    def counting(systems, rows, rho):
        solved.append(len(rows))
        return gls_stack(systems, rows, rho)

    monkeypatch.setattr(regress, "_gls_stack", counting)
    data = backtest_data(40, 1)
    windows = day_windows(data, 31)
    fits = {model_id: run_fits(data, 31, model_id) for model_id in ("a", "b", "c")}
    # A search alone solves 35 slices: rho = 0, two probes, 31 steps and rho-hat.
    designs = 3 * len(windows) * len(LAMBDA_GRID)
    assert sum(solved) < 0.8 * 35 * designs
    for model_id, got in fits.items():
        for fit, window in zip(got, windows):
            want = oracles.fit_model(window, model_id)
            assert (fit.lam, fit.rho, fit.ssr) == (want.lam, want.rho, want.ssr)


def test_rank_deficient_decays_are_searched():
    # At loads x 1e9 dgelsd's rcond drops columns beside the load columns, so
    # an OLS SSR is no lower bound on that decay's exact-ML SSR.
    records = synth_dataset(SynthParams(days=40, seed=1))
    data = dataset_of([r._replace(load_mw=r.load_mw * 1e9) for r in records])
    windows = day_windows(data, 12)
    for model_id in ("a", "b", "c"):
        for fit, window in zip(run_fits(data, 12, model_id), windows):
            assert_same_fit(fit, oracles.fit_model(window, model_id))


def same_span_group(seed, size=6, n=48, k=4):
    """``size`` designs spanning one column space, each conditioned about
    1e8, and a response they fit to a relative 1e-7: their exact SSR minima
    are equal, and rounding decides which fit is smallest."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, k))
    y = x @ rng.normal(size=k) * 1e3
    y = y + rng.normal(size=n) * 1e-7 * np.linalg.norm(y)

    def basis():
        q1, _ = np.linalg.qr(rng.normal(size=(k, k)))
        q2, _ = np.linalg.qr(rng.normal(size=(k, k)))
        return q1 @ np.diag(np.logspace(0, -8, k)) @ q2

    return np.stack([x @ basis() for _ in range(size)]), np.repeat(y[None], size, axis=0)


def first_minimum(solved) -> int:
    ssr = [np.inf if s is None else s[2] for s in solved]
    return min(range(len(ssr)), key=ssr.__getitem__)


def test_rounding_ties_are_searched():
    # The SSR floor keeps every decay whose OLS SSR is within rounding of the
    # first fit's; without it some of these groups keep another decay.
    for seed in range(40):
        matrices, responses = same_span_group(seed)
        pruned = exact_ml_stack(matrices, responses, group=len(matrices))
        alone = [exact_ml_stack(m[None], y[None])[0]
                 for m, y in zip(matrices, responses)]
        best = first_minimum(alone)
        assert first_minimum(pruned) == best, seed
        for got, want in zip(pruned[best], alone[best]):
            assert np.array_equal(got, want) if isinstance(got, np.ndarray) else got == want


def test_a_search_that_would_overflow_is_not_skipped():
    # The second design's values are near the double range: its OLS SSR is
    # infinite, so the bound would skip it, but its whitening overflows at the
    # first probes, and the search must raise as it does alone.
    rng = np.random.default_rng(4)
    n, k = 48, 3
    fine = rng.normal(size=(n, k))
    y = fine @ np.array([3.0, -1.0, 2.0]) + rng.normal(size=n)
    huge = rng.uniform(0.9, 1.0, size=(n, k)) * 1.7e308
    matrices, responses = np.stack([fine, huge]), np.stack([y, y])
    with pytest.raises(FloatingPointError):
        exact_ml_stack(huge[None], y[None])
    solved = exact_ml_stack(fine[None], y[None])
    assert solved[0][2] < 1e3 * n
    with pytest.raises(FloatingPointError):
        exact_ml_stack(matrices, responses, group=2)


def test_lockstep_stack_with_tie_break_slice():
    window = last_day_window(SynthParams(days=12, seed=21))
    days = legal_training_days(window, "c")
    designs = [design_matrix(window, "c", days, lam) for lam in LAMBDA_GRID]
    constant = with_response(designs[4], np.full(len(designs[4].rows), 7.5))
    stack = designs[:4] + [constant] + designs[4:]
    solved = exact_ml_stack(np.stack([d.matrix for d in stack]),
                            np.stack([d.response for d in stack]))
    got = [regress.FitResult("c", "exact_ml_ar1", 0.0, *s) for s in solved]
    assert got[4].diagnostics.get("rho_tie_break") is True
    assert sum("rho_tie_break" in fit.diagnostics for fit in got) == 1
    for fit, design in zip(got, stack):
        assert_same_fit(fit, oracles.exact_ml_ar1_fit(design))


def test_exact_ml_single_design_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    design = full_rank_design("b", seed=17, lam=0.4)
    noisy = with_response(design, design.response + rng.normal(0, 25, len(design.rows)))
    assert_same_fit(exact_ml_ar1_fit(noisy), oracles.exact_ml_ar1_fit(noisy))


def bracket_widths(branches) -> list:
    """Bracket width after each step of the oracle's scalar golden-section
    update when its comparisons go ``branches`` (True: the bracket moves left)."""
    lo, hi = -regress.RHO_BOUND, regress.RHO_BOUND
    c = hi - oracles._GOLDEN * (hi - lo)
    d = lo + oracles._GOLDEN * (hi - lo)
    widths = []
    for left in branches:
        if left:
            hi, d = d, c
            c = hi - oracles._GOLDEN * (hi - lo)
        else:
            lo, c = c, d
            d = lo + oracles._GOLDEN * (hi - lo)
        widths.append(hi - lo)
    return widths


def test_every_branch_path_takes_rho_steps():
    # The stacked search runs RHO_STEPS steps with no convergence test: in
    # floating point too, every path reaches RHO_TOL at that step, not before.
    steps = regress.RHO_STEPS
    rng = np.random.default_rng(20071)
    paths = [[True] * steps, [False] * steps, [i % 2 == 0 for i in range(steps)],
             *(rng.random(steps) < 0.5 for _ in range(1000))]
    for path in paths:
        widths = bracket_widths(path)
        assert widths[-1] <= regress.RHO_TOL < widths[-2], list(path)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rho_search_never_beaten_by_likelihood_grid(seed):
    # Golden-section rho against an 801-point grid on (-0.999, 0.999).
    grid = np.linspace(-0.999, 0.999, 801).tolist()
    window = last_day_window(SynthParams(days=12, seed=seed))
    for model_id in ("a", "b", "c"):
        days = legal_training_days(window, model_id)
        for lam in LAMBDA_GRID:
            design = design_matrix(window, model_id, days, lam)
            fit = exact_ml_ar1_fit(design)
            best = max(
                _concentrated_loglik(
                    oracles.gls_at_rho(design.matrix, design.response, rho)[1],
                    rho,
                    len(design.rows),
                )
                for rho in grid
            )
            assert best <= fit.diagnostics["loglik"] + 1e-9, (model_id, fit.rho)


# --- Certified comparisons in the rho search ---------------------------------

def counting_solves(monkeypatch) -> list:
    """Record the slices of every dgelsd call; returns the running list."""
    solved = []
    lstsq_stack = regress._lstsq_stack

    def counting(matrices, responses):
        solved.append(matrices.shape[0])
        return lstsq_stack(matrices, responses)

    monkeypatch.setattr(regress, "_lstsq_stack", counting)
    return solved


def same_repr(got, want) -> None:
    """One ``_exact_ml_stack`` result against an oracle fit, field by field
    through ``repr``: no tolerance, and -0.0 is not 0.0."""
    coef, residuals, ssr, rho, diagnostics = got
    assert repr(coef.tolist()) == repr(want.coef.tolist())
    assert repr(residuals.tolist()) == repr(want.residuals.tolist())
    assert (repr(ssr), repr(rho), repr(diagnostics)) == (
        repr(want.ssr), repr(want.rho), repr(want.diagnostics))


def bare_design(matrix: np.ndarray, y: np.ndarray):
    """What ``oracles.exact_ml_ar1_fit`` reads of a design, for matrices
    without an intercept column."""
    return SimpleNamespace(model_id="a", matrix=matrix, response=y)


def test_bimodal_profile_search_keeps_its_lower_mode(monkeypatch):
    # Seed 1, day lags, 2004-02-02, model b at lambda 0.1: the likelihood has
    # two interior maxima, and the golden-section search ends on the lower
    # one at rho 0.26 while the higher one is near rho 0.93.  Certified
    # comparisons must not move the search to the other mode.
    window = assemble_window(backtest_data(40, 1), dt.date(2004, 2, 2))
    design = design_matrix(window, "b", legal_training_days(window, "b", "day"), 0.1, "day")
    solved = counting_solves(monkeypatch)
    got = exact_ml_stack(design.matrix[None], design.response[None])[0]
    assert sum(solved) < 35  # some comparisons were certified
    same_repr(got, oracles.exact_ml_ar1_fit(design))
    n = len(design.response)
    higher = _concentrated_loglik(
        oracles.gls_at_rho(design.matrix, design.response, 0.93)[1], 0.93, n)
    assert abs(got[3] - 0.26) < 0.01 and higher > got[4]["loglik"] + 0.5


ALTERNATING = (-1.0) ** np.arange(48)


@st.composite
def adversarial_designs(draw):
    """A design and response: column scales from 1e-3 to 1e6, an optional
    nearly collinear pair, AR(1) noise, and optionally a design closed under
    flipping the sign of every other row, so that the likelihood is even in
    rho and the first two probes tie to within a few ulps."""
    k = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 6.0), min_size=k, max_size=k)))
    rho = draw(st.sampled_from([-0.99, 0.0, 0.95, 0.999]))
    noise = rng.normal(size=48)
    u = np.empty(48)
    u[0] = noise[0] / math.sqrt(1.0 - rho * rho)
    for t in range(1, 48):
        u[t] = rho * u[t - 1] + noise[t]
    if draw(st.booleans()):
        half = rng.normal(size=(48, k)) * scales
        matrix = np.column_stack([half, ALTERNATING[:, None] * half])
        y = u + ALTERNATING * u
        y = y * (1.0 + draw(st.sampled_from([0.0, 1e-15, 4e-15])) * rng.normal(size=48))
    else:
        matrix = rng.normal(size=(48, k)) * scales
        gap = draw(st.sampled_from([0.0, 1e-6, 1e-9, 1e-12]))
        if gap:
            matrix[:, 1] = matrix[:, 0] * (1.0 + gap * rng.normal(size=48))
        y = matrix @ rng.normal(size=k) + u * scales.mean()
    return matrix, y


@settings(max_examples=60, deadline=None)
@given(adversarial_designs(), st.integers(1, 3))
def test_certified_search_matches_the_oracle_on_adversarial_designs(case, group):
    matrix, y = case
    # A group shares its response; its other slices span the same columns,
    # so rounding decides which fit is smallest.
    rng = np.random.default_rng(group)
    k = matrix.shape[1]
    matrices = np.stack([matrix] + [matrix @ (np.eye(k) + 0.1 * rng.normal(size=(k, k)))
                                    for _ in range(group - 1)])
    solved = exact_ml_stack(matrices, np.repeat(y[None], group, axis=0), group)
    alone = [oracles.exact_ml_ar1_fit(bare_design(m, y)) for m in matrices]
    assert first_minimum(solved) == min(range(group), key=lambda i: alone[i].ssr)
    for got, want in zip(solved, alone):
        if got is not None:
            same_repr(got, want)


@settings(max_examples=60, deadline=None)
@given(adversarial_designs(), st.lists(st.floats(-0.999, 0.999), min_size=1, max_size=8))
def test_every_radius_covers_the_exact_log_likelihood(case, rhos):
    matrix, y = case
    rho = np.array(rhos)
    stack = np.repeat(np.column_stack((matrix, y))[None], len(rho), axis=0)
    with np.errstate(invalid="ignore"):  # a factor that fails is NaN
        value, radius = regress._GramSearch(stack.copy(), np.arange(len(rho))).loglik(rho)
    _, ssr, _ = regress._gls_stack(stack, np.arange(len(rho)), rho)
    exact = np.array([_concentrated_loglik(s, r, len(y)) for s, r in zip(ssr, rhos)])
    sure = np.isfinite(radius)
    assert (np.abs(exact - value)[sure] <= radius[sure]).all()


def test_a_near_singular_factor_gets_no_radius():
    # Two columns equal to a relative 1e-7: dgelsd keeps full rank at rho =
    # 0, but the Gram factor is too near singular to bound anything.
    rng = np.random.default_rng(8)
    matrix = rng.normal(size=(48, 3))
    matrix[:, 1] = matrix[:, 0] * (1.0 + 1e-7 * rng.normal(size=48))
    y = matrix @ [1.0, 2.0, 3.0] + rng.normal(size=48)
    assert regress._lstsq_stack(matrix[None], y[None])[1][0] == 3
    gram = regress._GramSearch(np.column_stack((matrix, y))[None], np.arange(1))
    assert np.isinf(gram.loglik(np.array([0.3]))[1]).all()
    same_repr(exact_ml_stack(matrix[None], y[None])[0],
              oracles.exact_ml_ar1_fit(bare_design(matrix, y)))


def test_a_vanishing_cheap_ssr_gets_no_radius():
    # A whitened SSR this small could be 0 in the exact path, whose
    # log-likelihood is then +inf; nothing is certified on it.
    constants = regress._bound_constants(48, 3)
    for tail, e0 in ((0.0, 0.0), (2.0 ** -320, 0.0)):
        value, radius = regress._loglik_bound(constants, 0.3, tail, e0, 1.0, 1.0, 1.0, 0.0,
                                              1e-12, 1e-20, 0)
        assert radius == math.inf


def test_a_bound_outside_its_first_order_range_gets_no_radius():
    # A dgelsd backward error as large as the least singular value: the
    # linearized width would understate the SSR's range, so nothing is
    # certified.
    constants = regress._bound_constants(48, 3)
    value, radius = regress._loglik_bound(constants, 0.3, 1e-4, 0.0, 1.0, 1.0, 1.0, 0.0,
                                          0.2, 0.0, 0)
    assert radius == math.inf


def test_a_non_finite_value_is_never_certified(monkeypatch):
    # Every probe's value is NaN with radius 0: no comparison can be
    # decided on it, so every search falls back to dgelsd and ends as alone.
    monkeypatch.setattr(regress, "_loglik_bound", lambda *args: (math.nan, 0.0))
    design = full_rank_design("b", seed=17, lam=0.4)
    same_repr(exact_ml_stack(design.matrix[None], design.response[None])[0],
              oracles.exact_ml_ar1_fit(design))


def recording_gram(monkeypatch) -> list:
    """Record the stack of every ``_GramSearch``; returns the running list."""
    seen = []

    class Recording(regress._GramSearch):
        def __init__(self, stack, rows):
            seen.append(stack.copy())
            super().__init__(stack, rows)

    monkeypatch.setattr(regress, "_GramSearch", Recording)
    return seen


def test_rank_deficient_slices_never_reach_the_gram_bound(monkeypatch):
    # In day-lag mode model c's designs are rank 7 of 9 at rho = 0: their
    # searches run on dgelsd from the first probe.
    seen = recording_gram(monkeypatch)
    fits = regress.fit_models(run_window(backtest_data(40, 1), 0, 2), "c", temp_mode="day")
    assert all(fit.diagnostics.get("rank_deficient") for fit in fits)
    assert sum(len(stack) for stack in seen) == 0


def test_slices_near_the_double_range_never_reach_the_gram_bound(monkeypatch):
    # A slice holding magnitudes above DBL_MAX / 2 is searched with dgelsd
    # from its first probe, whose whitening overflows and raises as alone;
    # the other slice of its stack may still be certified.
    rng = np.random.default_rng(4)
    fine = rng.normal(size=(48, 3))
    y = fine @ np.array([3.0, -1.0, 2.0]) + rng.normal(size=48)
    huge = rng.uniform(0.9, 1.0, size=(48, 3)) * 1.7e308
    assert huge.min() >= regress._HALF_MAX
    seen = recording_gram(monkeypatch)
    with pytest.raises(FloatingPointError):
        exact_ml_stack(np.stack([fine, huge]), np.stack([y, y]))
    assert [len(stack) for stack in seen] == [1]
    assert np.array_equal(seen[0][0, :, :3], fine)


def grid_systems(data: Dataset, n_days: int, model_id: str) -> list:
    """The ``[design | response]`` stacks of the backtest's runs of the
    first ``n_days`` days, every day at every decay, as ``fit_models``
    solves them."""
    run_length = backtest._run_length(LAMBDA_GRID)
    stacks = []
    for i in range(0, n_days, run_length):
        systems, _ = run_designs(run_window(data, i, min(run_length, n_days - i)), model_id,
                                 LAMBDA_GRID)
        stacks.append(systems.reshape(-1, *systems.shape[2:]))
    return stacks


@pytest.mark.parametrize("pull", [0.0, 0.99])
def test_every_certified_radius_covers_the_dgelsd_log_likelihood(monkeypatch, pull):
    # Every probe of the 31-day grid at seed 1 with hour lags that the Gram
    # bound certifies, against the log-likelihood of a dgelsd solve at its
    # rho.  With the actual responses, the two differ by at most about 6e-13
    # nats, under the radius's rounding term (about 3e-11).  Pulling each
    # response 99 % of the way to its OLS fit leaves a residual whose
    # rounding moves both by up to about 1e-10, which only the first-order
    # width W covers: a W too small by 1e-4 fails there.
    distance, radii = [], []

    class Checking(regress._GramSearch):
        def __init__(self, stack, rows):
            self.stack = stack.copy()
            super().__init__(stack, rows)

        def keep(self, mask):
            super().keep(mask)
            self.stack = self.stack[mask]

        def loglik(self, rho):
            value, radius = super().loglik(rho)
            _, ssr, _ = regress._gls_stack(self.stack, np.arange(len(rho)), rho)
            n = self.stack.shape[1]
            exact = [_concentrated_loglik(s, r, n) for s, r in zip(ssr, rho.tolist())]
            sure = np.isfinite(radius)
            distance.extend(np.abs(np.array(exact) - value)[sure])
            radii.extend(radius[sure])
            return np.array([value, radius])

    monkeypatch.setattr(regress, "_GramSearch", Checking)
    data = backtest_data(40, 1)
    for model_id in ("a", "b", "c"):
        for systems in grid_systems(data, 31, model_id):
            x, y = systems[..., :-1], systems[..., -1]
            fitted = np.matmul(x, regress._lstsq_stack(x, y)[0][..., None])[..., 0]
            systems[..., -1] = y - pull * (y - fitted)
            regress._exact_ml_stack(systems, len(LAMBDA_GRID))
    distance, radii = np.array(distance), np.array(radii)
    assert len(radii) > 5_000
    assert (distance <= radii).all()


@pytest.mark.parametrize("temp_mode, seed, most", [
    ("hour", 1, 2_470), ("day", 1, 12_385), ("hour", 20071, 2_471), ("day", 20071, 12_408)])
def test_certification_cuts_the_backtest_solves(monkeypatch, temp_mode, seed, most):
    # dgelsd slices of the fits of the 31-day exact-ML backtest of synth
    # --days 40: at seed 1, 20,004 in hour mode and 21,126 in day mode
    # without certification; 7,492 and 14,776 with certified comparisons
    # and rivals skipped only before their search (7,644 and 14,882 at seed
    # 20071).  The bounds are the counts with rivals also dropped during
    # their search.  Day mode's model c cannot be certified and must cost no
    # more.
    solved = counting_solves(monkeypatch)
    data = backtest_data(40, seed)
    for model_id in ("a", "b", "c"):
        run_fits(data, 31, model_id, temp_mode)
    assert sum(solved) <= most


def test_certification_cuts_the_perturbed_day_lag_solves(monkeypatch):
    # The day-lag case of the test above on perturbed temperatures at seed
    # 1: model c's designs are full rank, so its searches are certified too
    # and the backtest solves 2,354 dgelsd slices instead of 12,385.
    solved = counting_solves(monkeypatch)
    data = backtest_data(40, 1, perturbed=True)
    for model_id in ("a", "b", "c"):
        run_fits(data, 31, model_id, "day")
    assert sum(solved) <= 2_354


# --- Rival decays dropped in the middle of their search ----------------------

def recording_bounds(monkeypatch) -> list:
    """Record every ``_final_ssr_bounds`` result; returns the running list."""
    seen = []
    final_ssr_bounds = regress._final_ssr_bounds

    def recording(*args):
        seen.append(final_ssr_bounds(*args))
        return seen[-1]

    monkeypatch.setattr(regress, "_final_ssr_bounds", recording)
    return seen


def test_decays_tied_within_rounding_are_not_dropped(monkeypatch):
    # Each group's designs span one column space, conditioned about 1e6, so
    # every decay has the same exact final SSR at every rho, and rounding
    # moves the computed ones apart by up to 1.8e-7 (relative).  Their
    # bounds must cover that at every step: no decay is dropped, and each
    # group keeps the decay searched alone.  Dropping all of the bounds'
    # rounding and dgelsd allowances fails here.
    seen = recording_bounds(monkeypatch)
    monkeypatch.setattr(regress, "_BOUND_STEPS", frozenset(range(regress.RHO_STEPS)))
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n, k = 48, 4
        turn, _ = np.linalg.qr(rng.normal(size=(k, k)))
        x = rng.normal(size=(n, k)) @ turn @ np.diag(np.logspace(0, -6, k))
        noise = np.empty(n)
        noise[0] = rng.normal()
        for t in range(1, n):
            noise[t] = 0.7 * noise[t - 1] + rng.normal()
        y = x @ rng.normal(size=k) * 1e3 + noise
        matrices = np.stack([x] + [x @ (np.eye(k) + 0.3 * rng.normal(size=(k, k)))
                                   for _ in range(3)])
        responses = np.repeat(y[None], len(matrices), axis=0)
        pruned = exact_ml_stack(matrices, responses, group=len(matrices))
        alone = [exact_ml_stack(m[None], y[None])[0] for m in matrices]
        assert all(fit is not None for fit in pruned), seed
        best = first_minimum(alone)
        assert first_minimum(pruned) == best, seed
        same_repr(pruned[best], oracles.exact_ml_ar1_fit(bare_design(matrices[best], y)))
    assert sum(np.isfinite(bounds[1]).sum() for bounds in seen) > 500


# A rival whose search ends at rho 0.49, on the lower of its likelihood's
# two modes and below its likelihood at rho = 0, so that its fit falls back
# to its OLS coefficients; and a first fit with a smaller OLS SSR but a
# larger final SSR (at rho 0.40).  Found by a random search over small
# designs.
FALLBACK_Y = [0.88, 0.47, -0.19, 1.19, 1.22, 0.96, -1.29, -0.76, -1.72, 1.09, -1.73, -0.29]
FALLBACK_RIVAL = [
    [1.34, -1.61, -1.03, -1.12, -0.12, -0.88, 0.46, 0.02, -0.34, 1.35, -1.37, -0.38],
    [1.02, 0.14, -0.06, -1.05, 0.99, 1.11, -0.41, 0.07, 1.22, 0.29, -0.02, 0.97],
    [1.05, 0.67, 1.08, -0.25, 0.04, -0.81, 0.37, -1.0, 0.19, -0.06, -1.33, -0.42]]
FALLBACK_FIRST = [
    [0.42, -1.57, -0.34, -1.18, 0.28, -0.22, 1.0, -1.78, -0.17, 2.33, -1.72, -1.95],
    [1.53, -0.75, 0.8, 0.15, 1.36, 0.8, 1.33, -0.41, 1.32, 0.24, -0.38, 0.51],
    [0.95, 1.48, 3.31, -0.38, 0.31, -0.77, -0.48, -0.91, 1.38, -0.53, -1.56, -0.85]]


def test_a_rival_that_falls_back_to_rho_zero_can_win(monkeypatch):
    # Its SSR over its bracket stays above the first fit's final SSR, but it
    # falls back and wins on its OLS SSR: without the certificate that rules
    # the fallback out, its search would be dropped.
    y = np.array(FALLBACK_Y)
    first, rival = np.array(FALLBACK_FIRST).T, np.array(FALLBACK_RIVAL).T
    alone = [oracles.exact_ml_ar1_fit(bare_design(m, y)) for m in (first, rival)]
    assert alone[1].rho == 0.0 and alone[1].ssr < alone[0].ssr
    assert ols_fit(bare_design(first, y)).ssr < ols_fit(bare_design(rival, y)).ssr
    seen = recording_bounds(monkeypatch)
    solved = exact_ml_stack(np.stack([first, rival]), np.stack([y, y]), group=2)
    assert [bounds.shape[1] for bounds in seen] == [1] * len(regress._BOUND_STEPS)
    assert all(bounds[0, 0] > alone[0].ssr for bounds in seen[-2:])
    for got, want in zip(solved, alone):
        same_repr(got, want)


@settings(max_examples=60, deadline=None)
@given(adversarial_designs(), st.integers(1, 3))
def test_every_final_ssr_bound_covers_the_final_fit(case, group):
    # Bounds taken before every step of each slice's search, never acted
    # on: each must hold the computed SSR of the dgelsd fit at rho-hat, and
    # each floor must lie under the computed log-likelihood there.
    matrix, y = case
    rng = np.random.default_rng(group)
    k = matrix.shape[1]
    systems = np.stack([np.column_stack((matrix @ (np.eye(k) + 0.1 * rng.normal(size=(k, k))), y))
                        for _ in range(group)])
    seen = []

    def recording(slices, lower, upper, floor):
        seen.append((slices, lower, upper, floor))
        return np.zeros(len(slices), dtype=bool)

    with np.errstate(over="ignore", invalid="ignore"):
        rank = regress._lstsq_stack(systems[..., :k], systems[..., k])[1]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(regress, "_BOUND_STEPS", frozenset(range(regress.RHO_STEPS)))
            rho = regress._rho_search(systems, np.arange(group), rank < k, recording)
    coef, ssr, _ = regress._gls_stack(systems, np.arange(group), rho)
    final = regress._residuals(systems[..., :k], systems[..., k], coef)[1]
    loglik = [_concentrated_loglik(s, r, len(y)) for s, r in zip(ssr, rho.tolist())]
    for slices, lower, upper, floor in seen:
        for i, low, high, least in zip(slices, lower, upper, floor):
            assert low <= final[i] <= high
            assert least <= loglik[i]


def test_rank_deficient_groups_drop_nothing():
    # At loads x 1e9 dgelsd's rcond drops columns at rho = 0 in some decays:
    # no decay of such a group is dropped, and their fits are those alone.
    records = synth_dataset(SynthParams(days=40, seed=1))
    data = dataset_of([r._replace(load_mw=r.load_mw * 1e9) for r in records])
    k = None
    for model_id in ("a", "b", "c"):
        for systems in grid_systems(data, 12, model_id):
            k = systems.shape[2] - 1
            solved = regress._exact_ml_stack(systems.copy(), len(LAMBDA_GRID))
            rank = regress._lstsq_stack(systems[..., :-1], systems[..., -1])[1]
            for g in range(0, len(systems), len(LAMBDA_GRID)):
                if (rank[g:g + len(LAMBDA_GRID)] < k).any():
                    assert all(s is not None for s in solved[g:g + len(LAMBDA_GRID)])
    assert k is not None


def test_out_of_range_slices_get_no_final_ssr_bound(monkeypatch):
    # Every column, the response's too, scaled to about 2**260, above the
    # argument's range.  The designs span one column space, so no decay is
    # dropped before its search; none is bounded during it.
    rng = np.random.default_rng(3)
    x = rng.normal(size=(48, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + 3.0 * rng.normal(size=48)
    others = [x @ (np.eye(3) + 0.3 * rng.normal(size=(3, 3))) for _ in range(3)]
    matrices = np.stack([x, *others]) * 2.0 ** 260
    responses = np.repeat(y[None] * 2.0 ** 260, len(matrices), axis=0)
    seen = recording_bounds(monkeypatch)
    solved = exact_ml_stack(matrices, responses, group=len(matrices))
    assert seen == []
    alone = [oracles.exact_ml_ar1_fit(bare_design(m, r)) for m, r in zip(matrices, responses)]
    assert first_minimum(solved) == min(range(len(alone)), key=lambda i: alone[i].ssr)
    for got, want in zip(solved, alone):
        if got is not None:
            same_repr(got, want)


def test_a_failed_or_near_singular_factor_gets_no_final_ssr_bound():
    # Two columns equal to a relative 1e-7, as in the radius test above, and
    # a factor that fails (NaN moments): neither bounds anything.
    rng = np.random.default_rng(8)
    matrix = rng.normal(size=(48, 3))
    matrix[:, 1] = matrix[:, 0] * (1.0 + 1e-7 * rng.normal(size=48))
    y = matrix @ [1.0, 2.0, 3.0] + rng.normal(size=48)
    stack = np.repeat(np.column_stack((matrix, y))[None], 2, axis=0)
    gram = regress._GramSearch(stack, np.arange(2))
    gram.moments[1] = math.nan
    with np.errstate(invalid="ignore"):
        bounds = gram.final_ssr(np.array([0.1, 0.1]), np.array([0.2, 0.2]))
    assert np.array_equal(bounds, np.array([[0.0, 0.0], [math.inf] * 2, [-math.inf] * 2]))


# --- Stacked least-squares helper -------------------------------------------

def _lstsq_each(matrices, responses):
    solved = [np.linalg.lstsq(a, b, rcond=None) for a, b in zip(matrices, responses)]
    return [s[0] for s in solved], [int(s[2]) for s in solved]


def _random_stack(seed, size=7, n=48, k=9):
    rng = np.random.default_rng(seed)
    matrices = rng.normal(size=(size, n, k)) * rng.uniform(0.1, 1e3, size=(size, 1, k))
    responses = rng.normal(size=(size, n)) * 1e3
    return matrices, responses


def test_lstsq_stack_bit_equal_to_public_lstsq():
    for seed in range(20):
        matrices, responses = _random_stack(seed)
        matrices[3, :, 5] = matrices[3, :, 2]  # one rank-deficient slice
        coef, rank = regress._lstsq_stack(matrices, responses)
        want_coef, want_rank = _lstsq_each(matrices, responses)
        assert [int(r) for r in rank] == want_rank
        assert want_rank[3] == 8 and all(r == 9 for i, r in enumerate(want_rank) if i != 3)
        for got, want in zip(coef, want_coef):
            assert np.array_equal(got, want)


def test_gls_stack_keeps_each_slices_bits_across_chunk_seams():
    # Two chunk seams, slices gathered in shuffled order, each at its own
    # rho (a sixth of them at 0), one of them rank-deficient.
    count = 2 * regress._CHUNK + 5
    matrices, responses = _random_stack(7, size=count)
    matrices[11, :, 5] = matrices[11, :, 2]
    rng = np.random.default_rng(8)
    rows = rng.permutation(count)
    rho = rng.uniform(-regress.RHO_BOUND, regress.RHO_BOUND, count)
    rho[::6] = 0.0
    systems = np.concatenate((matrices, responses[:, :, None]), axis=2)
    coef, ssr, rank = regress._gls_stack(systems, rows, rho)
    assert len(ssr) == count and rank[rows.tolist().index(11)] == 8
    for j, (i, r) in enumerate(zip(rows.tolist(), rho.tolist())):
        want_coef, want_ssr, want_rank = oracles.gls_at_rho(matrices[i], responses[i], r)
        assert same_bits(coef[j], want_coef)
        assert same_bits(np.float64(ssr[j]), np.float64(want_ssr)) and rank[j] == want_rank


def test_lstsq_stack_nan_slice_raises():
    matrices, responses = _random_stack(99)
    matrices[2, 10, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.lstsq(matrices[2], responses[2], rcond=None)
    with pytest.raises(np.linalg.LinAlgError):
        regress._lstsq_stack(matrices, responses)


