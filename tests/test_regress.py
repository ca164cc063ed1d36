import datetime as dt
from dataclasses import replace

import numpy as np
import pytest

from dayahead import regress
from dayahead.errors import ValidationError
from dayahead.features import (
    LAMBDA_GRID,
    DesignMatrix,
    design_matrices,
    design_matrix,
    legal_training_days,
)
from dayahead.ingest import (
    LOAD_KIND,
    Dataset,
    SynthParams,
    assemble_window,
    synth_dataset,
    synth_window,
)
from dayahead.regress import (
    _concentrated_loglik,
    ensemble_mean,
    exact_ml_ar1_fit,
    exact_ml_ar1_fits,
    fit_model,
    forecast_day,
    ols_fit,
    ModelForecast,
)

import oracles
from conftest import TARGET, day, make_window, profile
from oracles import MODEL_A_COEFFS, model_a_records


def full_rank_design(model_id="a", seed=2, lam=0.0) -> DesignMatrix:
    window, _ = synth_window(SynthParams(days=12, seed=seed))
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
    assert np.max(np.abs(fit.coef_vector() - beta_star)) < 1e-8
    assert fit.ssr <= 1e-12 * float(y @ y)


def test_ols_orthogonal_response_zeroes_slopes():
    rng = np.random.default_rng(7)
    cols = rng.normal(size=(60, 4))
    cols -= cols.mean(axis=0)  # orthogonal to the intercept
    matrix = np.column_stack([np.ones(60), cols])
    y = np.ones(60) * 5.0  # constant: orthogonal to every centered column
    fit = ols_fit(stack_design(matrix, y))
    coef = fit.coef_vector()
    assert abs(coef[0] - 5.0) < 1e-8
    assert np.max(np.abs(coef[1:])) < 1e-8


def test_ols_requires_enough_rows():
    design = full_rank_design()
    short = DesignMatrix(
        model_id=design.model_id,
        rows=design.rows[:5],
        names=design.names,
        matrix=design.matrix[:5],
        response=design.response[:5],
    )
    with pytest.raises(ValidationError, match="rows"):
        ols_fit(short)


def test_ols_residuals_orthogonal_to_columns():
    design = full_rank_design(seed=9)
    fit = ols_fit(design)
    r = fit.residuals
    for j in range(design.n_cols):
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
    assert np.max(np.abs(ml.coef_vector() - ols.coef_vector())) < 1e-6
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
    assert np.max(np.abs(fit.coef_vector() - beta_star)) < 1.0


def test_exact_ml_constant_response_tie_break():
    n = 48
    matrix = np.ones((n, 1))
    y = np.full(n, 7.5)
    fit = exact_ml_ar1_fit(stack_design(matrix, y))
    assert fit.rho == 0.0
    assert abs(fit.coef_vector()[0] - 7.5) < 1e-12


def test_tie_break_test_survives_an_overflowing_response():
    # Loads x 1e150 square past the double range in y @ y.  Residuals that do
    # not vanish must still run the rho search, and the fits must agree with
    # those at x 1e140, where y @ y is finite.
    window, _ = synth_window(SynthParams(days=12, seed=1))

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
        y = design.response + rng.normal(0, 30, size=design.n_rows)
        noisy = with_response(design, y)
        fit = exact_ml_ar1_fit(noisy)
        n = noisy.n_rows
        _, ssr_hat, _ = oracles.gls_at_rho(noisy.matrix, noisy.response, fit.rho)
        _, ssr0, _ = oracles.gls_at_rho(noisy.matrix, noisy.response, 0.0)
        assert (
            _concentrated_loglik(ssr_hat, fit.rho, n)
            >= _concentrated_loglik(ssr0, 0.0, n) - 1e-9
        )


def test_fit_model_off_equals_fixed_zero():
    window, _ = synth_window(SynthParams(days=12, seed=8))
    off = fit_model(window, "a", method="ols", lambda_policy="off")
    fixed = fit_model(window, "a", method="ols", lambda_policy="fixed", lam=0.0)
    assert off.coefficients == fixed.coefficients
    assert off.lam == fixed.lam == 0.0


def test_fit_model_grid_recovers_zero_decay_generator():
    records = model_a_records(12)
    target = records[-1].date
    window = assemble_window(Dataset.from_records(records), target)
    fit = fit_model(window, "a", method="ols", lambda_policy="grid")
    assert fit.lam == 0.0
    for name, value in MODEL_A_COEFFS.items():
        assert abs(fit.coefficients[name] - value) < 1e-6


def test_fit_model_shape():
    window, _ = synth_window(SynthParams(days=12, seed=5))
    fit = fit_model(window, "a", method="exact_ml_ar1", lambda_policy="off")
    assert len(fit.coefficients) == 10
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
    fits = {m: fit_model(window, m, method="ols", lambda_policy="off")
            for m in ("a", "b", "c")}
    forecasts = forecast_day(window, fits)
    predicted = np.asarray(forecasts["a"].prediction.values)
    assert np.max(np.abs(predicted - np.asarray(base))) < 1e-6


def test_forecast_day_requires_all_fits():
    window, _ = synth_window(SynthParams(days=12, seed=6))
    fits = {m: fit_model(window, m, method="ols", lambda_policy="off")
            for m in ("a", "b")}
    with pytest.raises(ValidationError, match="model c"):
        forecast_day(window, fits)


def test_forecast_day_clamps_negative_predictions():
    window, _ = synth_window(SynthParams(days=12, seed=6))
    fits = {m: fit_model(window, m, method="ols", lambda_policy="off")
            for m in ("a", "b", "c")}
    # Force a negative prediction through a doctored intercept.
    bad = fits["a"]
    coeffs = dict(bad.coefficients)
    coeffs["a0"] -= 1e7
    from dayahead.regress import FitResult

    fits["a"] = FitResult(
        model_id="a", coefficients=coeffs, residuals=bad.residuals,
        ssr=bad.ssr, rho=bad.rho, lam=bad.lam, method=bad.method,
        diagnostics=bad.diagnostics,
    )
    forecasts = forecast_day(window, fits)
    assert forecasts["a"].clamped_hours == tuple(range(1, 25))
    assert all(v == 1.0 for v in forecasts["a"].prediction.values)


def test_forecast_day_deterministic():
    window, _ = synth_window(SynthParams(days=12, seed=13))
    fits = {m: fit_model(window, m) for m in ("a", "b", "c")}
    first = forecast_day(window, fits)
    second = forecast_day(window, fits)
    for m in ("a", "b", "c"):
        assert first[m].prediction == second[m].prediction


def _constant_forecast(value: float) -> ModelForecast:
    prof = profile(TARGET, [value] * 24, LOAD_KIND)
    return ModelForecast(model_id="a", fit=None, prediction=prof)


def test_ensemble_mean_of_constants():
    forecasts = {
        "a": _constant_forecast(3000.0),
        "b": _constant_forecast(4000.0),
        "c": _constant_forecast(5000.0),
    }
    out = ensemble_mean(forecasts)
    assert out.values == (4000.0,) * 24


def test_ensemble_mean_identical_and_symmetric():
    window, _ = synth_window(SynthParams(days=12, seed=3))
    fits = {m: fit_model(window, m, method="ols") for m in ("a", "b", "c")}
    forecasts = forecast_day(window, fits)
    same = ensemble_mean(
        {"a": forecasts["a"], "b": forecasts["a"], "c": forecasts["a"]}
    )
    assert same == forecasts["a"].prediction
    permuted = ensemble_mean(
        {"a": forecasts["b"], "b": forecasts["c"], "c": forecasts["a"]}
    )
    assert ensemble_mean(forecasts) == permuted


# --- Lockstep rho search against the scalar oracle --------------------------

def assert_same_fit(got, want):
    """Field-by-field equality with ``==``: no tolerance."""
    for name in ("model_id", "method", "lam", "rho", "ssr", "coefficients", "diagnostics"):
        assert getattr(got, name) == getattr(want, name), name
    assert np.array_equal(got.residuals, want.residuals)


@pytest.mark.parametrize("seed", [1, 20071])
@pytest.mark.parametrize("temp_mode", ["hour", "day"])
def test_fit_model_matches_scalar_oracle_over_backtest(seed, temp_mode):
    # Every day of the 31-day acceptance backtest on synth --days 40.
    records, _ = synth_dataset(SynthParams(days=40, seed=seed))
    data = Dataset.from_records(records)
    target = dt.date(2004, 1, 10)
    while target <= dt.date(2004, 2, 9):
        window = assemble_window(data, target)
        for model_id in ("a", "b", "c"):
            got = fit_model(window, model_id, temp_mode=temp_mode)
            want = oracles.fit_model_grid(window, model_id, temp_mode)
            assert_same_fit(got, want)
        target += dt.timedelta(days=1)


def test_lockstep_stack_with_tie_break_slice():
    window, _ = synth_window(SynthParams(days=12, seed=21))
    designs = design_matrices(
        window, "c", legal_training_days(window, "c"), LAMBDA_GRID
    )
    constant = with_response(designs[4], np.full(designs[4].n_rows, 7.5))
    stack = designs[:4] + [constant] + designs[4:]
    got = exact_ml_ar1_fits(stack)
    assert got[4].diagnostics.get("rho_tie_break") is True
    assert sum("rho_tie_break" in fit.diagnostics for fit in got) == 1
    for fit, design in zip(got, stack):
        assert_same_fit(fit, oracles.exact_ml_ar1_fit(design))


def test_exact_ml_single_design_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    design = full_rank_design("b", seed=17, lam=0.4)
    noisy = with_response(design, design.response + rng.normal(0, 25, design.n_rows))
    assert_same_fit(exact_ml_ar1_fit(noisy), oracles.exact_ml_ar1_fit(noisy))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rho_search_never_beaten_by_likelihood_grid(seed):
    # Golden-section rho against an 801-point grid on (-0.999, 0.999).
    grid = np.linspace(-0.999, 0.999, 801).tolist()
    window, _ = synth_window(SynthParams(days=12, seed=seed))
    for model_id in ("a", "b", "c"):
        designs = design_matrices(
            window, model_id, legal_training_days(window, model_id), LAMBDA_GRID
        )
        for design, fit in zip(designs, exact_ml_ar1_fits(designs)):
            best = max(
                _concentrated_loglik(
                    oracles.gls_at_rho(design.matrix, design.response, rho)[1],
                    rho,
                    design.n_rows,
                )
                for rho in grid
            )
            assert best <= fit.diagnostics["loglik"] + 1e-9, (model_id, fit.rho)


# --- Stacked least-squares helper -------------------------------------------

def _lstsq_each(matrices, responses):
    solved = [np.linalg.lstsq(a, b, rcond=None) for a, b in zip(matrices, responses)]
    return [s[0] for s in solved], [int(s[2]) for s in solved]


def _random_stack(seed, size=7, n=48, k=9):
    rng = np.random.default_rng(seed)
    matrices = rng.normal(size=(size, n, k)) * rng.uniform(0.1, 1e3, size=(size, 1, k))
    responses = rng.normal(size=(size, n)) * 1e3
    return matrices, responses


@pytest.mark.parametrize("gufunc", ["present", "missing"])
def test_lstsq_stack_bit_equal_to_public_lstsq(monkeypatch, gufunc):
    if gufunc == "missing":
        monkeypatch.setattr(regress, "_LSTSQ_GUFUNC", None)
    for seed in range(20):
        matrices, responses = _random_stack(seed)
        matrices[3, :, 5] = matrices[3, :, 2]  # one rank-deficient slice
        coef, rank = regress._lstsq_stack(matrices, responses)
        want_coef, want_rank = _lstsq_each(matrices, responses)
        assert [int(r) for r in rank] == want_rank
        assert want_rank[3] == 8 and all(r == 9 for i, r in enumerate(want_rank) if i != 3)
        for got, want in zip(coef, want_coef):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("gufunc", ["present", "missing"])
def test_lstsq_stack_nan_slice_raises(monkeypatch, gufunc):
    if gufunc == "missing":
        monkeypatch.setattr(regress, "_LSTSQ_GUFUNC", None)
    matrices, responses = _random_stack(99)
    matrices[2, 10, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.lstsq(matrices[2], responses[2], rcond=None)
    with pytest.raises(np.linalg.LinAlgError):
        regress._lstsq_stack(matrices, responses)


def test_fit_model_without_gufunc_matches(monkeypatch):
    window, _ = synth_window(SynthParams(days=12, seed=30))
    fast = fit_model(window, "b")
    monkeypatch.setattr(regress, "_LSTSQ_GUFUNC", None)
    assert_same_fit(fit_model(window, "b"), fast)
