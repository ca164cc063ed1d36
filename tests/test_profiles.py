"""Day profiles as arrays, against the tuple form in oracles.py.

The clamp in ``forecast_day`` and the sorted-triple ``ensemble_mean`` must
give the bits, or the ``profile_problem`` message, of the hour-by-hour loops
over Python floats, and no profile that ``profile_problem`` rejects reaches
a report.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from dayahead.errors import DegeneracyError
from dayahead.pipeline import run_day
from dayahead.regress import CLAMP_FLOOR_MW, FitResult, RunFit, ensemble_mean, forecast_day

import oracles
from conftest import TARGET, make_window

# The floor and its neighbours one ulp above and below.
NEAR_FLOOR = (CLAMP_FLOOR_MW, np.nextafter(CLAMP_FLOOR_MW, 2.0),
              np.nextafter(CLAMP_FLOOR_MW, 0.0))


def oracle_profile(values):
    """The oracle's verdict on ``values``: their bits, or its message."""
    problem = oracles.profile_problem(TARGET, values)
    return problem if problem is not None else np.array(values, dtype=float).tobytes()


def random_hours(rng, pool) -> np.ndarray:
    """24 values, each drawn from ``pool`` or from a load-like range."""
    picks = rng.choice(np.asarray(pool, dtype=float), 24)
    return np.where(rng.random(24) < 0.5, picks, rng.uniform(1.0, 6000.0, 24))


def fit_predicting(raw) -> FitResult:
    """A fit whose target-day prediction is ``raw``: its regressors are the
    24 x 24 identity and its coefficients the raw values."""
    return FitResult("a", "ols", 0.0, np.array(raw, dtype=float), np.zeros(48), 0.0, 0.0,
                     target_block=np.eye(24))


def run_predicting(raws) -> RunFit:
    """A run of fits whose prediction of day i is ``raws[i]``: each day's
    regressors are the 24 x 24 identity and its coefficients the raw values."""
    days = len(raws)
    return RunFit("a", "ols", "hour", np.zeros(days), np.zeros(days), np.zeros(days),
                  np.array(raws, dtype=float), np.zeros((days, 48)), [{}] * days,
                  np.repeat(np.eye(24)[None], days, axis=0))


def test_clamp_matches_the_hourly_oracle():
    rng = np.random.default_rng(11)
    pool = (*NEAR_FLOOR, 0.0, -0.0, -1.0, -1e6, 0.5, 1e-300, 2.0)
    for trial in range(200):
        raws = [random_hours(rng, pool) for _ in "abc"]
        fits = dict(zip("abc", map(fit_predicting, raws)))
        got, finite = forecast_day(fits)
        assert finite.all()
        for i, (m, raw) in enumerate(zip("abc", raws)):
            assert np.array_equal(fits[m].target_block @ fits[m].coef, raw)
            want = np.array(oracles.clamp(raw)).tobytes()
            assert got[i, 0].tobytes() == want, (trial, m)


@pytest.mark.parametrize("scale, bad", [(1.0, np.inf), (1.0, -np.inf), (1.0, np.nan),
                                        (1e300, 1e300)],
                         ids=["inf", "-inf", "nan", "overflow"])
def test_a_prediction_that_is_not_finite_names_its_model(stub_criticals, scale, bad):
    # In the last case every regressor and coefficient is finite, but one of
    # their products is not.
    raw = np.full(24, 5000.0)
    raw[23] = bad
    fits = {m: fit_predicting(np.full(24, 5000.0)) for m in "abc"}
    fits["c"] = replace(fit_predicting(raw), target_block=np.eye(24) * scale)
    assert forecast_day(fits)[1].tolist() == [[True], [True], [False]]
    _, _, [aborted] = run_day(make_window(), stub_criticals, fits=fits)
    assert isinstance(aborted, DegeneracyError)
    assert str(aborted) == "model c: forecast is not finite (Eq. (3))"


def test_ensemble_mean_matches_the_sorted_triple_oracle():
    rng = np.random.default_rng(12)
    for trial in range(300):
        if trial % 3 == 0:  # all-equal triples at some hours
            shared = random_hours(rng, NEAR_FLOOR)
            triple = [np.where(rng.random(24) < 0.5, shared, random_hours(rng, NEAR_FLOOR))
                      for _ in "abc"]
        else:  # ties drawn from a small pool
            triple = [random_hours(rng, (*NEAR_FLOOR, 2.5, 3000.0)) for _ in "abc"]
        want = oracle_profile(oracles.ensemble_mean(*triple))
        for order in itertools.permutations(triple):
            assert oracle_profile(ensemble_mean(np.stack(order))) == want, trial


def test_ensemble_mean_overflow_is_rejected_as_the_oracle_rejects_it():
    # (mid - lo) + (hi - lo) passes the double range at hour 5.
    lo, mid, hi = np.full(24, 3000.0), np.full(24, 3000.0), np.full(24, 3000.0)
    lo[4], mid[4], hi[4] = 1.0, 1.6e308, 1.7e308
    want = oracles.profile_problem(TARGET, oracles.ensemble_mean(lo, mid, hi))
    assert want == f"non-finite value at ({TARGET}, hour 5)"
    assert oracle_profile(ensemble_mean(np.stack((hi, lo, mid)))) == want


@pytest.mark.parametrize("pair", ["ab", "bc", "ac"])
def test_an_overflowing_ensemble_mean_aborts_at_eq4(stub_criticals, pair):
    # Two models predict above DBL_MAX / 2 at hour 5, so (mid - lo) + (hi - lo)
    # passes the double range there; those values' centered squares overflow
    # first, at Eq. (4).
    raws = {m: np.full(24, 3000.0) for m in "abc"}
    for m, value in zip(pair, (1.6e308, 1.7e308)):
        raws[m][4] = value
    fits = {m: fit_predicting(raws[m]) for m in "abc"}
    _, ensemble, [aborted] = run_day(make_window(), stub_criticals, fits=fits)
    assert not np.isfinite(ensemble[0, 4])
    assert str(aborted) == "second moments of the centered profiles overflow (Eq. (4))"


def test_a_profile_whose_mean_overflows_aborts_at_eq4(stub_criticals):
    raws = {"a": np.full(24, 1.7e308), "b": np.full(24, 1.6e308), "c": np.full(24, 3000.0)}
    fits = {m: fit_predicting(raws[m]) for m in "abc"}
    _, ensemble, [aborted] = run_day(make_window(), stub_criticals, fits=fits)
    assert not np.isfinite(ensemble).any()
    assert str(aborted) == "second moments of the centered profiles overflow (Eq. (4))"


def test_every_overflowing_ensemble_of_a_seeded_sweep_aborts_at_eq4(stub_criticals):
    # Each model predicts values in [DBL_MAX / 2, DBL_MAX) at a random set of
    # hours, or nowhere; 2,000 triples whose ensemble mean overflows are kept.
    rng = np.random.default_rng(20071)
    top = np.finfo(np.float64).max
    days = []
    while len(days) < 2000:
        raws = [random_hours(rng, (*NEAR_FLOOR, 3000.0)) for _ in "abc"]
        for raw in raws:
            if rng.random() < 0.8:
                hours = rng.choice(24, rng.integers(1, 25), replace=False)
                raw[hours] = rng.uniform(0.5, 1.0, len(hours)) * top
        if not np.isfinite(ensemble_mean(np.stack(raws))).all():
            days.append(raws)
    fits = {m: run_predicting([day[i] for day in days]) for i, m in enumerate("abc")}
    _, _, scores = run_day(make_window(), stub_criticals, fits=fits)
    assert all(isinstance(s, DegeneracyError) and s.equation == "(4)" for s in scores)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0],
                         ids=["nan", "inf", "-inf", "0", "-0", "negative"])
@pytest.mark.parametrize("hour", [1, 24])
def test_profile_validation_names_the_oracles_first_bad_hour(stub_criticals, bad, hour):
    # The oracle names a profile's first bad hour.  No profile it rejects
    # reaches a report: a prediction that is not finite aborts at its
    # model's formula, and any other is clamped to one the oracle accepts.
    rng = np.random.default_rng(hour)
    raws = rng.uniform(1.0, 6000.0, (3, 24))
    raws[2, hour - 1] = bad
    assert f"hour {hour})" in oracle_profile(raws[2])
    if hour == 1:  # a second bad hour later on does not change the message
        later = raws[2].copy()
        later[23] = np.nan if bad == 0.0 else 0.0
        assert oracle_profile(later) == oracle_profile(raws[2])
    fits = dict(zip("abc", map(fit_predicting, raws)))
    forecasts, ensemble, [day] = run_day(make_window(), stub_criticals, fits=fits)
    if np.isfinite(bad):
        for values in (*forecasts[:, 0], ensemble[0]):
            assert oracles.profile_problem(TARGET, values) is None
    else:
        assert str(day) == "model c: forecast is not finite (Eq. (3))"
