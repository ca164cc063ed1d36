import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dayahead.errors import DegeneracyError
from dayahead.thermo import (
    WORK_OFFSET,
    cointegration_angle,
    coherence_deltas,
    compute_state,
    daily_work,
    demean,
    entropies,
    evolution_moments,
    inverse_temperature,
    peak_bounds,
    second_moments,
)

from conftest import TARGET, profile, stacked
from oracles import entropy_oracle, mu_oracle, sigma_oracle

LN2 = math.log(2.0)


def angle(p, q) -> float:
    """The alignment angle of two centered profiles."""
    return cointegration_angle(*second_moments(p, q))


def test_demean_constant_is_zero():
    assert np.all(demean(profile(TARGET, [4200.0] * 24).values) == 0.0)


def test_demean_centers_and_is_idempotent():
    rng = np.random.default_rng(3)
    x = rng.normal(100, 20, 24)
    centered = demean(x)
    assert abs(centered.mean()) < 1e-12
    assert np.allclose(demean(centered), centered, atol=1e-12)


def test_angle_equal_vectors_give_quarter_pi():
    rng = np.random.default_rng(5)
    p = demean(rng.normal(size=24))
    assert angle(p, p) == pytest.approx(math.pi / 4, abs=1e-15)


def test_angle_uncorrelated_branches():
    p = np.zeros(24)
    q = np.zeros(24)
    p[0], p[1] = 3.0, -3.0
    q[2], q[3] = 1.0, -1.0
    # <pq> = 0 with <pp> > <qq>: angle 0
    assert angle(p, q) == 0.0
    # <pq> = 0 with <pp> < <qq>: angle pi/2
    assert angle(q, p) == pytest.approx(math.pi / 2, abs=1e-15)


def test_angle_rejects_double_zero():
    with pytest.raises(DegeneracyError, match=r"\(4\)"):
        angle(np.zeros(24), np.zeros(24))


def test_angle_scale_invariant():
    rng = np.random.default_rng(8)
    for _ in range(200):
        p = demean(rng.normal(size=24))
        q = demean(rng.normal(size=24))
        c = float(rng.uniform(1e-3, 1e3))
        assert abs(
            angle(c * p, c * q) - angle(p, q)
        ) <= 1e-12


def test_entropies_at_zero():
    s, sp = entropies(0.0)
    assert s == 0.0
    assert sp == pytest.approx(LN2, abs=1e-15)


def test_entropies_frozen_point():
    # theta chosen so exp(-(pi/2) theta) = 1/2: chi = pi/3,
    # S = (1/4) ln 4 + (3/4) ln(4/3).
    theta = 2.0 * LN2 / math.pi
    s, sp = entropies(theta)
    expected = 0.25 * math.log(4.0) + 0.75 * math.log(4.0 / 3.0)
    assert s == pytest.approx(expected, abs=1e-12)
    assert s == pytest.approx(0.5623351446188083, abs=1e-12)
    oracle_s, oracle_sp = entropy_oracle(theta)
    assert s == pytest.approx(oracle_s, abs=1e-12)
    assert sp == pytest.approx(oracle_sp, abs=1e-12)


def test_entropies_limiting_behaviour():
    # As theta grows, S increases toward ln 2 and S' decreases toward 0.
    s_small, sp_small = entropies(0.01)
    s_large, sp_large = entropies(40.0)
    assert s_small < s_large < LN2 + 1e-15
    assert sp_large < sp_small < LN2 + 1e-15
    assert s_large == pytest.approx(LN2, abs=1e-6)
    assert sp_large == pytest.approx(0.0, abs=1e-6)


def test_entropy_bounds_and_monotonicity_on_grid():
    thetas = np.linspace(0.0, math.pi / 2, 1000)
    values = [entropies(t) for t in thetas]
    s = [v[0] for v in values]
    sp = [v[1] for v in values]
    assert all(0.0 <= v <= LN2 + 1e-15 for v in s)
    assert all(0.0 <= v <= LN2 + 1e-15 for v in sp)
    assert all(s[i + 1] >= s[i] for i in range(len(s) - 1))
    assert all(sp[i + 1] <= sp[i] for i in range(len(sp) - 1))


def test_coherence_deltas_signs():
    assert coherence_deltas(0.4, 0.4) == (0.0, 0.0)
    ds, dsp = coherence_deltas(0.9, 0.3)
    assert ds > 0.0 and dsp < 0.0
    ds, dsp = coherence_deltas(0.3, 0.9)
    assert ds < 0.0 and dsp > 0.0


def test_inverse_temperature_arithmetic():
    assert inverse_temperature(0.2, -0.1) == pytest.approx(0.5, abs=1e-15)
    ds, dsp = coherence_deltas(0.8, 0.2)
    assert inverse_temperature(ds, dsp) > 0.0


def test_inverse_temperature_degenerate():
    with pytest.raises(DegeneracyError, match=r"\(8\)"):
        inverse_temperature(0.0, -0.1)
    with pytest.raises(DegeneracyError, match=r"\(8\)"):
        inverse_temperature(5e-13, -0.1)


def test_peak_bounds_min_max_of_model_maxima():
    pa = profile(TARGET, [100.0] * 12 + [90.0] * 12)
    pb = profile(TARGET, [110.0] * 12 + [80.0] * 12)
    pc = profile(TARGET, [120.0] * 12 + [85.0] * 12)
    p1_am, p2_am, p1_pm, p2_pm = peak_bounds(stacked(pa, pb, pc))
    assert (p1_am, p2_am) == (100.0, 120.0)
    assert (p1_pm, p2_pm) == (80.0, 90.0)


def test_peak_bounds_identical_profiles_collapse():
    pa = profile(TARGET, [100.0 + h for h in range(24)])
    p1_am, p2_am, p1_pm, p2_pm = peak_bounds(stacked(pa, pa, pa))
    assert p1_am == p2_am
    assert p1_pm == p2_pm


def test_peak_bounds_segments_are_isolated():
    # Afternoon bounds come from hours 13..24 even when smaller than morning.
    pa = profile(TARGET, [200.0] * 12 + [50.0] * 12)
    p1_am, p2_am, p1_pm, p2_pm = peak_bounds(stacked(pa, pa, pa))
    assert p1_pm == p2_pm == 50.0
    assert p1_am <= p2_am


def test_daily_work_equal_peaks_is_offset_exactly():
    w1, w2 = daily_work(100.0, 120.0, 100.0, 120.0, 0.7)
    assert w1 == WORK_OFFSET
    assert w2 == WORK_OFFSET


def test_equal_segment_maxima_give_offset_work():
    # Profiles whose morning and afternoon maxima coincide per model leave
    # the bounds with zero log-ratio, so both daily works equal the offset.
    shapes = []
    for peak in (110.0, 130.0, 150.0):
        values = [90.0] * 24
        values[5] = peak
        values[17] = peak
        shapes.append(profile(TARGET, values))
    bounds = peak_bounds(stacked(*shapes))
    w1, w2 = daily_work(*bounds, 1.3)
    assert w1 == WORK_OFFSET
    assert w2 == WORK_OFFSET


def test_daily_work_unit_log_ratio():
    p = 100.0
    w1, w2 = daily_work(p, p, p, p * math.e, 2.0)
    assert w1 == WORK_OFFSET
    assert w2 == pytest.approx(WORK_OFFSET + 0.5, abs=1e-12)


def test_daily_work_guards():
    with pytest.raises(DegeneracyError, match=r"\(10\)"):
        daily_work(1.0, 1.0, 1.0, 1.0, 0.0)


def test_evolution_moments_simple_mu():
    mu, _ = evolution_moments(0.0, 0.5, 4.0, 12.0)
    assert mu == 0.5


def test_evolution_moments_mu_identity():
    for theta in np.linspace(0.0, math.pi / 2, 50):
        x = 0.5 * math.pi * theta
        via_exp = math.exp(-x) / math.sqrt(9.0)
        via_hyperbolic = (math.cosh(x) - math.sinh(x)) / math.sqrt(9.0)
        mu, _ = evolution_moments(theta, 0.5, 9.0, 12.0)
        assert abs(mu - via_exp) <= 1e-15
        assert abs(via_exp - via_hyperbolic) <= 1e-12


def test_evolution_moments_sigma_pinned_by_oracle():
    _, sigma = evolution_moments(0.3, 0.5, 10.0, 12.0)
    assert sigma == pytest.approx(sigma_oracle(0.5, 12.0), abs=1e-12)
    mu, _ = evolution_moments(0.3, 0.5, 10.0, 12.0)
    assert mu == pytest.approx(mu_oracle(0.3, 10.0), abs=1e-12)


def test_evolution_moments_guards():
    with pytest.raises(DegeneracyError, match=r"\(13\)"):
        evolution_moments(0.2, 0.0, 10.0, 10.0)
    with pytest.raises(DegeneracyError, match=r"\(13\)"):
        evolution_moments(0.2, 1e-10, 10.0, 10.0)
    with pytest.raises(DegeneracyError, match=r"\(13\)"):
        evolution_moments(0.2, 0.4, -1.0, 10.0)


@given(
    st.floats(min_value=1e-6, max_value=math.pi / 2, allow_nan=False),
    st.floats(min_value=1e-6, max_value=math.pi / 2, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_beta_positive_whenever_theta1_exceeds_theta2(theta1, theta2):
    if theta1 <= theta2 + 1e-9:
        return
    ds, dsp = coherence_deltas(theta1, theta2)
    if abs(ds) <= 1e-12:
        return
    assert inverse_temperature(ds, dsp) > 0.0


def test_compute_state_consistency():
    rng = np.random.default_rng(21)
    base = 4000.0 + 400.0 * np.sin(np.linspace(0, 2 * np.pi, 24))
    pa = profile(TARGET, base + rng.normal(0, 60, 24))
    pb = profile(TARGET, base + rng.normal(0, 60, 24))
    pc = profile(TARGET, base + rng.normal(0, 60, 24))
    [state] = compute_state(stacked(pa, pb, pc)[:, None])
    assert 0.0 <= state.theta1 <= math.pi / 2
    assert 0.0 <= state.theta2 <= math.pi / 2
    (s1, _), (s2, _) = entropies(state.theta1), entropies(state.theta2)
    assert state.delta_s == s1 - s2
    p1_am, p2_am, p1_pm, p2_pm = peak_bounds(stacked(pa, pb, pc))
    assert p1_am <= p2_am
    assert p1_pm <= p2_pm
    assert (state.w1, state.w2) == daily_work(p1_am, p2_am, p1_pm, p2_pm, state.beta)
    assert math.isfinite(state.mu) and math.isfinite(state.sigma)


def test_angle_overflowing_moments_name_eq4():
    # Loads near 1e200 square past the double range: the moments turn
    # inf/NaN, which every <= guard would let through.
    rng = np.random.default_rng(4)
    p = demean(rng.normal(size=24)) * 1e200
    q = demean(rng.normal(size=24)) * 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DegeneracyError, match=r"\(4\)"):
            angle(p, q)
