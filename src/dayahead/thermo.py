"""Alignment angles, entropies, inverse temperature, daily work and moments.

This layer measures how far apart the three model forecasts sit.  Centered
forecast profiles are compared through an alignment angle (Eq. 4 in the
README's formula catalog); each angle induces a pair of binary entropies
(Eq. 5) whose differences (Eq. 6, 7) define an inverse temperature
(Eq. 8).  Peak bounds over the morning and afternoon segments (Eq. 9) feed
the daily work (Eq. 10), and the mean/standard deviation of the day's
evolution follow from Eq. 13.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, ValidationError
from .ingest import DayProfile

# Additive constant of the daily-work formula (Eq. 10).
WORK_OFFSET = 11.608

# Double-precision noise floors with margin.
ZERO_SERIES_TOL = 1e-12
DELTA_S_TOL = 1e-12
THETA2_TOL = 1e-9

LN2 = math.log(2.0)


@dataclass(frozen=True)
class ThermoState:
    theta1: float
    theta2: float
    chi1: float
    chi2: float
    s_theta1: float
    s_theta2: float
    sp_theta1: float
    sp_theta2: float
    delta_s: float
    delta_sp: float
    beta: float
    p1_am: float
    p2_am: float
    p1_pm: float
    p2_pm: float
    w1: float
    w2: float
    mu: float
    sigma: float


def demean(profile) -> np.ndarray:
    """Subtract the 24-hour mean; accepts a DayProfile or a 24-vector."""
    x = np.asarray(profile.values if isinstance(profile, DayProfile) else profile, dtype=float)
    if x.shape != (24,):
        raise ValidationError("expected a 24-vector")
    if not np.all(np.isfinite(x)):
        raise ValidationError("non-finite value in profile")
    return x - x.mean()


def cointegration_angle(p: np.ndarray, q: np.ndarray) -> float:
    """Alignment angle between two centered 24-vectors, in [0, pi/2].

    theta = |0.5 atan2(2<pq>, <pp> - <qq>)| with <xy> = (1/24) sum x(t)y(t).
    The two-argument arctangent resolves the vanishing denominator: equal
    nonzero vectors give pi/4, uncorrelated vectors give 0 or pi/2 depending
    on which has larger second moment.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (24,) or q.shape != (24,):
        raise ValidationError("expected centered 24-vectors")
    with np.errstate(over="ignore"):  # an overflow raises at Eq. (4) below
        pp = float(p @ p) / 24.0
        qq = float(q @ q) / 24.0
        pq = float(p @ q) / 24.0
    if not (math.isfinite(pp) and math.isfinite(qq) and math.isfinite(pq)):
        raise DegeneracyError("second moments of the centered profiles overflow", "(4)")
    if pp <= ZERO_SERIES_TOL and qq <= ZERO_SERIES_TOL:
        raise DegeneracyError("degenerate series: both centered profiles vanish", "(4)")
    return abs(0.5 * math.atan2(2.0 * pq, pp - qq))


def entropies(theta: float) -> tuple[float, float]:
    """System and environment entropies at an angle (Eq. 5), in nats.

    chi = arccos(exp(-(pi/2) theta)); S is the binary entropy of
    (1 - cos chi)/2 and S' that of (1 - sin chi)/2, with 0 ln 0 = 0.
    """
    if theta < 0:
        raise ValidationError(f"theta must be nonnegative, got {theta}")
    cos_chi = math.exp(-0.5 * math.pi * theta)
    sin_chi = math.sqrt(max(0.0, 1.0 - cos_chi * cos_chi))
    return _binary_entropy((1.0 - cos_chi) / 2.0), _binary_entropy((1.0 - sin_chi) / 2.0)


def _binary_entropy(prob: float) -> float:
    if prob <= 0.0 or prob >= 1.0:
        return 0.0
    return -prob * math.log(prob) - (1.0 - prob) * math.log(1.0 - prob)


def induced_chi(theta: float) -> float:
    return math.acos(math.exp(-0.5 * math.pi * theta))


def coherence_deltas(theta1: float, theta2: float) -> tuple[float, float]:
    """Signed entropy differences (Eq. 6, 7): system recoherence
    delta_S = S(theta1) - S(theta2), environment decoherence
    delta_S' = S'(theta1) - S'(theta2)."""
    s1, sp1 = entropies(theta1)
    s2, sp2 = entropies(theta2)
    return s1 - s2, sp1 - sp2


def inverse_temperature(delta_s: float, delta_sp: float) -> float:
    """beta = -delta_S' / delta_S (Eq. 8); requires |delta_S| > 1e-12."""
    if abs(delta_s) <= DELTA_S_TOL:
        raise DegeneracyError(
            "degenerate recoherence: |delta_S| <= 1e-12, "
            "inverse temperature undefined",
            "(8)",
        )
    return -delta_sp / delta_s


def peak_bounds(
    pa: DayProfile, pb: DayProfile, pc: DayProfile
) -> tuple[float, float, float, float]:
    """Morning/afternoon peak envelopes over the three forecasts (Eq. 9).

    For each model take its maximum over hours 1..12 (am) and 13..24 (pm);
    p1 is the smallest and p2 the largest of the three maxima per segment.
    """
    am = [max(p.values[0:12]) for p in (pa, pb, pc)]
    pm = [max(p.values[12:24]) for p in (pa, pb, pc)]
    return min(am), max(am), min(pm), max(pm)


def daily_work(
    p1_am: float, p2_am: float, p1_pm: float, p2_pm: float, beta: float
) -> tuple[float, float]:
    """Daily work pair (Eq. 10): W_i = 11.608 + (ln p_i^pm - ln p_i^am)/beta."""
    for name, value in (
        ("p1_am", p1_am), ("p2_am", p2_am), ("p1_pm", p1_pm), ("p2_pm", p2_pm)
    ):
        if value <= 0.0:
            raise DegeneracyError(f"non-positive peak {name}={value}", "(10)")
    if beta == 0.0:
        raise DegeneracyError("beta is zero, daily work undefined", "(10)")
    w1 = WORK_OFFSET + (math.log(p1_pm) - math.log(p1_am)) / beta
    w2 = WORK_OFFSET + (math.log(p2_pm) - math.log(p2_am)) / beta
    return w1, w2


def evolution_moments(
    theta1: float, theta2: float, w1: float, w2: float
) -> tuple[float, float]:
    """Mean and standard deviation of the day's evolution (Eq. 13).

    mu = exp(-(pi/2) theta1) / sqrt(W1), using cosh x - sinh x = exp(-x).
    sigma = (exp(-(pi/2) theta2)/sqrt(W2))
            / (exp(-pi theta2) + 1/(8 W2 ((pi/2) theta2)^2)).
    The sigma denominator diverges as theta2 -> 0, so small theta2 aborts.
    """
    if theta2 <= THETA2_TOL:
        raise DegeneracyError(
            f"sigma singularity: theta2={theta2} <= 1e-9", "(13)"
        )
    if w1 <= 0.0 or w2 <= 0.0:
        raise DegeneracyError(
            f"non-positive daily work (W1={w1}, W2={w2})", "(13)"
        )
    x1 = 0.5 * math.pi * theta1
    x2 = 0.5 * math.pi * theta2
    mu = math.exp(-x1) / math.sqrt(w1)
    sigma = (math.exp(-x2) / math.sqrt(w2)) / (
        math.exp(-2.0 * x2) + 1.0 / (8.0 * w2 * x2 * x2)
    )
    return mu, sigma


def compute_state(pa: DayProfile, pb: DayProfile, pc: DayProfile) -> ThermoState:
    """Run the full chain over the three model forecasts for one day.

    theta1 compares the descriptive model "a" with "b"; theta2 compares "c"
    with "b".  Raises :class:`DegeneracyError` naming the failing formula
    when the chain leaves its domain.
    """
    theta1 = cointegration_angle(demean(pa), demean(pb))
    theta2 = cointegration_angle(demean(pc), demean(pb))
    s1, sp1 = entropies(theta1)
    s2, sp2 = entropies(theta2)
    delta_s, delta_sp = coherence_deltas(theta1, theta2)
    beta = inverse_temperature(delta_s, delta_sp)
    p1_am, p2_am, p1_pm, p2_pm = peak_bounds(pa, pb, pc)
    w1, w2 = daily_work(p1_am, p2_am, p1_pm, p2_pm, beta)
    mu, sigma = evolution_moments(theta1, theta2, w1, w2)
    return ThermoState(
        theta1=theta1,
        theta2=theta2,
        chi1=induced_chi(theta1),
        chi2=induced_chi(theta2),
        s_theta1=s1,
        s_theta2=s2,
        sp_theta1=sp1,
        sp_theta2=sp2,
        delta_s=delta_s,
        delta_sp=delta_sp,
        beta=beta,
        p1_am=p1_am,
        p2_am=p2_am,
        p1_pm=p1_pm,
        p2_pm=p2_pm,
        w1=w1,
        w2=w2,
        mu=mu,
        sigma=sigma,
    )
