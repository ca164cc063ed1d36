"""Time and energy tests of the daily verification layer.

Four time statistics (Eq. 11) are rescaled by integer powers of a fixed
base into canonical windows: the two T6 statistics into (4.5, 9] by powers
of 2, T16 into (10, 20] by powers of 2 and T24 into (20, 30] by powers of
1.5.  Because each window's width equals its scaling base, exactly one
exponent fits.  The statistics are then compared against externally
supplied critical values with level/acceptance-region branching; the
energy test (Eq. 12) checks positivity of a reserve derived from the daily
work offsets.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

from .errors import DegeneracyError, ValidationError
from .thermo import WORK_OFFSET

EXPONENT_BOUND = 64
TAN_GUARD = 1e-6

T6_WINDOW = (4.5, 9.0)
T16_WINDOW = (10.0, 20.0)
T24_WINDOW = (20.0, 30.0)

CRITICAL_KEYS = ("lvl1_5pct", "lvl1_10pct", "lvl2_5pct", "lvl2_10pct", "lvl3_5pct")


@dataclass(frozen=True)
class CriticalValues:
    """Critical values for the seasonal cointegration statistics.

    These are consumed as external data (see the README's file format); the
    engine ships no defaults.
    """

    lvl1_5pct: float
    lvl1_10pct: float
    lvl2_5pct: float
    lvl2_10pct: float
    lvl3_5pct: float

    def __post_init__(self):
        for key in CRITICAL_KEYS:
            value = getattr(self, key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValidationError(f"critical value {key} must be a number")
            if not abs(value) <= sys.float_info.max:  # also an int past the double range
                raise ValidationError(f"critical value {key} must be finite")


def load_critical_values(text: str) -> CriticalValues:
    """Parse the critical-values JSON object; unknown keys are rejected."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past Python's digit limit
        raise ValidationError(f"bad critical-values JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValidationError("critical-values JSON must be an object")
    unknown = set(obj) - set(CRITICAL_KEYS)
    if unknown:
        raise ValidationError(f"unknown critical-value keys: {sorted(unknown)}")
    missing = set(CRITICAL_KEYS) - set(obj)
    if missing:
        raise ValidationError(f"missing critical-value keys: {sorted(missing)}")
    return CriticalValues(**{k: obj[k] for k in CRITICAL_KEYS})


@dataclass(frozen=True)
class TimeTestResult:
    t6_1: float
    t6_2: float
    t16: float
    t24: float
    i: int
    k: int
    m: int
    n: int
    pass_t6: bool
    pass_t16: bool
    pass_t24: bool
    branch_t16: str
    branch_t24: str


@dataclass(frozen=True)
class ReserveTestResult:
    r1: Optional[float]
    r2: Optional[float]
    passed: bool


def scaled_time(
    raw: float, base: float, window: tuple[float, float]
) -> tuple[float, int]:
    """Scale a positive raw statistic into a half-open window (lo, hi].

    Returns (base**e * raw, e) for the unique integer e with the product in
    the window; hi/lo must equal the base, which makes the exponent unique.
    The search is bounded to |e| <= 64.
    """
    lo, hi = window
    if not math.isfinite(raw):
        raise DegeneracyError(f"non-finite time statistic {raw}", "(11)")
    if raw <= 0.0:
        raise DegeneracyError(f"non-positive time statistic {raw}", "(11)")
    guess = math.floor((math.log(hi) - math.log(raw)) / math.log(base))  # hi / raw can overflow
    for e in (guess - 1, guess, guess + 1):
        if abs(e) > EXPONENT_BOUND:
            continue
        value = base**e * raw
        if lo < value <= hi:
            return value, e
    raise DegeneracyError(
        f"no exponent in [-64, 64] scales {raw} into ({lo}, {hi}]", "(11)"
    )


def raw_times(
    theta1: float, theta2: float, w1: float, w2: float
) -> tuple[float, float, float, float]:
    """Unscaled time statistics (Eq. 11) from the angles and daily work.

    raw6_1 = W1 x1 tanh(x1), raw6_2 = W2 x2 tanh(x2), raw16 = W2 x2 tan(x2),
    raw24 = W1 x1 tan(x1), with x = (pi/2) theta.  The tangent arguments
    must stay away from pi/2.
    """
    x1 = 0.5 * math.pi * theta1
    x2 = 0.5 * math.pi * theta2
    for name, x in (("theta1", x1), ("theta2", x2)):
        if abs(x - 0.5 * math.pi) <= TAN_GUARD:
            raise DegeneracyError(
                f"tan singularity: (pi/2) {name} within 1e-6 of pi/2", "(11)"
            )
    return (
        w1 * x1 * math.tanh(x1),
        w2 * x2 * math.tanh(x2),
        w2 * x2 * math.tan(x2),
        w1 * x1 * math.tan(x1),
    )


def time_tests(
    theta1: float, theta2: float, w1: float, w2: float, cv: CriticalValues
) -> TimeTestResult:
    """Scale the four statistics and apply the critical-value branching.

    The doubled T6 statistic (twice the smaller of the pair) is compared at
    the first level, 5% region.  T16 at or above 16 is compared at the
    second level, 5% region, otherwise at the first level, 10% region.  T24
    at or above 24 is compared at the third level, 5% region, otherwise at
    the second level, 10% region.  The branch taken is recorded.
    """
    raw6_1, raw6_2, raw16, raw24 = raw_times(theta1, theta2, w1, w2)
    t6_1, i = scaled_time(raw6_1, 2.0, T6_WINDOW)
    t6_2, k = scaled_time(raw6_2, 2.0, T6_WINDOW)
    t16, m = scaled_time(raw16, 2.0, T16_WINDOW)
    t24, n = scaled_time(raw24, 1.5, T24_WINDOW)

    pass_t6 = 2.0 * min(t6_1, t6_2) > cv.lvl1_5pct

    if t16 >= 16.0:
        branch_t16 = "lvl2_5pct"
        pass_t16 = t16 > cv.lvl2_5pct
    else:
        branch_t16 = "lvl1_10pct"
        pass_t16 = t16 > cv.lvl1_10pct

    if t24 >= 24.0:
        branch_t24 = "lvl3_5pct"
        pass_t24 = t24 > cv.lvl3_5pct
    else:
        branch_t24 = "lvl2_10pct"
        pass_t24 = t24 > cv.lvl2_10pct

    return TimeTestResult(
        t6_1=t6_1,
        t6_2=t6_2,
        t16=t16,
        t24=t24,
        i=i,
        k=k,
        m=m,
        n=n,
        pass_t6=pass_t6,
        pass_t16=pass_t16,
        pass_t24=pass_t24,
        branch_t16=branch_t16,
        branch_t24=branch_t24,
    )


def energy_test(w1: float, w2: float, beta: float) -> ReserveTestResult:
    """Energy reserve test (Eq. 12).

    R_i = exp(W0_i beta) - sqrt(2 / (1 + sqrt(W0_i))) with W0_i = W_i -
    11.608.  Passes iff both reserves are positive.  A negative work offset
    makes the inner square root undefined; the test then fails with both
    reserves None instead of aborting the pipeline.
    """
    w0_1 = w1 - WORK_OFFSET
    w0_2 = w2 - WORK_OFFSET
    if w0_1 < 0.0 or w0_2 < 0.0:
        return ReserveTestResult(r1=None, r2=None, passed=False)

    def reserve(w0: float) -> float:
        return math.exp(w0 * beta) - math.sqrt(2.0 / (1.0 + math.sqrt(w0)))

    r1 = reserve(w0_1)
    r2 = reserve(w0_2)
    return ReserveTestResult(r1=r1, r2=r2, passed=(r1 > 0.0 and r2 > 0.0))
