"""Gaussianization of increment series by a sign-preserving power transform.

A raw increment series y is mapped to z = sgn(y) |y|^lambda, with the
exponent fitted so that the mean-absolute / root-mean-square ratio

    d = (mean |z|)^2 / mean z^2

reaches the Gaussian value 2/pi.  The ratio is scale invariant and, for a
series with at least two distinct nonzero magnitudes, non-increasing in the
exponent, so a bracketed bisection always lands on the target when one is
reachable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSeriesError,
    InputFormatError,
    InvalidSizeError,
    UnfittableSeriesError,
    _real,
)

__all__ = [
    "GAUSSIAN_RATIO",
    "MIN_INCREMENTS",
    "DEFAULT_RATIO_TOL",
    "IncrementSeries",
    "increments",
    "kurtosis_ratio",
    "gaussian_ratio_theoretical",
    "fit_lambda",
    "transform",
]

# (E|Z|)^2 / E Z^2 for a centered Gaussian Z.
GAUSSIAN_RATIO = 2.0 / math.pi

# Fewer increments than this and none of the downstream statistics mean much.
MIN_INCREMENTS = 8

# Default tolerance on |d - 2/pi| when fitting the exponent.
DEFAULT_RATIO_TOL = 1e-3

# Search window for the transform exponent.
LAMBDA_MIN = 0.05
LAMBDA_MAX = 20.0

# Magnitudes below this are treated as exact zeros under the transform.
TINY_MAGNITUDE = 1e-300

# gaussian_ratio_theoretical stays accurate in double precision up to here.
THEORETICAL_LAMBDA_CAP = 40.0


@dataclass(frozen=True)
class IncrementSeries:
    """First differences y_k of an observed series, built by `increments`."""

    values: np.ndarray


def _floats(x) -> np.ndarray:
    """x as a float array; None (numpy reads NaN), complex values (it drops the
    imaginary part) or an object that does not convert is an InputFormatError."""
    try:
        if x is not None and not np.iscomplexobj(x):
            return np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        pass
    raise InputFormatError(f"expected an array of floats, got {type(x).__name__}")


def _array(x, floor: int, what: str = "value") -> np.ndarray:
    """The array rule: x as a 1-D float array of at least `floor` finite values.
    InputFormatError names the type that does not convert or the non-finite
    `what`'s index; InvalidSizeError names any other shape and the floor."""
    vals = _floats(x)
    if vals.ndim != 1 or vals.size < floor:
        raise InvalidSizeError(f"need a 1-D series of at least {floor} values, got shape {vals.shape}")
    if not np.isfinite(vals).all():
        i = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise InputFormatError(f"index {i}: non-finite {what} {float(vals[i])}")
    return vals


def _values(series, floor: int) -> np.ndarray:
    """A stage's input through the array rule.  Only an IncrementSeries is
    unwrapped: an FbmPath or a RawSeries holds levels, not increments, so
    those raise InputFormatError instead of giving a plausible wrong answer."""
    return _array(series.values if isinstance(series, IncrementSeries) else series, floor)


def _checked_values(series) -> np.ndarray:
    """The series, through the array rule with MIN_INCREMENTS values, as an
    array every statistic can use: a mean(v*v) of 0 (all zeros, or squares
    that underflow) or infinite (squares that overflow) is degenerate."""
    vals = _values(series, MIN_INCREMENTS)
    with np.errstate(over="ignore"):
        mean_sq = float(np.mean(vals * vals))
    if mean_sq == 0.0:
        raise DegenerateSeriesError("mean square is zero: all values are zero or underflow")
    if mean_sq == math.inf:
        raise DegenerateSeriesError("mean square overflows: values are too large")
    return vals


def _at_verdict_scale(series) -> tuple[np.ndarray, np.ndarray, int]:
    """(vals, scaled, e): the checked series, and vals * 2**-e with
    max|scaled| in [0.5, 1).

    The Hurst grid and the hypothesis test run on `scaled`.  A power-of-two
    rescale is exact, and at that scale their products neither overflow nor
    lose precision to subnormals, whatever the input's scale.  q and the
    verdict do not depend on the scale, and a statistic homogeneous of
    degree d in z is the input's statistic times 2**(-d*e).
    """
    vals = _checked_values(series)
    exponent = int(np.frexp(np.max(np.abs(vals)))[1])
    return vals, np.ldexp(vals, -exponent), exponent


def increments(x) -> IncrementSeries:
    """First differences of a series, through the array rule with 9 points;
    an overflowing difference is an InputFormatError naming its index.  Pass
    an array of levels, such as an FbmPath's values, not the FbmPath itself."""
    with np.errstate(over="ignore"):
        return IncrementSeries(_array(np.diff(_array(x, MIN_INCREMENTS + 1)), 0, "increment"))


def _ratio(vals: np.ndarray) -> float:
    """(mean |v|)^2 / mean v^2 of an array whose mean square is positive
    and finite."""
    mean_sq = float(np.mean(vals * vals))
    mean_abs = float(np.mean(np.abs(vals)))
    return mean_abs * mean_abs / mean_sq


def kurtosis_ratio(v) -> float:
    """(mean |v|)^2 / mean v^2; equals 2/pi for Gaussian samples."""
    return _ratio(_checked_values(v))


def gaussian_ratio_theoretical(lam: float) -> float:
    """The ratio d attained by |Gaussian|^lam data, via the Gamma function.

    Strictly decreasing on (0, 40) with limit 1 at 0+; equals 2/pi at
    lam = 1.  Evaluated through log-Gamma so large exponents stay finite.
    """
    lam = _real("exponent", lam, 0, THEORETICAL_LAMBDA_CAP)
    log_ratio = (
        2.0 * math.lgamma((lam + 1.0) / 2.0)
        - math.lgamma(lam + 0.5)
        - 0.5 * math.log(math.pi)
    )
    return math.exp(log_ratio)


def _power_signed(values: np.ndarray, lam: float) -> np.ndarray:
    """sgn(v) |v|^lam with sub-1e-300 magnitudes flushed to exact zeros."""
    mags = np.abs(values)
    out = np.sign(values) * np.power(mags, lam)
    out[mags < TINY_MAGNITUDE] = 0.0
    return out


def _initial_guess(raw_ratio: float) -> float:
    """Invert the theoretical ratio curve; 1/root is the exponent guess."""
    lo, hi = 1e-6, THEORETICAL_LAMBDA_CAP - 1e-9
    if raw_ratio >= gaussian_ratio_theoretical(lo):
        root = lo
    elif raw_ratio <= gaussian_ratio_theoretical(hi):
        root = hi
    else:
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if gaussian_ratio_theoretical(mid) > raw_ratio:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
    return float(np.clip(1.0 / root, LAMBDA_MIN, LAMBDA_MAX))


def _check_ratio_tol(tol: float) -> float:
    """The one home of the ratio-tolerance rule.

    Every ratio lies in (0, 1], within 2/pi of the target, so a tolerance
    of 2/pi or more would accept any series untransformed.
    """
    return _real("ratio tolerance", tol, 0, GAUSSIAN_RATIO)


def fit_lambda(y, tol: float = DEFAULT_RATIO_TOL) -> float:
    """Fit the transform exponent so the ratio of z = sgn(y)|y|^lam hits 2/pi.

    Returns 1.0 immediately when the raw series is already within `tol` of
    the Gaussian ratio.  Otherwise brackets the root around an initial guess
    from the theoretical ratio curve and bisects until a midpoint is within
    `tol`, or until the bracket shrinks to adjacent floats, where the last
    midpoint is the closest exponent float arithmetic reaches.
    UnfittableSeriesError is raised if no exponent in [0.05, 20] brackets the
    target: no power transform Gaussianizes the series.  A `tol` outside
    (0, 2/pi) is a ConfigurationError.
    """
    tol = _check_ratio_tol(tol)
    vals = _checked_values(y)
    raw_ratio = _ratio(vals)
    if abs(raw_ratio - GAUSSIAN_RATIO) <= tol:
        return 1.0

    # The ratio is invariant under scaling, so normalize magnitudes to [0, 1]
    # before exponentiating; |y|^20 then cannot overflow.  The largest entry
    # stays exactly 1, so the mean square of every power is at least 1/m.
    mags = np.abs(vals)
    scaled = mags / mags.max()

    def deviation(lam: float) -> float:
        return _ratio(np.power(scaled, lam)) - GAUSSIAN_RATIO

    lam0 = _initial_guess(raw_ratio)
    f0 = deviation(lam0)
    if abs(f0) <= tol:
        return lam0

    # deviation() is non-increasing in the exponent: double (or halve) the
    # exponent until the sign flips, then bisect between lam0 and that point.
    sign = 1.0 if f0 > 0.0 else -1.0
    lam = lam0
    while True:
        lam = min(max(lam * 2.0**sign, LAMBDA_MIN), LAMBDA_MAX)
        if sign * deviation(lam) <= 0.0:
            break
        if lam in (LAMBDA_MIN, LAMBDA_MAX):
            raise UnfittableSeriesError(
                "no exponent in [0.05, 20] reaches the Gaussian ratio; "
                "the series cannot be assumed Gaussian"
            )
    lo, hi = sorted((lam0, lam))

    while True:
        mid = 0.5 * (lo + hi)
        f_mid = deviation(mid)
        if abs(f_mid) <= tol or not lo < mid < hi:
            return mid
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid


def transform(y, lam: float) -> np.ndarray:
    """Apply z = sgn(y) |y|^lam to a 1-D series of any length; zero
    increments stay exactly zero.  A lam that is not a finite positive real
    number is a ConfigurationError, a non-finite value an InputFormatError
    naming its index, and a value whose power leaves the float range a
    DegenerateSeriesError naming its index and lam."""
    lam = _real("exponent", lam, 0, math.inf)
    vals = _values(y, 0)
    with np.errstate(over="ignore"):
        z = _power_signed(vals, lam)
    bad = np.flatnonzero(np.isinf(z))
    if bad.size:
        raise DegenerateSeriesError(
            f"index {bad[0]}: |{float(vals[bad[0]])!r}|^lambda overflows at lambda = {lam!r}"
        )
    return z
