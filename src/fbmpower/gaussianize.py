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
    ConfigurationError,
    DegenerateSeriesError,
    InputFormatError,
    InvalidSizeError,
    UnfittableSeriesError,
)

__all__ = [
    "GAUSSIAN_RATIO",
    "MIN_INCREMENTS",
    "IncrementSeries",
    "GaussianizedSeries",
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

# Search window for the transform exponent.
LAMBDA_MIN = 0.05
LAMBDA_MAX = 20.0

# Magnitudes below this are treated as exact zeros under the transform.
TINY_MAGNITUDE = 1e-300

# gaussian_ratio_theoretical stays accurate in double precision up to here.
THEORETICAL_LAMBDA_CAP = 40.0


@dataclass(frozen=True)
class IncrementSeries:
    """First differences y_k of an observed series.

    Statistics downstream require m >= MIN_INCREMENTS; the algebraic
    transform operations accept any length.
    """

    values: np.ndarray
    m: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size != self.m or self.m < 1:
            raise ValueError("values must be one-dimensional with length m >= 1")
        if not np.all(np.isfinite(values)):
            raise ValueError("increments must be finite")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class GaussianizedSeries:
    """Transformed increments z_k with the fitted exponent and achieved ratio."""

    values: np.ndarray
    lam: float
    achieved_ratio: float
    m: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size != self.m:
            raise ValueError("values must be one-dimensional with length m")
        if not self.lam > 0.0:
            raise ValueError(f"exponent must be positive, got {self.lam!r}")
        object.__setattr__(self, "values", values)


def _values(series) -> np.ndarray:
    return np.asarray(getattr(series, "values", series), dtype=float)


def _checked_values(series) -> np.ndarray:
    """The series as a 1-D float array that every statistic can use.

    Raises InvalidSizeError unless it is 1-D with at least MIN_INCREMENTS
    values, InputFormatError on a non-finite value, naming its index, and
    DegenerateSeriesError when mean(v*v) is 0 (all zeros, or values so small
    that their squares underflow) or infinite (squares that overflow).
    """
    vals = _values(series)
    if vals.ndim != 1 or vals.size < MIN_INCREMENTS:
        raise InvalidSizeError(
            f"need a 1-D series of at least {MIN_INCREMENTS} values, got shape {vals.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise InputFormatError(f"index {bad[0]}: non-finite value {float(vals[bad[0]])}")
    with np.errstate(over="ignore"):
        mean_sq = float(np.mean(vals * vals))
    if mean_sq == 0.0:
        raise DegenerateSeriesError("mean square is zero: all values are zero or underflow")
    if mean_sq == math.inf:
        raise DegenerateSeriesError("mean square overflows: values are too large")
    return vals


def increments(x) -> IncrementSeries:
    """First differences of a series of at least 9 points."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < MIN_INCREMENTS + 1:
        raise InvalidSizeError(
            f"need at least {MIN_INCREMENTS + 1} observations, got {x.size}"
        )
    diffs = np.diff(x)
    return IncrementSeries(values=diffs, m=diffs.size)


def kurtosis_ratio(v) -> float:
    """(mean |v|)^2 / mean v^2; equals 2/pi for Gaussian samples."""
    vals = _checked_values(v)
    mean_sq = float(np.mean(vals * vals))
    mean_abs = float(np.mean(np.abs(vals)))
    return mean_abs * mean_abs / mean_sq


def gaussian_ratio_theoretical(lam: float) -> float:
    """The ratio d attained by |Gaussian|^lam data, via the Gamma function.

    Strictly decreasing on (0, 40) with limit 1 at 0+; equals 2/pi at
    lam = 1.  Evaluated through log-Gamma so large exponents stay finite.
    """
    lam = float(lam)
    if not 0.0 < lam < THEORETICAL_LAMBDA_CAP:
        raise ValueError(f"exponent must lie in (0, {THEORETICAL_LAMBDA_CAP}), got {lam!r}")
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


def _ratio_of_powers(scaled_mags: np.ndarray, lam: float) -> float:
    """kurtosis ratio of |y|^lam given magnitudes pre-scaled into [0, 1]."""
    p = np.power(scaled_mags, lam)
    mean_sq = float(np.mean(p * p))
    if mean_sq == 0.0:
        return 0.0
    mean_abs = float(np.mean(p))
    return mean_abs * mean_abs / mean_sq


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


def _check_ratio_tol(tol: float) -> None:
    """The one home of the ratio-tolerance rule."""
    if not tol > 0.0:
        raise ConfigurationError(f"ratio tolerance must be positive, got {tol}")


def fit_lambda(y, tol: float = 1e-3, max_iter: int = 100) -> float:
    """Fit the transform exponent so the ratio of z = sgn(y)|y|^lam hits 2/pi.

    Returns 1.0 immediately when the raw series is already within `tol` of
    the Gaussian ratio.  Otherwise brackets the root around an initial guess
    from the theoretical ratio curve and bisects; if no exponent in
    [0.05, 20] brackets the target the series cannot be Gaussianized by a
    power transform and UnfittableSeriesError is raised.  A non-positive
    `tol` or `max_iter` is a ConfigurationError.
    """
    _check_ratio_tol(tol)
    if max_iter < 1:
        raise ConfigurationError(f"max iterations must be >= 1, got {max_iter}")
    vals = _checked_values(y)
    raw_ratio = kurtosis_ratio(vals)
    if abs(raw_ratio - GAUSSIAN_RATIO) <= tol:
        return 1.0

    # The ratio is invariant under scaling, so normalize magnitudes to [0, 1]
    # before exponentiating; |y|^20 then cannot overflow.
    mags = np.abs(vals)
    scaled = mags / mags.max()

    def deviation(lam: float) -> float:
        return _ratio_of_powers(scaled, lam) - GAUSSIAN_RATIO

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

    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = deviation(mid)
        if abs(f_mid) <= tol:
            return mid
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid
    raise UnfittableSeriesError(
        f"bisection did not reach ratio tolerance {tol} in {max_iter} steps"
    )


def transform(y, lam: float) -> GaussianizedSeries:
    """Apply z = sgn(y) |y|^lam; zero increments stay exactly zero."""
    if not lam > 0.0:
        raise ValueError(f"exponent must be positive, got {lam!r}")
    vals = _values(y)
    z = _power_signed(vals, float(lam))
    if z.size >= MIN_INCREMENTS and np.any(z != 0.0):
        achieved = kurtosis_ratio(z)
    else:
        achieved = float("nan")
    return GaussianizedSeries(values=z, lam=float(lam), achieved_ratio=achieved, m=z.size)
