"""Goodness-of-fit test for the claim that a transformed increment series is
a sample of fBm increments, via weighted power-variation statistics.

With v_k the running sum of increments before step k and c the mean square,
three statistics are compared against their limit laws:

    stat_A = mean(v z^3)            -> -(3/2) c^2            (H < 0.5)
    stat_B = m^-(1+H) sum(v^2 z^3)  -> 3 c^2.5 eta,  eta ~ N(0, 1/(2H+2))
    stat_D = m^-2H    sum(v z^3)    -> (3/2) c^2 G^2, G ~ N(0, 1)

The antipersistent branch (H <= 0.5) accepts when the relative deviation of
stat_A from its limit stays under beta0 and |stat_B| stays under the
1-alpha quantile beta1; the persistent branch (H > 0.5) accepts when
stat_D falls in (0, beta2).  stat_A diverges like m^(2H-1) for H > 0.5, so
its deviation check is off on the persistent branch unless explicitly
requested.

The persistent-branch rule is calibrated on the limit law only.  With
V_m = sum(z), stat_D splits exactly into

    stat_D = m^-2H (3/2) c V_m^2          -> (3/2) c^2 G^2
           - (3/2) c m^-2H sum(z^2)       bias, -(3/2) c^2 m^(1-2H)
           + m^-2H sum(v (z^3 - 3 c z))   remainder, spread ~ m^(1/2-H)

The bias vanishes like m^(1-2H).  The remainder is a weighted sum of the
third Hermite polynomial of the increments, so it vanishes only like
m^(1/2-H) (Breuer & Major 1983), with spread about
sqrt(6 C3 / (2H+1)) m^(1/2-H), where C3 = sum over n of rho(n)^3.  At
finite m it moves part of the mass of G^2 near 0 below zero, so
0 < stat_D < beta2 covers less than 1 - alpha of true fBm series: about
76% at H = 0.7, m = 8192, alpha = 0.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .correlation import check_hurst
from .errors import ConfigurationError, DegenerateSeriesError, InvalidSizeError
from .gaussianize import _checked_values, _values

__all__ = [
    "HypothesisStats",
    "Classification",
    "partial_sums",
    "stat_A",
    "stat_B",
    "stat_D",
    "thresholds",
    "verdict_from_stats",
    "test_hypothesis",
    "classify",
]

# Quantile coefficients as printed in legacy reports (alpha = 0.1 rounded up).
PAPER_B_COEFFICIENT = 4.95
PAPER_D_COEFFICIENT = 4.08

DEFAULT_BETA0 = 0.1
DEFAULT_ALPHA = 0.1

ANTIPERSISTENT_BRANCH = "antipersistent_branch"
PERSISTENT_BRANCH = "persistent_branch"


@dataclass(frozen=True)
class HypothesisStats:
    """Inputs, statistics, thresholds, and verdict of one hypothesis test.

    Exactly one of (b_n, beta1) / (d_n_stat, beta2) is populated, according
    to the branch taken at h_used.
    """

    c: float
    a_n: float
    a_limit: float
    delta: float
    sigma: float
    h_used: float
    branch: str
    b_n: float | None
    d_n_stat: float | None
    beta0: float
    beta1: float | None
    beta2: float | None
    alpha: float
    verdict: str


@dataclass(frozen=True)
class Classification:
    """Memory/noise labels and forecastability implied by (h, verdict)."""

    persistence: str
    noise: str
    memory: str
    forecastable: bool


def partial_sums(z) -> np.ndarray:
    """Running sums v with v[0] = 0 and v[k] = z[0] + ... + z[k-1]."""
    vals = _values(z)
    if vals.size < 1:
        raise InvalidSizeError("need at least one increment")
    out = np.empty(vals.size)
    out[0] = 0.0
    np.cumsum(vals[:-1], out=out[1:])
    return out


def stat_A(z, v) -> float:
    """mean(v * z^3): first-order weighted cubic variation."""
    vals = _values(z)
    v = np.asarray(v, dtype=float)
    if v.size != vals.size:
        raise ValueError("z and v must have equal length")
    return float(np.mean(v * vals**3))


def stat_B(z, v, h: float) -> float:
    """m^-(1+H) * sum(v^2 * z^3): second-order weighted cubic variation."""
    vals = _values(z)
    v = np.asarray(v, dtype=float)
    if v.size != vals.size:
        raise ValueError("z and v must have equal length")
    m = vals.size
    return float(m ** -(1.0 + h) * np.sum(v * v * vals**3))


def stat_D(z, v, h: float) -> float:
    """m^-2H * sum(v * z^3): the persistent-branch weighted cubic variation.

    Equals m^-2H (3/2) c V_m^2 - (3/2) c m^-2H sum(z^2)
    + m^-2H sum(v (z^3 - 3 c z)) exactly, with c = mean(z^2) and
    V_m = sum(z), for v the strictly-before partial sums.  The first term
    has the (3/2) c^2 G^2 limit law; the bias and the remainder vanish like
    m^(1-2H) and m^(1/2-H).
    """
    vals = _values(z)
    v = np.asarray(v, dtype=float)
    if v.size != vals.size:
        raise ValueError("z and v must have equal length")
    m = vals.size
    return float(m ** (-2.0 * h) * np.sum(v * vals**3))


def _check_settings(alpha: float, beta0: float = DEFAULT_BETA0) -> None:
    """The one home of the alpha and beta0 rules."""
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha}")
    if not beta0 > 0.0:
        raise ConfigurationError(f"beta0 must be positive, got {beta0}")


def thresholds(
    c: float,
    h: float,
    alpha: float = DEFAULT_ALPHA,
    paper_constants: bool = False,
) -> tuple[float, float]:
    """Acceptance quantiles (beta1, beta2) at significance alpha.

    beta1 bounds |stat_B| two-sidedly under its N(0, 9 c^5 / (2H+2)) limit;
    beta2 bounds stat_D under its (3/2) c^2 chi-square(1) limit.  With
    `paper_constants` the historical rounded coefficients 4.95 / 4.08
    (alpha = 0.1) are used instead of the exact normal quantile.
    """
    _check_settings(alpha)
    if not c > 0.0:
        raise ValueError(f"mean square c must be positive, got {c!r}")
    if paper_constants:
        coeff_b = PAPER_B_COEFFICIENT
        coeff_d = PAPER_D_COEFFICIENT
    else:
        z_a = NormalDist().inv_cdf(1.0 - alpha / 2.0)
        coeff_b = 3.0 * z_a
        coeff_d = 1.5 * z_a * z_a
    beta1 = coeff_b * c**2.5 / math.sqrt(2.0 * h + 2.0)
    beta2 = coeff_d * c * c
    return beta1, beta2


def verdict_from_stats(
    h: float,
    delta: float,
    beta0: float = DEFAULT_BETA0,
    b_n: float | None = None,
    beta1: float | None = None,
    d_n_stat: float | None = None,
    beta2: float | None = None,
    require_delta_on_persistent: bool = False,
) -> str:
    """Apply the acceptance rule to precomputed statistics.

    Antipersistent branch (h <= 0.5): accepted iff delta < beta0 and
    |b_n| < beta1.  Persistent branch: accepted iff 0 < d_n_stat < beta2,
    with delta < beta0 additionally required only when
    `require_delta_on_persistent` is set.
    """
    if h <= 0.5:
        if b_n is None or beta1 is None:
            raise ValueError("antipersistent branch needs b_n and beta1")
        ok = delta < beta0 and abs(b_n) < beta1
    else:
        if d_n_stat is None or beta2 is None:
            raise ValueError("persistent branch needs d_n_stat and beta2")
        ok = 0.0 < d_n_stat < beta2
        if require_delta_on_persistent:
            ok = ok and delta < beta0
    return "accepted" if ok else "rejected"


def test_hypothesis(
    z,
    h_hat: float,
    beta0: float = DEFAULT_BETA0,
    alpha: float = DEFAULT_ALPHA,
    paper_constants: bool = False,
    require_delta_on_persistent: bool = False,
) -> HypothesisStats:
    """Run the full fBm-increment hypothesis test at the estimated exponent.

    Computes c, the partial sums, the branch statistics and thresholds, and
    the verdict.  Raises ConfigurationError for h_hat outside (0, 1), alpha
    outside (0, 1) or a non-positive beta0, and the input errors of the
    checked series (non-finite, too short, zero or infinite mean square).
    A DegenerateSeriesError marks a series whose statistics leave the float
    range: a mean square c for which c^2.5 under- or overflows (beta1 and
    stat_B scale with it), or any statistic or threshold that is not finite.
    """
    check_hurst(h_hat)
    _check_settings(alpha, beta0)
    vals = _checked_values(z)
    c = float(np.mean(vals * vals))
    v = partial_sums(vals)
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.finfo(float).tiny <= np.float64(c) ** 2.5 < math.inf:
            raise DegenerateSeriesError(
                f"mean square {c:.3g} is out of range: c^2.5 under- or overflows"
            )
        a_n = stat_A(vals, v)
        if h_hat <= 0.5:
            branch = ANTIPERSISTENT_BRANCH
            b_n: float | None = stat_B(vals, v, h_hat)
            d_n: float | None = None
        else:
            branch = PERSISTENT_BRANCH
            b_n = None
            d_n = stat_D(vals, v, h_hat)
    a_limit = -1.5 * c * c
    delta = abs(a_n - a_limit) / abs(a_limit)
    sigma = (2.0 * h_hat + 2.0) ** -0.5
    beta1, beta2 = thresholds(c, h_hat, alpha, paper_constants)
    beta1_out = beta1 if b_n is not None else None
    beta2_out = beta2 if d_n is not None else None
    computed = (a_n, delta, b_n, d_n, beta1_out, beta2_out)
    if not all(math.isfinite(x) for x in computed if x is not None):
        raise DegenerateSeriesError(
            f"mean square {c:.3g}: the statistics overflow the float range"
        )

    verdict = verdict_from_stats(
        h_hat,
        delta,
        beta0,
        b_n=b_n,
        beta1=beta1_out,
        d_n_stat=d_n,
        beta2=beta2_out,
        require_delta_on_persistent=require_delta_on_persistent,
    )
    return HypothesisStats(
        c=c,
        a_n=a_n,
        a_limit=a_limit,
        delta=delta,
        sigma=sigma,
        h_used=float(h_hat),
        branch=branch,
        b_n=b_n,
        d_n_stat=d_n,
        beta0=beta0,
        beta1=beta1_out,
        beta2=beta2_out,
        alpha=alpha,
        verdict=verdict,
    )


def classify(h_hat: float, verdict: str) -> Classification:
    """Persistence, noise color, memory, and forecastability labels.

    A forecast is supported only by an accepted persistent model; a rejected
    model never is, whatever its exponent.
    """
    check_hurst(h_hat)
    if verdict not in ("accepted", "rejected"):
        raise ValueError(f"unknown verdict {verdict!r}")
    if h_hat < 0.5:
        persistence, noise, memory = "antipersistent", "pink", "short"
    elif h_hat > 0.5:
        persistence, noise, memory = "persistent", "black", "long"
    else:
        persistence, noise, memory = "independent", "white", "independent"
    forecastable = verdict == "accepted" and h_hat > 0.5
    return Classification(
        persistence=persistence, noise=noise, memory=memory, forecastable=forecastable
    )
