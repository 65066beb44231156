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
requested.  The statistics and thresholds are computed only inside
`test_hypothesis`, on the series scaled by a power of two.

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
from .errors import ConfigurationError, DegenerateSeriesError, _choice, _real
from .gaussianize import _at_verdict_scale

__all__ = ["HypothesisStats", "Classification", "test_hypothesis", "classify"]

# Quantile coefficients as printed in legacy reports: the alpha = 0.1
# quantiles rounded up, so they apply at that alpha only.
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


def _partial_sums(vals: np.ndarray) -> np.ndarray:
    """Running sums v with v[0] = 0 and v[k] = z[0] + ... + z[k-1]."""
    out = np.empty(vals.size)
    out[0] = 0.0
    np.cumsum(vals[:-1], out=out[1:])
    return out


def _stat_A(vals: np.ndarray, v: np.ndarray) -> float:
    """mean(v * z^3): first-order weighted cubic variation."""
    return float(np.mean(v * vals**3))


def _stat_B(vals: np.ndarray, v: np.ndarray, h: float) -> float:
    """m^-(1+H) * sum(v^2 * z^3): second-order weighted cubic variation."""
    return float(vals.size ** -(1.0 + h) * np.sum(v * v * vals**3))


def _stat_D(vals: np.ndarray, v: np.ndarray, h: float) -> float:
    """m^-2H * sum(v * z^3): the persistent-branch weighted cubic variation.

    Equals m^-2H (3/2) c V_m^2 - (3/2) c m^-2H sum(z^2)
    + m^-2H sum(v (z^3 - 3 c z)) exactly, with c = mean(z^2) and
    V_m = sum(z), for v the strictly-before partial sums.  The first term
    has the (3/2) c^2 G^2 limit law; the bias and the remainder vanish like
    m^(1-2H) and m^(1/2-H).
    """
    return float(vals.size ** (-2.0 * h) * np.sum(v * vals**3))


def _check_settings(alpha: float, beta0: float, paper_constants: bool,
                    require_delta: bool) -> tuple[float, float]:
    """The one home of the alpha, beta0 and flag rules; returns alpha and beta0."""
    alpha = _real("alpha", alpha, 0, 1)
    beta0 = _real("beta0", beta0, 0, math.inf)
    _choice("paper_constants", paper_constants, (False, True))
    _choice("require_delta_on_persistent", require_delta, (False, True))
    if paper_constants and alpha != 0.1:
        raise ConfigurationError(
            f"the paper constants are the alpha = 0.1 quantiles, got alpha {alpha}"
        )
    return alpha, beta0


def _thresholds(c: float, h: float, alpha: float, paper_constants: bool) -> tuple[float, float]:
    """Acceptance quantiles (beta1, beta2) at significance alpha.

    beta1 bounds |stat_B| two-sidedly under its N(0, 9 c^5 / (2H+2)) limit;
    beta2 bounds stat_D under its (3/2) c^2 chi-square(1) limit.  With
    `paper_constants` the historical rounded coefficients 4.95 / 4.08
    (alpha = 0.1) are used instead of the exact normal quantile.
    """
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


def _verdict(
    h: float,
    delta: float,
    beta0: float,
    stat: float,
    bound: float,
    require_delta_on_persistent: bool = False,
) -> str:
    """The acceptance rule on the branch statistic and its bound.

    Antipersistent branch (h <= 0.5), stat = stat_B and bound = beta1:
    accepted iff delta < beta0 and |stat| < bound.  Persistent branch,
    stat = stat_D and bound = beta2: accepted iff 0 < stat < bound, with
    delta < beta0 additionally required only when
    `require_delta_on_persistent` is set.
    """
    if h <= 0.5:
        ok = delta < beta0 and abs(stat) < bound
    else:
        ok = 0.0 < stat < bound
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

    Computes c, stat_A and the statistic and threshold of the branch that
    h_hat picks, and decides the verdict at the scale `_at_verdict_scale`
    gives.  The statistics are reported at the input's scale; one that
    underflows there reads 0.  Raises ConfigurationError for an h_hat or
    alpha that is not a real number in (0, 1), a beta0 that is not a finite
    positive real number, a flag that is not a bool, or `paper_constants`
    with an alpha other than 0.1, and the input errors of the checked series
    (non-finite, too short, zero or infinite mean square).  A DegenerateSeriesError marks
    a series whose reported statistics or thresholds overflow.
    """
    h_hat = check_hurst(h_hat)
    alpha, beta0 = _check_settings(alpha, beta0, paper_constants, require_delta_on_persistent)
    vals, scaled, exponent = _at_verdict_scale(z)
    c = float(np.mean(vals * vals))
    c_scaled = float(np.mean(scaled * scaled))
    v = _partial_sums(scaled)
    a_n = _stat_A(scaled, v)
    a_limit = -1.5 * c_scaled * c_scaled
    delta = abs(a_n - a_limit) / abs(a_limit)
    sigma = (2.0 * h_hat + 2.0) ** -0.5
    persistent = h_hat > 0.5
    # stat_D and beta2 have degree 4 in z, stat_B and beta1 degree 5.
    degree, stat = (4, _stat_D(scaled, v, h_hat)) if persistent else (5, _stat_B(scaled, v, h_hat))
    bound = _thresholds(c_scaled, h_hat, alpha, paper_constants)[persistent]
    verdict = _verdict(h_hat, delta, beta0, stat, bound, require_delta_on_persistent)
    with np.errstate(over="ignore"):
        reported = np.ldexp([a_n, a_limit, stat, bound],
                            np.multiply([4, 4, degree, degree], exponent))
    if not np.isfinite(reported).all():
        raise DegenerateSeriesError(
            f"mean square {c:.3g}: the statistics overflow the float range"
        )
    a_n, a_limit, stat, bound = reported.tolist()
    b_n, beta1, d_n, beta2 = (None, None, stat, bound) if persistent else (stat, bound, None, None)
    return HypothesisStats(
        c=c,
        a_n=a_n,
        a_limit=a_limit,
        delta=delta,
        sigma=sigma,
        h_used=h_hat,
        branch=PERSISTENT_BRANCH if persistent else ANTIPERSISTENT_BRANCH,
        b_n=b_n,
        d_n_stat=d_n,
        beta0=beta0,
        beta1=beta1,
        beta2=beta2,
        alpha=alpha,
        verdict=verdict,
    )


def classify(h_hat: float, verdict: str) -> Classification:
    """Persistence, noise color, memory, and forecastability labels.

    A forecast is supported only by an accepted persistent model; a rejected
    model never is, whatever its exponent.
    """
    h_hat = check_hurst(h_hat)
    _choice("verdict", verdict, ("accepted", "rejected"))
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
