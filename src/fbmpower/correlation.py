"""Closed-form correlation of fractional-Brownian-motion increments and the
Toeplitz linear algebra built on it.

The increments of an fBm path sampled on a uniform grid form a stationary
Gaussian sequence whose lag-k correlation is

    rho(k) = 0.5 * ((k+1)^(2H) + |k-1|^(2H) - 2 k^(2H)),

so the correlation matrix is symmetric Toeplitz with unit diagonal, and its
first row, as returned by `build_correlation`, is all the solvers below take.
The quadratic form z' S^-1 z and logdet S come from Durbin's recursion, which
gives the first column g of S^-1 and the prediction variances in O(m^2) (Golub
& Van Loan, "Matrix Computations", alg. 4.7.1), and the Gohberg-Semencul
formula, which writes S^-1 through g so that z' S^-1 z is two FFT products.
The test oracles, a Levinson solve (alg. 4.7.3) and a dense Cholesky solve,
live in tests/oracles.py.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateSeriesError, IllConditionedError, InvalidSizeError, _integer, _real
from .gaussianize import _array

__all__ = [
    "check_hurst",
    "increment_correlation",
    "build_correlation",
    "quadratic_form_logdet",
]


def check_hurst(h: float) -> float:
    """h as a float; ConfigurationError unless it is a real number in (0, 1)."""
    return _real("Hurst exponent", h, 0, 1)


def _correlation_row(h: float, m: int) -> np.ndarray:
    """Lags 0..m-1 of the increment correlation, vectorized."""
    two_h = 2.0 * h
    k = np.arange(m, dtype=float)
    # 0^(2H) is an exact 0 for numpy floats, so no special casing is needed.
    return 0.5 * ((k + 1.0) ** two_h + np.abs(k - 1.0) ** two_h - 2.0 * k**two_h)


def increment_correlation(h: float, lag: int) -> float:
    """Correlation between unit-grid fBm increments at the given lag.

    Equals 1 at lag 0 and 0 at every positive lag when H = 0.5 (independent
    Wiener increments); positive for H > 0.5, negative for H < 0.5.
    """
    h = check_hurst(h)
    lag = _integer("lag", lag, 0)
    two_h = 2.0 * h
    return float(
        0.5 * ((lag + 1.0) ** two_h + abs(lag - 1.0) ** two_h - 2.0 * float(lag) ** two_h)
    )


def build_correlation(h: float, m: int) -> np.ndarray:
    """First row (lags 0..m-1) of the correlation of m increments at Hurst
    exponent h; exactly m lags, or an InvalidSizeError for an m that is not
    an int >= 2 numpy can allocate."""
    h = check_hurst(h)
    if isinstance(m, (int, np.integer)) and not isinstance(m, bool) and m >= 2:
        try:
            row = _correlation_row(h, m)
            if row.size == m:  # numpy wraps some sizes past 2**63 to an empty arange
                return row
        except (ValueError, MemoryError):  # more lags than an array can hold
            pass
    raise InvalidSizeError(f"need an integer m >= 2 that fits in an array, got m={m!r}")


def _durbin(row: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Durbin recursion: (generators, beta, logdet T) with T u = beta * row[0] * e_1.

    u = [1, y] holds the order-(n-1) Yule-Walker solution y, so it is the
    first column of T^-1 scaled to a leading 1, and beta is the last
    prediction-error variance of T / row[0].  The generators are the rows
    u and [0, y reversed], the two Gohberg-Semencul vectors.

    The loop keeps y reversed in the second row, y[k-1::-1] == w[n-1-k:],
    so each step's dot reads two forward slices and copies nothing; it pairs
    the same products in the same order as a dot with y reversed, so every
    alpha, beta and IllConditionedError keeps its bits.
    """
    n = row.size
    diag = row[0]
    if diag <= 0.0:
        raise IllConditionedError(f"non-positive diagonal {float(diag)!r}")
    # A positive-definite row has |row[k]| <= row[0], which also keeps the
    # division below finite.
    past = np.flatnonzero(np.abs(row[1:]) > diag)
    if past.size:
        k = int(past[0]) + 1
        raise IllConditionedError(
            f"lag {k}: |{float(row[k])!r}| exceeds the diagonal {float(diag)!r}: "
            "matrix is not positive definite"
        )
    r = row[1:] / diag  # normalized off-diagonal lags
    lags = r.tolist()  # Python floats: the same arithmetic, less overhead
    generators = np.zeros((2, n))
    generators[0, 0] = 1.0
    w = generators[1, 1:]
    w[-1] = alpha = -lags[0]
    beta = 1.0
    betas = []
    for k in range(1, n):
        beta = (1.0 - alpha * alpha) * beta
        if not 0.0 < beta < math.inf:
            raise IllConditionedError(
                f"prediction variance {beta!r} at order {k}: "
                "matrix is not positive definite"
            )
        betas.append(beta)
        if k < n - 1:
            rev = w[n - 1 - k :]
            alpha = -(lags[k] + float(r[:k].dot(rev))) / beta
            # The product is a new array, so adding it in place is safe
            # although rev aliases its own reversal.
            rev += alpha * rev[::-1]
            w[n - 2 - k] = alpha
    generators[0, 1:] = w[::-1]
    # add.accumulate sums left to right, as one running sum; np.sum's pairwise
    # order would move logdet's last bits.
    logdet = np.add.accumulate(np.log(betas))[-1]
    return generators, beta, float(logdet + n * np.log(diag))


def quadratic_form_logdet(row: np.ndarray, z: np.ndarray) -> tuple[float, float]:
    """(z' S^-1 z, logdet S) from one Durbin pass and two FFT products.

    With g = S^-1 e_1, g~ its reversal and L(v) the lower-triangular Toeplitz
    matrix with first column v, the Gohberg-Semencul formula gives

        z' S^-1 z = (|L(g)' z|^2 - |L(Z g~)' z|^2) / g_0,

    where Z shifts down by one.  Both products are correlations of z, done
    with rfft/irfft of a power-of-two length >= 2m, so no term wraps around;
    a rounding-level negative difference is clamped to 0.  A lag larger than
    the diagonal or a non-positive prediction variance raises
    IllConditionedError at once.  The grid's rows
    never reach one: their smallest variance is 0.22 at H = 0.95, m = 16384.
    Both arguments pass the array rule with at least 2 values, of one length,
    and a z whose form overflows is a DegenerateSeriesError.
    """
    row = _array(row, 2)
    z = _array(z, 2)
    if z.size != row.size:
        raise InvalidSizeError(f"z length {z.size} does not match correlation size {row.size}")
    generators, beta, logdet = _durbin(row)
    n = row.size
    size = 1 << (2 * n - 1).bit_length()
    spectra = np.fft.rfft(generators, size)
    with np.errstate(over="ignore", invalid="ignore"):
        head, tail = np.fft.irfft(np.fft.rfft(z, size) * spectra.conj(), size)[:, :n]
        # u = g * beta * row[0], so the scale of u and 1/g_0 leave one division.
        quad = float((np.dot(head, head) - np.dot(tail, tail)) / (beta * row[0]))
    if not math.isfinite(quad):
        raise DegenerateSeriesError("z' S^-1 z overflows: the values of z are too large")
    return max(quad, 0.0), logdet


def _dense_toeplitz(row: np.ndarray) -> np.ndarray:
    """The symmetric Toeplitz matrix whose first row is `row`."""
    idx = np.abs(np.arange(row.size)[:, None] - np.arange(row.size)[None, :])
    return row[idx]
