"""Closed-form correlation of fractional-Brownian-motion increments and the
Toeplitz linear algebra built on it.

The increments of an fBm path sampled on a uniform grid form a stationary
Gaussian sequence whose lag-k correlation is

    rho(k) = 0.5 * ((k+1)^(2H) + |k-1|^(2H) - 2 k^(2H)),

so the correlation matrix is symmetric Toeplitz with unit diagonal, and its
first row, as returned by `build_correlation`, is all the solvers below take.
The quadratic form z' S^-1 z is evaluated with the Levinson recursion (O(m^2),
see Golub & Van Loan, "Matrix Computations", alg. 4.7.3); a dense Cholesky
path is kept as an independent cross-check.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, IllConditionedError, InvalidSizeError

__all__ = [
    "check_hurst",
    "increment_correlation",
    "asymptotic_correlation",
    "build_correlation",
    "quadratic_form_logdet",
    "dense_quadratic_form",
]

# Diagonal jitter used for the single retry after a failed factorization.
JITTER = 1e-10


def check_hurst(h: float) -> float:
    """Validate a Hurst exponent; outside (0, 1) it is a ConfigurationError."""
    h = float(h)
    if not np.isfinite(h) or not 0.0 < h < 1.0:
        raise ConfigurationError(f"Hurst exponent must lie strictly in (0, 1), got {h!r}")
    return h


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
    lag = int(lag)
    if lag < 0:
        raise ValueError("lag must be >= 0")
    two_h = 2.0 * h
    return float(
        0.5 * ((lag + 1.0) ** two_h + abs(lag - 1.0) ** two_h - 2.0 * float(lag) ** two_h)
    )


def asymptotic_correlation(h: float, lag: int) -> float:
    """Power-law large-lag approximation H(2H-1) lag^(2H-2) of the correlation."""
    h = check_hurst(h)
    lag = int(lag)
    if lag < 1:
        raise ValueError("lag must be >= 1")
    return float(h * (2.0 * h - 1.0) * float(lag) ** (2.0 * h - 2.0))


def build_correlation(h: float, m: int) -> np.ndarray:
    """First row (lags 0..m-1) of the correlation of m increments at Hurst
    exponent h."""
    h = check_hurst(h)
    m = int(m)
    if m < 2:
        raise InvalidSizeError(f"need at least 2 increments, got m={m}")
    return _correlation_row(h, m)


def _levinson(row: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Levinson recursion: returns (solution of T x = b, logdet T).

    The recursion tracks the prediction-error variance, whose running
    product is the determinant; a non-positive value means the leading
    minors are not all positive, i.e. the matrix is not numerically
    positive definite, and IllConditionedError is raised.
    """
    n = row.size
    diag = row[0]
    if not np.isfinite(diag) or diag <= 0.0:
        raise IllConditionedError(f"non-positive diagonal {diag!r}")
    if n == 1:
        return b / diag, float(np.log(diag))
    r = row[1:] / diag  # normalized off-diagonal lags

    x = np.zeros(n)
    y = np.zeros(n - 1)
    x[0] = b[0]
    y[0] = -r[0]
    alpha = -r[0]
    beta = 1.0
    logdet = 0.0
    for k in range(1, n):
        beta = (1.0 - alpha * alpha) * beta
        if not np.isfinite(beta) or beta <= 0.0:
            raise IllConditionedError(
                f"prediction variance {beta!r} at order {k}: matrix is not positive definite"
            )
        logdet += np.log(beta)
        mu = (b[k] - np.dot(r[:k], x[k - 1 :: -1])) / beta
        x[:k] += mu * y[k - 1 :: -1]
        x[k] = mu
        if k < n - 1:
            alpha = -(r[k] + np.dot(r[:k], y[k - 1 :: -1])) / beta
            # y aliases its own reversal, so the update cannot be in place.
            y[:k] = y[:k] + alpha * y[k - 1 :: -1]
            y[k] = alpha
    return x / diag, float(logdet + n * np.log(diag))


def quadratic_form_logdet(row: np.ndarray, z: np.ndarray) -> tuple[float, float]:
    """(z' S^-1 z, logdet S) in one Levinson pass.

    On a failed factorization the solve is retried once with diagonal
    jitter 1e-10 before raising IllConditionedError.
    """
    row = np.asarray(row, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.size != row.size:
        raise ValueError(f"z length {z.size} does not match correlation size {row.size}")
    try:
        x, logdet = _levinson(row, z)
    except IllConditionedError:
        jittered = row.copy()
        jittered[0] += JITTER
        x, logdet = _levinson(jittered, z)
    return max(float(np.dot(z, x)), 0.0), logdet


def _dense_toeplitz(row: np.ndarray) -> np.ndarray:
    """The symmetric Toeplitz matrix whose first row is `row`."""
    idx = np.abs(np.arange(row.size)[:, None] - np.arange(row.size)[None, :])
    return row[idx]


def dense_quadratic_form(row: np.ndarray, z: np.ndarray) -> float:
    """Same quadratic form via dense Cholesky, O(m^3); cross-check path only."""
    row = np.asarray(row, dtype=float)
    z = np.asarray(z, dtype=float)
    try:
        chol = np.linalg.cholesky(_dense_toeplitz(row))
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(str(exc)) from exc
    w = np.linalg.solve(chol, z)
    return float(np.dot(w, w))
