"""Seeded, exact generation of fractional Brownian motion sample paths.

Paths live on the uniform grid k/n, k = 0..n, start at 0, and have the
covariance 0.5 (t^2H + s^2H - |t-s|^2H).  Two exact generators are provided:

* ``circulant`` - circulant embedding of the correlation row with FFT
  synthesis, O(n log n) (Davies & Harte 1987; Dieker 2004); the default;
* ``cholesky`` - dense factorization of the increment correlation matrix,
  O(n^2) memory and O(n^3) time, kept as an independent cross-check.

Randomness comes from ``numpy.random.default_rng`` (PCG64), so a given
(seed, method, n, H) quadruple always reproduces the same path bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import _correlation_row, _dense_toeplitz, check_hurst, increment_correlation
from .errors import CirculantEmbeddingError, ConfigurationError, IllConditionedError

__all__ = ["FbmPath", "simulate_fbm"]

# Largest circulant-embedding eigenvalue deficit tolerated before failing.
EIGENVALUE_TOLERANCE = -1e-9


@dataclass(frozen=True)
class FbmPath:
    """A simulated path B_H(k/n) for k = 0..n, with its generation record.

    Built only by `simulate_fbm`, whose values have n + 1 points from 0.
    """

    hurst: float
    n: int
    seed: int
    method: str
    values: np.ndarray

    @property
    def increments(self) -> np.ndarray:
        """The n grid increments B_H(k/n) - B_H((k-1)/n)."""
        return np.diff(self.values)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n + 1) / self.n


def _fgn_cholesky(h: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance correlated Gaussian increments via dense Cholesky."""
    try:
        chol = np.linalg.cholesky(_dense_toeplitz(_correlation_row(h, n)))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - PD for all H
        raise IllConditionedError(f"correlation matrix factorization failed: {exc}") from exc
    return chol @ rng.standard_normal(n)


def _fgn_circulant(h: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance correlated Gaussian increments via circulant embedding.

    The correlation row is embedded in a circulant of size 2n whose
    eigenvalues are provably nonnegative for fBm increments; synthesis
    draws one Hermitian-symmetric complex spectrum and inverse-transforms.
    """
    row = _correlation_row(h, n)
    circ = np.concatenate([row, [increment_correlation(h, n)], row[:0:-1]])
    eig = np.fft.fft(circ).real
    worst = float(eig.min())
    if worst < EIGENVALUE_TOLERANCE:
        raise CirculantEmbeddingError(
            f"circulant embedding eigenvalue {worst:.3e} < {EIGENVALUE_TOLERANCE:.0e} "
            f"(H={h}, n={n}); use method='cholesky'"
        )
    eig = np.clip(eig, 0.0, None)

    m2 = 2 * n
    spectrum = np.empty(m2, dtype=complex)
    spectrum[0] = rng.standard_normal()
    spectrum[n] = rng.standard_normal()
    u = rng.standard_normal(n - 1)
    v = rng.standard_normal(n - 1)
    interior = (u + 1j * v) / np.sqrt(2.0)
    spectrum[1:n] = interior
    spectrum[n + 1 :] = np.conj(interior[::-1])
    sample = np.fft.ifft(np.sqrt(eig) * spectrum) * np.sqrt(m2)
    return sample.real[:n]


def simulate_fbm(h: float, n: int, seed: int, method: str = "circulant") -> FbmPath:
    """Generate one fBm path on the grid k/n.

    Parameters
    ----------
    h : float
        Hurst exponent, strictly inside (0, 1).
    n : int
        Number of grid steps; the path has n + 1 points and starts at 0.
    seed : int
        Seed (>= 0) for the PCG64 generator; same inputs give identical output.
    method : {"circulant", "cholesky"}
        "circulant" (FFT, the default) or "cholesky" (dense, O(n^3)); both
        are exact, and "cholesky" is kept to cross-check the default.

    Raises
    ------
    ConfigurationError
        If h, n, seed or method is outside the ranges above.
    CirculantEmbeddingError
        If the embedding has a materially negative eigenvalue (does not
        happen for fBm increments; callers may fall back to cholesky).
    """
    h = check_hurst(h)
    n = int(n)
    if n < 2:
        raise ConfigurationError(f"need n >= 2 grid steps, got {n}")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    if method not in ("cholesky", "circulant"):
        raise ConfigurationError(f"unknown method {method!r}")
    rng = np.random.default_rng(seed)
    fgn = _fgn_cholesky(h, n, rng) if method == "cholesky" else _fgn_circulant(h, n, rng)
    values = np.empty(n + 1)
    values[0] = 0.0
    # Grid spacing 1/n scales each unit-variance increment by n^-H.
    np.cumsum(fgn * float(n) ** (-h), out=values[1:])
    return FbmPath(hurst=h, n=n, seed=int(seed), method=method, values=values)
