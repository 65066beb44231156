"""Seeded, exact generation of fractional Brownian motion sample paths.

Paths live on the uniform grid k/n, k = 0..n, start at 0, and have the
covariance 0.5 (t^2H + s^2H - |t-s|^2H).  Two exact generators are provided:

* ``circulant`` - circulant embedding of the correlation row with FFT
  synthesis, O(n log n) (Davies & Harte 1987; Dieker 2004); the default;
* ``cholesky`` - dense factorization of the increment correlation matrix,
  O(n^2) memory and O(n^3) time, kept only as a test oracle for the default.

Randomness comes from ``numpy.random.default_rng`` (PCG64), so a given
(seed, method, n, H) quadruple always reproduces the same path bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import _dense_toeplitz, build_correlation, check_hurst, increment_correlation
from .errors import CirculantEmbeddingError, IllConditionedError, _choice, _integer

__all__ = ["FbmPath", "simulate_fbm"]

# Largest circulant-embedding eigenvalue deficit tolerated before failing.
EIGENVALUE_TOLERANCE = -1e-9


@dataclass(frozen=True)
class FbmPath:
    """A simulated path B_H(k/n) for k = 0..n, with its generation record.

    Built only by `simulate_fbm`, whose values have n + 1 points from 0;
    `increments(values)` gives its n increments.
    """

    hurst: float
    n: int
    seed: int
    method: str
    values: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n + 1) / self.n


def _fgn_cholesky(h: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance correlated Gaussian increments via dense Cholesky."""
    try:
        chol = np.linalg.cholesky(_dense_toeplitz(build_correlation(h, n)))
    except np.linalg.LinAlgError as exc:  # rounding, as H nears 1
        raise IllConditionedError(f"correlation matrix factorization failed: {exc}") from exc
    return chol @ rng.standard_normal(n)


def _fgn_circulant(h: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance correlated Gaussian increments via circulant embedding.

    The correlation row is embedded in a circulant of size 2n whose
    eigenvalues are nonnegative for fBm increments in exact arithmetic;
    rounding in the row makes some materially negative as H nears 1 (for
    example H = 0.99 at n = 524288, H = 0.999999 at n = 16384).  Synthesis
    draws one Hermitian-symmetric complex spectrum and inverse-transforms.
    """
    row = build_correlation(h, n)
    circ = np.concatenate([row, [increment_correlation(h, n)], row[:0:-1]])
    eig = np.fft.fft(circ).real
    worst = float(eig.min())
    if worst < EIGENVALUE_TOLERANCE:
        raise CirculantEmbeddingError(
            f"circulant embedding eigenvalue {worst:.3e} < {EIGENVALUE_TOLERANCE:.0e} "
            f"(H={h}, n={n})"
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
        Hurst exponent, a real number strictly inside (0, 1).
    n : int
        Number of grid steps, an integer >= 2; the path has n + 1 points from 0.
    seed : int
        Seed (an integer >= 0) for the PCG64 generator; same inputs give identical output.
    method : {"circulant", "cholesky"}
        "circulant" (FFT, the default) or "cholesky" (dense, O(n^3)); both
        are exact, and "cholesky" is kept only as a test oracle.

    Raises
    ------
    ConfigurationError
        If h, n, seed or method is outside the ranges above, or n or seed is a float.
    InvalidSizeError
        If n is more steps than an array can hold.
    CirculantEmbeddingError
        If the embedding has a materially negative eigenvalue, which
        rounding in the correlation row causes as H nears 1 and n grows.
        "cholesky" is no way out: at H = 1 - 1e-9, n = 1024 the dense
        factorization fails too, with IllConditionedError.
    """
    h = check_hurst(h)
    n = _integer("n", n, 2)
    seed = _integer("seed", seed, 0)
    _choice("method", method, ("circulant", "cholesky"))
    rng = np.random.default_rng(seed)
    fgn = _fgn_cholesky(h, n, rng) if method == "cholesky" else _fgn_circulant(h, n, rng)
    values = np.empty(n + 1)
    values[0] = 0.0
    # Grid spacing 1/n scales each unit-variance increment by n^-H.
    np.cumsum(fgn * float(n) ** (-h), out=values[1:])
    return FbmPath(hurst=h, n=n, seed=seed, method=method, values=values)
