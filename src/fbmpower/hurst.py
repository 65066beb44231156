"""Hurst exponent estimation by grid search on the increment correlation.

For a candidate exponent H, one Levinson pass over the Toeplitz correlation
matrix S_H yields both the goodness-of-fit score

    q = (constant / mean|z|) * sqrt(z' S_H^-1 z / (m - 1)),

which is close to 1 when S_H matches the data, and the Gaussian profile
objective

    log(z' S_H^-1 z / m) + logdet(S_H) / m,

whose grid minimizer is the estimate.  The objective is the (negative,
profiled-scale) Gaussian log likelihood: unlike |q - 1| it has a unique
minimum at the true exponent, because q alone is blind around H = 0.5 where
S_H has unit diagonal and q reduces to a shape statistic that is ~1 for any
near-Gaussian data.  The full q curve is recorded for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import build_correlation, quadratic_form_logdet
from .errors import ConfigurationError
from .gaussianize import _checked_values

__all__ = ["DEFAULT_Q_CONSTANT", "HurstEstimate", "estimate_hurst"]

# Mean absolute value of a unit Gaussian: sqrt(2/pi).  The rounded 0.8 can be
# passed instead for parity with older reports.
DEFAULT_Q_CONSTANT = math.sqrt(2.0 / math.pi)

GRID_START = 0.05
GRID_STOP = 0.95
GRID_STEP = 0.05


@dataclass(frozen=True)
class HurstEstimate:
    """Grid of (H, q) scores with the selected exponent and its inputs."""

    grid: tuple[tuple[float, float], ...]
    h_hat: float
    q_at_hat: float
    r1: float
    m: int


def _score(vals: np.ndarray, r1: float, h: float, q_constant: float) -> tuple[float, float]:
    """(q score, profile objective) of one candidate exponent, one Levinson pass."""
    m = vals.size
    quad, logdet = quadratic_form_logdet(build_correlation(h, m), vals)
    return (q_constant / r1) * math.sqrt(quad / (m - 1)), math.log(quad / m) + logdet / m


def _make_grid(start: float, stop: float, step: float) -> np.ndarray:
    """The Hurst search grid; the one home of the grid-bound rule."""
    if not (0.0 < start < stop < 1.0):
        raise ConfigurationError(
            f"grid bounds must satisfy 0 < start < stop < 1, got [{start}, {stop}]"
        )
    if not 0.01 <= step <= 0.1:
        raise ConfigurationError(f"grid step must lie in [0.01, 0.1], got {step}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    grid = start + step * np.arange(count)
    return np.round(grid, 12)


def _check_q_constant(q_constant: float) -> None:
    """The one home of the q-constant rule."""
    if not q_constant > 0.0:
        raise ConfigurationError(f"q constant must be positive, got {q_constant}")


def estimate_hurst(
    z,
    grid_start: float = GRID_START,
    grid_stop: float = GRID_STOP,
    grid_step: float = GRID_STEP,
    q_constant: float = DEFAULT_Q_CONSTANT,
) -> HurstEstimate:
    """Grid-search the Hurst exponent of a Gaussianized increment series.

    The selected exponent minimizes the Gaussian profile objective over the
    grid (ties resolve to the smaller H); the q score of every grid point is
    kept for reporting, with `r1` = mean|z| of the input.  The grid runs on
    z times the power of two that brings max|z| into [0.5, 1).  That rescale
    is exact, so q keeps its bits, and the solves neither overflow nor lose
    precision to subnormals at any scale the series check admits.  Identical
    inputs give identical estimates.  The input errors are those of the
    checked series (non-finite, too short, zero or infinite mean square);
    bad grid bounds or a non-positive `q_constant` raise ConfigurationError.
    """
    grid_h = _make_grid(grid_start, grid_stop, grid_step)
    _check_q_constant(q_constant)
    vals = _checked_values(z)
    r1 = float(np.mean(np.abs(vals)))
    scaled = np.ldexp(vals, -np.frexp(np.max(np.abs(vals)))[1])
    scaled_r1 = float(np.mean(np.abs(scaled)))
    scores = np.empty(grid_h.size)
    objectives = np.empty(grid_h.size)
    for i, h in enumerate(grid_h):
        scores[i], objectives[i] = _score(scaled, scaled_r1, float(h), q_constant)
    # argmin returns the first (smallest-H) index on exact ties.
    best = int(np.argmin(objectives))
    return HurstEstimate(
        grid=tuple((float(h), float(q)) for h, q in zip(grid_h, scores)),
        h_hat=float(grid_h[best]),
        q_at_hat=float(scores[best]),
        r1=r1,
        m=vals.size,
    )
