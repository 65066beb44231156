"""Hurst exponent estimation by grid search on the increment correlation.

For a candidate exponent H, one Durbin pass over the Toeplitz correlation
matrix S_H and two FFT products (`quadratic_form_logdet`) yield both the
goodness-of-fit score

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
from .errors import _real
from .gaussianize import _at_verdict_scale

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
    """(q score, profile objective) of one candidate exponent, from one
    `quadratic_form_logdet` call."""
    m = vals.size
    quad, logdet = quadratic_form_logdet(build_correlation(h, m), vals)
    return (q_constant / r1) * math.sqrt(quad / (m - 1)), math.log(quad / m) + logdet / m


def _make_grid(start: float, stop: float, step: float) -> np.ndarray:
    """The Hurst search grid; the one home of the grid-bound rule, rounded ends included."""
    start = _real("grid start", start, 0, 1)
    stop = _real("grid stop", stop, start, 1)
    step = _real("grid step", step, 0.01, 0.1, closed=True)
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    grid = np.round(start + step * np.arange(count), 12)
    for end, bound in ((grid[0], f"grid start {start!r}"), (grid[-1], f"grid stop {stop!r}")):
        _real(f"the grid end for {bound}, rounded to 12 decimals,", float(end), 0, 1)
    return grid


def _check_q_constant(q_constant: float) -> float:
    """The one home of the q-constant rule."""
    return _real("q constant", q_constant, 0, math.inf)


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
    kept for reporting, with `r1` = mean|z| of the input.  The grid runs at
    the scale `_at_verdict_scale` gives, where q keeps its bits.  Identical
    inputs give identical estimates.  The input errors are those of the
    checked series (non-finite, too short, zero or infinite mean square);
    bad grid bounds or a `q_constant` that is not finite and positive raise
    ConfigurationError.
    """
    grid_h = _make_grid(grid_start, grid_stop, grid_step)
    q_constant = _check_q_constant(q_constant)
    vals, scaled, _ = _at_verdict_scale(z)
    r1 = float(np.mean(np.abs(vals)))
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
