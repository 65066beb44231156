"""Seeded inputs of the benchmark workloads.

Every input is drawn from the benchmark seed alone.  fBm paths come from
``simulate_fbm(..., method="circulant")``, so a change to the simulator's
``auto`` rule leaves the fleet inputs alone.  Their increments g get the
known sign-preserving power distortion sgn(g)|g|^(1/lam), which the
program's Gaussianizing transform should undo, and fleet series get a level
offset and a linear trend on top.  The program under test receives only
the generated CSV (fleet workloads) or the per-replicate parameters
(calibration workload).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from fbmpower.simulate import simulate_fbm

HURSTS = (0.3, 0.5, 0.7, 0.85)
LAMBDAS = (1.0, 1.4, 0.8, 1.2)
QUANTITIES = ("P", "S")
START = datetime(2024, 1, 1)
CSV_HEADER = "timestamp,building,quantity,value"

# Per-workload tags keep the random streams of different workloads apart.
FLEET_2048 = "fleet-2048"
FLEET_RAGGED = "fleet-ragged"
CALIBRATE_4096 = "calibrate-4096"
WORKLOADS = (FLEET_2048, FLEET_RAGGED, CALIBRATE_4096)
_TAGS = {FLEET_2048: 1, FLEET_RAGGED: 2, CALIBRATE_4096: 3}

RAGGED_MIN_POINTS = 168
RAGGED_MAX_POINTS = 720
RAGGED_GAP_FRACTION = 0.02
CALIBRATE_STEPS = 4096


def stream_seed(seed: int, workload: str, index: int) -> int:
    """A 32-bit seed for one series of one workload, fixed by the run seed."""
    return int(np.random.SeedSequence([seed, _TAGS[workload], index]).generate_state(1)[0])


def distort(g: np.ndarray, lam: float) -> np.ndarray:
    """The known distortion sgn(g)|g|^(1/lam); the fitted exponent should undo it."""
    return np.sign(g) * np.abs(g) ** (1.0 / lam)


@dataclass(frozen=True)
class SeriesSpec:
    """One generated (building, quantity) series; NaN marks a blank value."""

    building: str
    quantity: str
    values: np.ndarray


@dataclass(frozen=True)
class Fleet:
    """A multi-building CSV workload for ``fbmpower analyze``."""

    name: str
    gap_policy: str
    series: tuple[SeriesSpec, ...]

    @property
    def rows(self) -> int:
        return sum(s.values.size for s in self.series)

    def csv_text(self) -> str:
        longest = max(s.values.size for s in self.series)
        stamps = [(START + timedelta(hours=k)).isoformat() for k in range(longest)]
        lines = [CSV_HEADER]
        for s in self.series:
            prefix = f",{s.building},{s.quantity},"
            lines.extend(
                stamps[k] + prefix + ("" if np.isnan(v) else repr(float(v)))
                for k, v in enumerate(s.values)
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Replicate:
    """One Monte Carlo replicate of the calibration workload."""

    hurst: float
    lam: float
    seed: int


def _fleet_series(seed, workload, index, building, quantity, points, gaps) -> SeriesSpec:
    hurst = HURSTS[index % len(HURSTS)]
    lam = LAMBDAS[index % len(LAMBDAS)]
    path = simulate_fbm(hurst, points - 1, stream_seed(seed, workload, index), method="circulant")
    walk = np.concatenate([[0.0], np.cumsum(distort(np.diff(path.values), lam))])
    walk /= np.abs(walk).max()
    rng = np.random.default_rng(stream_seed(seed, workload, 10_000 + index))
    level = rng.uniform(50.0, 500.0)
    drift = rng.uniform(-0.2, 0.2) * level
    values = level + drift * np.arange(points) / points + 0.3 * level * walk
    if gaps:
        # Interior positions only, so every series keeps its own length.
        blank = rng.choice(np.arange(1, points - 1), size=gaps, replace=False)
        values[blank] = np.nan
    return SeriesSpec(building, quantity, values)


def fleet_2048(seed: int) -> Fleet:
    """4 buildings x {P, S}, 2049 hourly points each, no gaps."""
    series = []
    for b in range(4):
        for q, quantity in enumerate(QUANTITIES):
            index = 2 * b + q
            series.append(_fleet_series(seed, FLEET_2048, index, f"B{b:02d}", quantity, 2049, 0))
    return Fleet(FLEET_2048, "drop", tuple(series))


def ragged_lengths(seed: int, count: int) -> list[int]:
    """Distinct lengths spread evenly over [168, 720], in a seeded order.

    One length is drawn inside each of `count` equal strata, so no two
    series share a length while the total Toeplitz work barely moves from
    one seed to the next.
    """
    rng = np.random.default_rng(stream_seed(seed, FLEET_RAGGED, 20_000))
    width = (RAGGED_MAX_POINTS - RAGGED_MIN_POINTS + 1) / count
    lengths = RAGGED_MIN_POINTS + np.floor((np.arange(count) + rng.random(count)) * width)
    return [int(n) for n in rng.permutation(lengths)]


def fleet_ragged(seed: int) -> Fleet:
    """16 buildings x {P, S}, each series its own length, ~2% blank values."""
    lengths = ragged_lengths(seed, 32)
    series = []
    for b in range(16):
        for q, quantity in enumerate(QUANTITIES):
            index = 2 * b + q
            points = lengths[index]
            gaps = round(RAGGED_GAP_FRACTION * points)
            series.append(
                _fleet_series(seed, FLEET_RAGGED, index, f"B{b:02d}", quantity, points, gaps)
            )
    return Fleet(FLEET_RAGGED, "interpolate-linear", tuple(series))


def calibrate_4096(seed: int) -> tuple[Replicate, ...]:
    """One replicate per H in HURSTS, with lam cycling through LAMBDAS."""
    return tuple(
        Replicate(h, lam, stream_seed(seed, CALIBRATE_4096, i))
        for i, (h, lam) in enumerate(zip(HURSTS, LAMBDAS))
    )


FLEETS = {FLEET_2048: fleet_2048, FLEET_RAGGED: fleet_ragged}
