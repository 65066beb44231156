"""Host-speed control of run.py: a frozen copy of the seed's own work.

    PYTHONPATH=src:perfbench python3 perfbench/control.py --workload fleet-ragged --seed 0

On a shared host the speed of a core changes by up to 2x, in phases that
last from seconds to minutes, so a run's raw times mostly say which phase
it met.  run.py therefore runs a fixed computation, a *burst*, before every
workload process and after the last, and scales the run's times by how
long its bursts took.  A burst is the seed's work on every fourth input series of
the workload, about a quarter of one workload process: the Levinson-based
profile objective over the 19-point Hurst grid, after a dense Cholesky
simulation for a calibration replicate.  The code is copied here, so that
no change to the program changes it.

The process prints "ready" and the workload's nominal burst seconds once its
inputs are built, then answers every line read on stdin with the seconds of
one burst, until stdin closes.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from functools import partial
from time import perf_counter

import numpy as np

import oracle
import workloads

# Median burst seconds per workload over 20 runs at the seed code on a
# 2-vCPU "Intel(R) Xeon(R) Processor" host.  run.py reports times scaled to
# a host that runs a burst in exactly this long.
NOMINAL_S = {
    workloads.FLEET_2048: 1.49,
    workloads.FLEET_RAGGED: 1.15,
    workloads.CALIBRATE_4096: 3.72,
}
# A burst takes every SHARE-th series of the workload.
SHARE = 4


def levinson(row: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """(solution of T x = b, logdet T) for the unit-diagonal Toeplitz row."""
    n = row.size
    r = row[1:]
    x = np.zeros(n)
    y = np.zeros(n - 1)
    x[0] = b[0]
    y[0] = -r[0]
    alpha = -r[0]
    beta = 1.0
    logdet = 0.0
    for k in range(1, n):
        beta = (1.0 - alpha * alpha) * beta
        logdet += np.log(beta)
        mu = (b[k] - np.dot(r[:k], x[k - 1 :: -1])) / beta
        x[:k] += mu * y[k - 1 :: -1]
        x[k] = mu
        if k < n - 1:
            alpha = -(r[k] + np.dot(r[:k], y[k - 1 :: -1])) / beta
            y[:k] = y[:k] + alpha * y[k - 1 :: -1]
            y[k] = alpha
    return x, float(logdet)


def grid_search(z: np.ndarray) -> None:
    """The seed's profile objective of `z` at every grid point."""
    for h in oracle.GRID:
        x, _ = levinson(oracle.correlation_row(float(h), z.size), z)
        np.dot(z, x)


def dense_fgn(hurst: float, n: int, seed: int) -> np.ndarray:
    """Unit-variance fGn by the seed simulator's dense Cholesky method."""
    idx = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    chol = np.linalg.cholesky(oracle.correlation_row(hurst, n)[idx])
    return chol @ np.random.default_rng(seed).standard_normal(n)


def simulate_and_search(hurst: float, seed: int) -> None:
    grid_search(dense_fgn(hurst, workloads.CALIBRATE_STEPS, seed))


def fleet_series(workload: str, seed: int) -> list[np.ndarray]:
    """Every SHARE-th input series of a fleet workload by length, as increments."""
    ordered = sorted(workloads.FLEETS[workload](seed).series, key=lambda s: s.values.size)
    return [oracle.prepared_increments(s.values) for s in ordered[SHARE // 2 :: SHARE]]


def burst_steps(workload: str, seed: int) -> list[Callable[[], None]]:
    """The steps of one burst: the seed's work on every SHARE-th series.

    A fleet series is grid-searched, which is almost all of `analyze`; a
    calibration replicate is first simulated by dense Cholesky, which the
    seed's `auto` rule picks at n = 4096 and which is about half of its time.
    """
    if workload == workloads.CALIBRATE_4096:
        replicates = workloads.calibrate_4096(seed)[SHARE // 2 :: SHARE]
        return [partial(simulate_and_search, r.hurst, r.seed) for r in replicates]
    return [partial(grid_search, z) for z in fleet_series(workload, seed)]


def burst(steps: list[Callable[[], None]]) -> float:
    """Seconds of one burst."""
    start = perf_counter()
    for step in steps:
        step()
    return perf_counter() - start


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    steps = burst_steps(args.workload, args.seed)
    burst(steps)  # warm-up
    print(f"ready {NOMINAL_S[args.workload]!r}", flush=True)
    for _ in sys.stdin:
        print(repr(burst(steps)), flush=True)


if __name__ == "__main__":
    main()
