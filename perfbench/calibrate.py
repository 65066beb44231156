"""The calibration workload: the README library chain on simulated replicates.

Run as a script it is one timed process:

    python3 perfbench/calibrate.py --replicates '[[0.3, 1.0, 123], ...]' --out result.json

Each replicate is (H, lam, seed).  The chain calls every function through
the ``fbmpower`` package attribute at call time, so a traced run can wrap
those attributes.  ``simulate_fbm`` uses the default ``auto`` method.
"""

from __future__ import annotations

import argparse
import contextlib
import json

import fbmpower
from workloads import CALIBRATE_STEPS, distort


def run_replicate(hurst: float, lam: float, seed: int) -> dict:
    path = fbmpower.simulate_fbm(hurst, CALIBRATE_STEPS, seed)
    incs = fbmpower.increments(path.values)
    y = distort(incs.values, lam)
    lam_hat = fbmpower.fit_lambda(y)
    z = fbmpower.transform(y, lam_hat)
    est = fbmpower.estimate_hurst(z)
    stats = fbmpower.test_hypothesis(z, est.h_hat)
    labels = fbmpower.classify(est.h_hat, stats.verdict)
    return {
        "hurst": hurst,
        "lam": lam,
        "seed": seed,
        "method": path.method,
        "m": est.m,
        "lam_hat": float(lam_hat),
        "h_hat": est.h_hat,
        "q_at_hat": est.q_at_hat,
        "c": stats.c,
        "verdict": stats.verdict,
        "memory": labels.memory,
        "noise": labels.noise,
        "forecastable": labels.forecastable,
    }


def run(replicates, series_scope=None) -> dict:
    """Run every replicate; `series_scope(i)` brackets replicate i when given."""
    scope = series_scope or (lambda _i: contextlib.nullcontext())
    results = []
    for i, (hurst, lam, seed) in enumerate(replicates):
        with scope(i):
            results.append(run_replicate(float(hurst), float(lam), int(seed)))
    return {"replicates": results}


def write_result(doc: dict, out: str) -> None:
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replicates", required=True, help="JSON list of [H, lam, seed]")
    parser.add_argument("--out", required=True)
    return parser.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    write_result(run(json.loads(args.replicates)), args.out)
