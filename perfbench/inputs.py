"""Untimed helper process of run.py: writes a workload's inputs, checks its outputs.

    python3 perfbench/inputs.py write --workload fleet-2048 --seed 0 --work DIR
    python3 perfbench/inputs.py check --workload fleet-2048 --seed 0 --work DIR --outputs FILE...

`write` leaves the inputs and meta.json in DIR.  `check` prints one JSON
object with the failed series and problems of each output file.  This work
runs outside run.py's own process on purpose: on Linux a child's peak-RSS
figure includes its parent's resident set at spawn, so the process that
starts the timed runs must stay small.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import oracle
import workloads


def write(workload: str, seed: int, work: Path) -> dict:
    if workload == workloads.CALIBRATE_4096:
        reps = workloads.calibrate_4096(seed)
        meta = {"series": len(reps), "csv_rows": 0,
                "replicates": [[r.hurst, r.lam, r.seed] for r in reps]}
    else:
        fleet = workloads.FLEETS[workload](seed)
        text = fleet.csv_text().encode()
        (work / "input.csv").write_bytes(text)
        meta = {"series": len(fleet.series), "csv_rows": fleet.rows,
                "gap_policy": fleet.gap_policy,
                "input_sha256": hashlib.sha256(text).hexdigest()}
    (work / "meta.json").write_text(json.dumps(meta))
    return meta


def check(workload: str, seed: int, work: Path, outputs: list[Path]) -> dict:
    meta = json.loads((work / "meta.json").read_text())
    fleet_oracle = None
    if workload != workloads.CALIBRATE_4096:
        fleet_oracle = oracle.FleetOracle(
            workloads.FLEETS[workload](seed), seed, meta["input_sha256"]
        )
    results = []
    for path in outputs:
        try:
            doc = json.loads(path.read_bytes())
        except (OSError, json.JSONDecodeError) as exc:
            results.append({"failed": meta["series"], "problems": [f"{path.name}: {exc}"]})
            continue
        if fleet_oracle is not None:
            problems = fleet_oracle.check(doc)
        else:
            problems = oracle.check_calibration(doc, meta["replicates"])
        bad = {key: p for key, p in problems.items() if p}
        results.append({"failed": len(bad),
                        "problems": [f"{key}: {'; '.join(p)}" for key, p in bad.items()]})
    reference = fleet_oracle.reference_sha256 if fleet_oracle is not None else None
    return {"outputs": results, "reference_sha256": reference}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("write", "check"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--outputs", nargs="*", type=Path, default=[])
    args = parser.parse_args(argv)
    if args.action == "write":
        write(args.workload, args.seed, args.work)
    else:
        print(json.dumps(check(args.workload, args.seed, args.work, args.outputs)))


if __name__ == "__main__":
    main()
