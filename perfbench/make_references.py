"""Store the `analyze` reports of the fleet workloads as references.

    PYTHONPATH=src:perfbench python3 perfbench/make_references.py

Runs `fbmpower analyze` on the generated CSV of each of REFERENCE_SEEDS,
accepts the output only if the independent oracle passes it, and writes
perfbench/references/<workload>.json.  Each entry records the input and
output SHA-256, so a reference is used only for the exact input bytes it
was made from.  Regenerate only on a deliberate change to the reports.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import oracle
import workloads
from run import CLI, OUT

REFERENCE_SEEDS = range(10)


def reference_entry(workload: str, seed: int, tmp: Path) -> dict:
    fleet = workloads.FLEETS[workload](seed)
    text = fleet.csv_text().encode()
    csv_path = tmp / "input.csv"
    csv_path.write_bytes(text)
    cmd = [sys.executable, "-c", CLI, "analyze", "--input", str(csv_path),
           "--format", "json", "--gap-policy", fleet.gap_policy]
    output = subprocess.run(cmd, check=True, capture_output=True).stdout
    doc = json.loads(output)
    problems = oracle.FleetOracle(fleet, seed, input_sha256="").check(doc)
    bad = {key: p for key, p in problems.items() if p}
    if bad:
        raise SystemExit(f"{workload} seed {seed}: the oracle rejects {bad}")
    return {
        "input_sha256": hashlib.sha256(text).hexdigest(),
        "output_sha256": hashlib.sha256(output).hexdigest(),
        "reports": {f"{r['building_id']}/{r['quantity']}": r for r in doc["reports"]},
    }


def main() -> None:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for workload in workloads.FLEETS:
            entries = {str(seed): reference_entry(workload, seed, Path(tmp))
                       for seed in REFERENCE_SEEDS}
            oracle.reference_path(workload).write_text(
                json.dumps(entries, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
