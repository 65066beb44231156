"""Byte-identity check: one hash for every output of the benchmark workloads.

    python3 tests/identity.py > after.txt

Run it on two checkouts and diff the outputs; equal files mean the change
kept every report bit for bit.  For seeds 0-9 it runs `fbmpower analyze`
from this checkout's `src/`, in a fresh process per run, with each of the
json, csv and md formats on the fleet-2048 input (default gap policy) and
the fleet-ragged input (`--gap-policy interpolate-linear`), and it runs
`calibrate.run` on calibrate_4096(seed).  The inputs come from
perfbench/workloads.py, so they are the benchmark's own.

Each analyze line gives one sha256 over stdout, stderr and exit code, then
the sha256 of stdout alone; each calibrate line the sha256 of the result
file `calibrate.py` would write.  The last line is one digest over every
line's first hash.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import calibrate  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(10)
FORMATS = ("json", "csv", "md")
CLI = "import sys; from fbmpower.cli import main; sys.exit(main())"


def run_digest(stdout: bytes, stderr: bytes, code: int) -> str:
    """One sha256 over a run's stdout, stderr and exit code, each framed by
    its length so no two different runs share the bytes hashed."""
    digest = hashlib.sha256()
    for part in (stdout, stderr, str(code).encode()):
        digest.update(len(part).to_bytes(8, "big"))
        digest.update(part)
    return digest.hexdigest()


def analyze_lines(work: Path, env: dict) -> list[tuple[str, str]]:
    lines = []
    for seed in SEEDS:
        for name in (workloads.FLEET_2048, workloads.FLEET_RAGGED):
            fleet = workloads.FLEETS[name](seed)
            (work / "input.csv").write_text(fleet.csv_text(), encoding="utf-8")
            gap = [] if fleet.gap_policy == "drop" else ["--gap-policy", fleet.gap_policy]
            for fmt in FORMATS:
                cmd = [sys.executable, "-c", CLI, "analyze", "--input", "input.csv",
                       "--format", fmt, *gap]
                done = subprocess.run(cmd, cwd=work, env=env, capture_output=True)
                stdout_sha = hashlib.sha256(done.stdout).hexdigest()
                key = run_digest(done.stdout, done.stderr, done.returncode)
                lines.append((key, f"{name} seed {seed} {fmt}  {key}  stdout {stdout_sha}"))
    return lines


def calibrate_lines() -> list[tuple[str, str]]:
    lines = []
    for seed in SEEDS:
        replicates = [[r.hurst, r.lam, r.seed] for r in workloads.calibrate_4096(seed)]
        text = json.dumps(calibrate.run(replicates), indent=2) + "\n"
        key = hashlib.sha256(text.encode()).hexdigest()
        lines.append((key, f"{workloads.CALIBRATE_4096} seed {seed}  {key}"))
    return lines


def main() -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as work:
        lines = analyze_lines(Path(work), env) + calibrate_lines()
    for _, line in lines:
        print(line)
    print(f"all  {hashlib.sha256(''.join(key for key, _ in lines).encode()).hexdigest()}")


if __name__ == "__main__":
    main()
