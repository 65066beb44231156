"""fbmpower benchmark: batch `analyze` throughput and Monte Carlo calibration.

    python3 perfbench/run.py --workload fleet-2048 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout.  Inputs are generated from --seed,
then the workload runs as whole processes, one after another, until they
have taken --seconds of wall time together: `fbmpower analyze` on a
generated CSV for the fleet workloads, perfbench/calibrate.py for
calibrate-4096.  Every output is checked afterwards (oracle.py).  With
--trace 0 a control burst (control.py) runs before every process and after
the last, and the last stdout line carries the end-to-end metrics, with
times scaled by the host factor of the bursts; with --trace 1 untraced and
traced processes alternate and it carries the per-layer metrics.

This process imports no numpy and stays small: on Linux a child's peak-RSS
figure includes its parent's resident set at spawn.  Input generation and
output checks run in perfbench/inputs.py processes, outside the timing.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("fleet-2048", "fleet-ragged", "calibrate-4096")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Fresh interpreter starts for setup_s before every workload process and
# after the last, so that their median spans the whole run; one untimed
# start first leaves the byte-code caches warm, as every CLI call finds them.
SETUP_STARTS = 2
# The CLI as its console script calls it.
CLI = "import sys; from fbmpower.cli import main; sys.exit(main())"
# Children of pipeline.analyze must cover this share of its time on fleet-2048.
MIN_ANALYZE_COVERAGE = 0.90


@dataclass(frozen=True)
class Proc:
    """Resource use of one finished child process."""

    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


class Control:
    """The host-speed control process (control.py), one burst at a time."""

    def __init__(self, workload: str, seed: int, env):
        cmd = [sys.executable, str(BENCH / "control.py"), "--workload", workload,
               "--seed", str(seed)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, cwd=ROOT, text=True)
        self.nominal_s = float(self._reply().removeprefix("ready "))

    def _reply(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"control.py ended with code {self.proc.wait()}")
        return line.strip()

    def burst(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self._reply())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_process(cmd, env, stdout_path: Path, stderr_path: Path) -> Proc:
    """Run `cmd` to completion; wall time from spawn to exit, rusage of the child."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def helper(env, work: Path, *args: str) -> str:
    """Run perfbench/inputs.py untimed; its stdout, or RuntimeError on failure."""
    cmd = [sys.executable, str(BENCH / "inputs.py"), *args]
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:1])} failed:\n{done.stderr[-4000:]}")
    return done.stdout


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def environment(blas_threads: int) -> dict:
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "blas_threads": blas_threads,
    }


def setup_starts(env, work: Path, count: int) -> list[float]:
    """Seconds of `count` fresh interpreter starts until fbmpower.cli is imported."""
    cmd = [sys.executable, "-c", "import fbmpower.cli"]
    times = []
    for _ in range(count):
        proc = run_process(cmd, env, work / "setup.out", work / "setup.err")
        if proc.returncode != 0:
            error = (work / "setup.err").read_text()
            raise RuntimeError(f"importing fbmpower.cli failed:\n{error}")
        times.append(proc.wall_s)
    return times


def commands(workload: str, meta: dict, work: Path) -> tuple[list[str], list[str], str]:
    """(untraced command, traced command, output file name) of one process."""
    python = sys.executable
    traced = [python, str(BENCH / "traced.py"), "--spans", str(work / "spans.json")]
    if workload == "calibrate-4096":
        args = ["--replicates", json.dumps(meta["replicates"]), "--out", str(work / "result.json")]
        return [python, str(BENCH / "calibrate.py"), *args], [*traced, *args], "result.json"
    cli_args = ["analyze", "--input", str(work / "input.csv"), "--format", "json"]
    if meta["gap_policy"] != "drop":
        cli_args += ["--gap-policy", meta["gap_policy"]]
    return [python, "-c", CLI, *cli_args], [*traced, "--", *cli_args], "stdout"


def end_to_end(series: int, setup_times: list[float], procs: list[Proc],
               bursts: list[float], nominal_s: float) -> dict:
    """Figures of an untraced run, its times scaled by the run's host factor.

    The host factor is `nominal_s` over the mean control burst of the run.
    `series_per_s` and `cpu_s_per_series` pool the successful processes:
    series completed over their summed wall or CPU time.
    """
    ok = [p for p in procs if p.returncode == 0]
    if not ok:
        return {}
    factor = nominal_s / statistics.fmean(bursts)
    done = series * len(ok)
    return {
        "setup_s": statistics.median(setup_times),
        "series_per_s": done / (factor * sum(p.wall_s for p in ok)),
        "cpu_s_per_series": factor * sum(p.cpu_s for p in ok) / done,
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in ok),
    }


def per_layer(procs: list[tuple[bool, Proc]], layer_runs: list[dict]) -> dict:
    """Medians of the traced processes' layer metrics, plus the tracing overhead."""
    untraced = [p.wall_s for t, p in procs if not t and p.returncode == 0]
    traced = [p.wall_s for t, p in procs if t and p.returncode == 0]
    if not (layer_runs and untraced):
        return {}
    metrics = {name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]}
    base = statistics.median(untraced)
    metrics["trace.overhead_frac"] = (statistics.median(traced) - base) / base
    return metrics


def run_workload(args, env, work: Path) -> dict:
    helper(env, work, "write", "--workload", args.workload, "--seed", str(args.seed),
           "--work", str(work))
    meta = json.loads((work / "meta.json").read_text())
    series = meta["series"]
    untraced_cmd, traced_cmd, output_name = commands(args.workload, meta, work)
    setup_times: list[float] = []
    if not args.trace:
        setup_starts(env, work, 1)

    procs: list[tuple[bool, Proc]] = []
    outputs: list[Path] = []
    layer_runs: list[dict] = []
    failed = 0
    problems: list[str] = []
    bursts: list[float] = []
    measured = 0.0
    traced = False
    control = None if args.trace else Control(args.workload, args.seed, env)
    try:
        while True:
            if control:
                setup_times += setup_starts(env, work, SETUP_STARTS)
                bursts.append(control.burst())
            stdout_path = work / f"proc{len(procs)}.out"
            stderr_path = work / f"proc{len(procs)}.err"
            proc = run_process(traced_cmd if traced else untraced_cmd, env,
                               stdout_path, stderr_path)
            procs.append((traced, proc))
            measured += proc.wall_s
            if proc.returncode != 0:
                failed += series
                problems.append(f"exit code {proc.returncode}: "
                                f"{stderr_path.read_text(errors='replace')[-2000:]}")
            else:
                output = stdout_path if output_name == "stdout" else work / output_name
                kept = work / f"proc{len(procs) - 1}.json"
                shutil.move(output, kept)
                outputs.append(kept)
                if traced:
                    spans = json.loads((work / "spans.json").read_text())
                    layer_runs.append(tracing.layer_metrics(spans, meta["csv_rows"]))
            done = measured >= args.seconds
            if done and (not args.trace or {t for t, _ in procs} == {False, True}):
                break
            if args.trace:
                traced = not traced
        if control:
            bursts.append(control.burst())
    finally:
        if control:
            control.close()

    checked = json.loads(helper(env, work, "check", "--workload", args.workload,
                                "--seed", str(args.seed), "--work", str(work),
                                "--outputs", *map(str, outputs)))
    for result in checked["outputs"]:
        failed += result["failed"]
        problems += result["problems"]
    hashes = sorted({hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs})

    if args.trace:
        metrics = per_layer(procs, layer_runs)
        coverage = metrics.get("pipeline.analyze.child_frac", 0.0)
        if args.workload == "fleet-2048" and coverage < MIN_ANALYZE_COVERAGE:
            problems.append(f"pipeline.analyze children cover only {coverage:.1%} of it")
    else:
        setup_times += setup_starts(env, work, SETUP_STARTS)
        metrics = end_to_end(series, setup_times, [p for _, p in procs], bursts,
                             control.nominal_s)

    spec = benchmark_spec()["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    attempted = series * len(procs)
    env_record = environment(int(env[BLAS_VARS[0]]))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  processes "
          f"{sum(not t for t, _ in procs)} untraced + {sum(t for t, _ in procs)} traced")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} series)")
    for digest in hashes:
        reference = checked["reference_sha256"]
        note = "" if reference is None else (
            "  (matches the stored reference)" if digest == reference
            else "  (differs from the stored reference)")
        print(f"  output sha256 {digest}{note}")
    print(f"  env {json.dumps(env_record)}")
    for line in problems[:20]:
        print(f"  FAILED {line}", file=sys.stderr)

    return {
        "correct": failed == 0 and not problems and set(metrics) == set(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "setup_times_s": setup_times,
        "control_bursts_s": bursts,
        "processes": [{"traced": t, **asdict(p)} for t, p in procs],
        "env": env_record,
        "output_sha256": hashes,
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fbmpower" / "__init__.py").is_file():
        print(f"perfbench: no fbmpower sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    blas_threads = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    env.update({name: str(blas_threads) for name in BLAS_VARS})
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        record = run_workload(args, env, work)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
        if args.trace and (work / "spans.json").is_file():
            shutil.copyfile(work / "spans.json", OUT / f"{stem}-spans.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
