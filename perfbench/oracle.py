"""Correctness checks of the workload outputs, independent of the program.

Nothing here calls ``fbmpower``.  For a fleet report the oracle redoes the
preprocessing, checks that the reported exponent meets the Gaussian-ratio
contract of ``fit_lambda``, redoes the Hurst grid search with dense
Cholesky factorizations, and re-derives the labels and the verdict from the
report's own statistics by the rules the README states.  Where a stored
reference exists for the seed and the same input bytes, every field is
compared with it instead of redoing the grid search, which the reference
passed when it was stored.  A calibration replicate is checked against the
parameters it was simulated with.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

GAUSSIAN_RATIO = 2.0 / math.pi
RATIO_TOL = 1e-3  # the default --ratio-tol of `fbmpower analyze`
Q_CONSTANT = math.sqrt(2.0 / math.pi)
GRID = np.round(0.05 + 0.05 * np.arange(19), 12)
BETA0 = 0.1

# Floats recomputed here by another algorithm agree to this relative error.
ORACLE_REL_TOL = 1e-6
# Floats compared with a stored reference of the same program agree to this.
REFERENCE_REL_TOL = 1e-9
# A grid point whose dense objective is this close to the minimum is a tie.
TIE_TOL = 1e-9

# Scale of the border block in dense_objectives: far above z' T^-1 z for any
# grid point and series length here.
BORDER = 1e8

# Calibration tolerances: the C05 bound on H and 10% on the exponent.
H_TOL = 0.10
LAM_REL_TOL = 0.10

EXACT_FIELDS = ("building_id", "quantity", "m", "h_hat", "verdict", "memory_class",
                "noise_label", "forecastable", "warnings")
FLOAT_FIELDS = ("lambda", "achieved_ratio", "q_at_hat", "c", "a_n", "a_limit", "delta",
                "b_n", "d_n_stat", "beta0", "beta1", "beta2")

REFERENCE_DIR = Path(__file__).resolve().parent / "references"


def guarded(check, *args) -> list[str]:
    """`check(*args)`, with a missing or mistyped output field as one more problem."""
    try:
        return check(*args)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def _close(a, b, rel: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def correlation_row(h: float, m: int) -> np.ndarray:
    k = np.arange(m, dtype=float)
    return 0.5 * ((k + 1.0) ** (2 * h) + np.abs(k - 1.0) ** (2 * h) - 2.0 * k ** (2 * h))


def dense_objectives(zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(profile objective, quadratic form) of each row of `zs` at every grid point.

    All rows share one length m, so each grid point costs one dense Cholesky
    factorization, of the Toeplitz matrix T bordered by the rows Z:
    [[T, Z'], [Z, c I]] = L L' has L[m:, :m] = Z L11^-T, so the squared row
    norms of that block are the quadratic forms z' T^-1 z.  The constant c
    only keeps the bordered matrix positive definite; the block does not
    depend on it.
    """
    count, m = zs.shape
    idx = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
    bordered = np.zeros((m + count, m + count))
    bordered[m:, :m] = zs
    bordered[:m, m:] = zs.T
    bordered[m:, m:] = BORDER * (1.0 + float(np.sum(zs * zs))) * np.eye(count)
    objectives = np.empty((count, GRID.size))
    quads = np.empty((count, GRID.size))
    for i, h in enumerate(GRID):
        bordered[:m, :m] = correlation_row(float(h), m)[idx]
        factor = np.linalg.cholesky(bordered)
        logdet = 2.0 * float(np.sum(np.log(np.diag(factor)[:m])))
        quads[:, i] = np.sum(factor[m:, :m] ** 2, axis=1)
        objectives[:, i] = np.log(quads[:, i] / m) + logdet / m
    return objectives, quads


def ratio(v: np.ndarray) -> float:
    return float(np.mean(np.abs(v))) ** 2 / float(np.mean(v * v))


def power(v: np.ndarray, lam: float) -> np.ndarray:
    return np.sign(v) * np.abs(v) ** lam


def prepared_increments(values: np.ndarray) -> np.ndarray:
    """Gap-filled, [0, 1]-normalized, linearly detrended, differenced series.

    Blank values (NaN) are filled by linear interpolation over the hourly
    index; the generator leaves the first and last values present.
    """
    k = np.arange(values.size, dtype=float)
    present = ~np.isnan(values)
    filled = np.where(present, values, np.interp(k, k[present], values[present]))
    normed = (filled - filled.min()) / (filled.max() - filled.min())
    design = np.column_stack([np.ones_like(k), k])
    coef, *_ = np.linalg.lstsq(design, normed, rcond=None)
    return np.diff(normed - design @ coef)


def verdict_rule(report: dict) -> str:
    """README acceptance rule on the report's own statistics (default flags)."""
    if report["h_hat"] <= 0.5:
        ok = report["delta"] < report["beta0"] and abs(report["b_n"]) < report["beta1"]
    else:
        ok = 0.0 < report["d_n_stat"] < report["beta2"]
    return "accepted" if ok else "rejected"


def labels(h_hat: float) -> tuple[str, str]:
    """(memory_class, noise_label) for an exponent."""
    if h_hat < 0.5:
        return "short", "pink"
    if h_hat > 0.5:
        return "long", "black"
    return "independent", "white"


class FleetOracle:
    """Checks `analyze` reports of one generated fleet."""

    def __init__(self, fleet, seed: int, input_sha256: str):
        self.increments = {
            (s.building, s.quantity): prepared_increments(s.values) for s in fleet.series
        }
        self.reference = stored_reference(fleet.name, seed, input_sha256)
        self._grid_cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def reference_sha256(self) -> str | None:
        return self.reference["output_sha256"] if self.reference else None

    def check(self, doc) -> dict[tuple[str, str], list[str]]:
        """Problems per expected series; an empty list means the series passed."""
        try:
            reports = {(r["building_id"], r["quantity"]): r for r in doc["reports"]}
        except (KeyError, TypeError) as exc:
            return {key: [f"malformed report list: {type(exc).__name__}: {exc}"]
                    for key in self.increments}
        if self.reference is None:
            self._grid_search(reports)
        problems = {}
        for key in self.increments:
            report = reports.get(key)
            problems[key] = ["missing from the output"] if report is None else (
                guarded(self._check_report, key, report)
            )
        return problems

    def _grid_search(self, reports: dict) -> None:
        """Fill the dense grid cache for every new (series, lambda) in `reports`."""
        by_length: dict[int, list[tuple]] = {}
        for key, report in reports.items():
            lam = report.get("lambda")
            y = self.increments.get(key)
            if (y is None or not isinstance(lam, (int, float))
                    or (key, lam) in self._grid_cache):
                continue
            by_length.setdefault(y.size, []).append((key, lam))
        for pending in by_length.values():
            zs = np.array([power(self.increments[key], lam) for key, lam in pending])
            objectives, quads = dense_objectives(zs)
            for row, cache_key in enumerate(pending):
                self._grid_cache[cache_key] = (objectives[row], quads[row])

    def _check_report(self, key, report: dict) -> list[str]:
        y = self.increments[key]
        out = []
        if report.get("m") != y.size:
            out.append(f"m {report.get('m')} != {y.size}")
        if report.get("warnings") != []:
            out.append(f"unexpected warnings {report.get('warnings')}")
        lam = report.get("lambda")
        if report.get("h_hat") is None or lam is None:
            return out + ["no statistics"]

        z = power(y, lam)
        if abs(ratio(z) - GAUSSIAN_RATIO) > RATIO_TOL + 1e-9:
            out.append(f"lambda {lam} misses the Gaussian ratio: {ratio(z)}")
        if not _close(report["achieved_ratio"], ratio(z), ORACLE_REL_TOL):
            out.append(f"achieved_ratio {report['achieved_ratio']} != {ratio(z)}")
        if not _close(report["c"], float(np.mean(z * z)), ORACLE_REL_TOL):
            out.append(f"c {report['c']} != {float(np.mean(z * z))}")

        h_hat = report["h_hat"]
        if self.reference is None:
            out += self._check_grid(key, report, z)

        if report["beta0"] != BETA0:
            out.append(f"beta0 {report['beta0']} != {BETA0}")
        persistent = h_hat > 0.5
        branch = (report["b_n"], report["beta1"], report["d_n_stat"], report["beta2"])
        if any((v is None) != blank for v, blank in zip(branch, (persistent, persistent,
                                                                  not persistent,
                                                                  not persistent))):
            out.append(f"branch statistics {branch} do not fit h_hat {h_hat}")
        elif report["verdict"] != verdict_rule(report):
            out.append(f"verdict {report['verdict']} != {verdict_rule(report)}")
        if (report["memory_class"], report["noise_label"]) != labels(h_hat):
            out.append(f"labels {report['memory_class']}/{report['noise_label']}")
        if report["forecastable"] != (report["verdict"] == "accepted" and persistent):
            out.append(f"forecastable {report['forecastable']}")
        if self.reference is not None:
            out += compare_with_reference(report, self.reference["reports"].get(
                f"{key[0]}/{key[1]}"))
        return out


    def _check_grid(self, key, report: dict, z: np.ndarray) -> list[str]:
        """`h_hat` and `q_at_hat` against the dense grid search of the series."""
        objectives, quads = self._grid_cache[(key, report["lambda"])]
        h_hat = report["h_hat"]
        hits = np.flatnonzero(np.isclose(GRID, h_hat, rtol=0.0, atol=1e-12))
        if hits.size != 1:
            return [f"h_hat {h_hat} is not a grid point"]
        i = int(hits[0])
        out = []
        if objectives[i] - objectives.min() > TIE_TOL * max(1.0, abs(objectives.min())):
            out.append(f"h_hat {h_hat} but the dense objective is least at "
                       f"{GRID[int(np.argmin(objectives))]}")
        q = Q_CONSTANT / float(np.mean(np.abs(z))) * math.sqrt(quads[i] / (z.size - 1))
        if not _close(report["q_at_hat"], q, ORACLE_REL_TOL):
            out.append(f"q_at_hat {report['q_at_hat']} != {q}")
        return out


def compare_with_reference(report: dict, expected: dict | None) -> list[str]:
    if expected is None:
        return ["not in the stored reference"]
    out = [f"{name} {report.get(name)!r} != reference {expected[name]!r}"
           for name in EXACT_FIELDS if report.get(name) != expected[name]]
    out += [f"{name} {report.get(name)!r} != reference {expected[name]!r}"
            for name in FLOAT_FIELDS
            if not _close(report.get(name), expected[name], REFERENCE_REL_TOL)]
    return out


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def stored_reference(workload: str, seed: int, input_sha256: str) -> dict | None:
    """The stored reference for `seed`, if it was made from the same input bytes."""
    path = reference_path(workload)
    if not path.is_file():
        return None
    entry = json.loads(path.read_text(encoding="utf-8")).get(str(seed))
    if entry is None or entry["input_sha256"] != input_sha256:
        return None
    return entry


def check_calibration(doc, replicates: list) -> dict[int, list[str]]:
    """Problems per (H, lambda, seed) replicate of a calibrate.py result."""
    got = doc.get("replicates") if isinstance(doc, dict) else None
    if not isinstance(got, list):
        got = []
    return {
        i: (guarded(check_replicate, got[i], h, lam) if i < len(got)
            else ["missing from the output"])
        for i, (h, lam, _) in enumerate(replicates)
    }


def check_replicate(result: dict, hurst: float, lam: float) -> list[str]:
    """Tolerance checks of one calibration replicate; valid for any simulator."""
    out = []
    if result.get("m") != 4096:
        out.append(f"m {result.get('m')} != 4096")
    if abs(result["h_hat"] - hurst) > H_TOL:
        out.append(f"h_hat {result['h_hat']} is more than {H_TOL} from H = {hurst}")
    if abs(result["lam_hat"] - lam) > LAM_REL_TOL * lam:
        out.append(f"lambda {result['lam_hat']} is more than 10% from {lam}")
    if (result["memory"], result["noise"]) != labels(result["h_hat"]):
        out.append(f"labels {result['memory']}/{result['noise']}")
    if result["forecastable"] != (result["verdict"] == "accepted" and result["h_hat"] > 0.5):
        out.append(f"forecastable {result['forecastable']}")
    return out
