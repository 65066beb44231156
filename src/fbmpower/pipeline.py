"""End-to-end analysis pipeline: CSV ingestion, preprocessing, persistence
analysis per (building, quantity) series, and report rendering.

Input is long-format CSV with columns timestamp,building,quantity,value and
ISO-8601 timestamps.  Each series is normalized to [0, 1], linearly
detrended, differenced, Gaussianized, fitted for its Hurst exponent, and
run through the fBm-increment hypothesis test.  Degenerate or unfittable
series produce reports carrying warnings instead of failing the run.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from datetime import datetime

import numpy as np

from . import gaussianize as gz
from . import hurst as hu
from . import hypothesis as hyp
from .errors import (
    AnalysisError,
    ConfigurationError,
    DegenerateSeriesError,
    InputFormatError,
    InvalidSizeError,
    UnfittableSeriesError,
)

__all__ = [
    "SCHEMA_VERSION",
    "RawSeries",
    "AnalysisConfig",
    "BuildingReport",
    "load_csv",
    "normalize",
    "detrend",
    "analyze",
    "render_report",
]

SCHEMA_VERSION = 1

MIN_SERIES_LENGTH = gz.MIN_INCREMENTS + 1

# More zeros than this among the increments and the power transform is
# ill-conditioned; the report carries a warning.
ZERO_FRACTION_WARNING = 0.5

CSV_COLUMNS = ("timestamp", "building", "quantity", "value")
QUANTITIES = ("P", "S")
GAP_POLICIES = ("drop", "interpolate-linear")
REPORT_FORMATS = ("json", "csv", "md")


@dataclass(frozen=True)
class RawSeries:
    """One observed hourly series for a (building, quantity) pair."""

    building_id: str
    quantity: str
    timestamps: tuple[datetime, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if self.quantity not in QUANTITIES:
            raise ValueError(f"quantity must be one of {QUANTITIES}, got {self.quantity!r}")
        if values.size != len(self.timestamps):
            raise ValueError("timestamps and values must have equal length")
        if values.size < MIN_SERIES_LENGTH:
            raise InvalidSizeError(
                f"series needs at least {MIN_SERIES_LENGTH} observations, got {values.size}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        for a, b in zip(self.timestamps, self.timestamps[1:]):
            if not a < b:
                raise ValueError(f"timestamps must be strictly increasing; saw {a} then {b}")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class AnalysisConfig:
    """Tunable parameters of the analysis.

    Every field maps to the `analyze` flag of the same name.  Building a
    config checks each field with the rule of the stage that uses it, so an
    invalid config raises ConfigurationError and cannot exist.
    """

    grid_start: float = hu.GRID_START
    grid_stop: float = hu.GRID_STOP
    grid_step: float = hu.GRID_STEP
    alpha: float = hyp.DEFAULT_ALPHA
    beta0: float = hyp.DEFAULT_BETA0
    q_constant: float = hu.DEFAULT_Q_CONSTANT
    paper_constants: bool = False
    ratio_tol: float = 1e-3
    gap_policy: str = "drop"
    require_delta_on_persistent: bool = False

    def __post_init__(self) -> None:
        hu._make_grid(self.grid_start, self.grid_stop, self.grid_step)
        hu._check_q_constant(self.q_constant)
        gz._check_ratio_tol(self.ratio_tol)
        hyp._check_settings(self.alpha, self.beta0)
        _check_gap_policy(self.gap_policy)


@dataclass(frozen=True)
class BuildingReport:
    """All statistics for one (building, quantity) series.

    Optional fields are None when the analysis stopped early (degenerate or
    unfittable series) or on the branch where a statistic does not apply.
    """

    building_id: str
    quantity: str
    m: int | None = None
    lam: float | None = None
    achieved_ratio: float | None = None
    h_hat: float | None = None
    q_at_hat: float | None = None
    c: float | None = None
    a_n: float | None = None
    a_limit: float | None = None
    delta: float | None = None
    b_n: float | None = None
    d_n_stat: float | None = None
    beta0: float | None = None
    beta1: float | None = None
    beta2: float | None = None
    verdict: str | None = None
    memory_class: str | None = None
    noise_label: str | None = None
    forecastable: bool | None = None
    warnings: tuple[str, ...] = field(default_factory=tuple)


# JSON field names; "lam" is spelled out because the transform exponent is
# called lambda everywhere outside Python.
_REPORT_KEYS = {"lam": "lambda"}


def load_csv(path, gap_policy: str = "drop") -> tuple[list[RawSeries], list[str]]:
    """Parse a long-format CSV into per-(building, quantity) series.

    Rows with a blank or non-finite value are gaps: dropped under the
    default policy, filled by time-weighted linear interpolation under
    "interpolate-linear" (leading/trailing gaps are always dropped).
    Series left shorter than 9 observations are skipped.  Returns the
    series sorted by (building, quantity) plus human-readable warnings.

    Raises InputFormatError, with the offending line number, on a missing
    or wrong header, an unparsable row, or a duplicate timestamp.
    """
    _check_gap_policy(gap_policy)
    with _open_utf8(path, newline="") as handle:
        return _parse_long_csv(handle, gap_policy)


@contextmanager
def _open_utf8(path, newline=None):
    """Open a UTF-8 text file; reading a byte that is not UTF-8 raises
    InputFormatError naming its line."""
    try:
        with open(path, newline=newline, encoding="utf-8") as handle:
            yield handle
    except UnicodeDecodeError:
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise InputFormatError(f"line {line}: byte 0x{data[exc.start]:02x} is not UTF-8") from None
        raise


def _check_gap_policy(gap_policy: str) -> None:
    """The one home of the gap-policy rule."""
    if gap_policy not in GAP_POLICIES:
        raise ConfigurationError(f"gap policy must be one of {GAP_POLICIES}, got {gap_policy!r}")


def _parse_long_csv(handle, gap_policy: str) -> tuple[list[RawSeries], list[str]]:
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise InputFormatError("line 1: empty file, expected header "
                               f"{','.join(CSV_COLUMNS)}") from None
    names = [cell.strip().lower() for cell in header]
    if sorted(names) != sorted(CSV_COLUMNS):
        raise InputFormatError(
            f"line 1: expected header columns {','.join(CSV_COLUMNS)} "
            f"in any order, got {','.join(header)!r}"
        )
    col = {name: names.index(name) for name in CSV_COLUMNS}

    rows: dict[tuple[str, str], dict[datetime, float]] = {}
    offsets: dict[tuple[str, str], bool] = {}
    for lineno, cells in enumerate(reader, start=2):
        if not cells or all(not cell.strip() for cell in cells):
            continue
        if len(cells) != len(names):
            raise InputFormatError(
                f"line {lineno}: expected {len(names)} fields, got {len(cells)}"
            )
        try:
            stamp = datetime.fromisoformat(cells[col["timestamp"]].strip())
        except ValueError:
            raise InputFormatError(
                f"line {lineno}: unparsable timestamp {cells[col['timestamp']]!r}"
            ) from None
        building = cells[col["building"]].strip()
        if not building:
            raise InputFormatError(f"line {lineno}: empty building id")
        quantity = cells[col["quantity"]].strip().upper()
        if quantity not in QUANTITIES:
            raise InputFormatError(
                f"line {lineno}: quantity must be one of {QUANTITIES}, "
                f"got {cells[col['quantity']]!r}"
            )
        raw_value = cells[col["value"]].strip()
        try:
            value = float(raw_value) if raw_value else np.nan
        except ValueError:
            raise InputFormatError(f"line {lineno}: unparsable value {raw_value!r}") from None
        key = (building, quantity)
        # The first row of a series fixes whether its timestamps carry a UTC
        # offset; naive and aware timestamps cannot be ordered together.
        aware = stamp.utcoffset() is not None
        if offsets.setdefault(key, aware) != aware:
            raise InputFormatError(
                f"line {lineno}: timestamp {stamp.isoformat()} "
                f"{'has' if aware else 'lacks'} a UTC offset, unlike the first row "
                f"of {building}/{quantity}"
            )
        series = rows.setdefault(key, {})
        if stamp in series:
            raise InputFormatError(
                f"line {lineno}: duplicate timestamp {stamp.isoformat()} "
                f"for {building}/{quantity}"
            )
        # A blank or non-finite value is a gap, stored as NaN.
        series[stamp] = value if np.isfinite(value) else np.nan

    out: list[RawSeries] = []
    warnings: list[str] = []
    for (building, quantity), points in sorted(rows.items()):
        stamps = sorted(points)
        values = np.array([points[t] for t in stamps])
        keep, note = _apply_gap_policy(stamps, values, gap_policy)
        if note:
            warnings.append(f"{building}/{quantity}: {note}")
        kept = int(keep.sum())
        if kept < MIN_SERIES_LENGTH:
            warnings.append(
                f"{building}/{quantity}: skipped, only {kept} usable "
                f"observations (need {MIN_SERIES_LENGTH})"
            )
            continue
        out.append(
            RawSeries(
                building_id=building,
                quantity=quantity,
                timestamps=tuple(t for t, k in zip(stamps, keep) if k),
                values=values[keep],
            )
        )
    return out, warnings


def _apply_gap_policy(stamps, values, gap_policy) -> tuple[np.ndarray, str]:
    """Mask of the rows to keep, and a note on the gaps (NaN) it handled.

    "drop" keeps every present value.  "interpolate-linear" keeps the rows
    from the first to the last present value and fills the gaps between
    them in `values`, weighting by the time since the first row, which for
    naive timestamps does not depend on the host's time zone.
    """
    present = ~np.isnan(values)
    missing = values.size - int(present.sum())
    if not missing:
        return present, ""
    if gap_policy == "drop":
        kept = [t for t, k in zip(stamps, present) if k]
        note = f"dropped {missing} missing value(s)"
        if len(kept) > 1:
            note += f"; largest step {max(b - a for a, b in zip(kept, kept[1:]))}"
        return present, note

    where = np.flatnonzero(present)
    keep = np.zeros(values.size, dtype=bool)
    if where.size:
        keep[where[0] : where[-1] + 1] = True
    interior = keep & ~present
    if interior.any():
        times = np.array([(t - stamps[0]).total_seconds() for t in stamps])
        values[interior] = np.interp(times[interior], times[present], values[present])
    note = f"interpolated {int(interior.sum())} missing value(s)"
    edge_gaps = values.size - int(keep.sum())
    if edge_gaps:
        note += f", dropped {edge_gaps} at the edges"
    return keep, note


def normalize(values) -> np.ndarray:
    """The series affinely mapped onto [0, 1]; a constant series is degenerate."""
    values = np.asarray(values, dtype=float)
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        raise DegenerateSeriesError("constant series cannot be normalized")
    return (values - lo) / (hi - lo)


def detrend(values) -> np.ndarray:
    """Residuals of the series about its least-squares line over the sample
    index."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < MIN_SERIES_LENGTH:
        raise InvalidSizeError(f"need at least {MIN_SERIES_LENGTH} observations, got {n}")
    k = np.arange(n, dtype=float)
    k_mean = k.mean()
    v_mean = values.mean()
    slope = float(np.dot(k - k_mean, values - v_mean) / np.dot(k - k_mean, k - k_mean))
    intercept = float(v_mean - slope * k_mean)
    return values - (intercept + slope * k)


def analyze(series: RawSeries, config: AnalysisConfig = AnalysisConfig()) -> BuildingReport:
    """Run the full analysis of one series and assemble its report.

    Degenerate preprocessing and an unfittable Gaussianization degrade to
    warnings on the report rather than raising, and so does any
    AnalysisError after the fit, which leaves the verdict None; one bad
    series cannot take down a batch run.
    """
    warnings: list[str] = []

    try:
        normed = normalize(series.values)
    except DegenerateSeriesError as exc:
        return BuildingReport(
            building_id=series.building_id,
            quantity=series.quantity,
            warnings=(f"degenerate series: {exc}; no statistics computed",),
        )
    incs = gz.increments(detrend(normed))

    # Repeated raw readings survive detrending only as a constant offset, so
    # gauge transform conditioning on the observed increments.
    zero_fraction = float(np.mean(np.diff(series.values) == 0.0))
    if zero_fraction > ZERO_FRACTION_WARNING:
        warnings.append(
            f"{zero_fraction:.0%} of the observed increments are zero; "
            "the power transform is ill-conditioned"
        )

    try:
        lam = gz.fit_lambda(incs, tol=config.ratio_tol)
    except (UnfittableSeriesError, DegenerateSeriesError) as exc:
        warnings.append(f"non-Gaussianizable: {exc}")
        return BuildingReport(
            building_id=series.building_id,
            quantity=series.quantity,
            m=incs.m,
            verdict="rejected",
            warnings=tuple(warnings),
        )

    try:
        z = gz.transform(incs, lam)
        estimate = hu.estimate_hurst(
            z,
            grid_start=config.grid_start,
            grid_stop=config.grid_stop,
            grid_step=config.grid_step,
            q_constant=config.q_constant,
        )
        stats = hyp.test_hypothesis(
            z,
            estimate.h_hat,
            beta0=config.beta0,
            alpha=config.alpha,
            paper_constants=config.paper_constants,
            require_delta_on_persistent=config.require_delta_on_persistent,
        )
    except AnalysisError as exc:
        warnings.append(f"no verdict: {exc}")
        return BuildingReport(
            building_id=series.building_id,
            quantity=series.quantity,
            m=incs.m,
            lam=lam,
            warnings=tuple(warnings),
        )
    labels = hyp.classify(estimate.h_hat, stats.verdict)
    return BuildingReport(
        building_id=series.building_id,
        quantity=series.quantity,
        m=z.m,
        lam=z.lam,
        achieved_ratio=z.achieved_ratio,
        h_hat=estimate.h_hat,
        q_at_hat=estimate.q_at_hat,
        c=stats.c,
        a_n=stats.a_n,
        a_limit=stats.a_limit,
        delta=stats.delta,
        b_n=stats.b_n,
        d_n_stat=stats.d_n_stat,
        beta0=stats.beta0,
        beta1=stats.beta1,
        beta2=stats.beta2,
        verdict=stats.verdict,
        memory_class=labels.memory,
        noise_label=labels.noise,
        forecastable=labels.forecastable,
        warnings=tuple(warnings),
    )


def _report_dict(report: BuildingReport) -> dict:
    out = {}
    for f in fields(BuildingReport):
        value = getattr(report, f.name)
        if isinstance(value, tuple):
            value = list(value)
        out[_REPORT_KEYS.get(f.name, f.name)] = value
    return out


def _sorted_reports(reports) -> list[BuildingReport]:
    return sorted(reports, key=lambda r: (r.building_id, r.quantity))


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_report(reports, fmt: str = "json") -> str:
    """Render reports deterministically, ordered by (building, quantity).

    "json" nests every report field under a schema-versioned document;
    "csv" flattens the same fields; "md" is a table of the headline
    statistics plus the verdict.
    """
    if fmt not in REPORT_FORMATS:
        raise ConfigurationError(f"format must be one of {REPORT_FORMATS}, got {fmt!r}")
    ordered = _sorted_reports(reports)
    if fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "reports": [_report_dict(r) for r in ordered],
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        names = [_REPORT_KEYS.get(f.name, f.name) for f in fields(BuildingReport)]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        for report in ordered:
            row = []
            for f in fields(BuildingReport):
                value = getattr(report, f.name)
                if value is None:
                    row.append("")
                elif isinstance(value, tuple):
                    row.append("; ".join(value))
                else:
                    row.append(str(value))
            writer.writerow(row)
        return buf.getvalue()
    columns = (
        ("building", lambda r: r.building_id),
        ("quantity", lambda r: r.quantity),
        ("H", lambda r: _fmt(r.h_hat)),
        ("A_n", lambda r: _fmt(r.a_n)),
        ("B_n", lambda r: _fmt(r.b_n)),
        ("D_n", lambda r: _fmt(r.d_n_stat)),
        ("A", lambda r: _fmt(r.a_limit)),
        ("beta1", lambda r: _fmt(r.beta1)),
        ("beta2", lambda r: _fmt(r.beta2)),
        ("verdict", lambda r: _fmt(r.verdict)),
        ("forecastable", lambda r: _fmt(r.forecastable)),
    )
    lines = [
        "| " + " | ".join(name for name, _ in columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for report in ordered:
        lines.append("| " + " | ".join(getter(report) for _, getter in columns) + " |")
    return "\n".join(lines) + "\n"
