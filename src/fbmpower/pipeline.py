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
import math
import os
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
    _choice,
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
DEFAULT_GAP_POLICY = "drop"
REPORT_FORMATS = ("json", "csv", "md")


@dataclass(frozen=True)
class RawSeries:
    """One observed hourly series for a (building, quantity) pair; its values
    pass the array rule with at least 9, one per increasing timestamp."""

    building_id: str
    quantity: str
    timestamps: tuple[datetime, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.quantity not in QUANTITIES:
            raise InputFormatError(f"quantity must be one of {QUANTITIES}, got {self.quantity!r}")
        values = gz._array(self.values, MIN_SERIES_LENGTH)
        if values.size != len(self.timestamps):
            raise InvalidSizeError(f"got {values.size} values for {len(self.timestamps)} timestamps")
        if len({t.utcoffset() is None for t in self.timestamps}) > 1:
            raise InputFormatError("timestamps must be all naive or all carry a UTC offset")
        for a, b in zip(self.timestamps, self.timestamps[1:]):
            if not a < b:
                raise InputFormatError(f"timestamps must be strictly increasing; saw {a} then {b}")
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
    ratio_tol: float = gz.DEFAULT_RATIO_TOL
    require_delta_on_persistent: bool = False

    def __post_init__(self) -> None:
        hu._make_grid(self.grid_start, self.grid_stop, self.grid_step)
        hu._check_q_constant(self.q_constant)
        gz._check_ratio_tol(self.ratio_tol)
        hyp._check_settings(self.alpha, self.beta0, self.paper_constants,
                            self.require_delta_on_persistent)


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


# Each report field with its output key, in field order; JSON, CSV and
# Markdown read the report through this one table.  "lam" is spelled out
# because the transform exponent is called lambda everywhere outside Python.
_REPORT_KEYS = {"lam": "lambda"}
_REPORT_FIELDS = tuple((f.name, _REPORT_KEYS.get(f.name, f.name)) for f in fields(BuildingReport))

# The statistics a full report copies by name from the hypothesis test.
_STATS_FIELDS = tuple(
    f.name for f in fields(hyp.HypothesisStats) if f.name in BuildingReport.__dataclass_fields__
)

# The Markdown table's (header, output key) columns: the headline statistics
# and the verdict.
_MD_COLUMNS = (
    ("building", "building_id"), ("quantity", "quantity"), ("H", "h_hat"), ("A_n", "a_n"),
    ("B_n", "b_n"), ("D_n", "d_n_stat"), ("A", "a_limit"), ("beta1", "beta1"),
    ("beta2", "beta2"), ("verdict", "verdict"), ("forecastable", "forecastable"),
)


def load_csv(path, gap_policy: str = DEFAULT_GAP_POLICY) -> tuple[list[RawSeries], list[str]]:
    """Parse a long-format CSV into per-(building, quantity) series.

    Rows with a blank or non-finite value are gaps: dropped under the
    default policy, filled by time-weighted linear interpolation under
    "interpolate-linear" (leading/trailing gaps are always dropped).
    Series left shorter than 9 observations are skipped.  Returns the
    series sorted by (building, quantity) plus human-readable warnings.

    Raises InputFormatError, with the offending line number, on a missing
    or wrong header, an unparsable row (a field over the csv module's size
    limit among them), or a duplicate timestamp; a row's line is the line
    it ends on, which a quoted field spanning lines moves on.  A UTF-8
    byte-order mark is skipped.  A path that is not a str, bytes or
    os.PathLike (never a file descriptor), or cannot be opened, is an
    InputFormatError naming it.
    """
    _choice("gap policy", gap_policy, GAP_POLICIES)
    with _open_utf8(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            return _parse_long_csv(reader, gap_policy)
        except csv.Error as exc:
            raise InputFormatError(f"line {reader.line_num}: {exc}") from None


@contextmanager
def _open_utf8(path, newline=None):
    """Open a UTF-8 text file, skipping a byte-order mark; a bad path and a
    byte that is not UTF-8 raise InputFormatError naming the path or line."""
    try:
        handle = open(os.fspath(path), newline=newline, encoding="utf-8-sig")
    except (TypeError, ValueError, OSError) as exc:  # an int is not opened as a descriptor
        raise InputFormatError(f"cannot read {path}: {getattr(exc, 'strerror', exc)}") from None
    try:
        with handle:
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


def _parse_long_csv(reader, gap_policy: str) -> tuple[list[RawSeries], list[str]]:
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
    for cells in reader:
        lineno = reader.line_num  # the line the row ends on
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
        # Interpolating halves is exact and keeps the slope between values
        # near the float limits finite.
        halves = np.interp(times[interior], times[present], values[present] / 2.0)
        values[interior] = 2.0 * halves
    note = f"interpolated {int(interior.sum())} missing value(s)"
    edge_gaps = values.size - int(keep.sum())
    if edge_gaps:
        note += f", dropped {edge_gaps} at the edges"
    return keep, note


def normalize(values) -> np.ndarray:
    """The series, through the array rule, affinely mapped onto [0, 1]; a
    constant series is degenerate."""
    values = gz._array(values, 1)
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        raise DegenerateSeriesError("constant series cannot be normalized")
    if hi - lo == math.inf:
        # Halving is exact and brings a span past the float range back in.
        values, lo, hi = values / 2.0, lo / 2.0, hi / 2.0
    return (values - lo) / (hi - lo)


@np.errstate(over="ignore", invalid="ignore")
def detrend(values) -> np.ndarray:
    """Residuals of the series about its least-squares line over the sample
    index; the series must pass the array rule with at least 9 values, and
    a line or residual that overflows is a DegenerateSeriesError."""
    values = gz._array(values, MIN_SERIES_LENGTH)
    n = values.size
    k = np.arange(n, dtype=float)
    k_mean = k.mean()
    v_mean = values.mean()
    slope = float(np.dot(k - k_mean, values - v_mean) / np.dot(k - k_mean, k - k_mean))
    intercept = float(v_mean - slope * k_mean)
    residuals = values - (intercept + slope * k)
    if not np.isfinite(residuals).all():
        raise DegenerateSeriesError("the least-squares line overflows: values are too large")
    return residuals


def analyze(series: RawSeries, config: AnalysisConfig = AnalysisConfig()) -> BuildingReport:
    """Run the full analysis of one series and assemble its report.

    Degenerate preprocessing and an unfittable Gaussianization degrade to
    warnings on the report rather than raising, and so does any
    AnalysisError after the fit, which leaves the verdict None; one bad
    series cannot take down a batch run.  A `series` that is not a RawSeries
    is an InputFormatError, and a `config` that is not an AnalysisConfig a
    ConfigurationError, each naming the type.
    """
    if not isinstance(series, RawSeries):
        raise InputFormatError(f"expected a RawSeries, got {type(series).__name__}")
    if not isinstance(config, AnalysisConfig):
        raise ConfigurationError(f"expected an AnalysisConfig, got {type(config).__name__}")
    warnings: list[str] = []

    def report(**found) -> BuildingReport:
        return BuildingReport(series.building_id, series.quantity, warnings=tuple(warnings),
                              **found)

    try:
        normed = normalize(series.values)
    except DegenerateSeriesError as exc:
        warnings.append(f"degenerate series: {exc}; no statistics computed")
        return report()
    incs = gz.increments(detrend(normed))
    m = incs.values.size

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
        return report(m=m, verdict="rejected")

    try:
        z = gz.transform(incs, lam)
        achieved_ratio = gz.kurtosis_ratio(z)
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
        return report(m=m, lam=lam)
    labels = hyp.classify(estimate.h_hat, stats.verdict)
    return report(
        m=m,
        lam=lam,
        achieved_ratio=achieved_ratio,
        h_hat=estimate.h_hat,
        q_at_hat=estimate.q_at_hat,
        memory_class=labels.memory,
        noise_label=labels.noise,
        forecastable=labels.forecastable,
        **{name: getattr(stats, name) for name in _STATS_FIELDS},
    )


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _md_cell(text: str) -> str:
    """A markdown cell with `|` escaped and line breaks made spaces, so a
    building id from the input file cannot add columns or rows."""
    return " ".join(text.replace("|", "\\|").splitlines())


def render_report(reports, fmt: str = "json") -> str:
    """Render BuildingReports deterministically, ordered by (building, quantity).

    "json" nests every report field under a schema-versioned document;
    "csv" flattens the same fields; "md" is a table of the headline
    statistics plus the verdict.  Anything but an iterable of
    BuildingReports is an InputFormatError.
    """
    _choice("format", fmt, REPORT_FORMATS)
    try:
        items = iter(reports)
    except TypeError:
        raise InputFormatError(
            f"expected an iterable of BuildingReports, got {type(reports).__name__}"
        ) from None
    reports = list(items)
    for i, item in enumerate(reports):
        if not isinstance(item, BuildingReport):
            raise InputFormatError(f"item {i}: expected a BuildingReport, got {type(item).__name__}")
    ordered = sorted(reports, key=lambda r: (r.building_id, r.quantity))
    rows = [{key: getattr(r, name) for name, key in _REPORT_FIELDS} for r in ordered]
    if fmt == "json":
        return json.dumps({"schema_version": SCHEMA_VERSION, "reports": rows}, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, [key for _, key in _REPORT_FIELDS], lineterminator="\n")
        writer.writeheader()
        writer.writerows({**row, "warnings": "; ".join(row["warnings"])} for row in rows)
        return buf.getvalue()
    lines = [
        "| " + " | ".join(header for header, _ in _MD_COLUMNS) + " |",
        "| " + " | ".join("---" for _ in _MD_COLUMNS) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_md_cell(_fmt(row[key])) for _, key in _MD_COLUMNS) + " |")
    return "\n".join(lines) + "\n"
