"""Command-line interface.

Subcommands mirror the pipeline stages: `analyze` runs the whole chain on a
long-format CSV, while `simulate`, `gaussianize`, `estimate`, and `test`
expose the individual stages for scripted use, with the same parameter
rules.  The `main` group alone maps errors to exit codes and prints one
`error:` line: 0 on success (per-series warnings included), 1 when no
power transform Gaussianizes the series, 2 on input/parse errors, 3 on
bad configuration.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict

import click
import numpy as np

from . import gaussianize as gz
from . import hurst as hu
from . import hypothesis as hyp
from . import __version__, pipeline
from .errors import (
    AnalysisError,
    ConfigurationError,
    InputFormatError,
    UnfittableSeriesError,
)
from .simulate import simulate_fbm

# Exit code of each error class; the first class that matches wins.
EXIT_CODES = ((UnfittableSeriesError, 1), (ConfigurationError, 3), (AnalysisError, 2))


def _read_values(path) -> np.ndarray:
    """Read one value per line from a CSV; the last field of each row is
    used, so two-column (t, value) files from `simulate` work unchanged.
    Blank rows and `#` comments are skipped, and the first other row is
    taken as a header when it is not numeric, so `gaussianize` output reads
    back in; a `nan` or `inf` is an InputFormatError naming its line."""
    values = []
    header_allowed = True
    with pipeline._open_utf8(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            cell = text.split(",")[-1].strip()
            try:
                value = float(cell)
            except ValueError:
                if header_allowed:
                    header_allowed = False
                    continue
                raise InputFormatError(f"line {lineno}: unparsable value {cell!r}") from None
            header_allowed = False
            if not np.isfinite(value):
                raise InputFormatError(f"line {lineno}: non-finite value {value}")
            values.append(value)
    if not values:
        raise InputFormatError("no numeric values found")
    return np.array(values)


def _write_text(text: str, out) -> None:
    """Write to `out`, or stdout; a file that cannot be written is an
    InputFormatError naming its path."""
    if out is None or out == "-":
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputFormatError(f"cannot write {out}: {exc.strerror}") from None


def _options(*options):
    """One decorator applying `options` in the order listed."""
    def decorate(command):
        for option in reversed(options):
            command = option(command)
        return command
    return decorate


def _input(help_text):
    return click.option("--input", "input_path", required=True,
                        type=click.Path(exists=True, dir_okay=False), help=help_text)


_increments_input = _input("CSV of increment values, one per line.")
_out = click.option("--out", type=click.Path(dir_okay=False), default=None,
                    help="Output file (default: stdout).")
_ratio_tol = click.option("--ratio-tol", type=float, default=gz.DEFAULT_RATIO_TOL,
                          show_default=True,
                          help="Tolerance on the Gaussian ratio when fitting lambda, "
                               "in (0, 2/pi).")
_grid_options = _options(
    click.option("--grid-start", type=float, default=hu.GRID_START, show_default=True),
    click.option("--grid-stop", type=float, default=hu.GRID_STOP, show_default=True),
    click.option("--grid-step", type=float, default=hu.GRID_STEP, show_default=True),
    click.option("--q-constant", type=float, default=hu.DEFAULT_Q_CONSTANT,
                 show_default="sqrt(2/pi)"),
)
_test_options = _options(
    click.option("--alpha", type=float, default=hyp.DEFAULT_ALPHA, show_default=True),
    click.option("--beta0", type=float, default=hyp.DEFAULT_BETA0, show_default=True),
    click.option("--paper-constants", is_flag=True,
                 help="Use the rounded alpha = 0.1 coefficients 4.95/4.08; needs --alpha 0.1."),
    click.option("--require-delta-on-persistent", is_flag=True,
                 help="Require the stat_A deviation check on the persistent branch too."),
)


class _ErrorExitGroup(click.Group):
    """Runs a subcommand and turns the package's errors into exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except AnalysisError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(next(code for cls, code in EXIT_CODES if isinstance(exc, cls)))


@click.group(cls=_ErrorExitGroup)
@click.version_option(__version__)
def main() -> None:
    """Model time series as transformed fBm increments and report their
    persistence and forecastability."""


@main.command()
@_input("Long-format CSV: timestamp,building,quantity,value.")
@click.option("--quantity", type=click.Choice(["P", "S", "both"]), default="both",
              show_default=True)
@click.option("--format", "fmt", type=click.Choice(list(pipeline.REPORT_FORMATS)),
              default="json", show_default=True)
@_out
@_grid_options
@_test_options
@_ratio_tol
@click.option("--gap-policy", type=click.Choice(list(pipeline.GAP_POLICIES)),
              default=pipeline.DEFAULT_GAP_POLICY, show_default=True)
def analyze(input_path, quantity, fmt, out, gap_policy, **settings) -> None:
    """Run the full persistence analysis on every series in a CSV."""
    config = pipeline.AnalysisConfig(**settings)
    series, warnings = pipeline.load_csv(input_path, gap_policy=gap_policy)
    for warning in warnings:
        click.echo(f"warning: {warning}", err=True)
    if quantity != "both":
        series = [s for s in series if s.quantity == quantity]
    reports = [pipeline.analyze(s, config) for s in series]
    for report in reports:
        for warning in report.warnings:
            click.echo(f"warning: {report.building_id}/{report.quantity}: {warning}",
                       err=True)
    _write_text(pipeline.render_report(reports, fmt), out)


@main.command()
@click.option("--hurst", type=float, required=True, help="Hurst exponent in (0, 1).")
@click.option("--n", type=int, required=True, help="Number of grid steps.")
@click.option("--seed", type=int, default=0, show_default=True)
@_out
def simulate(hurst, n, seed, out) -> None:
    """Generate one fBm path and write it as two-column CSV (t, value)."""
    path = simulate_fbm(hurst, n, seed)
    lines = ["t,value"]
    lines.extend(f"{float(t)!r},{float(v)!r}" for t, v in zip(path.times, path.values))
    _write_text("\n".join(lines) + "\n", out)


@main.command()
@_increments_input
@_out
@_ratio_tol
def gaussianize(input_path, out, ratio_tol) -> None:
    """Fit the power-transform exponent and write the transformed series."""
    values = _read_values(input_path)
    lam = gz.fit_lambda(values, tol=ratio_tol)
    z = gz.transform(values, lam)
    lines = [
        f"# lambda = {lam!r}",
        f"# achieved_ratio = {gz.kurtosis_ratio(z)!r}",
        f"# m = {z.size}",
        "value",
    ]
    lines.extend(repr(float(v)) for v in z)
    _write_text("\n".join(lines) + "\n", out)


@main.command()
@_increments_input
@_out
@_grid_options
def estimate(input_path, out, **settings) -> None:
    """Estimate the Hurst exponent of an increment series; JSON out."""
    values = _read_values(input_path)
    result = hu.estimate_hurst(values, **settings)
    doc = {"schema_version": pipeline.SCHEMA_VERSION, **asdict(result)}
    _write_text(json.dumps(doc, indent=2) + "\n", out)


@main.command(name="test")
@_increments_input
@click.option("--hurst", type=float, required=True,
              help="Hurst exponent to test at, typically from `estimate`.")
@_out
@_test_options
def hypothesis_test(input_path, hurst, out, **settings) -> None:
    """Test whether an increment series behaves as fBm increments; JSON out."""
    stats = hyp.test_hypothesis(_read_values(input_path), hurst, **settings)
    doc = {"schema_version": pipeline.SCHEMA_VERSION, **asdict(stats)}
    _write_text(json.dumps(doc, indent=2) + "\n", out)


if __name__ == "__main__":
    main()
