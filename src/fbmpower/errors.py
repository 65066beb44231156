"""Exception types shared across the package, and the rules for settings.

The pipeline and CLI need to tell apart data conditions (degenerate or
unfittable series, which become per-series warnings) from hard failures
(bad input files, bad configuration), so each category gets its own class.

Every setting passes one of three rules, from the home of its stage's rule:
`_real` (a float in an interval), `_integer` (an int at or above a floor) and
`_choice` (one of a tuple, of its type, so a flag is a bool); no bool is a
number.  A ConfigurationError names the setting, its range and the value.
"""

import numbers


class AnalysisError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSizeError(AnalysisError, ValueError):
    """A sequence is too short or of the wrong size for the requested operation."""


class DegenerateSeriesError(AnalysisError, ValueError):
    """A series is constant or all-zero where variation is required."""


class IllConditionedError(AnalysisError):
    """A Toeplitz or Cholesky factorization found a non-positive pivot."""


class UnfittableSeriesError(AnalysisError):
    """No power-transform exponent brings the series to the Gaussian ratio."""


class CirculantEmbeddingError(AnalysisError):
    """The circulant embedding has a materially negative eigenvalue."""


class InputFormatError(AnalysisError, ValueError):
    """Input cannot be parsed or holds a non-finite value, or an output file
    cannot be written; the message names the line of a file, the index of an
    array or the path."""


class ConfigurationError(AnalysisError, ValueError):
    """An analysis parameter is outside its allowed range."""


def _real(name: str, value, lo, hi, closed: bool = False) -> float:
    """`value` as a float in (lo, hi), or in [lo, hi] when `closed`."""
    # float first: the numbers.Real check alone takes longer than the rest.
    if isinstance(value, (float, numbers.Real)) and not isinstance(value, bool):
        try:
            number = float(value)
            if (lo <= number <= hi) if closed else (lo < number < hi):
                return number
        except OverflowError:  # an int past the float range
            pass
    left, right = "[]" if closed else "()"
    raise ConfigurationError(f"{name} must lie in {left}{lo}, {hi}{right}, got {value!r}")


def _integer(name: str, value, floor: int) -> int:
    """`value` as an int >= floor."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= floor:
        return int(value)
    raise ConfigurationError(f"{name} must be an integer >= {floor}, got {value!r}")


def _choice(name: str, value, choices: tuple) -> None:
    """Pass if `value` equals one of `choices` and has that choice's type."""
    if not any(isinstance(value, type(choice)) and value == choice for choice in choices):
        raise ConfigurationError(f"{name} must be one of {choices}, got {value!r}")
