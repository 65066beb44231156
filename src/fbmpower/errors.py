"""Exception types shared across the package.

The pipeline and CLI need to tell apart data conditions (degenerate or
unfittable series, which become per-series warnings) from hard failures
(bad input files, bad configuration), so each category gets its own class.
"""


class AnalysisError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSizeError(AnalysisError, ValueError):
    """A sequence is too short for the requested operation."""


class DegenerateSeriesError(AnalysisError, ValueError):
    """A series is constant or all-zero where variation is required."""


class IllConditionedError(AnalysisError):
    """A Toeplitz or Cholesky factorization found a non-positive pivot."""


class UnfittableSeriesError(AnalysisError):
    """No power-transform exponent brings the series to the Gaussian ratio."""


class CirculantEmbeddingError(AnalysisError):
    """The circulant embedding has a materially negative eigenvalue."""


class InputFormatError(AnalysisError, ValueError):
    """Input cannot be parsed or holds a non-finite value; the message names
    the line of a file or the index of an array."""


class ConfigurationError(AnalysisError, ValueError):
    """An analysis parameter is outside its allowed range."""
