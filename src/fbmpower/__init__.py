"""Persistence analysis of time series via fractional-Brownian-motion
increment modeling: Gaussianizing power transform, Hurst exponent
estimation, limit-theorem hypothesis tests, and report generation."""

from .errors import (
    AnalysisError,
    CirculantEmbeddingError,
    ConfigurationError,
    DegenerateSeriesError,
    IllConditionedError,
    InputFormatError,
    InvalidSizeError,
    UnfittableSeriesError,
)
from .gaussianize import IncrementSeries, fit_lambda, increments, transform
from .hurst import HurstEstimate, estimate_hurst
from .hypothesis import Classification, HypothesisStats, classify, test_hypothesis
from .pipeline import AnalysisConfig, BuildingReport, RawSeries, analyze, load_csv, render_report
from .simulate import FbmPath, simulate_fbm

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "AnalysisError",
    "BuildingReport",
    "CirculantEmbeddingError",
    "Classification",
    "ConfigurationError",
    "DegenerateSeriesError",
    "FbmPath",
    "HurstEstimate",
    "HypothesisStats",
    "IllConditionedError",
    "IncrementSeries",
    "InputFormatError",
    "InvalidSizeError",
    "RawSeries",
    "UnfittableSeriesError",
    "analyze",
    "classify",
    "estimate_hurst",
    "fit_lambda",
    "increments",
    "load_csv",
    "render_report",
    "simulate_fbm",
    "test_hypothesis",
    "transform",
]
