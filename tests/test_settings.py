"""Every setting of every public stage passes one of the rules in
fbmpower.errors: a value of the wrong kind is a ConfigurationError, never a
raw builtin error, a truthy flag or a truncated count."""

import math
from dataclasses import fields

import numpy as np
import pytest

import fbmpower.hypothesis as hyp
from fbmpower.correlation import check_hurst, increment_correlation
from fbmpower.errors import ConfigurationError
from fbmpower.gaussianize import fit_lambda, transform
from fbmpower.hurst import estimate_hurst
from fbmpower.pipeline import AnalysisConfig, load_csv, render_report
from fbmpower.simulate import simulate_fbm

Z = np.random.default_rng(0).standard_normal(64)

# Values of the wrong kind for each kind of setting.
BAD = {
    "real": (None, "abc", True, math.nan),
    "integer": (None, "abc", True, 64.7),
    "flag": (None, "abc", "no"),
    "choice": (None, "abc", True),
}

SETTINGS = [
    ("check_hurst", "real", check_hurst),
    ("estimate_hurst-grid_start", "real", lambda v: estimate_hurst(Z, grid_start=v)),
    ("estimate_hurst-grid_stop", "real", lambda v: estimate_hurst(Z, grid_stop=v)),
    ("estimate_hurst-grid_step", "real", lambda v: estimate_hurst(Z, grid_step=v)),
    ("estimate_hurst-q_constant", "real", lambda v: estimate_hurst(Z, q_constant=v)),
    ("fit_lambda-tol", "real", lambda v: fit_lambda(Z, tol=v)),
    ("transform-lam", "real", lambda v: transform(Z, v)),
    ("test_hypothesis-h_hat", "real", lambda v: hyp.test_hypothesis(Z, v)),
    ("test_hypothesis-alpha", "real", lambda v: hyp.test_hypothesis(Z, 0.3, alpha=v)),
    ("test_hypothesis-beta0", "real", lambda v: hyp.test_hypothesis(Z, 0.3, beta0=v)),
    ("test_hypothesis-paper_constants", "flag",
     lambda v: hyp.test_hypothesis(Z, 0.3, paper_constants=v)),
    ("test_hypothesis-require_delta_on_persistent", "flag",
     lambda v: hyp.test_hypothesis(Z, 0.7, require_delta_on_persistent=v)),
    ("classify-h_hat", "real", lambda v: hyp.classify(v, "accepted")),
    ("classify-verdict", "choice", lambda v: hyp.classify(0.3, v)),
    ("simulate_fbm-h", "real", lambda v: simulate_fbm(v, 64, 0)),
    ("simulate_fbm-n", "integer", lambda v: simulate_fbm(0.3, v, 0)),
    ("simulate_fbm-seed", "integer", lambda v: simulate_fbm(0.3, 64, v)),
    ("simulate_fbm-method", "choice", lambda v: simulate_fbm(0.3, 64, 0, v)),
    ("increment_correlation-lag", "integer", lambda v: increment_correlation(0.3, v)),
    # The rule runs before the file is opened.
    ("load_csv-gap_policy", "choice", lambda v: load_csv("absent.csv", gap_policy=v)),
    ("render_report-fmt", "choice", lambda v: render_report([], v)),
] + [
    (f"AnalysisConfig-{f.name}", {"float": "real", "bool": "flag", "str": "choice"}[f.type],
     lambda v, name=f.name: AnalysisConfig(**{name: v}))
    for f in fields(AnalysisConfig)
]


@pytest.mark.parametrize(
    "call, value",
    [pytest.param(call, value, id=f"{name}-{value!r}")
     for name, kind, call in SETTINGS for value in BAD[kind]],
)
def test_a_setting_of_the_wrong_kind_is_a_configuration_error(call, value):
    with pytest.raises(ConfigurationError):
        call(value)


def test_settings_come_back_as_builtin_numbers():
    stats = hyp.test_hypothesis(Z, np.float64(0.3), beta0=1, alpha=np.float32(0.25))
    assert (stats.h_used, stats.beta0, stats.alpha) == (0.3, 1.0, 0.25)
    assert type(stats.h_used) is type(stats.beta0) is type(stats.alpha) is float
    path = simulate_fbm(0.3, np.int64(16), np.uint8(1))
    assert type(path.n) is type(path.seed) is int
