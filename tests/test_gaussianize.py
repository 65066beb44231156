import math
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

import fbmpower.hurst as hu
import fbmpower.hypothesis as hyp
from fbmpower.errors import (
    ConfigurationError,
    DegenerateSeriesError,
    IllConditionedError,
    InputFormatError,
    InvalidSizeError,
    UnfittableSeriesError,
)
from fbmpower.gaussianize import (
    GAUSSIAN_RATIO,
    fit_lambda,
    gaussian_ratio_theoretical,
    increments,
    kurtosis_ratio,
    transform,
)
from fbmpower.hurst import build_correlation, quadratic_form_logdet
from fbmpower.pipeline import RawSeries, analyze, detrend, load_csv, normalize, render_report
from fbmpower.simulate import simulate_fbm


class TestIncrements:
    def test_arithmetic_progression(self):
        series = increments([1, 2, 4, 7, 11, 16, 22, 29, 37])
        assert np.array_equal(series.values, [1, 2, 3, 4, 5, 6, 7, 8])

    def test_constant_series_gives_zero_increments(self):
        series = increments(np.full(10, 3.5))
        assert np.array_equal(series.values, np.zeros(9))

    def test_matches_path_increments(self):
        path = simulate_fbm(0.6, 64, 3, "cholesky")
        series = increments(path.values)
        assert np.array_equal(series.values, np.diff(path.values))

    def test_too_short_rejected(self):
        with pytest.raises(InvalidSizeError):
            increments(np.arange(8))

    def test_two_dimensional_rejected(self):
        with pytest.raises(InvalidSizeError, match="1-D"):
            increments(np.ones((4, 4)))

    def test_non_finite_difference_named(self):
        x = np.arange(12.0)
        x[4] = np.inf
        with pytest.raises(InputFormatError, match="index 4: non-finite value inf"):
            increments(x)

    def test_overflowing_difference_named(self):
        with pytest.raises(InputFormatError, match="index 0: non-finite increment -inf"):
            increments([1e308, -1e308] * 5)

    @pytest.mark.parametrize("x", [simulate_fbm(0.3, 16, 0), object(), "abc"],
                             ids=["FbmPath", "object", "str"])
    def test_non_numeric_input_named(self, x):
        with pytest.raises(InputFormatError, match=type(x).__name__):
            increments(x)


def _path_and_series():
    path = simulate_fbm(0.3, 512, 0)
    stamps = tuple(datetime(2024, 1, 1) + timedelta(hours=k) for k in range(path.values.size))
    return {"FbmPath": path, "RawSeries": RawSeries("b", "P", stamps, path.values)}


@pytest.mark.parametrize("kind", ["FbmPath", "RawSeries"])
@pytest.mark.parametrize(
    "stage",
    [fit_lambda, kurtosis_ratio, lambda y: transform(y, 1.0), hu.estimate_hurst,
     lambda z: hyp.test_hypothesis(z, 0.3)],
    ids=["fit_lambda", "kurtosis_ratio", "transform", "estimate_hurst", "test_hypothesis"],
)
def test_stages_reject_levels_with_a_values_field(stage, kind):
    # Their .values are levels, not increments; read as increments, this
    # H = 0.3 path estimates at h_hat 0.95.
    with pytest.raises(InputFormatError, match=kind):
        stage(_path_and_series()[kind])


class TestKurtosisRatio:
    def test_constant_magnitudes_give_one(self):
        assert kurtosis_ratio(np.ones(8)) == pytest.approx(1.0, abs=1e-15)

    def test_hand_computed_example(self):
        v = [1, -1, 2, -2, 1, -1, 2, -2]
        assert kurtosis_ratio(v) == pytest.approx(0.9, abs=1e-15)

    def test_gaussian_sample_near_limit(self):
        sample = np.random.default_rng(42).standard_normal(10_000)
        assert kurtosis_ratio(sample) == pytest.approx(GAUSSIAN_RATIO, abs=0.03)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            kurtosis_ratio(np.zeros(8))

    def test_short_input_rejected(self):
        with pytest.raises(InvalidSizeError):
            kurtosis_ratio(np.ones(7))

    def test_scale_invariant(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(100)
        assert kurtosis_ratio(v * 1e6) == pytest.approx(kurtosis_ratio(v), rel=1e-12)


class TestGaussianRatioTheoretical:
    def test_identity_exponent_gives_gaussian_limit(self):
        assert gaussian_ratio_theoretical(1.0) == pytest.approx(GAUSSIAN_RATIO, abs=1e-10)

    def test_small_exponent_limit_is_one(self):
        assert gaussian_ratio_theoretical(1e-6) == pytest.approx(1.0, abs=1e-5)

    def test_square_exponent_closed_form(self):
        assert gaussian_ratio_theoretical(2.0) == pytest.approx(1.0 / 3.0, abs=1e-10)

    @pytest.mark.parametrize("lam", [0.0, -1.0, 40.0, 50.0])
    def test_domain_errors(self, lam):
        with pytest.raises(ConfigurationError):
            gaussian_ratio_theoretical(lam)

    def test_strictly_decreasing_in_open_unit_range(self):
        grid = np.linspace(0.01, 39.9, 200)
        vals = [gaussian_ratio_theoretical(x) for x in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v < 1.0 for v in vals)

    def test_matches_monte_carlo_at_identity(self):
        sample = np.random.default_rng(7).standard_normal(200_000)
        assert gaussian_ratio_theoretical(1.0) == pytest.approx(
            kurtosis_ratio(sample), abs=0.01
        )


class TestFitLambda:
    def test_gaussian_input_needs_no_transform(self):
        y = np.random.default_rng(101).standard_normal(10_000)
        assert fit_lambda(y) == pytest.approx(1.0, abs=0.1)

    def test_recovers_square_root_for_squared_data(self):
        xi = np.random.default_rng(11).standard_normal(10_000)
        y = np.sign(xi) * np.abs(xi) ** 2
        lam = fit_lambda(y)
        assert lam == pytest.approx(0.5, abs=0.1)
        assert abs(kurtosis_ratio(transform(y, lam)) - GAUSSIAN_RATIO) <= 1e-3

    def test_recovers_square_for_root_data(self):
        xi = np.random.default_rng(12).standard_normal(10_000)
        y = np.sign(xi) * np.abs(xi) ** 0.5
        assert fit_lambda(y) == pytest.approx(2.0, abs=0.2)

    @pytest.mark.parametrize("power", [2.0, 3.0, 0.5])
    def test_fit_reaches_tolerance(self, power):
        xi = np.random.default_rng(int(power * 10)).standard_normal(5_000)
        y = np.sign(xi) * np.abs(xi) ** power
        lam = fit_lambda(y, tol=1e-3)
        assert abs(kurtosis_ratio(transform(y, lam)) - GAUSSIAN_RATIO) <= 1e-3

    def test_equal_magnitudes_unfittable(self):
        with pytest.raises(UnfittableSeriesError):
            fit_lambda(np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0]))

    def test_near_equal_magnitudes_unfittable(self):
        # Two magnitudes so close that no exponent in range separates them.
        y = np.tile([1.0, -1.001], 50)
        with pytest.raises(UnfittableSeriesError):
            fit_lambda(y)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            fit_lambda(np.zeros(16))

    def test_short_input_rejected(self):
        with pytest.raises(InvalidSizeError):
            fit_lambda(np.ones(4))

    @pytest.mark.parametrize(
        "kwargs", [dict(tol=-1.0), dict(tol=math.inf), dict(tol=GAUSSIAN_RATIO), dict(tol=1e9)]
    )
    def test_bad_settings_rejected(self, kwargs):
        y = np.random.default_rng(3).standard_normal(64)
        with pytest.raises(ConfigurationError):
            fit_lambda(y, **kwargs)

    def test_tolerance_just_under_the_gaussian_ratio_accepted(self):
        y = np.random.default_rng(3).laplace(size=64)
        assert fit_lambda(y, tol=np.nextafter(GAUSSIAN_RATIO, 0.0)) == 1.0

    def test_stalled_bisection_returns_last_midpoint(self):
        # No float exponent brings this sample's ratio within 1e-300 of 2/pi
        # (for some samples one hits it exactly), so the bracket shrinks to
        # adjacent floats, and the fit returns the midpoint it stalls at: the
        # deviation changes sign between it and one of its float neighbours.
        y = np.random.default_rng(0).standard_normal(64)
        lam = fit_lambda(y, tol=1e-300)
        scaled = np.abs(y) / np.abs(y).max()

        def deviation(x):
            p = scaled**x
            return np.mean(p) ** 2 / np.mean(p * p) - GAUSSIAN_RATIO

        assert deviation(lam) != 0.0
        neighbours = (np.nextafter(lam, 0.0), np.nextafter(lam, np.inf))
        assert any(deviation(lam) * deviation(x) <= 0.0 for x in neighbours)
        assert lam == pytest.approx(fit_lambda(y, tol=1e-12), rel=1e-9)

    def test_monotone_ratio_in_exponent(self):
        rng = np.random.default_rng(5)
        for y in (
            rng.standard_normal(300),
            rng.laplace(size=300),
            np.sign(rng.standard_normal(300)) * rng.lognormal(size=300),
        ):
            scaled = np.abs(y) / np.abs(y).max()
            ratios = []
            for lam in np.linspace(0.05, 20.0, 60):
                p = scaled**lam
                ratios.append(np.mean(p) ** 2 / np.mean(p * p))
            assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))


class TestTransform:
    def test_identity_exponent(self):
        y = np.random.default_rng(1).standard_normal(32)
        assert np.allclose(transform(y, 1.0), y, atol=1e-15)

    def test_square_root_of_magnitudes(self):
        z = transform(np.array([-4.0, 0.0, 9.0]), 0.5)
        assert np.array_equal(z, [-2.0, 0.0, 3.0])

    def test_square_exponent(self):
        z = transform(np.array([2.0, -2.0]), 2.0)
        assert np.array_equal(z, [4.0, -4.0])

    def test_nonpositive_exponent_rejected(self):
        with pytest.raises(ConfigurationError, match=r"^exponent must lie in \(0, inf\)"):
            transform(np.ones(8), 0.0)

    def test_two_dimensional_rejected(self):
        with pytest.raises(InvalidSizeError, match="1-D"):
            transform(np.ones((2, 2)), 1.0)

    @pytest.mark.parametrize("lam", [0.3, 1.0, 2.7])
    def test_preserves_signs_and_order(self, lam):
        y = np.random.default_rng(3).standard_normal(64)
        z = transform(y, lam)
        assert np.array_equal(np.sign(z), np.sign(y))
        assert np.array_equal(np.argsort(z), np.argsort(y))

    def test_empty_series_gives_empty(self):
        assert transform([], 1.0).shape == (0,)

    def test_zero_maps_to_zero_exactly(self):
        z = transform(np.array([0.0, 1.0, -1.0, 0.0]), 0.7)
        assert z[0] == 0.0 and z[3] == 0.0

    def test_overflow_names_its_index_and_exponent(self):
        with pytest.raises(DegenerateSeriesError, match=r"index 1: \|-1e\+200\|\^lambda .* 2\.0"):
            transform(np.array([1.0, -1e200, 1e300]), 2.0)

    def test_non_finite_value_named(self):
        with pytest.raises(InputFormatError, match=r"^index 0: non-finite value nan$"):
            transform(np.array([np.nan, 1.0, -2.0]), 1.5)

    def test_subnormal_magnitudes_flushed_to_zero(self):
        z = transform(np.array([1e-310, 1.0, -1e-320]), 2.0)
        assert z[0] == 0.0 and z[2] == 0.0


def _with_value_at_5(value):
    v = np.random.default_rng(0).standard_normal(64)
    v[5] = value
    return v


# Bad arrays that every public function taking an array rejects alike.
BAD_ARRAYS = {
    "nan": (_with_value_at_5(np.nan), InputFormatError, "index 5: non-finite value nan"),
    "inf": (_with_value_at_5(np.inf), InputFormatError, "index 5: non-finite value inf"),
    "two_dim": (np.ones((8, 8)), InvalidSizeError, r"1-D .* got shape \(8, 8\)"),
    "none": (None, InputFormatError, "NoneType"),
    "str": ("abc", InputFormatError, "got str"),
    "empty": ([], InvalidSizeError, r"shape \(0,\)"),
    "ragged": ([[1.0, 2.0], [3.0]], InputFormatError, "got list"),
    # numpy would drop the imaginary parts with a warning.
    "complex": (np.full(64, 1.0 + 1.0j), InputFormatError, "got ndarray"),
}

# Bad series that only the statistics reject: their mean square is unusable.
BAD_SERIES = {
    # Every square underflows to 0, so the mean square is exactly 0.
    "underflow": (np.random.default_rng(0).standard_normal(64) * 1e-170,
                  DegenerateSeriesError, "mean square"),
    "zeros": (np.zeros(64), DegenerateSeriesError, "mean square"),
    # Every square overflows to inf, so the mean square is infinite.
    "overflow": (np.random.default_rng(0).standard_normal(64) * 1e200,
                 DegenerateSeriesError, "mean square"),
}

ENTRY_POINTS = {
    "kurtosis_ratio": kurtosis_ratio,
    "fit_lambda": fit_lambda,
    "estimate_hurst": hu.estimate_hurst,
    "test_hypothesis": lambda v: hyp.test_hypothesis(v, 0.7),
}

_STAMPS = tuple(datetime(2024, 1, 1) + timedelta(hours=k) for k in range(64))

ARRAY_ENTRY_POINTS = {
    **ENTRY_POINTS,
    "increments": increments,
    "transform": lambda v: transform(v, 1.0),
    "normalize": normalize,
    "detrend": detrend,
    "RawSeries": lambda v: RawSeries("b", "P", _STAMPS, v),
    "quadratic_form_logdet-row": lambda v: quadratic_form_logdet(v, np.ones(64)),
    "quadratic_form_logdet-z": lambda v: quadratic_form_logdet(build_correlation(0.3, 64), v),
}

_RAW = RawSeries("b", "P", _STAMPS, np.arange(64.0))

# Calls that take something other than an array, each with its error.
BAD_CALLS = {
    "build_correlation-64.7": (lambda: build_correlation(0.3, 64.7), InvalidSizeError, "m=64.7"),
    "build_correlation-str": (lambda: build_correlation(0.3, "a"), InvalidSizeError, "m='a'"),
    "build_correlation-True": (lambda: build_correlation(0.3, True), InvalidSizeError, "m=True"),
    # Sizes numpy refuses without allocating; 2**63 - 1 gave an empty row.
    **{f"{entry}-{label}": (call, InvalidSizeError, "fits in an array")
       for label, m in (("10**30", 10**30), ("2**62+1", 2**62 + 1), ("2**63-1", 2**63 - 1))
       for entry, call in (("build_correlation", lambda m=m: build_correlation(0.3, m)),
                           ("simulate_fbm", lambda m=m: simulate_fbm(0.3, m, 0)),
                           ("simulate_fbm-cholesky",
                            lambda m=m: simulate_fbm(0.3, m, 0, "cholesky")))},
    # Checked before the division by the diagonal, which overflowed with a warning.
    "quadratic_form_logdet-past_diagonal": (
        lambda: quadratic_form_logdet([5e-324, 1.0, 0.5], [1.0, 1.0, 1.0]),
        IllConditionedError, r"^lag 1: \|1\.0\| exceeds the diagonal 5e-324"),
    # A line or a form past the float range, from finite values.
    "detrend-overflow": (lambda: detrend([1.7e308] * 9), DegenerateSeriesError, "overflows"),
    "quadratic_form_logdet-overflow": (
        lambda: quadratic_form_logdet(build_correlation(0.3, 64), np.full(64, 1e160)),
        DegenerateSeriesError, "overflows"),
    "render_report-int": (lambda: render_report([1]), InputFormatError,
                          "item 0: expected a BuildingReport, got int"),
    "render_report-None": (lambda: render_report([None]), InputFormatError, "got NoneType"),
    "render_report-str": (lambda: render_report("json"), InputFormatError, "got str"),
    "render_report-bare_None": (lambda: render_report(None), InputFormatError,
                                "expected an iterable of BuildingReports, got NoneType"),
    "render_report-bare_int": (lambda: render_report(5), InputFormatError, "got int"),
    "analyze-int": (lambda: analyze(5), InputFormatError, "expected a RawSeries, got int"),
    "analyze-config_int": (lambda: analyze(_RAW, 5), ConfigurationError,
                           "expected an AnalysisConfig, got int"),
    "analyze-config_None": (lambda: analyze(_RAW, None), ConfigurationError, "got NoneType"),
    "load_csv-None": (lambda: load_csv(None), InputFormatError, "cannot read None"),
    "load_csv-True": (lambda: load_csv(True), InputFormatError, "cannot read True"),
    "load_csv-missing": (lambda: load_csv(Path("absent", "x.csv")), InputFormatError,
                         "No such file"),
    "load_csv-directory": (lambda: load_csv(Path(__file__).parent), InputFormatError,
                           "Is a directory"),
}


def _rejects(entry, values):
    return lambda: ARRAY_ENTRY_POINTS[entry](values)


CASES = {
    # transform takes a 1-D series of any length, the empty one included.
    **{f"{entry}-{case}": (_rejects(entry, values), error, message)
       for entry in ARRAY_ENTRY_POINTS for case, (values, error, message) in BAD_ARRAYS.items()
       if (entry, case) != ("transform", "empty")},
    **{f"{entry}-{case}": (_rejects(entry, values), error, message)
       for entry in ENTRY_POINTS for case, (values, error, message) in BAD_SERIES.items()},
    **BAD_CALLS,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_series_raise_the_same_typed_error_everywhere(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=message):
        call()
