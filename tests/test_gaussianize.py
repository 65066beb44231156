import numpy as np
import pytest

import fbmpower.hurst as hu
import fbmpower.hypothesis as hyp
from fbmpower.errors import (
    ConfigurationError,
    DegenerateSeriesError,
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
from fbmpower.simulate import simulate_fbm


class TestIncrements:
    def test_arithmetic_progression(self):
        series = increments([1, 2, 4, 7, 11, 16, 22, 29, 37])
        assert np.array_equal(series.values, [1, 2, 3, 4, 5, 6, 7, 8])
        assert series.m == 8

    def test_constant_series_gives_zero_increments(self):
        series = increments(np.full(10, 3.5))
        assert np.array_equal(series.values, np.zeros(9))

    def test_matches_path_increments(self):
        path = simulate_fbm(0.6, 64, 3, "cholesky")
        series = increments(path.values)
        assert np.array_equal(series.values, path.increments)
        assert series.m == 64

    def test_too_short_rejected(self):
        with pytest.raises(InvalidSizeError):
            increments(np.arange(8))


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
        with pytest.raises(ValueError):
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
        assert abs(transform(y, lam).achieved_ratio - GAUSSIAN_RATIO) <= 1e-3

    def test_recovers_square_for_root_data(self):
        xi = np.random.default_rng(12).standard_normal(10_000)
        y = np.sign(xi) * np.abs(xi) ** 0.5
        assert fit_lambda(y) == pytest.approx(2.0, abs=0.2)

    @pytest.mark.parametrize("power", [2.0, 3.0, 0.5])
    def test_fit_reaches_tolerance(self, power):
        xi = np.random.default_rng(int(power * 10)).standard_normal(5_000)
        y = np.sign(xi) * np.abs(xi) ** power
        lam = fit_lambda(y, tol=1e-3)
        assert abs(kurtosis_ratio(transform(y, lam).values) - GAUSSIAN_RATIO) <= 1e-3

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

    @pytest.mark.parametrize("kwargs", [dict(tol=-1.0), dict(max_iter=0)])
    def test_bad_settings_rejected(self, kwargs):
        y = np.random.default_rng(3).standard_normal(64)
        with pytest.raises(ConfigurationError):
            fit_lambda(y, **kwargs)

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
        assert np.allclose(transform(y, 1.0).values, y, atol=1e-15)

    def test_square_root_of_magnitudes(self):
        z = transform(np.array([-4.0, 0.0, 9.0]), 0.5)
        assert np.array_equal(z.values, [-2.0, 0.0, 3.0])

    def test_square_exponent(self):
        z = transform(np.array([2.0, -2.0]), 2.0)
        assert np.array_equal(z.values, [4.0, -4.0])

    def test_nonpositive_exponent_rejected(self):
        with pytest.raises(ValueError):
            transform(np.ones(8), 0.0)

    @pytest.mark.parametrize("lam", [0.3, 1.0, 2.7])
    def test_preserves_signs_and_order(self, lam):
        y = np.random.default_rng(3).standard_normal(64)
        z = transform(y, lam).values
        assert np.array_equal(np.sign(z), np.sign(y))
        assert np.array_equal(np.argsort(z), np.argsort(y))

    def test_zero_maps_to_zero_exactly(self):
        z = transform(np.array([0.0, 1.0, -1.0, 0.0]), 0.7).values
        assert z[0] == 0.0 and z[3] == 0.0

    def test_subnormal_magnitudes_flushed_to_zero(self):
        z = transform(np.array([1e-310, 1.0, -1e-320]), 2.0).values
        assert z[0] == 0.0 and z[2] == 0.0

    def test_records_achieved_ratio(self):
        y = np.random.default_rng(8).standard_normal(1000)
        z = transform(y, 1.0)
        assert z.achieved_ratio == pytest.approx(kurtosis_ratio(y), rel=1e-12)

    def test_all_zero_ratio_is_nan(self):
        z = transform(np.zeros(10), 1.0)
        assert np.isnan(z.achieved_ratio)


def _with_value_at_5(value):
    v = np.random.default_rng(0).standard_normal(64)
    v[5] = value
    return v


BAD_SERIES = {
    "nan": (_with_value_at_5(np.nan), InputFormatError, "index 5"),
    "inf": (_with_value_at_5(np.inf), InputFormatError, "index 5"),
    # Every square underflows to 0, so the mean square is exactly 0.
    "underflow": (np.random.default_rng(0).standard_normal(64) * 1e-170,
                  DegenerateSeriesError, "mean square"),
    "zeros": (np.zeros(64), DegenerateSeriesError, "mean square"),
    # Every square overflows to inf, so the mean square is infinite.
    "overflow": (np.random.default_rng(0).standard_normal(64) * 1e200,
                 DegenerateSeriesError, "mean square"),
    "two_dim": (np.ones((8, 8)), InvalidSizeError, "1-D"),
}

ENTRY_POINTS = {
    "kurtosis_ratio": kurtosis_ratio,
    "fit_lambda": fit_lambda,
    "estimate_hurst": hu.estimate_hurst,
    "test_hypothesis": lambda v: hyp.test_hypothesis(v, 0.7),
}


@pytest.mark.parametrize("case", sorted(BAD_SERIES))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_series_raise_the_same_typed_error_everywhere(entry, case):
    values, error, message = BAD_SERIES[case]
    with pytest.raises(error, match=message):
        ENTRY_POINTS[entry](values)
