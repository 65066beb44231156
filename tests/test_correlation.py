import numpy as np
import pytest

from fbmpower.correlation import (
    _levinson,
    build_correlation,
    dense_quadratic_form,
    increment_correlation,
    quadratic_form_logdet,
)
from fbmpower.errors import IllConditionedError, InvalidSizeError

# Frozen from direct evaluation of the closed forms.
RHO_07_LAG1 = 0.3195079107728942  # 0.5 * (2**1.4 - 2)
RHO_03_LAG1 = -0.242141716744801  # 0.5 * (2**0.6 - 2)
RHO_07_LAG2 = 0.1887525393272509  # 0.5 * (3**1.4 + 1 - 2 * 2**1.4)
ASYM_07_LAG100 = 0.01766680564544541  # 0.28 * 100**-0.6
ASYM_03_LAG100 = -0.00019018718309533368  # -0.12 * 100**-1.4
QF_2X2 = 1.5157165665103982  # 2 / (1 + RHO_07_LAG1)


def power_law(h, lag):
    """Large-lag approximation H(2H-1) lag^(2H-2) of the correlation."""
    return h * (2.0 * h - 1.0) * float(lag) ** (2.0 * h - 2.0)


class TestIncrementCorrelation:
    def test_wiener_increments_uncorrelated(self):
        assert increment_correlation(0.5, 1) == 0.0

    def test_persistent_lag_one(self):
        assert increment_correlation(0.7, 1) == pytest.approx(RHO_07_LAG1, abs=1e-5)

    def test_antipersistent_lag_one(self):
        assert increment_correlation(0.3, 1) == pytest.approx(RHO_03_LAG1, abs=1e-5)

    @pytest.mark.parametrize("h", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_lag_zero_is_one(self, h):
        assert increment_correlation(h, 0) == 1.0

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError):
            increment_correlation(0.5, -1)

    @pytest.mark.parametrize("h", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_hurst_outside_open_interval_rejected(self, h):
        with pytest.raises(ValueError):
            increment_correlation(h, 1)

    @pytest.mark.parametrize("h", [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95])
    def test_row_invariants(self, h):
        row = build_correlation(h, 64)
        assert row[0] == 1.0
        assert np.all(np.abs(row) <= 1.0 + 1e-15)
        if h == 0.5:
            assert row[1] == 0.0
        else:
            assert np.sign(row[1]) == np.sign(h - 0.5)


class TestAsymptoticCorrelation:
    def test_vanishes_at_half(self):
        assert power_law(0.5, 10) == 0.0 == increment_correlation(0.5, 10)

    def test_persistent_decay(self):
        assert increment_correlation(0.7, 100) == pytest.approx(ASYM_07_LAG100, abs=1e-5)

    def test_antipersistent_decay(self):
        assert increment_correlation(0.3, 100) == pytest.approx(ASYM_03_LAG100, abs=1e-6)

    @pytest.mark.parametrize("h", [0.2, 0.7, 0.9])
    @pytest.mark.parametrize("lag", [50, 100, 500, 1000])
    def test_agrees_with_exact_form_at_large_lags(self, h, lag):
        exact = increment_correlation(h, lag)
        approx = power_law(h, lag)
        assert abs(exact - approx) / abs(approx) < 0.05

    def test_exact_zero_at_half_for_all_lags(self):
        for lag in range(1, 201):
            assert increment_correlation(0.5, lag) == 0.0


class TestBuildCorrelation:
    def test_identity_row_at_half(self):
        corr = build_correlation(0.5, 4)
        assert np.array_equal(corr, [1.0, 0.0, 0.0, 0.0])

    def test_persistent_row(self):
        corr = build_correlation(0.7, 3)
        assert corr[0] == 1.0
        assert corr[1] == pytest.approx(RHO_07_LAG1, abs=1e-5)
        assert corr[2] == pytest.approx(RHO_07_LAG2, abs=1e-5)

    def test_antipersistent_row(self):
        corr = build_correlation(0.3, 2)
        assert corr[1] == pytest.approx(RHO_03_LAG1, abs=1e-5)

    def test_too_small_rejected(self):
        with pytest.raises(InvalidSizeError):
            build_correlation(0.5, 1)

    def test_matches_scalar_correlation(self):
        row = build_correlation(0.35, 32)
        for lag in (0, 1, 5, 31):
            assert row[lag] == pytest.approx(increment_correlation(0.35, lag), abs=1e-14)


class TestToeplitzQuadraticForm:
    def test_identity_matrix_gives_norm(self):
        corr = build_correlation(0.5, 3)
        assert quadratic_form_logdet(corr, np.array([1.0, 2.0, 2.0]))[0] == pytest.approx(
            9.0, abs=1e-12
        )

    def test_zero_vector_gives_zero(self):
        corr = build_correlation(0.7, 16)
        assert quadratic_form_logdet(corr, np.zeros(16))[0] == 0.0

    def test_two_by_two_closed_form(self):
        corr = build_correlation(0.7, 2)
        assert quadratic_form_logdet(corr, np.array([1.0, 1.0]))[0] == pytest.approx(
            QF_2X2, abs=1e-4
        )

    @pytest.mark.parametrize("h", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("m", [16, 128, 512])
    def test_levinson_matches_dense_cholesky(self, h, m):
        rng = np.random.default_rng(7 * m + int(100 * h))
        corr = build_correlation(h, m)
        z = rng.standard_normal(m)
        fast = quadratic_form_logdet(corr, z)[0]
        dense = dense_quadratic_form(corr, z)
        assert abs(fast - dense) / dense < 1e-8

    @pytest.mark.parametrize("h", np.round(np.arange(0.05, 0.96, 0.05), 2).tolist())
    def test_positive_definite_without_jitter(self, h):
        m = 2048
        corr = build_correlation(h, m)
        z = np.random.default_rng(int(h * 100)).standard_normal(m)
        # Every prediction variance stayed positive, so PD held.
        x, _ = _levinson(corr, z)
        assert np.all(np.isfinite(x))
        assert float(z @ x) > 0.0

    def test_length_mismatch_rejected(self):
        corr = build_correlation(0.5, 4)
        with pytest.raises(ValueError):
            quadratic_form_logdet(corr, np.ones(3))

    def test_indefinite_matrix_raises_after_jitter(self):
        with pytest.raises(IllConditionedError):
            quadratic_form_logdet(np.array([1.0, 2.0, 0.5]), np.ones(3))

    def test_singular_matrix_raises(self):
        # [[1, 1], [1, 1]] has prediction variance 0 at order 1.
        with pytest.raises(IllConditionedError, match="prediction variance 0.0 at order 1"):
            quadratic_form_logdet(np.array([1.0, 1.0]), np.array([1.0, -1.0]))

    def test_result_nonnegative(self):
        rng = np.random.default_rng(11)
        corr = build_correlation(0.9, 64)
        for _ in range(5):
            assert quadratic_form_logdet(corr, rng.standard_normal(64))[0] >= 0.0


class TestLevinsonSolve:
    @pytest.mark.parametrize("m", [1, 2, 3, 17])
    def test_solves_toeplitz_system(self, m):
        rng = np.random.default_rng(m)
        corr = build_correlation(0.6, max(m, 2))
        row = corr[:m]
        idx = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
        b = rng.standard_normal(m)
        x = _levinson(row, b)[0]
        assert np.allclose(row[idx] @ x, b, atol=1e-10)

    def test_scaled_diagonal(self):
        # A non-unit diagonal is normalized internally and scaled back.
        row = np.array([4.0, 1.0, 0.4])
        b = np.array([1.0, 2.0, 3.0])
        idx = np.abs(np.arange(3)[:, None] - np.arange(3)[None, :])
        assert np.allclose(row[idx] @ _levinson(row, b)[0], b, atol=1e-12)
