import numpy as np
import pytest

import fbmpower.simulate as sim
from fbmpower.correlation import increment_correlation
from fbmpower.errors import CirculantEmbeddingError
from fbmpower.gaussianize import GAUSSIAN_RATIO, kurtosis_ratio
from fbmpower.simulate import simulate_fbm

RHO_07_LAG1 = 0.3195079107728942
RHO_03_LAG1 = -0.242141716744801


def fbm_covariance(t, s, h):
    """E[B_H(t) B_H(s)] = 0.5 (t^2H + s^2H - |t-s|^2H)."""
    return 0.5 * (t ** (2.0 * h) + s ** (2.0 * h) - abs(t - s) ** (2.0 * h))


class TestFbmCovariance:
    """The covariance surface, the reference the increment correlation is checked against."""

    def test_zero_time_pins_process(self):
        for h in (0.1, 0.5, 0.9):
            assert fbm_covariance(0.0, 3.7, h) == 0.0

    def test_unit_variance_at_one(self):
        for h in (0.2, 0.5, 0.8):
            assert fbm_covariance(1.0, 1.0, h) == 1.0

    def test_wiener_covariance_is_min(self):
        assert fbm_covariance(1.0, 2.0, 0.5) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("h", [0.25, 0.5, 0.75])
    def test_consistent_with_increment_correlation(self, h):
        # Increment covariance from second differences of the covariance
        # surface on the integer grid, where increments have unit variance.
        for j, k in ((3, 7), (10, 11), (2, 20)):
            cov = (
                fbm_covariance(j, k, h)
                - fbm_covariance(j, k - 1, h)
                - fbm_covariance(j - 1, k, h)
                + fbm_covariance(j - 1, k - 1, h)
            )
            assert cov == pytest.approx(increment_correlation(h, abs(k - j)), abs=1e-9)


class TestSimulateFbm:
    @pytest.mark.parametrize("method", ["cholesky", "circulant"])
    def test_deterministic_per_seed(self, method):
        a = simulate_fbm(0.7, 256, 42, method)
        b = simulate_fbm(0.7, 256, 42, method)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("method", ["cholesky", "circulant"])
    def test_seed_changes_path(self, method):
        a = simulate_fbm(0.7, 256, 1, method)
        b = simulate_fbm(0.7, 256, 2, method)
        assert not np.array_equal(a.values, b.values)

    def test_path_shape_and_origin(self):
        path = simulate_fbm(0.3, 100, 0, "cholesky")
        assert path.values.shape == (101,)
        assert path.values[0] == 0.0
        assert path.increments.shape == (100,)
        assert np.allclose(np.cumsum(path.increments), path.values[1:])

    def test_times_grid(self):
        path = simulate_fbm(0.5, 4, 0, "cholesky")
        assert np.allclose(path.times, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_default_method_is_circulant(self):
        assert simulate_fbm(0.5, 64, 0).method == "circulant"
        with pytest.raises(ValueError):
            simulate_fbm(0.5, 64, 0, "auto")

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError):
            simulate_fbm(0.5, 1, 0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            simulate_fbm(0.5, 16, 0, "hosking")

    @pytest.mark.parametrize("method", ["cholesky", "circulant"])
    def test_wiener_increments_uncorrelated(self, method):
        incs = simulate_fbm(0.5, 1024, 42, method).increments
        r = np.corrcoef(incs[:-1], incs[1:])[0, 1]
        assert abs(r) < 0.1

    @pytest.mark.parametrize(
        "h,target", [(0.7, RHO_07_LAG1), (0.3, RHO_03_LAG1)]
    )
    @pytest.mark.parametrize("method", ["cholesky", "circulant"])
    def test_pooled_lag_one_correlation(self, h, target, method):
        incs = np.array(
            [simulate_fbm(h, 1024, s, method).increments for s in range(100)]
        )
        r = np.corrcoef(incs[:, :-1].ravel(), incs[:, 1:].ravel())[0, 1]
        assert r == pytest.approx(target, abs=0.04)

    @pytest.mark.parametrize("h", [0.3, 0.7])
    def test_unit_variance_at_time_one(self, h):
        ends = np.array(
            [simulate_fbm(h, 1024, s, "circulant").values[-1] for s in range(200)]
        )
        assert abs(ends.var() - 1.0) < 0.1

    @pytest.mark.parametrize("h", [0.3, 0.7])
    def test_self_similar_variance_scaling(self, h):
        n = 1024
        vals = np.array(
            [simulate_fbm(h, n, 500 + s, "circulant").values for s in range(500)]
        )
        for a in (0.25, 0.5):
            observed = vals[:, int(a * n)].var()
            expected = a ** (2 * h)
            assert abs(observed - expected) / expected < 0.10

    @pytest.mark.parametrize("method", ["cholesky", "circulant"])
    @pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
    def test_increments_pass_gaussian_ratio_check(self, method, h):
        incs = simulate_fbm(h, 2048, 9, method).increments
        assert abs(kurtosis_ratio(incs) - GAUSSIAN_RATIO) < 0.05

    def test_methods_agree_in_distribution(self):
        # Same-seed paths differ across methods, but second moments match.
        var_c = np.var(
            [simulate_fbm(0.6, 512, s, "cholesky").values[-1] for s in range(150)]
        )
        var_f = np.var(
            [simulate_fbm(0.6, 512, s, "circulant").values[-1] for s in range(150)]
        )
        assert abs(var_c - var_f) < 0.25

    def test_negative_embedding_eigenvalue_raises(self, monkeypatch):
        # fBm rows embed cleanly for every H, so force a bad row to check
        # the failure contract.
        def bad_row(h, m):
            row = np.zeros(m)
            row[0] = 1.0
            row[1] = 0.9
            return row

        monkeypatch.setattr(sim, "_correlation_row", bad_row)
        with pytest.raises(CirculantEmbeddingError):
            simulate_fbm(0.7, 4, 0, "circulant")
