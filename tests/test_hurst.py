import numpy as np
import pytest

from fbmpower.errors import (
    ConfigurationError,
    DegenerateSeriesError,
    InvalidSizeError,
)
from fbmpower.hurst import DEFAULT_Q_CONSTANT, _score, estimate_hurst
from fbmpower.simulate import simulate_fbm


def q_statistic(z, h, q_constant=DEFAULT_Q_CONSTANT):
    """The q score of one exponent, through the grid's scoring kernel."""
    return _score(z, float(np.mean(np.abs(z))), h, q_constant)[0]


class TestQStatistic:
    def test_white_noise_scores_one_at_half(self):
        z = np.random.default_rng(5).standard_normal(4096)
        assert q_statistic(z, 0.5) == pytest.approx(1.0, abs=0.05)

    def test_scale_invariant(self):
        z = np.random.default_rng(1).standard_normal(256)
        q = q_statistic(z, 0.35)
        assert q_statistic(z * 10.0, 0.35) == pytest.approx(q, rel=1e-12)

    def test_monte_carlo_separates_true_from_wrong_exponent(self):
        q_true, q_wrong = [], []
        for s in range(20):
            z = np.diff(simulate_fbm(0.3, 4096, 600 + s, "circulant").values)
            q_true.append(q_statistic(z, 0.3))
            q_wrong.append(q_statistic(z, 0.8))
        assert 0.9 <= np.median(q_true) <= 1.1
        assert not 0.9 <= np.median(q_wrong) <= 1.1

    def test_paper_constant_scales_score(self):
        z = np.random.default_rng(2).standard_normal(128)
        exact = q_statistic(z, 0.4)
        rounded = q_statistic(z, 0.4, q_constant=0.8)
        assert rounded == pytest.approx(exact * 0.8 / DEFAULT_Q_CONSTANT, rel=1e-12)


class TestEstimateHurst:
    def test_white_noise_estimates_half(self):
        for seed in (0, 1, 2):
            z = np.random.default_rng(seed).standard_normal(2048)
            assert abs(estimate_hurst(z).h_hat - 0.5) <= 0.05

    @pytest.mark.parametrize("h_true", [0.3, 0.7])
    def test_recovers_simulated_exponent(self, h_true):
        errs = [
            abs(estimate_hurst(np.diff(simulate_fbm(h_true, 1024, 300 + s, "circulant").values))
                .h_hat - h_true)
            for s in range(10)
        ]
        assert np.median(errs) <= 0.05
        assert max(errs) <= 0.1

    def test_default_grid_has_19_points(self):
        z = np.random.default_rng(3).standard_normal(64)
        est = estimate_hurst(z)
        hs = [h for h, _ in est.grid]
        assert len(hs) == 19
        assert hs[0] == pytest.approx(0.05)
        assert hs[-1] == pytest.approx(0.95)
        assert all(b > a for a, b in zip(hs, hs[1:]))
        assert all(0.0 < h < 1.0 for h in hs)

    def test_custom_grid_respected(self):
        z = np.random.default_rng(4).standard_normal(64)
        est = estimate_hurst(z, grid_start=0.2, grid_stop=0.6, grid_step=0.1)
        assert [round(h, 2) for h, _ in est.grid] == [0.2, 0.3, 0.4, 0.5, 0.6]

    def test_estimate_is_grid_member(self):
        z = np.random.default_rng(6).standard_normal(256)
        est = estimate_hurst(z)
        hs = [h for h, _ in est.grid]
        assert est.h_hat in hs
        assert est.q_at_hat == dict(est.grid)[est.h_hat]

    def test_record_fields(self):
        z = np.random.default_rng(7).standard_normal(256)
        est = estimate_hurst(z)
        assert est.m == 256
        assert est.r1 == pytest.approx(np.mean(np.abs(z)), rel=1e-12)
        assert est.r1 > 0.0

    def test_deterministic(self):
        z = np.random.default_rng(8).standard_normal(256)
        assert estimate_hurst(z) == estimate_hurst(z)

    @pytest.mark.parametrize("scale", [1e-160, 1e-3, 1e3])
    def test_scale_invariant_estimate(self, scale):
        z = np.random.default_rng(9).standard_normal(256)
        base = estimate_hurst(z)
        scaled = estimate_hurst(z * scale)
        assert scaled.h_hat == base.h_hat
        assert scaled.q_at_hat == pytest.approx(base.q_at_hat, rel=1e-10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(grid_start=0.0),
            dict(grid_stop=1.0),
            dict(grid_start=0.6, grid_stop=0.4),
            dict(grid_step=0.005),
            dict(grid_step=0.2),
        ],
    )
    def test_bad_grid_rejected(self, kwargs):
        z = np.random.default_rng(10).standard_normal(64)
        with pytest.raises(ConfigurationError):
            estimate_hurst(z, **kwargs)

    def test_bad_q_constant_rejected(self):
        z = np.random.default_rng(10).standard_normal(64)
        with pytest.raises(ConfigurationError):
            estimate_hurst(z, q_constant=-1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            estimate_hurst(np.zeros(64))

    def test_short_input_rejected(self):
        with pytest.raises(InvalidSizeError):
            estimate_hurst(np.ones(4))
