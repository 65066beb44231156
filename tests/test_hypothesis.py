import math

import numpy as np
import pytest

import fbmpower.hypothesis as hyp
from fbmpower.errors import ConfigurationError, DegenerateSeriesError, InvalidSizeError
from fbmpower.simulate import _fgn_circulant, simulate_fbm

# Frozen from the quantile derivation with the exact normal quantile
# z(0.95) = 1.6448536269514722.
BETA1_PAPER_C1_H04 = 2.9581908081026245  # 4.95 / sqrt(2.8)
BETA1_DERIVED_C1_H04 = 2.948964169649761  # 3 z / sqrt(2.8)
BETA2_DERIVED_C1 = 4.058315181143116  # 1.5 z^2


def standardized_increments(h, m, seed):
    z = np.diff(simulate_fbm(h, m, seed, "circulant").values)
    return z / np.sqrt(np.mean(z * z))


class TestPartialSums:
    def test_alternating_example(self):
        assert np.array_equal(hyp._partial_sums(np.array([1.0, -1.0, 1.0])), [0.0, 1.0, 0.0])

    def test_zeros(self):
        assert np.array_equal(hyp._partial_sums(np.zeros(4)), np.zeros(4))

    def test_two_elements(self):
        assert np.array_equal(hyp._partial_sums(np.array([2.0, 3.0])), [0.0, 2.0])

    def test_telescoping(self):
        z = np.random.default_rng(0).standard_normal(64)
        v = hyp._partial_sums(z)
        assert np.allclose(np.diff(v), z[:-1], atol=1e-12)
        assert v[0] == 0.0


class TestWeightedVariationStats:
    def test_stat_a_hand_example(self):
        z = np.array([1.0, -1.0, 1.0])
        assert hyp._stat_A(z, hyp._partial_sums(z)) == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_stat_a_zeros(self):
        z = np.zeros(8)
        assert hyp._stat_A(z, hyp._partial_sums(z)) == 0.0

    def test_stat_b_hand_example(self):
        z = np.array([1.0, -1.0, 1.0])
        expected = -(3.0**-1.5)
        assert hyp._stat_B(z, hyp._partial_sums(z), 0.5) == pytest.approx(expected, abs=1e-12)

    def test_stat_b_zeros(self):
        z = np.zeros(8)
        assert hyp._stat_B(z, hyp._partial_sums(z), 0.3) == 0.0

    def test_stat_d_hand_example(self):
        z = np.array([1.0, -1.0, 1.0])
        expected = -(3.0**-1.5)
        assert hyp._stat_D(z, hyp._partial_sums(z), 0.75) == pytest.approx(expected, abs=1e-12)

    def test_stat_d_zeros(self):
        z = np.zeros(8)
        assert hyp._stat_D(z, hyp._partial_sums(z), 0.7) == 0.0

    def test_stat_a_converges_to_limit(self):
        vals = []
        for s in range(50):
            z = standardized_increments(0.3, 8192, 30_000 + s)
            vals.append(hyp._stat_A(z, hyp._partial_sums(z)))
        assert np.mean(vals) == pytest.approx(-1.5, abs=0.25)


class TestThresholds:
    def test_paper_constants(self):
        beta1, beta2 = hyp._thresholds(1.0, 0.4, 0.1, True)
        assert beta1 == pytest.approx(BETA1_PAPER_C1_H04, abs=1e-3)
        assert beta2 == pytest.approx(4.08, abs=1e-12)

    def test_derived_constants(self):
        beta1, beta2 = hyp._thresholds(1.0, 0.4, 0.1, False)
        assert beta1 == pytest.approx(BETA1_DERIVED_C1_H04, abs=1e-6)
        assert beta2 == pytest.approx(BETA2_DERIVED_C1, abs=1e-6)

    def test_derived_coefficients_close_to_paper(self):
        z = 1.6448536269514722
        assert abs(3 * z - 4.95) / 4.95 < 0.007
        assert abs(1.5 * z * z - 4.08) / 4.08 < 0.007

    def test_scaling_in_c(self):
        b1, b2 = hyp._thresholds(1.0, 0.3, 0.1, False)
        b1c, b2c = hyp._thresholds(4.0, 0.3, 0.1, False)
        assert b1c == pytest.approx(b1 * 4.0**2.5, rel=1e-12)
        assert b2c == pytest.approx(b2 * 16.0, rel=1e-12)

    def test_beta2_independent_of_h(self):
        beta2_low_h = hyp._thresholds(1.0, 0.2, 0.1, False)[1]
        assert beta2_low_h == hyp._thresholds(1.0, 0.9, 0.1, False)[1]


class TestTableFixtures:
    """Verdict logic on rows transcribed from legacy analysis tables."""

    def test_bank_row_accepted(self):
        delta = abs(-1.58 - -1.57) / 1.57
        verdict = hyp._verdict(0.4, delta, 0.1, 0.22, 2.98)
        assert verdict == "accepted"

    def test_theater_row_rejected_by_stat_b(self):
        delta = abs(-1.59 - -1.5) / 1.5
        verdict = hyp._verdict(0.1, delta, 0.1, 3.07, 2.05)
        assert delta < 0.1
        assert verdict == "rejected"

    def test_textile_row_rejected_by_deviation(self):
        delta = abs(398.8 - -1.5) / 1.5
        verdict = hyp._verdict(0.4, delta, 0.1, -2.125, 2.95)
        assert verdict == "rejected"


class TestTestHypothesis:
    def test_antipersistent_branch_fields(self):
        z = standardized_increments(0.3, 1024, 77)
        stats = hyp.test_hypothesis(z, 0.3)
        assert stats.branch == hyp.ANTIPERSISTENT_BRANCH
        assert stats.b_n is not None and stats.beta1 is not None
        assert stats.d_n_stat is None and stats.beta2 is None
        assert stats.a_limit == pytest.approx(-1.5 * stats.c**2, rel=1e-12)
        assert stats.sigma == pytest.approx((2 * 0.3 + 2) ** -0.5, rel=1e-12)

    def test_persistent_branch_fields(self):
        z = standardized_increments(0.7, 1024, 78)
        stats = hyp.test_hypothesis(z, 0.7)
        assert stats.branch == hyp.PERSISTENT_BRANCH
        assert stats.d_n_stat is not None and stats.beta2 is not None
        assert stats.b_n is None and stats.beta1 is None

    def test_boundary_takes_antipersistent_branch(self):
        z = np.random.default_rng(79).standard_normal(1024)
        stats = hyp.test_hypothesis(z, 0.5)
        assert stats.branch == hyp.ANTIPERSISTENT_BRANCH

    def test_delta_definition(self):
        z = standardized_increments(0.3, 512, 80)
        stats = hyp.test_hypothesis(z, 0.3)
        assert stats.delta == pytest.approx(
            abs(stats.a_n - stats.a_limit) / abs(stats.a_limit), rel=1e-12
        )

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            hyp.test_hypothesis(np.zeros(16), 0.4)

    def test_short_input_rejected(self):
        with pytest.raises(InvalidSizeError):
            hyp.test_hypothesis(np.ones(4), 0.4)

    def test_h_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            hyp.test_hypothesis(np.ones(16), 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(beta0=-1.0), dict(alpha=2.0, paper_constants=True), dict(beta0=math.inf),
         dict(alpha=1.5), dict(alpha=0.05, paper_constants=True)],
    )
    def test_bad_settings_rejected(self, kwargs):
        z = np.random.default_rng(3).standard_normal(64)
        with pytest.raises(ConfigurationError):
            hyp.test_hypothesis(z, 0.3, **kwargs)

    def test_underflowing_scale_keeps_its_verdict(self):
        # At x 1e-70, c is about 1e-140 and c^2.5 underflows: beta1 and stat_B
        # read 0.0 at the input's scale, and at x 1e-100 c^2 underflows too.
        # The verdict is decided at a power-of-two scale where neither does.
        z = _fgn_circulant(0.3, 1024, np.random.default_rng(3))
        base = hyp.test_hypothesis(z, 0.3)
        assert base.verdict == "accepted"
        for scale in (1e-60, 1e-70, 1e-100):
            stats = hyp.test_hypothesis(z * scale, 0.3)
            assert stats.verdict == "accepted"
            assert stats.delta == pytest.approx(base.delta, rel=1e-10)
        assert stats.beta1 == 0.0 and stats.b_n == 0.0 and stats.a_limit == 0.0

    def test_statistics_near_the_top_of_the_float_range(self):
        # At x 1e61, sum(v^2 z^3) overflows at the input's scale, while b_n
        # and beta1 (about 1e305) are finite there.
        z = _fgn_circulant(0.7, 512, np.random.default_rng(3))
        base = hyp.test_hypothesis(z, 0.3)
        stats = hyp.test_hypothesis(z * 1e61, 0.3)
        assert stats.b_n == pytest.approx(1e61**5 * base.b_n, rel=1e-10)
        assert stats.beta1 == pytest.approx(1e61**5 * base.beta1, rel=1e-10)
        assert stats.verdict == base.verdict == "rejected"

    @pytest.mark.parametrize("h, scale", [(0.3, 1e62), (0.7, 1e78)],
                             ids=["antipersistent", "persistent"])
    def test_overflowing_statistics_rejected(self, h, scale):
        # At x 1e62, stat_B and beta1 (degree 5) leave the float range at the
        # input's scale; at x 1e78, stat_D and beta2 (degree 4) do.
        z = _fgn_circulant(h, 512, np.random.default_rng(3))
        with pytest.raises(DegenerateSeriesError, match="overflow the float range"):
            hyp.test_hypothesis(z * scale, h)

    def test_scale_equivariance(self):
        z = standardized_increments(0.3, 512, 81)
        base = hyp.test_hypothesis(z, 0.3)
        for a in (1e-3, 1e3):
            scaled = hyp.test_hypothesis(a * z, 0.3)
            assert scaled.c == pytest.approx(a**2 * base.c, rel=1e-10)
            assert scaled.a_n == pytest.approx(a**4 * base.a_n, rel=1e-10)
            assert scaled.b_n == pytest.approx(a**5 * base.b_n, rel=1e-10)
            assert scaled.delta == pytest.approx(base.delta, rel=1e-10)
            assert scaled.verdict == base.verdict

    def test_scale_equivariance_persistent(self):
        z = standardized_increments(0.7, 512, 82)
        base = hyp.test_hypothesis(z, 0.7)
        scaled = hyp.test_hypothesis(1e3 * z, 0.7)
        assert scaled.d_n_stat == pytest.approx(1e12 * base.d_n_stat, rel=1e-10)
        assert scaled.verdict == base.verdict

    def test_delta_flag_on_persistent_branch(self):
        # stat_A drifts far from its antipersistent limit for H > 0.5, so
        # enforcing the deviation check there flips the verdict.
        for seed in range(5):
            z = standardized_increments(0.7, 2048, 8300 + seed)
            relaxed = hyp.test_hypothesis(z, 0.7)
            if relaxed.verdict == "accepted" and relaxed.delta > 0.1:
                strict = hyp.test_hypothesis(z, 0.7, require_delta_on_persistent=True)
                assert strict.verdict == "rejected"
                return
        pytest.fail("no seed produced an accepted persistent series with large delta")

    def test_paper_constants_flow_through(self):
        z = standardized_increments(0.3, 512, 83)
        stats = hyp.test_hypothesis(z, 0.3, paper_constants=True)
        expected = 4.95 * stats.c**2.5 / math.sqrt(2.6)
        assert stats.beta1 == pytest.approx(expected, rel=1e-12)

    def test_type_one_error_of_stat_b_near_alpha(self):
        # With the deviation check disabled (beta0 is the largest float, and
        # delta is finite), the |stat_B| < beta1 rule alone should reject
        # true fBm at roughly the significance level.
        rejections = 0
        n_seeds = 200
        for s in range(n_seeds):
            z = standardized_increments(0.3, 8192, 50_000 + s)
            stats = hyp.test_hypothesis(z, 0.3, beta0=float(np.finfo(float).max))
            rejections += stats.verdict == "rejected"
        assert rejections / n_seeds == pytest.approx(0.1, abs=0.05)


class TestClassify:
    def test_accepted_antipersistent(self):
        labels = hyp.classify(0.4, "accepted")
        assert labels == hyp.Classification(
            persistence="antipersistent", noise="pink", memory="short", forecastable=False
        )

    def test_accepted_persistent(self):
        labels = hyp.classify(0.7, "accepted")
        assert labels == hyp.Classification(
            persistence="persistent", noise="black", memory="long", forecastable=True
        )

    def test_rejected_persistent_not_forecastable(self):
        assert hyp.classify(0.7, "rejected").forecastable is False

    def test_independent_boundary(self):
        labels = hyp.classify(0.5, "accepted")
        assert labels.memory == "independent"
        assert labels.noise == "white"
        assert labels.forecastable is False

    def test_bad_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            hyp.classify(0.0, "accepted")
        with pytest.raises(ConfigurationError):
            hyp.classify(0.4, "maybe")
