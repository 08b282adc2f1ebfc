import math

import numpy as np
import pytest

from asr_inconsistency import mean_ci, pearson, stats, two_sample_t
from asr_inconsistency.errors import StatisticsError
from asr_inconsistency.stats import _t_ppf, _t_sf

import oracles

# Student-t quantile, 97.5%, 2 dof: (2q-1)/sqrt(2q(1-q)) at q=0.975
T_975_DF2 = 4.302652729749464


class TestPearson:
    def test_perfect_linear(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_antilinear(self):
        x = [0.5, 1.5, 2.5, 4.0]
        assert pearson(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_direct_formula(self):
        x = [0.31, -1.2, 2.4, 0.07, 5.5]
        y = [1.9, 0.4, -3.3, 2.2, 0.11]
        assert pearson(x, y) == pytest.approx(oracles.pearson_direct(x, y), abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(41)
        x = list(rng.normal(size=20))
        y = list(rng.normal(size=20))
        base = pearson(x, y)
        for a, b in [(2.0, 3.0), (0.001, -7.0), (1e6, 0.0)]:
            assert abs(pearson([a * v + b for v in x], y) - base) < 1e-12
            assert abs(pearson(x, [a * v + b for v in y]) - base) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(StatisticsError, match="3 vs 2 points"):
            pearson([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_too_few_points(self):
        with pytest.raises(StatisticsError, match="need at least 3 points"):
            pearson([1.0, 2.0], [1.0, 2.0])

    def test_degenerate_variance(self):
        with pytest.raises(StatisticsError, match="zero variance"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        # NaN used to pass the clamp to [-1, 1] as a perfect correlation
        with pytest.raises(StatisticsError, match="NaN or infinite"):
            pearson([1.0, 2.0, bad, 4.0], [1.0, 3.0, 2.0, 5.0])
        with pytest.raises(StatisticsError, match="NaN or infinite"):
            pearson([1.0, 3.0, 2.0, 5.0], [1.0, 2.0, bad, 4.0])


class TestMeanCi:
    def test_three_value_interval_uses_t_quantile(self):
        values = [-0.89, -0.90, -0.91]
        mean, half = mean_ci(values)
        s = np.std(values, ddof=1)
        assert mean == pytest.approx(-0.90, abs=1e-12)
        assert half == pytest.approx(T_975_DF2 * s / math.sqrt(3), rel=1e-12)

    def test_constant_values_have_zero_halfwidth(self):
        mean, half = mean_ci([0.4, 0.4, 0.4, 0.4])
        assert mean == 0.4
        assert half == 0.0

    def test_single_value_rejected(self):
        with pytest.raises(StatisticsError, match="at least 2 values for an interval"):
            mean_ci([1.0])

    def test_level_is_configurable(self):
        values = [1.0, 2.0, 3.0, 4.0]
        _, narrow = mean_ci(values, level=0.5)
        _, wide = mean_ci(values, level=0.99)
        assert narrow < wide


class TestTwoSampleT:
    def test_identical_samples(self):
        t, p = two_sample_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert t == 0.0
        assert p == pytest.approx(1.0)

    def test_constant_disjoint_samples(self):
        t, p = two_sample_t([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert p == pytest.approx(0.0, abs=1e-9)
        assert t < 0

    def test_matches_numeric_cdf_oracle(self):
        a = [-0.89, -0.91, -0.90]
        b = [-0.83, -0.86, -0.82]
        t, p = two_sample_t(a, b)
        t_ref, p_ref = oracles.welch_oracle(a, b)
        assert t == pytest.approx(t_ref, abs=1e-12)
        assert p == pytest.approx(p_ref, abs=1e-6)

    def test_matches_oracle_on_random_samples(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            a = list(rng.normal(0.0, 1.0, size=int(rng.integers(3, 8))))
            b = list(rng.normal(0.5, 2.0, size=int(rng.integers(3, 8))))
            t, p = two_sample_t(a, b)
            t_ref, p_ref = oracles.welch_oracle(a, b)
            assert t == pytest.approx(t_ref, abs=1e-10)
            assert p == pytest.approx(p_ref, abs=1e-6)

    def test_too_few_values(self):
        with pytest.raises(StatisticsError, match="at least 2 values per sample"):
            two_sample_t([1.0], [1.0, 2.0])


CLOSED_FORM_QS = [0.6, 0.75, 0.9, 0.975, 0.995]
# integer dof plus non-integer Welch dof, up to 1e4
ROUND_TRIP_DFS = [1, 2, 3, 4, 5, 7, 10, 29, 60, 1000, 10000,
                  1.37, 2.5, 3.91, 17.3, 250.5, 9876.5]


class TestStudentT:
    @pytest.mark.parametrize("q", CLOSED_FORM_QS)
    def test_ppf_cauchy_closed_form(self, q):
        assert _t_ppf(q, 1) == pytest.approx(math.tan(math.pi * (q - 0.5)), rel=1e-12)

    @pytest.mark.parametrize("q", CLOSED_FORM_QS)
    def test_ppf_two_dof_closed_form(self, q):
        expected = (2 * q - 1) / math.sqrt(2 * q * (1 - q))
        assert _t_ppf(q, 2) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("t", [1e-8, 1e-3, 0.3, 1.0, 2.5, 10.0, 1e3, 1e6])
    def test_sf_closed_forms(self, t):
        # df = 1: atan(1/t) / pi; df = 2: 1 / (r (r + t)) with r = sqrt(2 + t^2)
        r = math.sqrt(2 + t * t)
        assert _t_sf(t, 1) == pytest.approx(math.atan2(1, t) / math.pi, rel=1e-13)
        assert _t_sf(t, 2) == pytest.approx(1 / (r * (r + t)), rel=1e-13)

    @pytest.mark.parametrize("df", ROUND_TRIP_DFS)
    def test_sf_inverts_ppf(self, df):
        for q in [0.5000001, 0.51, 0.6, 0.75, 0.9, 0.975, 0.995, 0.9999, 1 - 1e-9]:
            t = _t_ppf(q, df)
            assert t > 0
            assert _t_sf(t, df) == pytest.approx(1 - q, rel=1e-12)

    @pytest.mark.parametrize("df", ROUND_TRIP_DFS)
    def test_ppf_is_antisymmetric(self, df):
        for q in [0.6, 0.975]:
            assert _t_ppf(1 - q, df) == pytest.approx(-_t_ppf(q, df), rel=1e-12)
        assert _t_ppf(0.5, df) == 0.0

    @pytest.mark.parametrize("df", ROUND_TRIP_DFS)
    def test_sf_is_half_at_zero_and_decreasing(self, df):
        assert _t_sf(0.0, df) == 0.5
        ts = [0.0, 1e-6, 0.01, 0.1, 0.5, 1, 2, 3, 5, 10, 30, 100, 1e3]
        tails = [_t_sf(t, df) for t in ts]
        # strictly falling until the tail underflows to 0 at large dof
        assert all(a > b or a == b == 0.0 for a, b in zip(tails, tails[1:]))
        assert all(_t_sf(-t, df) == pytest.approx(1 - tail, rel=1e-12)
                   for t, tail in zip(ts, tails))

    def test_tiny_tails_are_finite_and_non_negative(self):
        for df in [1, 2, 4, 30, 1000]:
            tail = _t_sf(1e6, df)
            assert math.isfinite(tail) and tail >= 0.0
        t, p = two_sample_t([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert t == -1e6
        assert math.isfinite(p) and 0.0 <= p < 1e-20

    def test_ppf_rejects_levels_outside_unit_interval(self):
        for q in [0.0, 1.0, -0.5, 1.5, math.nan]:
            with pytest.raises(ValueError):
                _t_ppf(q, 3)

    def test_nan_input_raises_non_convergence(self):
        with pytest.raises(StatisticsError, match="did not converge"):
            _t_sf(math.nan, 3)
        with pytest.raises(StatisticsError, match="did not converge"):
            _t_sf(1.0, math.nan)

    def test_iteration_limit_raises(self, monkeypatch):
        monkeypatch.setattr(stats, "_CF_MAX_ITER", 2)
        with pytest.raises(StatisticsError, match="did not converge"):
            _t_sf(2.0, 10)
        with pytest.raises(StatisticsError, match="did not converge"):
            mean_ci([1.0, 2.0, 4.0, 8.0])
