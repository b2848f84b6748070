"""Marginal model tests: mixture null, empirical CDF, p-values, hypothesis table."""

import json

import numpy as np
import pytest

from twostage_fdr import copula as cp
from twostage_fdr import marginal as mg


class TestMixtureCdf:
    def test_standard_normal_center(self):
        assert mg.mixture_cdf(mg.STANDARD_NORMAL, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_real_data_null_at_zero(self):
        # 0.615*0.5 + 0.385*Phi(0.002/0.205), evaluated independently
        from scipy.special import ndtr
        expected = 0.615 * 0.5 + 0.385 * ndtr(0.002 / 0.205)
        got = mg.mixture_cdf(mg.REAL_DATA_NULL, 0.0)
        assert got == pytest.approx(expected, abs=1e-14)
        assert got == pytest.approx(0.50150, abs=5e-5)

    def test_limits(self):
        assert mg.mixture_cdf(mg.REAL_DATA_NULL, 1e9) == pytest.approx(1.0, abs=1e-15)
        assert mg.mixture_cdf(mg.REAL_DATA_NULL, -1e9) == pytest.approx(0.0, abs=1e-15)

    def test_nondecreasing_on_grid(self):
        grid = np.linspace(-3.0, 3.0, 10_000)
        vals = mg.mixture_cdf(mg.REAL_DATA_NULL, grid)
        assert np.all(np.diff(vals) >= 0.0)

    def test_mixture_validation(self):
        with pytest.raises(ValueError):
            mg.GaussianMixture((0.5, 0.6), (0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            mg.GaussianMixture((1.0,), (0.0,), (0.0,))
        with pytest.raises(ValueError):
            mg.GaussianMixture((0.5, 0.5), (0.0,), (1.0, 1.0))


def mixture_quantile(m, q):
    """Mixture quantile by the shared bisection helper on a +-12 sd bracket."""
    span = max(abs(mu) + 12.0 * sd for mu, sd in zip(m.means, m.sds))
    return cp.bisect_increasing(lambda b: mg.mixture_cdf(m, b), q, -span, span, 200)


class TestMixtureQuantile:
    def test_symmetry(self):
        assert mixture_quantile(mg.STANDARD_NORMAL, 0.5) == pytest.approx(0.0, abs=1e-10)

    def test_standard_normal_0975(self):
        assert mixture_quantile(mg.STANDARD_NORMAL, 0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        q = rng.uniform(0.001, 0.999, 100)
        beta = mixture_quantile(mg.REAL_DATA_NULL, q)
        np.testing.assert_allclose(mg.mixture_cdf(mg.REAL_DATA_NULL, beta), q, atol=1e-9)


class TestPValues:
    def test_center_gives_one(self):
        assert mg.p_value(mg.STANDARD_NORMAL, 0.0, "two_sided") == pytest.approx(1.0, abs=1e-15)

    def test_quantile_example(self):
        assert mg.p_value(mg.STANDARD_NORMAL, 1.959964, "two_sided") == pytest.approx(0.05, abs=1e-6)

    def test_tail_limit(self):
        assert mg.p_value(mg.REAL_DATA_NULL, 1e9, "two_sided") == pytest.approx(0.0, abs=1e-12)
        assert mg.p_value(mg.REAL_DATA_NULL, -1e9, "two_sided") == pytest.approx(0.0, abs=1e-12)

    def test_one_sided_variants(self):
        f = mg.mixture_cdf(mg.STANDARD_NORMAL, 0.7)
        assert mg.p_value(mg.STANDARD_NORMAL, 0.7, "left") == pytest.approx(f)
        assert mg.p_value(mg.STANDARD_NORMAL, 0.7, "right") == pytest.approx(1.0 - f)
        with pytest.raises(ValueError):
            mg.p_value(mg.STANDARD_NORMAL, 0.7, "both")

    def test_uniform_under_null_draws(self):
        # draws from the null mixture push the two-sided p-value to U(0,1)
        rng = np.random.default_rng(5)
        n = 100_000
        null = mg.REAL_DATA_NULL
        comp = rng.choice(len(null.weights), size=n, p=null.weights)
        beta = rng.normal(np.asarray(null.means)[comp], np.asarray(null.sds)[comp])
        p = mg.p_value(null, beta, "two_sided")
        p_sorted = np.sort(p)
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - p_sorted), np.max(p_sorted - (i - 1) / n))
        assert ks < 1.63 / np.sqrt(n)


class TestEmpiricalCdf:
    def test_direct_count(self):
        cdf = mg.EmpiricalCdf(np.array([1.0, 2.0, 3.0, 4.0]))
        assert cdf(2.0) == pytest.approx(0.5)
        assert mg.empirical_p1(cdf, 2.0) == pytest.approx(0.5)

    def test_clamping(self):
        cdf = mg.EmpiricalCdf(np.array([1.0, 2.0, 3.0, 4.0]))
        assert mg.empirical_p1(cdf, 0.0) == pytest.approx(1.0 / 5.0)
        assert mg.empirical_p1(cdf, 4.0) == pytest.approx(4.0 / 5.0)
        assert cdf(0.0) == 0.0
        assert cdf(4.0) == 1.0

    def test_tie_handling_right_continuous(self):
        cdf = mg.EmpiricalCdf(np.array([1.0, 1.0, 2.0]))
        assert cdf(1.0) == pytest.approx(2.0 / 3.0)

    def test_rank_property(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=500)
        cdf = mg.EmpiricalCdf(y)
        ranks = np.sort(mg.empirical_p1(cdf, y))
        n = y.size
        expected = np.clip(np.arange(1, n + 1) / n, 1.0 / (n + 1), n / (n + 1.0))
        np.testing.assert_allclose(ranks, expected, atol=1e-12)


class TestBuildTable:
    def test_single_hypothesis(self):
        t = mg.build_table([0.0], [1.0], mg.STANDARD_NORMAL)
        assert t.p2[0] == pytest.approx(1.0)
        assert t.m == 1

    def test_rank_p1(self):
        t = mg.build_table([0.0, 0.1, 0.2], [1.0, 2.0, 3.0], mg.STANDARD_NORMAL)
        np.testing.assert_allclose(np.sort(t.p1), [1 / 3, 2 / 3, 3 / 4])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mg.build_table([0.0, 1.0], [1.0], mg.STANDARD_NORMAL)

    def test_column_shapes(self):
        with pytest.raises(ValueError, match="share the table length"):
            mg.HypothesisTable(np.zeros(2), np.zeros(3), np.full(3, 0.5), np.full(3, 0.5))
        with pytest.raises(ValueError, match="1-d"):
            mg.HypothesisTable(np.zeros((2, 2)), np.zeros((2, 2)), np.full((2, 2), 0.5),
                               np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="empty"):
            mg.HypothesisTable([], [], [], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["p1", "p2"])
    def test_non_finite_p_values_rejected(self, column, bad):
        cols = {"p1": np.array([0.2, 0.5, 0.8]), "p2": np.array([0.1, 0.4, 0.9])}
        cols[column][1] = bad
        with pytest.raises(ValueError, match=column):
            mg.HypothesisTable(np.zeros(3), np.zeros(3), cols["p1"], cols["p2"])

    def test_nan_beta_hat_rejected(self):
        with pytest.raises(ValueError, match="p2"):
            mg.build_table([0.3, np.nan], [1.0, 2.0], mg.STANDARD_NORMAL)


class TestMixtureJson:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "null.json"
        path.write_text('{"weights": [0.615, 0.385], "means": [0.0, -0.002], "sds": [0.063, 0.205]}')
        m = mg.mixture_from_json(str(path))
        assert m == mg.REAL_DATA_NULL

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            mg.mixture_from_json({"weights": [1.0], "means": [0.0], "sds": [1.0], "shape": 2})

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match=r"missing keys: \['means', 'sds'\]"):
            mg.mixture_from_json({"weights": [1.0]})

    @pytest.mark.parametrize("payload", [[1.0, 0.0, 1.0], "weights", 3.0, None])
    def test_non_object_rejected(self, tmp_path, payload):
        path = tmp_path / "null.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="must be an object"):
            mg.mixture_from_json(str(path))

    def test_scalar_values_rejected(self):
        with pytest.raises(ValueError, match="1-d"):
            mg.mixture_from_json({"weights": 1.0, "means": 0.0, "sds": 1.0})

    def test_object_values_rejected(self):
        with pytest.raises(ValueError, match="lists of numbers"):
            mg.mixture_from_json({"weights": {}, "means": [0.0], "sds": [1.0]})

    @pytest.mark.parametrize("key, values", [("weights", "[NaN, 0.5]"),
                                             ("means", "[Infinity, 0.0]"),
                                             ("sds", "[1.0, NaN]")])
    def test_non_finite_rejected(self, tmp_path, key, values):
        fields = {"weights": "[0.5, 0.5]", "means": "[0.0, 0.0]", "sds": "[1.0, 2.0]"}
        fields[key] = values
        path = tmp_path / "null.json"
        path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            mg.mixture_from_json(str(path))
