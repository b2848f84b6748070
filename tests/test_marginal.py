"""Marginal model tests: mixture null, empirical CDF, p-values, hypothesis table."""

import json
import re
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.xfail(strict=True, reason="p_value forms 1 - F(beta), which cancels "
                       "in the upper tail")
    def test_upper_tail_matches_the_mirrored_lower_tail(self):
        # the standard normal is symmetric: beta and -beta have one two-sided
        # p-value, and the right tail at beta is the left tail at -beta
        beta = np.array([6.0, 8.3, 9.0])
        np.testing.assert_allclose(mg.p_value(mg.STANDARD_NORMAL, beta),
                                   mg.p_value(mg.STANDARD_NORMAL, -beta), rtol=1e-12)
        np.testing.assert_allclose(mg.p_value(mg.STANDARD_NORMAL, beta, "right"),
                                   mg.p_value(mg.STANDARD_NORMAL, -beta, "left"), rtol=1e-12)

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


def p1_of(ys):
    """p1 column that build_table assigns to the auxiliary values ys."""
    return mg.build_table(np.zeros(len(ys)), ys, mg.STANDARD_NORMAL).p1


class TestEmpiricalCdf:
    def test_direct_count(self):
        # H(2) = #{y_i <= 2} / 4
        assert p1_of([1.0, 2.0, 3.0, 4.0])[1] == pytest.approx(0.5)

    def test_clamping(self):
        # the largest value's H = 1 is clamped to n/(n+1); the smallest
        # value's H = 1/n already lies above the lower clamp 1/(n+1)
        p1 = p1_of([1.0, 2.0, 3.0, 4.0])
        assert p1[0] == pytest.approx(1.0 / 4.0)
        assert p1[3] == pytest.approx(4.0 / 5.0)
        assert p1_of([1.0, 1.0, 1.0, 1.0]).tolist() == [4.0 / 5.0] * 4
        assert p1_of([1.0]).tolist() == [1.0 / 2.0]

    def test_tie_handling_right_continuous(self):
        np.testing.assert_allclose(p1_of([1.0, 1.0, 2.0]), [2.0 / 3.0, 2.0 / 3.0, 3.0 / 4.0])

    def test_rank_property(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=500)
        ranks = np.sort(p1_of(y))
        n = y.size
        expected = np.clip(np.arange(1, n + 1) / n, 1.0 / (n + 1), n / (n + 1.0))
        np.testing.assert_allclose(ranks, expected, atol=1e-12)


# Seed oracle: the empirical-CDF class and clamp that build_table used before
# it computed p1 itself.
@dataclass(frozen=True)
class SeedEmpiricalCdf:
    sorted_values: np.ndarray

    def __post_init__(self):
        vals = np.sort(np.asarray(self.sorted_values, dtype=float))
        if vals.size < 1:
            raise ValueError("empirical CDF needs at least one value")
        if np.any(~np.isfinite(vals)):
            raise ValueError("empirical CDF values must be finite")
        object.__setattr__(self, "sorted_values", vals)

    @property
    def n(self) -> int:
        return self.sorted_values.size

    def __call__(self, y):
        counts = np.searchsorted(self.sorted_values, np.asarray(y, dtype=float), side="right")
        out = counts / self.n
        return float(out) if np.isscalar(y) else out


def seed_empirical_p1(cdf, y):
    n = cdf.n
    out = np.clip(cdf(y), 1.0 / (n + 1.0), n / (n + 1.0))
    return float(out) if np.isscalar(y) else out


aux_values = st.lists(
    st.one_of(st.floats(-1e6, 1e6), st.floats(-1.0, 1.0).map(lambda x: round(x, 2))),
    min_size=1, max_size=300,
)


@settings(max_examples=300, deadline=None)
@given(values=aux_values)
def test_p1_matches_seed_empirical_cdf(values):
    y = np.array(values)
    assert p1_of(y).tobytes() == seed_empirical_p1(SeedEmpiricalCdf(y), y).tobytes()


@settings(max_examples=300, deadline=None)
@given(values=aux_values)
def test_p1_depends_on_the_ranks_only(values):
    # ldexp(y, 3) = 8 y is exact and strictly increasing: same ranks, same ties
    y = np.array(values)
    assert p1_of(y).tobytes() == p1_of(np.ldexp(y, 3)).tobytes()


@pytest.mark.parametrize("values", [[0.5], [0.5, 0.5], [0.5, -0.5], [-0.0, 0.0]])
def test_p1_matches_seed_at_small_n(values):
    y = np.array(values)
    assert p1_of(y).tobytes() == seed_empirical_p1(SeedEmpiricalCdf(y), y).tobytes()


@pytest.mark.parametrize("ys, message", [
    ([], "ys must not be empty"),
    ([1.0, np.nan], "ys must be finite"),
    ([np.inf, 1.0], "ys must be finite"),
    ([1.0, -np.inf], "ys must be finite"),
])
def test_build_table_rejects_empty_or_non_finite_ys(ys, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        mg.build_table(np.zeros(len(ys)), ys, mg.STANDARD_NORMAL)


@pytest.mark.parametrize("beta_hats", [[0.1, np.nan], [np.inf, 0.1], [0.1, -np.inf]])
def test_build_table_rejects_non_finite_beta_hats(beta_hats):
    # an infinite beta_hat would give p2 = 0, a certain rejection
    with pytest.raises(ValueError, match="^beta_hats must be finite$"):
        mg.build_table(beta_hats, [1.0, 2.0], mg.STANDARD_NORMAL)


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
        with pytest.raises(ValueError, match="share the table length, got 2 and 3"):
            mg.HypothesisTable(np.full(2, 0.5), np.full(3, 0.5))
        with pytest.raises(ValueError, match=r"^p1 must be a 1-d array, got shape \(2, 2\)$"):
            mg.HypothesisTable(np.full((2, 2), 0.5), np.full(4, 0.5))
        with pytest.raises(ValueError, match=r"^p2 must be a 1-d array, got shape \(\)$"):
            mg.HypothesisTable(np.full(1, 0.5), 0.5)
        with pytest.raises(ValueError, match="^p1 must not be empty$"):
            mg.HypothesisTable([], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["p1", "p2"])
    def test_non_finite_p_values_rejected(self, column, bad):
        cols = {"p1": np.array([0.2, 0.5, 0.8]), "p2": np.array([0.1, 0.4, 0.9])}
        cols[column][1] = bad
        with pytest.raises(ValueError, match=column):
            mg.HypothesisTable(cols["p1"], cols["p2"])
        cols = {"p1": np.full(8000, 0.5), "p2": np.full(8000, 0.5)}
        cols[column][4000] = bad
        with pytest.raises(ValueError, match=column):
            mg.HypothesisTable(cols["p1"], cols["p2"])

    def test_nan_beta_hat_rejected(self):
        with pytest.raises(ValueError, match="beta_hats"):
            mg.build_table([0.3, np.nan], [1.0, 2.0], mg.STANDARD_NORMAL)


class TestMixtureJson:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "null.json"
        path.write_text('{"weights": [0.615, 0.385], "means": [0.0, -0.002], "sds": [0.063, 0.205]}')
        m = mg.mixture_from_json(str(path))
        assert m == mg.REAL_DATA_NULL

    def test_load_from_path_object(self, tmp_path):
        path = tmp_path / "null.json"
        path.write_text('{"weights": [0.615, 0.385], "means": [0.0, -0.002], "sds": [0.063, 0.205]}')
        assert mg.mixture_from_json(path) == mg.REAL_DATA_NULL

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
        with pytest.raises(ValueError, match=r"^mixture weights must be a list of JSON numbers, "
                                             r"got 1\.0$"):
            mg.mixture_from_json({"weights": 1.0, "means": 0.0, "sds": 1.0})

    def test_object_values_rejected(self):
        with pytest.raises(ValueError, match="^mixture weights must be a list of JSON numbers, "
                                             "got {}$"):
            mg.mixture_from_json({"weights": {}, "means": [0.0], "sds": [1.0]})

    @pytest.mark.parametrize("key", ["weights", "means", "sds"])
    @pytest.mark.parametrize("value", ['"abc"', "{}", "2.0", "[1" + "0" * 400 + "]"],
                             ids=["string", "object", "scalar", "int-past-double"])
    def test_value_that_is_not_a_list_of_doubles_names_its_key(self, tmp_path, key, value):
        fields = {"weights": "[1.0]", "means": "[0.0]", "sds": "[1.0]"}
        fields[key] = value
        path = tmp_path / "null.json"
        path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
        message = f"mixture {key} must be a list of JSON numbers, got {json.loads(value)!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mg.mixture_from_json(str(path))

    def test_largest_double_as_an_int_is_taken(self):
        biggest = int(sys.float_info.max)
        m = mg.mixture_from_json({"weights": [1], "means": [biggest], "sds": [1]})
        assert m.means == (sys.float_info.max,)

    @pytest.mark.parametrize("key, items", [("weights", "[true]"), ("means", "[false]"),
                                            ("sds", '["1.5"]'), ("sds", "[null]"),
                                            ("means", "[[0.0]]")])
    def test_non_number_items_rejected(self, tmp_path, key, items):
        fields = {"weights": "[1.0]", "means": "[0.0]", "sds": "[1.0]"}
        fields[key] = items
        path = tmp_path / "null.json"
        path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
        message = f"mixture {key} must be a list of JSON numbers, got {json.loads(items)!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mg.mixture_from_json(str(path))

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
