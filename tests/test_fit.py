"""Fitting and model-selection tests."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau as scipy_kendalltau

from twostage_fdr import copula as cp
from twostage_fdr import fit as ft


def _obs(u, v):
    return cp.PseudoObservations(np.asarray(u, float), np.asarray(v, float))


def fit_at_sample_tau(family, obs):
    """fit_mle at the pairs' own Kendall tau, as select_copula fits."""
    return ft.fit_mle(family, obs, ft.empirical_kendall_tau(obs))


def _merge_count(values: np.ndarray) -> int:
    """Number of inversions (pairs i < j with values[i] > values[j])."""
    n = values.size
    if n < 2:
        return 0
    mid = n // 2
    left, right = values[:mid], values[mid:]
    count = _merge_count(left) + _merge_count(right)
    # halves are now sorted in place; cross pairs (l, r) with l > r remain,
    # equal values deliberately not counted
    count += left.size * right.size - int(
        np.searchsorted(left, right, side="right").sum())
    values[:] = np.sort(values, kind="stable")
    return count


def _tie_pairs(values):
    _, counts = np.unique(values, return_counts=True)
    return int(np.sum(counts * (counts - 1) // 2))


def merge_sort_kendall_tau(obs):
    """Original tau-a: sort by (u, v), count inversions of v by merge sort."""
    n = obs.n
    order = np.lexsort((obs.v, obs.u))
    discordant = _merge_count(obs.v[order].copy())
    n0 = n * (n - 1) // 2
    both = np.unique(np.column_stack([obs.u, obs.v]), axis=0, return_counts=True)[1]
    nxy = int(np.sum(both * (both - 1) // 2))
    concordant = n0 - _tie_pairs(obs.u) - _tie_pairs(obs.v) + nxy - discordant
    return (concordant - discordant) / n0


def scipy_tau_a(obs):
    """The tau-a recovered from scipy's tau-b: (C - D) / sqrt((n0 - nx)(n0 - ny))
    times both roots, rounded to the integer C - D, over n0."""
    n0 = obs.n * (obs.n - 1) // 2
    nx, ny = _tie_pairs(obs.u), _tie_pairs(obs.v)
    if nx == n0 or ny == n0:
        return 0.0
    tau_b = float(scipy_kendalltau(obs.u, obs.v).statistic)
    return round(tau_b * math.sqrt(n0 - nx) * math.sqrt(n0 - ny)) / n0


def brute_force_tau_a(u, v):
    """Sum of sign(u_i - u_j) * sign(v_i - v_j) over the n0 pairs, over n0."""
    n = len(u)
    signs = sum(int(np.sign(u[i] - u[j]) * np.sign(v[i] - v[j]))
                for i in range(n) for j in range(i + 1, n))
    return signs / (n * (n - 1) // 2)


# few distinct values per column, the clamps among them, so that ties in u,
# in v and in both are the rule
_FEW_VALUES = st.lists(st.one_of(st.sampled_from([1e-10, 0.5, 1.0 - 1e-10]),
                                 st.floats(1e-10, 1.0 - 1e-10)),
                       min_size=1, max_size=5, unique=True)


@st.composite
def tied_pairs(draw):
    n = draw(st.integers(2, 40))
    u = draw(st.lists(st.sampled_from(draw(_FEW_VALUES)), min_size=n, max_size=n))
    v = draw(st.lists(st.sampled_from(draw(_FEW_VALUES)), min_size=n, max_size=n))
    return u, v


@settings(max_examples=300, deadline=None)
@given(tied_pairs())
@example(([0.3, 0.6], [0.2, 0.9]))
@example(([0.3, 0.6], [0.9, 0.2]))
@example(([0.3, 0.3], [0.2, 0.9]))
@example(([1e-10] * 7, [0.1, 0.5, 0.5, 1.0 - 1e-10, 0.2, 0.2, 0.9]))
@example(([1e-10, 1.0 - 1e-10, 0.4, 0.4, 1e-10], [1.0 - 1e-10] * 5))
@example(([0.2, 0.2, 0.7, 0.7, 0.2], [0.9, 0.9, 0.1, 0.1, 0.9]))
def test_counted_c_minus_d_equals_the_brute_force_sign_sum(pairs):
    u, v = pairs
    assert ft.empirical_kendall_tau(_obs(u, v)) == brute_force_tau_a(u, v)


@pytest.mark.parametrize("n", [8000, 20000, 65536, 65537])
def test_equals_the_scipy_derived_tau_at_scale(n):
    # 65536 and 65537 sit on either side of the switch from 32- to 64-bit sort keys
    obs = cp.sample(cp.tau_to_theta("clayton", -0.4), n, 11)
    tied = _obs(np.round(obs.u, 3).clip(1e-10, 1.0 - 1e-10),
                np.round(obs.v, 2).clip(1e-10, 1.0 - 1e-10))
    for case in (obs, tied):
        assert ft.empirical_kendall_tau(case) == scipy_tau_a(case)


class TestKendallTau:
    def test_perfect_concordance(self):
        assert ft.empirical_kendall_tau(_obs([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])) == 1.0

    def test_perfect_discordance(self):
        assert ft.empirical_kendall_tau(_obs([0.1, 0.2, 0.3], [0.3, 0.2, 0.1])) == -1.0

    def test_matches_scipy_on_random_data(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(5, 200))
            u = rng.uniform(0.01, 0.99, n)
            v = rng.uniform(0.01, 0.99, n)
            mine = ft.empirical_kendall_tau(_obs(u, v))
            ref = scipy_kendalltau(u, v).statistic
            assert mine == pytest.approx(ref, abs=1e-12)

    def test_ties_counted_as_neither(self):
        # brute force oracle including ties
        rng = np.random.default_rng(13)
        u = rng.integers(1, 5, 60) / 10.0
        v = rng.integers(1, 5, 60) / 10.0
        n = u.size
        num = 0
        for i in range(n):
            for j in range(i + 1, n):
                du, dv = u[i] - u[j], v[i] - v[j]
                if du * dv > 0:
                    num += 1
                elif du * dv < 0:
                    num -= 1
        expected = num / (n * (n - 1) / 2)
        assert ft.empirical_kendall_tau(_obs(u, v)) == pytest.approx(expected, abs=1e-12)

    def test_equals_merge_sort_oracle(self):
        rng = np.random.default_rng(505)
        cases = [([0.3, 0.6], [0.2, 0.9]), ([0.3, 0.6], [0.9, 0.2]),
                 ([0.3, 0.6], [0.5, 0.5]),
                 ([0.4] * 30, rng.uniform(0.01, 0.99, 30)),
                 (rng.uniform(0.01, 0.99, 30), [0.7] * 30)]
        for _ in range(20):
            n = int(rng.integers(2, 400))
            cases.append((rng.uniform(0.01, 0.99, n), rng.uniform(0.01, 0.99, n)))
            cases.append((rng.integers(1, 6, n) / 10.0, rng.integers(1, 6, n) / 10.0))
            u = np.clip(rng.uniform(-0.3, 1.3, n), 1e-10, 1.0 - 1e-10)
            v = np.clip(rng.uniform(-0.3, 1.3, n), 1e-10, 1.0 - 1e-10)
            cases.append((u, v))
        obs = cp.sample(cp.tau_to_theta("clayton", -0.4), 8000, 6)
        cases.append((obs.u, obs.v))
        for u, v in cases:
            obs = _obs(u, v)
            assert ft.empirical_kendall_tau(obs) == merge_sort_kendall_tau(obs)

    def test_independence_null(self):
        obs = cp.sample(cp.CopulaModel("independence"), 100_000, 4)
        assert abs(ft.empirical_kendall_tau(obs)) < 0.01

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        u = rng.uniform(0.01, 0.99, 300)
        v = rng.uniform(0.01, 0.99, 300)
        perm = rng.permutation(300)
        assert ft.empirical_kendall_tau(_obs(u, v)) == pytest.approx(
            ft.empirical_kendall_tau(_obs(u[perm], v[perm])), abs=1e-15)


class TestFitMle:
    def test_independence_data_gaussian_fit(self):
        obs = cp.sample(cp.CopulaModel("independence"), 10_000, 21)
        res = fit_at_sample_tau("gaussian", obs)
        assert abs(res.model.theta) < 0.02
        assert res.converged

    def test_clayton_rotated_consistency(self):
        true = cp.tau_to_theta("clayton", -0.4)  # theta = 4/3, rotation 90
        obs = cp.sample(true, 8000, 6)
        res = fit_at_sample_tau("clayton", obs)
        assert res.model.rotation == 90
        assert res.model.theta == pytest.approx(true.theta, rel=0.10)

    def test_information_criteria_identities(self):
        obs = cp.sample(cp.tau_to_theta("clayton", -0.4), 8000, 6)
        res = fit_at_sample_tau("clayton", obs)
        assert res.aic == -2.0 * res.loglik + 2.0
        assert res.bic == -2.0 * res.loglik + math.log(8000)
        assert res.bic - res.aic == pytest.approx(6.987, abs=5e-4)

    def test_local_maximum(self):
        obs = cp.sample(cp.tau_to_theta("gumbel", -0.4), 4000, 3)
        res = fit_at_sample_tau("gumbel", obs)
        u = np.clip(obs.u, 1e-10, 1 - 1e-10)
        v = np.clip(obs.v, 1e-10, 1 - 1e-10)

        def ll(theta):
            return float(np.sum(cp.log_density(cp.CopulaModel("gumbel", theta, 90), u, v)))

        assert res.loglik >= ll(res.model.theta + 0.01) - 1e-9
        assert res.loglik >= ll(res.model.theta - 0.01) - 1e-9

    def test_too_few_points(self):
        with pytest.raises(ft.FitError):
            ft.fit_mle("clayton", _obs([0.1, 0.2, 0.3], [0.1, 0.2, 0.3]), 1.0)

    def test_unknown_family_raises_value_error(self):
        obs = cp.sample(cp.tau_to_theta("clayton", 0.4), 50, 3)
        with pytest.raises(ValueError, match="^unknown copula family 'foo'$"):
            ft.fit_mle("foo", obs, 0.4)

    def test_frank_negative_branch(self):
        true = cp.tau_to_theta("frank", -0.4)
        obs = cp.sample(true, 8000, 11)
        res = fit_at_sample_tau("frank", obs)
        assert res.model.theta == pytest.approx(true.theta, rel=0.10)
        assert res.model.theta < 0

    def test_nan_tau_raises(self):
        obs = cp.sample(cp.tau_to_theta("frank", -0.4), 200, 11)
        for family in cp.FAMILIES:
            with pytest.raises(ValueError, match="^kendall tau must not be NaN$"):
                ft.fit_mle(family, obs, math.nan)


class TestSelectCopula:
    def test_true_family_wins_large_sample(self):
        true = cp.tau_to_theta("clayton", -0.4)
        obs = cp.sample(true, 100_000, 15)
        report = ft.select_copula(obs)
        for criterion in ft.CRITERIA:
            assert report.winner(criterion).model.family == "clayton"
        assert report.winner("bic").model.rotation == 90

    def test_single_candidate(self):
        obs = cp.sample(cp.tau_to_theta("gaussian", 0.3), 500, 2)
        report = ft.select_copula(obs, families=("gaussian",))
        for criterion in ft.CRITERIA:
            assert report.winner(criterion).model.family == "gaussian"

    def test_permutation_invariance(self):
        rng = np.random.default_rng(44)
        obs = cp.sample(cp.tau_to_theta("clayton", -0.4), 2000, 5)
        perm = rng.permutation(2000)
        a = ft.select_copula(obs)
        b = ft.select_copula(_obs(obs.u[perm], obs.v[perm]))
        for ra, rb in zip(a.candidates, b.candidates):
            assert ra.loglik == pytest.approx(rb.loglik, abs=1e-8)
        assert a.winner_index == b.winner_index

    def test_report_serialization(self):
        obs = cp.sample(cp.tau_to_theta("clayton", -0.4), 1000, 5)
        report = ft.select_copula(obs)
        payload = json.loads(ft.report_to_json(report))
        assert len(payload["candidates"]) == len(ft.DEFAULT_CANDIDATES)
        assert set(payload["winners"]) == set(ft.CRITERIA)
        text = ft.format_report(report)
        assert "Family" in text and "BIC" in text
        assert "clayton" in text

    def test_unknown_family_rejected_before_any_fit(self, monkeypatch):
        obs = cp.sample(cp.tau_to_theta("clayton", -0.4), 200, 5)
        fitted = []
        monkeypatch.setattr(ft, "fit_mle", lambda family, *a, **k: fitted.append(family))
        with pytest.raises(ValueError, match="^families names unknown copula family 'foo'$"):
            ft.select_copula(obs, families=("clayton", "foo"))
        assert fitted == []

    def test_repeated_family_rejected_before_any_fit(self, monkeypatch):
        obs = cp.sample(cp.tau_to_theta("clayton", -0.4), 200, 5)
        fitted = []
        monkeypatch.setattr(ft, "fit_mle", lambda family, *a, **k: fitted.append(family))
        with pytest.raises(ValueError, match="^families lists family 'clayton' twice$"):
            ft.select_copula(obs, families=("clayton", "clayton", "frank"))
        assert fitted == []

    @pytest.mark.parametrize("families", [[], ()], ids=repr)
    def test_empty_family_list_rejected_before_any_fit(self, monkeypatch, families):
        obs = cp.sample(cp.tau_to_theta("clayton", -0.4), 200, 5)
        monkeypatch.setattr(ft, "empirical_kendall_tau", lambda o: pytest.fail("tau computed"))
        with pytest.raises(ValueError, match="^families must name at least one family$"):
            ft.select_copula(obs, families=families)

    @pytest.mark.parametrize("families", [5, None, 3.5], ids=repr)
    def test_family_list_that_is_not_a_list_rejected(self, families):
        obs = cp.sample(cp.tau_to_theta("clayton", -0.4), 200, 5)
        with pytest.raises(ValueError, match=f"^families must be a list of family names, "
                                             f"got {families!r}$"):
            ft.select_copula(obs, families=families)

    def test_per_candidate_failure_is_contained(self, monkeypatch):
        obs = cp.sample(cp.tau_to_theta("clayton", -0.4), 1000, 5)
        real_fit = ft.fit_mle

        def flaky_fit(family, o, tau):
            if family == "gumbel":
                raise ft.FitError("forced failure")
            return real_fit(family, o, tau)

        monkeypatch.setattr(ft, "fit_mle", flaky_fit)
        report = ft.select_copula(obs)
        by_family = {r.model.family: r for r in report.candidates}
        assert not by_family["gumbel"].converged
        # the placeholder sits at orientation's rotation and the low end of its bracket
        rotation, bracket = cp.orientation("gumbel", ft.empirical_kendall_tau(obs))
        assert by_family["gumbel"].model == cp.CopulaModel("gumbel", bracket[0], rotation)
        assert by_family["clayton"].converged
        for criterion in ft.CRITERIA:
            assert report.winner(criterion).model.family != "gumbel"
        payload = json.loads(ft.report_to_json(report))
        failed = next(c for c in payload["candidates"] if c["family"] == "gumbel")
        assert failed["loglik"] is None
        assert failed["theta"] is None
        assert "failed" in ft.format_report(report)

    def test_local_maximum_every_family(self):
        for family in ft.DEFAULT_CANDIDATES:
            true = cp.tau_to_theta(family, -0.4)
            obs = cp.sample(true, 2000, 17)
            res = fit_at_sample_tau(family, obs)
            assert res.converged
            assert res.model.rotation == true.rotation
            u = np.clip(obs.u, 1e-10, 1 - 1e-10)
            v = np.clip(obs.v, 1e-10, 1 - 1e-10)
            for delta in (-0.01, 0.01):
                theta = res.model.theta + delta
                try:
                    nearby = cp.CopulaModel(family, theta, res.model.rotation)
                except ValueError:
                    continue
                ll = float(np.sum(cp.log_density(nearby, u, v)))
                assert res.loglik >= ll - 1e-9, (family, delta)


def seed_fit_mle(family, rotation, obs, tau_hint):
    """(theta_hat, loglik) of the seed fit, whose objective built a model
    and called log_density at every step."""
    from scipy.optimize import minimize_scalar
    u = np.clip(obs.u, 1e-10, 1.0 - 1e-10)
    v = np.clip(obs.v, 1e-10, 1.0 - 1e-10)
    lo, hi = cp.orientation(family, 1.0)[1]
    if family == "frank" and tau_hint < 0.0:
        lo, hi = -hi, -lo

    def negloglik(theta):
        ll = np.sum(cp.log_density(cp.CopulaModel(family, theta, rotation), u, v))
        return -ll if np.isfinite(ll) else np.inf

    res = minimize_scalar(negloglik, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-7, "maxiter": 500})
    assert res.success
    return float(res.x), -float(res.fun)


@pytest.mark.parametrize("true_family", ["clayton", "gumbel", "frank"])
@pytest.mark.parametrize("tau", [-0.4, 0.3])
def test_select_copula_matches_seed_fit(true_family, tau):
    obs = cp.sample(cp.tau_to_theta(true_family, tau), 1500, 29)
    sample_tau = ft.empirical_kendall_tau(obs)
    for res in ft.select_copula(obs).candidates:
        family, rotation = res.model.family, res.model.rotation
        theta_hat, loglik = seed_fit_mle(family, rotation, obs, sample_tau)
        assert (res.model.theta, res.loglik) == (theta_hat, loglik), family
        assert res.aic == -2.0 * loglik + 2.0
        assert res.bic == -2.0 * loglik + math.log(obs.n)


@pytest.mark.parametrize("true_family", ft.DEFAULT_CANDIDATES)
@pytest.mark.parametrize("tau", [-0.4, 0.3])
def test_each_candidate_is_fit_mle_at_the_sample_tau(true_family, tau):
    obs = cp.sample(cp.tau_to_theta(true_family, tau), 1200, 41)
    sample_tau = ft.empirical_kendall_tau(obs)
    report = ft.select_copula(obs, families=cp.FAMILIES)
    for family, res in zip(cp.FAMILIES, report.candidates):
        assert res == ft.fit_mle(family, obs, sample_tau), family
        assert res.model.rotation == cp.orientation(family, sample_tau)[0], family


@pytest.mark.parametrize("family", ft.DEFAULT_CANDIDATES)
@pytest.mark.parametrize("tau", [-0.35, 0.35])
def test_fit_mle_matches_seed_fit_both_orientations(family, tau):
    # pairs at the clamp too: some p-values reach 0 or 1 in real tables
    obs = cp.sample(cp.tau_to_theta(family, tau), 800, 31)
    u, v = obs.u.copy(), obs.v.copy()
    u[:3], v[3:6] = 1e-10, 1.0 - 1e-10
    obs = cp.PseudoObservations(u, v)
    res = ft.fit_mle(family, obs, tau)
    rotation = cp.orientation(family, tau)[0]
    assert res.model.rotation == rotation
    assert (res.model.theta, res.loglik) == seed_fit_mle(family, rotation, obs, tau)


@pytest.mark.parametrize("model", [
    cp.CopulaModel("gaussian", -0.5), cp.CopulaModel("gaussian", 0.5),
    cp.CopulaModel("frank", -4.0), cp.CopulaModel("frank", 4.0),
    *(cp.CopulaModel(family, theta, rotation)
      for family, theta in (("clayton", 1.5), ("gumbel", 1.6), ("joe", 1.8))
      for rotation in (0, 90))], ids=lambda m: m.describe())
def test_fit_mle_past_the_clamp_matches_the_clamped_pairs(model):
    # raw pairs on the closed [0, 1], past [1e-10, 1 - 1e-10], fit as the pairs
    # clipped into it by hand
    obs = cp.sample(model, 400, 37)
    u, v = obs.u.copy(), obs.v.copy()
    u[:5] = [0.0, 5e-324, 2.0 ** -60, 2.0 ** -54, 1e-12]
    v[5:10] = [1e-12, 5e-324, 1.0 - 1e-12, 1.0 - 2.0 ** -53, 1.0]
    tau = cp.kendall_tau(model)
    got = ft.fit_mle(model.family, _obs(u, v), tau)
    want = ft.fit_mle(model.family,
                      _obs(np.clip(u, 1e-10, 1.0 - 1e-10), np.clip(v, 1e-10, 1.0 - 1e-10)), tau)
    assert got.model.rotation == model.rotation
    assert (got.model.theta, got.loglik) == (want.model.theta, want.loglik)
