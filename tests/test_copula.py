"""Copula family tests: closed forms, invariants, rotations, sampling."""

import functools
import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import kendalltau as scipy_kendalltau

from twostage_fdr import copula as cp
from twostage_fdr.bvn import bvn_cdf

# One representative parameterization per family/rotation used by the
# grid-style invariant checks below.
REPRESENTATIVE = [
    cp.CopulaModel("independence"),
    cp.CopulaModel("gaussian", -0.5877852522924731),
    cp.CopulaModel("gaussian", 0.7),
    cp.CopulaModel("frank", -4.161),
    cp.CopulaModel("frank", 5.736),
    cp.CopulaModel("clayton", 2.0),
    cp.CopulaModel("clayton", 4.0 / 3.0, 90),
    cp.CopulaModel("clayton", 1.5, 180),
    cp.CopulaModel("clayton", 1.5, 270),
    cp.CopulaModel("gumbel", 5.0 / 3.0, 90),
    cp.CopulaModel("gumbel", 2.5),
    cp.CopulaModel("joe", 2.2, 90),
    cp.CopulaModel("joe", 3.0, 270),
]

IDS = [m.describe() for m in REPRESENTATIVE]


class TestClosedFormValues:
    def test_clayton_cdf_margin(self):
        m = cp.CopulaModel("clayton", 2.0)
        assert cp.cdf(m, 0.5, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_clayton_cdf_interior(self):
        m = cp.CopulaModel("clayton", 2.0)
        assert cp.cdf(m, 0.5, 0.5) == pytest.approx(7.0 ** -0.5, abs=1e-12)

    def test_independence_product(self):
        m = cp.CopulaModel("independence")
        assert cp.cdf(m, 0.3, 0.4) == pytest.approx(0.12, abs=1e-15)

    def test_independence_density(self):
        m = cp.CopulaModel("independence")
        assert np.exp(cp.log_density(m, 0.3, 0.7)) == pytest.approx(1.0, abs=0.0)

    def test_clayton_density_closed_form(self):
        m = cp.CopulaModel("clayton", 2.0)
        expected = 3.0 * 0.25 ** -3.0 * 7.0 ** -2.5
        assert np.exp(cp.log_density(m, 0.5, 0.5)) == pytest.approx(expected, rel=1e-12)

    def test_gaussian_rho_zero_density(self):
        m = cp.CopulaModel("gaussian", 0.0)
        assert np.exp(cp.log_density(m, 0.2, 0.9)) == pytest.approx(1.0, abs=1e-14)

    def test_independence_hfunc(self):
        m = cp.CopulaModel("independence")
        assert cp.hfunc(m, 0.37, 0.8) == pytest.approx(0.37, abs=0.0)

    def test_hfunc_upper_limit(self):
        for m in REPRESENTATIVE:
            assert cp.hfunc(m, 1.0, 0.5) == pytest.approx(1.0, abs=0.0)
            assert cp.hfunc(m, 0.0, 0.5) == pytest.approx(0.0, abs=0.0)

    def test_clayton_hfunc_closed_form(self):
        m = cp.CopulaModel("clayton", 2.0)
        assert cp.hfunc(m, 0.5, 0.5) == pytest.approx(8.0 * 7.0 ** -1.5, rel=1e-12)

    def test_hfunc_inverse_examples(self):
        ind = cp.CopulaModel("independence")
        assert cp.hfunc_inverse(ind, 0.37, 0.8) == pytest.approx(0.37, abs=0.0)
        m = cp.CopulaModel("clayton", 2.0)
        x = cp.hfunc(m, 0.5, 0.5)
        assert cp.hfunc_inverse(m, x, 0.5) == pytest.approx(0.5, abs=1e-10)
        assert cp.hfunc_inverse(m, 1.0, 0.3) == pytest.approx(1.0, abs=0.0)


class TestDomainErrors:
    def test_theta_domains(self):
        with pytest.raises(ValueError):
            cp.CopulaModel("clayton", -1.0)
        with pytest.raises(ValueError):
            cp.CopulaModel("clayton", 0.0)
        with pytest.raises(ValueError):
            cp.CopulaModel("gumbel", 0.9)
        with pytest.raises(ValueError):
            cp.CopulaModel("joe", 0.0)
        with pytest.raises(ValueError):
            cp.CopulaModel("gaussian", 1.0)
        with pytest.raises(ValueError):
            cp.CopulaModel("frank", 0.0)
        with pytest.raises(ValueError):
            cp.CopulaModel("independence", 2.0)
        for theta in (True, False, np.True_):  # a bool is not a parameter
            for family in ("clayton", "frank", "gaussian"):
                with pytest.raises(ValueError, match="requires a finite parameter"):
                    cp.CopulaModel(family, theta)

    def test_rotation_restrictions(self):
        with pytest.raises(ValueError):
            cp.CopulaModel("gaussian", 0.5, 90)
        with pytest.raises(ValueError):
            cp.CopulaModel("frank", 2.0, 180)
        with pytest.raises(ValueError):
            cp.CopulaModel("clayton", 1.0, 45)
        # a float or a bool may equal a rotation, but is not one
        for family, rotation in (("clayton", 90.0), ("clayton", np.float64(90.0)),
                                 ("clayton", True), ("frank", False), ("frank", np.False_)):
            with pytest.raises(ValueError, match="^rotation must be one of"):
                cp.CopulaModel(family, 2.0, rotation)

    def test_model_stores_an_int_rotation_and_a_float_theta(self):
        m = cp.CopulaModel("clayton", np.float64(2.0), np.int64(90))
        assert (type(m.theta), type(m.rotation)) == (float, int)
        assert m.describe() == "clayton(theta=2) rot90"
        assert type(cp.CopulaModel("frank", 3).theta) is float
        assert m == cp.CopulaModel("clayton", 2.0, 90)

    def test_density_boundary_evaluates_at_the_clamp(self):
        m = cp.CopulaModel("clayton", 2.0)
        assert cp.log_density(m, 0.0, 0.5) == cp.log_density(m, 1e-10, 0.5)
        assert cp.log_density(m, 0.5, 1.0) == cp.log_density(m, 0.5, 1.0 - 1e-10)
        for bad in (np.nan, -0.1, 1.5):
            with pytest.raises(ValueError, match=r"^u must lie in \[0, 1\]$"):
                cp.log_density(m, bad, 0.5)
            with pytest.raises(ValueError, match=r"^v must lie in \[0, 1\]$"):
                cp.log_density(m, 0.5, bad)

    def test_hfunc_conditioner_at_the_boundary_evaluates_at_the_clamp(self):
        m = cp.CopulaModel("clayton", 2.0)
        assert cp.hfunc(m, 0.5, 0.0) == cp.hfunc(m, 0.5, 1e-10)
        assert cp.hfunc_inverse(m, 0.5, 1.0) == cp.hfunc_inverse(m, 0.5, 1.0 - 1e-10)
        for bad in (np.nan, -0.1, 1.5):
            for fn in (cp.hfunc, cp.hfunc_inverse):
                with pytest.raises(ValueError, match=r"^given_u must lie in \[0, 1\]$"):
                    fn(m, 0.5, bad)

    def test_cdf_rejects_outside_unit_square(self):
        m = cp.CopulaModel("clayton", 2.0)
        with pytest.raises(ValueError):
            cp.cdf(m, -0.1, 0.5)
        with pytest.raises(ValueError):
            cp.cdf(m, 0.5, 1.1)


@pytest.mark.parametrize("model", REPRESENTATIVE, ids=IDS)
class TestInvariants:
    def test_frechet_bounds_and_margins(self, model):
        rng = np.random.default_rng(101)
        u = rng.uniform(0.001, 0.999, 1000)
        v = rng.uniform(0.001, 0.999, 1000)
        c = cp.cdf(model, u, v)
        lower = np.maximum(u + v - 1.0, 0.0)
        upper = np.minimum(u, v)
        assert np.all(c >= lower - 1e-12)
        assert np.all(c <= upper + 1e-12)
        np.testing.assert_allclose(cp.cdf(model, u, 1.0), u, atol=1e-12)
        np.testing.assert_allclose(cp.cdf(model, 1.0, v), v, atol=1e-12)
        assert np.all(cp.cdf(model, u, 0.0) == 0.0)
        assert np.all(cp.cdf(model, 0.0, v) == 0.0)

    def test_two_increasing(self, model):
        rng = np.random.default_rng(202)
        a = rng.uniform(0.001, 0.999, (1000, 2))
        b = rng.uniform(0.001, 0.999, (1000, 2))
        u1, u2 = np.minimum(a[:, 0], b[:, 0]), np.maximum(a[:, 0], b[:, 0])
        v1, v2 = np.minimum(a[:, 1], b[:, 1]), np.maximum(a[:, 1], b[:, 1])
        rect = (cp.cdf(model, u2, v2) - cp.cdf(model, u1, v2)
                - cp.cdf(model, u2, v1) + cp.cdf(model, u1, v1))
        assert np.all(rect >= -1e-12)

    def test_hfunc_matches_central_difference(self, model):
        grid = np.linspace(0.03, 0.97, 21)
        u, v = np.meshgrid(grid, grid)
        u, v = u.ravel(), v.ravel()
        step = 1e-5
        fd = (cp.cdf(model, u + step, v) - cp.cdf(model, u - step, v)) / (2.0 * step)
        h = cp.hfunc(model, v, u)
        np.testing.assert_allclose(h, fd, atol=1e-6)

    def test_hfunc_nondecreasing_in_v(self, model):
        v = np.linspace(0.0, 1.0, 301)
        for u in (0.1, 0.5, 0.92):
            vals = cp.hfunc(model, v, u)
            assert np.all(np.diff(vals) >= -1e-12)

    def test_hfunc_inverse_round_trip(self, model):
        rng = np.random.default_rng(303)
        x = rng.uniform(0.001, 0.999, 400)
        u = rng.uniform(0.001, 0.999, 400)
        v = cp.hfunc_inverse(model, x, u)
        np.testing.assert_allclose(cp.hfunc(model, v, u), x, atol=1e-8)

    def test_density_consistent_with_cdf(self, model):
        # mixed second difference of C approximates c
        rng = np.random.default_rng(404)
        u = rng.uniform(0.1, 0.9, 50)
        v = rng.uniform(0.1, 0.9, 50)
        e = 1e-4
        num = (cp.cdf(model, u + e, v + e) - cp.cdf(model, u - e, v + e)
               - cp.cdf(model, u + e, v - e) + cp.cdf(model, u - e, v - e)) / (4 * e * e)
        np.testing.assert_allclose(np.exp(cp.log_density(model, u, v)), num, rtol=5e-4, atol=5e-4)


# Archimedean corner densities diverge, so the midpoint-rule error grows
# with theta; the representative parameters here sit at tau ~ 0.3-0.4.
QUADRATURE_MODELS = [
    cp.CopulaModel("independence"),
    cp.CopulaModel("gaussian", -0.5877852522924731),
    cp.CopulaModel("frank", -4.161),
    cp.CopulaModel("clayton", 4.0 / 3.0),
    cp.CopulaModel("clayton", 4.0 / 3.0, 90),
    cp.CopulaModel("gumbel", 5.0 / 3.0),
    cp.CopulaModel("joe", 1.8, 270),
]


@pytest.mark.parametrize("model", QUADRATURE_MODELS, ids=[m.describe() for m in QUADRATURE_MODELS])
def test_density_integrates_to_one(model):
    n = 200
    mid = (np.arange(n) + 0.5) / n
    u, v = np.meshgrid(mid, mid)
    total = np.sum(np.exp(cp.log_density(model, u.ravel(), v.ravel()))) / (n * n)
    assert total == pytest.approx(1.0, abs=1e-3)


class TestTauMaps:
    def test_gaussian_closed_form(self):
        m = cp.tau_to_theta("gaussian", -0.4)
        assert m.theta == pytest.approx(np.sin(-0.2 * np.pi), abs=1e-12)

    def test_clayton_closed_form(self):
        m = cp.tau_to_theta("clayton", -0.4)
        assert m.theta == pytest.approx(2.0 * 0.4 / 0.6, abs=1e-12)
        assert m.rotation == 90

    def test_round_trip_all_families(self):
        for family in ("gaussian", "frank", "clayton", "gumbel", "joe"):
            for tau in (-0.85, -0.4, -0.05, 0.05, 0.3, 0.75):
                m = cp.tau_to_theta(family, tau)
                assert cp.kendall_tau(m) == pytest.approx(tau, abs=2e-8)

    def test_small_tau_is_nearly_independent(self):
        rng = np.random.default_rng(5)
        u = rng.uniform(0.05, 0.95, 200)
        v = rng.uniform(0.05, 0.95, 200)
        for family in ("gaussian", "frank", "clayton", "gumbel", "joe"):
            m = cp.tau_to_theta(family, 1e-4)
            np.testing.assert_allclose(cp.cdf(m, u, v), u * v, atol=1e-3)

    def test_tau_bounds_rejected(self):
        with pytest.raises(ValueError):
            cp.tau_to_theta("clayton", 1.0)
        with pytest.raises(ValueError):
            cp.tau_to_theta("gaussian", -1.0)

    def test_frank_joe_inverse_to_1e11(self):
        for family in ("frank", "joe"):
            for tau in (-0.9, -0.4, -0.05, 1e-4, 0.05, 0.4, 0.9):
                m = cp.tau_to_theta(family, tau)
                assert abs(cp.kendall_tau(m) - tau) <= 1e-11, (family, tau)

    def test_rotation_flips_tau_sign(self):
        base = cp.CopulaModel("clayton", 2.0)
        assert cp.kendall_tau(base) == pytest.approx(0.5)
        assert cp.kendall_tau(cp.CopulaModel("clayton", 2.0, 90)) == pytest.approx(-0.5)
        assert cp.kendall_tau(cp.CopulaModel("clayton", 2.0, 180)) == pytest.approx(0.5)


class TestRotationIdentities:
    def test_explicit_rotation_formulas(self):
        rng = np.random.default_rng(17)
        u = rng.uniform(0.01, 0.99, 200)
        v = rng.uniform(0.01, 0.99, 200)
        base = cp.CopulaModel("gumbel", 2.0)
        r90 = cp.CopulaModel("gumbel", 2.0, 90)
        r180 = cp.CopulaModel("gumbel", 2.0, 180)
        r270 = cp.CopulaModel("gumbel", 2.0, 270)
        np.testing.assert_allclose(cp.cdf(r90, u, v), v - cp.cdf(base, 1 - u, v), atol=1e-12)
        np.testing.assert_allclose(
            cp.cdf(r180, u, v), u + v - 1 + cp.cdf(base, 1 - u, 1 - v), atol=1e-12)
        np.testing.assert_allclose(cp.cdf(r270, u, v), u - cp.cdf(base, u, 1 - v), atol=1e-12)


# parameter extremes the fitting brackets can probe
EXTREME_MODELS = [
    cp.CopulaModel("clayton", 50.0),
    cp.CopulaModel("clayton", 50.0, 90),
    cp.CopulaModel("clayton", 1e-4),
    cp.CopulaModel("gumbel", 50.0, 270),
    cp.CopulaModel("joe", 50.0, 90),
    cp.CopulaModel("frank", 50.0),
    cp.CopulaModel("frank", -50.0),
    cp.CopulaModel("frank", 1e-4),
    cp.CopulaModel("gaussian", 0.9999),
    cp.CopulaModel("gaussian", -0.9999),
]


@pytest.mark.parametrize("model", EXTREME_MODELS, ids=[m.describe() for m in EXTREME_MODELS])
def test_extreme_parameters_stay_finite(model):
    rng = np.random.default_rng(31)
    u = rng.uniform(0.001, 0.999, 1000)
    x = rng.uniform(0.001, 0.999, 1000)
    v = cp.hfunc_inverse(model, x, u)
    np.testing.assert_allclose(cp.hfunc(model, v, u), x, atol=1e-8)
    ll = cp.log_density(model, u, np.clip(v, 1e-10, 1 - 1e-10))
    assert np.all(np.isfinite(ll))
    c = cp.cdf(model, u, x)
    assert np.all(c >= np.maximum(u + x - 1.0, 0.0) - 1e-9)
    assert np.all(c <= np.minimum(u, x) + 1e-9)


class TestSampling:
    def test_determinism(self):
        m = cp.tau_to_theta("clayton", -0.4)
        a = cp.sample(m, 1000, 99)
        b = cp.sample(m, 1000, 99)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.v, b.v)

    def test_independence_tau_near_zero(self):
        obs = cp.sample(cp.CopulaModel("independence"), 100_000, 12)
        tau = scipy_kendalltau(obs.u, obs.v).statistic
        assert abs(tau) < 0.01

    def test_tau_recovery_all_families(self):
        for family in ("gaussian", "frank", "clayton", "gumbel", "joe"):
            m = cp.tau_to_theta(family, -0.4)
            obs = cp.sample(m, 100_000, 31)
            tau = scipy_kendalltau(obs.u, obs.v).statistic
            assert abs(tau - (-0.4)) < 0.02, family

    def test_positive_tau_recovery(self):
        m = cp.tau_to_theta("joe", 0.6)
        obs = cp.sample(m, 50_000, 8)
        tau = scipy_kendalltau(obs.u, obs.v).statistic
        assert abs(tau - 0.6) < 0.02

    def test_pseudo_observations_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            cp.PseudoObservations(np.array([0.2]), np.array([0.3]))
        with pytest.raises(ValueError, match="equal length"):
            cp.PseudoObservations(np.array([0.2, 0.5]), np.array([0.3, 0.4, 0.5]))
        for bad in (np.nan, -0.1, 1.5):
            with pytest.raises(ValueError, match=r"^u must lie in \[0, 1\]$"):
                cp.PseudoObservations(np.array([bad, 0.5]), np.array([0.3, 0.4]))
            with pytest.raises(ValueError, match=r"^v must lie in \[0, 1\]$"):
                cp.PseudoObservations(np.array([0.2, 0.5]), np.array([0.3, bad]))
        obs = cp.PseudoObservations(np.array([0.0, 0.5]), np.array([0.3, 1.0]))
        assert obs.n == 2

    def test_pseudo_observations_store_the_clamped_pairs(self):
        u = np.array([0.0, 5e-324, 1e-12, 1e-10, 0.3, 1.0 - 1e-10, 1.0 - 2.0 ** -53, 1.0])
        v = u[::-1].copy()
        obs = cp.PseudoObservations(u, v)
        # bit-identical to an explicit clip into [1e-10, 1 - 1e-10]
        np.testing.assert_array_equal(obs.u, np.clip(u, 1e-10, 1 - 1e-10))
        np.testing.assert_array_equal(obs.v, np.clip(v, 1e-10, 1 - 1e-10))
        assert obs.u[0] == 1e-10 and obs.u[-1] == 1.0 - 1e-10


# ---------------------------------------------------------------------------
# The shared bisection helper and the bisected h-inverse (Gumbel, Joe).
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(st.floats(-10.0, 10.0), max_size=20),
       ends=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)).filter(
           lambda e: e[0] < e[1]),
       iterations=st.integers(0, 70))
def test_bisect_increasing_brackets_step_crossing(steps, ends, iterations):
    s = np.sort(np.array(steps, dtype=float))
    lo, hi = ends
    # f(x) = #{steps <= x} is a nondecreasing step function and f(x) >= k
    # exactly when x >= s[k-1]; targets 0 and s.size + 1 lie outside its range.
    targets = np.arange(s.size + 2, dtype=float)
    r = cp.bisect_increasing(lambda x: np.searchsorted(s, x, side="right"),
                             targets, lo, hi, iterations)
    crossing = np.clip(np.concatenate([[-np.inf], s, [np.inf]]), lo, hi)
    assert np.all((lo <= r) & (r <= hi))
    tol = (hi - lo) * 2.0 ** -iterations + 2.0 * np.spacing(max(abs(lo), abs(hi)))
    assert np.all(np.abs(r - crossing) <= tol)


def seed_bisect(f, target, lo, hi, iterations):
    """The fixed-count halving loop, the oracle of bisect_increasing's stop
    at a fixed point."""
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        take_hi = f(mid) < target
        lo = np.where(take_hi, mid, lo)
        hi = np.where(take_hi, hi, mid)
    return 0.5 * (lo + hi)


@settings(max_examples=300, deadline=None)
@given(knots=st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(0.0, 1.0)),
                      min_size=1, max_size=12),
       targets=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=20),
       ends=st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)).filter(
           lambda e: e[0] < e[1]),
       iterations=st.integers(0, 90), step=st.booleans(), scalar=st.booleans())
# adjacent doubles as ends: the first halving moves neither
@example(knots=[(0.0, 0.0)], targets=[0.5], ends=(0.0, 5e-324), iterations=3, step=False,
         scalar=True)
def test_bisect_increasing_matches_fixed_count_loop(knots, targets, ends, iterations, step,
                                                    scalar):
    # a nondecreasing f: a step function or a piecewise-linear ramp, flat
    # outside its knots; scalar runs one scalar target on scalar ends
    xs = np.unique([k[0] for k in knots])
    ys = np.sort([k[1] for k in knots])[:xs.size]
    if step:
        def f(x):
            return np.searchsorted(xs, x, side="right") / xs.size
    else:
        def f(x):
            return np.interp(x, xs, ys)
    lo, hi = ends
    target = targets[0] if scalar else np.array(targets)
    if not scalar:
        lo, hi = np.full(target.shape, lo), np.full(target.shape, hi)
    assert_same(cp.bisect_increasing(f, target, lo, hi, iterations),
                seed_bisect(f, target, lo, hi, iterations))


def test_bisect_increasing_stops_at_the_fixed_point():
    calls = []

    def f(x):
        calls.append(1)
        return x

    target = 0.5 + 0.5 * np.random.default_rng(5).random(50)
    got = cp.bisect_increasing(f, target, np.zeros(50), np.ones(50), 90)
    # doubles in [0.5, 1) are 2^-53 apart: once the bracket is that narrow,
    # a halving moves no end
    assert len(calls) <= 55
    assert_same(got, seed_bisect(lambda x: x, target, np.zeros(50), np.ones(50), 90))



@pytest.mark.parametrize("family", ["frank", "joe"])
def test_tau_inversion_matches_the_array_path(family):
    # tau_to_theta bisects on floats; the oracle runs the same 60 halvings
    # on 0-d arrays, bisect_increasing's array path
    row = cp._BASE[family]
    lo, hi = row.bracket
    for tau in np.linspace(0.01, 0.9, 200).tolist():
        oracle = float(cp.bisect_increasing(row.tau, np.asarray(tau), np.asarray(lo),
                                            np.asarray(hi), 60))
        assert cp.tau_to_theta(family, tau).theta.hex() == oracle.hex()
        # Frank mirrors its bracket for a negative tau, Joe rotates
        negative = -oracle if family == "frank" else oracle
        assert cp.tau_to_theta(family, -tau).theta.hex() == negative.hex()

def seed_hinv_bisect(h, t, x, u):
    """Reference 80-halving h-inverse loop, the oracle for bisect_increasing."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    shape = np.broadcast_shapes(x.shape, u.shape)
    lo = np.zeros(shape)
    hi = np.ones(shape)
    xb = np.broadcast_to(x, shape)
    ub = np.broadcast_to(u, shape)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        val = h(t, np.clip(mid, 1e-10, 1.0 - 1e-10), ub)
        take_hi = val < xb
        lo = np.where(take_hi, mid, lo)
        hi = np.where(take_hi, hi, mid)
    v = 0.5 * (lo + hi)
    return np.where(xb <= 0.0, 0.0, np.where(xb >= 1.0, 1.0, v))


@pytest.mark.parametrize("rotation", cp.ROTATIONS)
@pytest.mark.parametrize("theta", [1.0 + 1e-6, 2.5, 50.0])
@pytest.mark.parametrize("family", ["joe"])
def test_bisected_inverse_matches_seed_loop(family, theta, rotation, monkeypatch):
    rng = np.random.default_rng(7)
    x = rng.random(2000)
    u = rng.uniform(1e-10, 1.0 - 1e-10, 2000)
    x[:4] = [0.0, 1e-12, 1.0 - 1e-12, 1.0]
    u[:4] = [1e-10, 1e-10, 1.0 - 1e-10, 0.5]
    model = cp.CopulaModel(family, theta, rotation)
    got = cp.hfunc_inverse(model, x, u)
    monkeypatch.setattr(cp._BASE[family], "hinv",
                        lambda t, xx, uu: seed_hinv_bisect(SEED_H[family], t, xx, uu))
    assert_same(got, cp.hfunc_inverse(model, x, u))


def test_steep_conditional_inverts():
    # h(v | u = 1e-8) rises by more than 1e-8 between adjacent doubles near
    # v = 1, so no v gives a residual below 1e-8; the inverse still exists.
    w = np.random.default_rng(0).random(20000)
    v = cp.hfunc_inverse(cp.tau_to_theta("gumbel", -0.4), w, 1e-8)
    assert np.all((v >= 0.0) & (v <= 1.0))


def test_nan_conditional_raises(monkeypatch):
    # Joe is the family whose h-inverse bisects its h, through _joe_h_at
    monkeypatch.setattr(cp, "_joe_h_at",
                        lambda t, v, a, ex, px: np.full(np.broadcast_shapes(v.shape, a.shape),
                                                        np.nan))
    with pytest.raises(RuntimeError, match="NaN"):
        cp.hfunc_inverse(cp.CopulaModel("joe", 2.0), np.array([0.3, 0.7]), 0.5)


@pytest.mark.parametrize("rotation", cp.ROTATIONS)
@pytest.mark.parametrize("theta", [1.0, 1.0 + 1e-6, 2.5, 50.0])
def test_gumbel_inverse_matches_the_bisection_oracle(theta, rotation, monkeypatch):
    # The closed form and the bisection round differently, so each v is
    # within 1e-11 of the oracle's or leaves a residual |h(v) - x| no larger
    # than the oracle's own, with x and v clipped as the oracle clips them:
    # where h is flat in v (x near 1 at large theta) many v share one residual.
    rng = np.random.default_rng(7)
    x = rng.random(2000)
    u = rng.uniform(1e-10, 1.0 - 1e-10, 2000)
    edge_x, edge_u = np.meshgrid([0.0, 1e-12, 1.0 - 1e-12, 1.0], [1e-10, 0.5, 1.0 - 1e-10])
    x[:12] = edge_x.ravel()
    u[:12] = edge_u.ravel()
    model = cp.CopulaModel("gumbel", theta, rotation)
    got = cp.hfunc_inverse(model, x, u)
    monkeypatch.setattr(cp._BASE["gumbel"], "hinv",
                        lambda t, xx, uu: seed_hinv_bisect(seed_gumbel_h, t, xx, uu))
    ref = cp.hfunc_inverse(model, x, u)

    def residual(v):
        return np.abs(cp.hfunc(model, np.clip(v, cp.EPS, 1.0 - cp.EPS), u)
                      - np.clip(x, cp.EPS, 1.0 - cp.EPS))

    close = np.abs(got - ref) <= 1e-11
    assert np.all(close | (residual(got) <= residual(ref)))


@pytest.mark.parametrize("rotation", cp.ROTATIONS)
def test_gumbel_inverse_at_theta_one_is_the_identity(rotation):
    # theta = 1 is the independence copula: v = x to within 1 ulp, where a
    # rotation that reflects v gives 1 - (1 - x)
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.random(500), 10.0 ** -rng.uniform(0, 10, 500),
                        1.0 - 10.0 ** -rng.uniform(0, 10, 500)])
    u = rng.uniform(1e-10, 1.0 - 1e-10, x.size)
    want = 1.0 - (1.0 - x) if cp._REFLECTS[rotation][1] else x
    v = cp.hfunc_inverse(cp.CopulaModel("gumbel", 1.0, rotation), x, u)
    assert np.all(np.abs(v - want) <= np.spacing(want))


conditioner = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@pytest.mark.parametrize("rotation", cp.ROTATIONS)
@settings(max_examples=300, deadline=None)
@given(theta=st.floats(1.0, 50.0), u=conditioner, x=st.floats(0.0, 1.0))
@example(theta=50.0, u=1e-10, x=1.0 - 1e-10)
@example(theta=50.0, u=1.0 - 1e-10, x=1e-10)
@example(theta=1.0 + 1e-6, u=2.0 ** -53, x=1.0 - 2.0 ** -53)
def test_gumbel_inverse_is_finite_in_the_unit_interval(rotation, theta, u, x):
    # pyproject turns a RuntimeWarning into a failure
    v = cp.hfunc_inverse(cp.CopulaModel("gumbel", theta, rotation), x, u)
    assert 0.0 <= v <= 1.0


def bracket_end_models():
    """Every family and rotation at both ends of its theta bracket."""
    models = [cp.CopulaModel("independence")]
    for family in ("gaussian", "frank", "clayton", "gumbel", "joe"):
        lo, hi = cp.orientation(family, 1.0)[1]
        thetas = (lo, hi, -lo, -hi) if family == "frank" else (lo, hi)
        rotations = cp.ROTATIONS if family in cp.ROTATABLE else (0,)
        models += [cp.CopulaModel(family, t, r) for t in thetas for r in rotations]
    return models


BRACKET_END_MODELS = bracket_end_models()
BRACKET_END_IDS = [m.describe() for m in BRACKET_END_MODELS]
CLAMP = 1e-10
# log-spread over (0, 1): down to the clamp at both ends
log_unit = st.floats(-10.0, 0.0).flatmap(
    lambda e: st.sampled_from([10.0 ** e, 1.0 - 10.0 ** e])).map(
    lambda p: min(max(p, CLAMP), 1.0 - CLAMP))


@pytest.mark.parametrize("model", BRACKET_END_MODELS, ids=BRACKET_END_IDS)
@settings(max_examples=40, deadline=None)
@given(pairs=st.lists(st.tuples(log_unit, log_unit), min_size=1, max_size=16))
def test_hfunc_inverse_brackets_x(model, pairs):
    u, x = np.array(pairs).T
    v = cp.hfunc_inverse(model, x, u)
    lo_x = cp.hfunc(model, CLAMP, u)
    hi_x = cp.hfunc(model, 1.0 - CLAMP, u)
    inside = (x >= lo_x) & (x <= hi_x)
    # |h(v) - x| can exceed 1e-8 here because h jumps by more than that
    # between adjacent doubles, so check that h just below and just above v
    # brackets x.
    delta, tol = 1e-15, 1e-9
    below = cp.hfunc(model, np.clip(v - delta, 0.0, 1.0), u)
    above = cp.hfunc(model, np.clip(v + delta, 0.0, 1.0), u)
    gap = np.maximum(below - x, x - above)
    assert np.all(gap[inside] <= tol), float(np.max(gap[inside]))
    # Outside h's range on the clamped interior v sits at the clamp edge; tol
    # covers the closed forms' rounding near independence, where dh/dv ~ 1.
    assert np.all(v[x < lo_x] <= CLAMP + tol)
    assert np.all(v[x > hi_x] >= 1.0 - CLAMP - tol)


FRANK_THETAS = [s * t for t in (1e-6, 1e-4, 1e-2, 0.3, 0.9, 5.0, 50.0) for s in (1.0, -1.0)]


def frank_decimal(t, u, v):
    """Frank C(u, v), h(v | u), log c(u, v) and h^-1(v | u) to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        t, u, v = Decimal(t), Decimal(u), Decimal(v)
        one = Decimal(1)
        eu, ev, e1 = (-t * u).exp(), (-t * v).exp(), (-t).exp()
        d = eu * ev + e1 - eu - ev
        c = -(d / (e1 - one)).ln() / t
        h = eu * (ev - one) / d
        log_c = abs(t * (e1 - one)).ln() - t * (u + v) - 2 * abs(d).ln()
        hinv = -((eu * (one - v) + v * e1) / (eu * (one - v) + v)).ln() / t
        return float(c), float(h), float(log_c), float(hinv)


@pytest.mark.parametrize("theta", FRANK_THETAS)
def test_frank_matches_decimal_oracle(theta):
    # near independence the four exponentials of the CDF's denominator sum
    # to a value of size ~theta; the expm1/log1p forms keep full precision
    rng = np.random.default_rng(61)
    u, v = rng.random(64), rng.random(64)
    ref = np.array([frank_decimal(theta, a, b) for a, b in zip(u, v)]).T
    model = cp.CopulaModel("frank", theta)
    got = (cp.cdf(model, u, v), cp.hfunc(model, v, u), cp.log_density(model, u, v),
           cp.hfunc_inverse(model, v, u))
    tol = 1e-15 if abs(theta) < 1.0 else 1e-13
    for name, g, r in zip(("cdf", "h", "log_density", "h_inverse"), got, ref):
        assert np.max(np.abs(g - r)) <= tol, (name, float(np.max(np.abs(g - r))))


@pytest.mark.parametrize("theta", [1e-6, -1e-6, 1e-4, -1e-4, 0.3, -0.999])
def test_frank_cdf_monotone_near_independence(theta):
    # C(gamma1, .) over sorted p2, as the hard aggregation evaluates it,
    # including runs of adjacent doubles
    rng = np.random.default_rng(62)
    p2 = np.sort(np.concatenate([rng.random(20_000),
                                 0.5 + np.arange(2000) * np.spacing(0.5),
                                 1e-10 + np.arange(2000) * np.spacing(1e-10)]))
    for gamma1 in (0.05, 0.5, 0.95):
        assert np.all(np.diff(cp.cdf(cp.CopulaModel("frank", theta), gamma1, p2)) >= 0.0)


# the default screen grid's ends and the clamp's
SCAN_ENDS = (CLAMP, 0.005, 0.9995, 1.0 - CLAMP)
clamp_interior = st.floats(CLAMP, 1.0 - CLAMP)


# the closed unit interval: log-spread from both ends down to 1e-12, past the
# clamp, uniform inside and past it, and both ends and their neighbours
closed_unit = st.one_of(
    st.floats(-12.0, 0.0).flatmap(lambda e: st.sampled_from([10.0 ** e, 1.0 - 10.0 ** e])),
    st.floats(0.0, 1.0), st.floats(0.0, CLAMP), st.floats(1.0 - CLAMP, 1.0),
    st.sampled_from([0.0, 1.0, 2.0 ** -1074, 1.0 - 2.0 ** -53]))


@settings(max_examples=300, deadline=None)
@given(theta=st.floats(1e-4, 50.0), u=st.one_of(st.sampled_from(SCAN_ENDS), clamp_interior),
       v=st.lists(st.one_of(closed_unit, clamp_interior), min_size=1, max_size=60))
@example(theta=8.0, u=0.88, v=[1e-10, 1e-9])
@example(theta=8.0, u=0.005, v=[1.0 - 5e-11, 1.0])
def test_rotated_clayton_cdf_is_monotone_within_the_frechet_bounds(theta, u, v):
    """C90(u, .) over sorted v, through the hard scan's prepared path, never
    falls and stays within max(0, u + v - 1) <= C <= min(u, v), the lower
    bound to within the 2^-52 to which u + v rounds: a bisection over p2
    relies on both."""
    v = np.sort(v)
    c = cp.cdf_of(cp.CopulaModel("clayton", theta, 90), v)(u, v.size)
    assert np.all(np.diff(c) >= 0.0)
    assert np.all(c <= np.minimum(u, v))
    assert np.all(c >= np.maximum(0.0, u + v - 1.0) - 2.0 ** -52)


@pytest.mark.parametrize("model", BRACKET_END_MODELS, ids=BRACKET_END_IDS)
@settings(max_examples=40, deadline=None)
@given(u=closed_unit, v=st.lists(closed_unit, min_size=1, max_size=30))
@example(u=1e-12, v=[1.0 - 2.0 ** -53])
@example(u=0.005, v=[1.0 - 5e-11])
def test_cdf_past_the_clamp_interior_keeps_the_frechet_bounds(model, u, v):
    """C(u, .) and C(., u) over sorted v with 0, the clamp and 1 added: a
    value past the clamp interior lies within the Frechet bounds
    max(0, u + v - 1) <= C <= min(u, v) (the lower to within the 2^-52 to
    which u + v rounds), C never falls from 0 to the first interior v or
    from the last interior v to 1, and the margins are exact.  An interior
    value is the formula's, which may pass its own bounds by rounding (or,
    for Joe at theta = 50, by the upper corner's log(0)); the values past
    it are held to the bounds, so it is checked held to its upper bound."""
    v = np.sort(np.concatenate([v, [0.0, CLAMP, 1.0 - CLAMP, 1.0]]))
    upper = np.minimum(u, v)
    lower = np.maximum(0.0, u + v - 1.0) - 2.0 ** -52
    past = (v < CLAMP) | (v > 1.0 - CLAMP) | (not CLAMP <= u <= 1.0 - CLAMP)
    for c in (cp.cdf(model, u, v), cp.cdf(model, v, u)):
        assert np.all((c[past] >= lower[past]) & (c[past] <= upper[past]))
        held = np.minimum(c, upper)
        for edge in (v <= CLAMP, v >= 1.0 - CLAMP):
            assert np.all(np.diff(held[edge]) >= 0.0)
    for c, margin in ((cp.cdf(model, 0.0, v), 0.0 * v), (cp.cdf(model, v, 0.0), 0.0 * v),
                      (cp.cdf(model, 1.0, v), v), (cp.cdf(model, v, 1.0), v),
                      (cp.cdf(model, u, 0.0), 0.0), (cp.cdf(model, 0.0, u), 0.0),
                      (cp.cdf(model, u, 1.0), u), (cp.cdf(model, 1.0, u), u)):
        assert_same(c, margin)


def seed_clayton_ln_a(p, q):
    """The three-exponential Clayton log-sum, the oracle of the two-exponential one."""
    m = np.maximum(p, q)
    return m + np.log(np.exp(p - m) + np.exp(q - m) - np.exp(-m))


@pytest.mark.parametrize("rotation", cp.ROTATIONS)
@pytest.mark.parametrize("theta", [1e-4, 0.571, 50.0])
def test_clayton_two_exponentials_match_three(theta, rotation, monkeypatch):
    model = cp.CopulaModel("clayton", theta, rotation)
    rng = np.random.default_rng(67)
    ends = np.array([0.0, 1e-10, 0.5, 1.0 - 1e-10, 1.0])
    v = np.concatenate([ends, rng.random(200), 10.0 ** -rng.uniform(1, 10, 40),
                        1.0 - 10.0 ** -rng.uniform(1, 10, 40)])
    inner = v[(v > 0.0) & (v < 1.0)]
    firsts = [*ends, 0.3, rng.permutation(v)]  # scalar and array u
    inner_firsts = [1e-10, 0.3, 1.0 - 1e-10, rng.permutation(inner)]

    def evaluate():
        out = []
        with np.errstate(all="ignore"):
            for u in firsts:
                out += [cp.cdf(model, u, v), cp.cdf(model, v, u),
                        cp.hfunc(model, v, interior(u))]
            out += [cp.log_density(model, u, inner) for u in inner_firsts]
        return out

    got = evaluate()
    monkeypatch.setattr(cp, "_clayton_ln_a", seed_clayton_ln_a)
    for g, ref in zip(got, evaluate(), strict=True):
        assert_same(g, ref)


def seed_frank(t, u, v):
    """Frank evaluators of the sum-of-exponentials form, kept for |theta| >= 1;
    the h-inverse's log-sums by np.logaddexp."""
    d = np.exp(-t * (u + v)) + math.exp(-t) - np.exp(-t * u) - np.exp(-t * v)
    g1 = math.expm1(-t)
    lhs = -t * u + np.log1p(-v)
    hinv = -(np.logaddexp(lhs, -t + np.log(v)) - np.logaddexp(lhs, np.log(v))) / t
    return (-np.log(d / g1) / t, np.exp(-t * u) * np.expm1(-t * v) / d,
            math.log(abs(t * g1)) - t * (u + v) - 2.0 * np.log(np.abs(d)), hinv)


@pytest.mark.parametrize("theta", [1.0, -1.0, 5.0, -5.0, 50.0, -50.0])
def test_frank_unchanged_away_from_independence(theta):
    rng = np.random.default_rng(63)
    u, v = rng.uniform(0.001, 0.999, 1000), rng.uniform(0.001, 0.999, 1000)
    got = (cp._frank_cdf_at(theta, u, *cp._frank_cdf_v(theta, v)), cp._frank_h(theta, v, u),
           cp._frank_logpdf(theta, u, v), cp._frank_hinv(theta, v, u))
    *same, (hinv, seed_hinv) = zip(got, seed_frank(theta, u, v), strict=True)
    for g, ref in same:
        np.testing.assert_array_equal(g, ref)
    assert_near(hinv, seed_hinv)


# ---------------------------------------------------------------------------
# cdf, hfunc and hfunc_inverse against the seed evaluators, which expand both
# inputs to a common shape and clip and test the boundary on every call.
# ---------------------------------------------------------------------------


def seed_as_unit(name, value, lo_open=False, hi_open=False):
    arr = np.asarray(value, dtype=float)
    lo_ok = np.all(arr > 0.0) if lo_open else np.all(arr >= 0.0)
    hi_ok = np.all(arr < 1.0) if hi_open else np.all(arr <= 1.0)
    if not (lo_ok and hi_ok):
        lo_b = "(" if lo_open else "["
        hi_b = ")" if hi_open else "]"
        raise ValueError(f"{name} must lie in {lo_b}0, 1{hi_b}")
    return arr


def seed_maybe_scalar(out, *inputs):
    if all(np.isscalar(a) or np.ndim(a) == 0 for a in inputs):
        return float(np.asarray(out).reshape(()))
    return out


def seed_frank_cdf(t, u, v):
    if abs(t) < 1.0:
        return -np.log1p(np.expm1(-t * u) * np.expm1(-t * v) / math.expm1(-t)) / t
    d = np.exp(-t * (u + v)) + math.exp(-t) - np.exp(-t * u) - np.exp(-t * v)
    return -np.log(d / math.expm1(-t)) / t


def seed_clayton_cdf(t, u, v):
    p = -t * np.log(u)
    q = -t * np.log(v)
    m = np.maximum(p, q)
    ln_a = m + np.log(1.0 + np.exp(-np.abs(p - q)) - np.exp(-m))
    return np.exp(-ln_a / t)


def seed_joe_parts(t, l1u, l1v):
    lx = t * l1u
    ly = t * l1v
    ex = -np.expm1(lx)
    ey = -np.expm1(ly)
    prod = ex * ey
    with np.errstate(divide="ignore"):
        ln_t = np.where(prod < 0.5, np.log1p(-prod),
                        np.log(np.exp(lx) + np.exp(ly) * ex))
    return lx, ly, ex, ey, ln_t


# Each base family's CDF and the Gumbel and Joe h(v | u) in one piece, as
# they were before each was split into what depends on its fixed argument
# alone and an evaluation at the other: the oracles of the split.
SEED_BASE_CDF = {
    "independence": lambda t, u, v: u * v,
    "gaussian": lambda t, u, v: bvn_cdf(ndtri(u), ndtri(v), t),
    "frank": seed_frank_cdf,
    "clayton": seed_clayton_cdf,
    "gumbel": lambda t, u, v: np.exp(-np.exp(
        np.logaddexp(t * np.log(-np.log(u)), t * np.log(-np.log(v))) / t)),
    "joe": lambda t, u, v: -np.expm1(seed_joe_parts(t, np.log1p(-u), np.log1p(-v))[4] / t),
}


def seed_gumbel_h(t, v, u):
    lu = np.log(u)
    la = np.log(-lu)
    ln_s = np.logaddexp(t * la, t * np.log(-np.log(v)))
    w = np.exp(ln_s / t)
    return np.exp(-w + (t - 1.0) * la + (1.0 / t - 1.0) * ln_s - lu)


def seed_joe_h(t, v, u):
    lx, _, _, ey, ln_t = seed_joe_parts(t, np.log1p(-u), np.log1p(-v))
    return np.exp((1.0 - 1.0 / t) * lx + np.log(ey) + (1.0 / t - 1.0) * ln_t)


SEED_H = {"gumbel": seed_gumbel_h, "joe": seed_joe_h}


def seed_cdf(model, u, v):
    """C(u, v) as the seed code computed it, with the edge rule of the
    Frechet bounds: an entry past the clamp interior is evaluated on the
    clipped u and v, held to max(v - (1 - u), u - (1 - v), 0) <= C <= min(u, v)
    of the given ones, and takes the margins at 0 and 1."""
    uu = seed_as_unit("u", u)
    vv = seed_as_unit("v", v)
    uu, vv = np.broadcast_arrays(uu, vv)
    base_cdf = SEED_BASE_CDF[model.family]
    t = model.theta
    ui = np.clip(uu, 1e-10, 1.0 - 1e-10)
    vi = np.clip(vv, 1e-10, 1.0 - 1e-10)
    r = model.rotation
    if r == 0:
        inner = base_cdf(t, ui, vi)
    elif r == 90:
        inner = vi - base_cdf(t, 1.0 - ui, vi)
    elif r == 180:
        inner = ui + vi - 1.0 + base_cdf(t, 1.0 - ui, 1.0 - vi)
    else:
        inner = ui - base_cdf(t, ui, 1.0 - vi)
    lower = np.maximum(np.maximum(vv - (1.0 - uu), uu - (1.0 - vv)), 0.0)
    inner = np.where((uu != ui) | (vv != vi), np.clip(inner, lower, np.minimum(uu, vv)), inner)
    out = np.where(uu <= 0.0, 0.0, np.where(vv <= 0.0, 0.0,
                   np.where(uu >= 1.0, vv, np.where(vv >= 1.0, uu, inner))))
    out = np.clip(out, 0.0, 1.0)
    return seed_maybe_scalar(out, u, v)


def seed_conditional(model, kind, value, given_u):
    """hfunc (kind "h") or hfunc_inverse (kind "hinv") as the seed code
    computed them."""
    base_fn = getattr(cp._BASE[model.family], kind)
    if kind == "h":
        base_fn = SEED_H.get(model.family, base_fn)
    aa = seed_as_unit("v" if kind == "h" else "x", value)
    uu = seed_as_unit("given_u", given_u, lo_open=True, hi_open=True)
    aa, uu = np.broadcast_arrays(aa, uu)
    t = model.theta
    ai = np.clip(aa, 1e-10, 1.0 - 1e-10)
    r = model.rotation
    if r == 0:
        inner = base_fn(t, ai, uu)
    elif r == 90:
        inner = base_fn(t, ai, 1.0 - uu)
    elif r == 180:
        inner = 1.0 - base_fn(t, 1.0 - ai, 1.0 - uu)
    else:
        inner = 1.0 - base_fn(t, 1.0 - ai, uu)
    out = np.where(aa <= 0.0, 0.0, np.where(aa >= 1.0, 1.0, inner))
    out = np.clip(out, 0.0, 1.0)
    return seed_maybe_scalar(out, value, given_u)


def assert_same(got, ref):
    """Same type, shape and bits (NaN equal to NaN, -0.0 unequal to 0.0)."""
    assert type(got) is type(ref)
    g, r = np.asarray(got), np.asarray(ref)
    assert g.shape == r.shape
    assert np.array_equal(g, r, equal_nan=True)
    assert np.array_equal(np.signbit(g), np.signbit(r))


# The seed formulas take Gumbel's log-sum and Frank's h-inverse log-sums with
# np.logaddexp, which rounds differently from copula._logaddexp in the last
# bits.  Those values are checked to within this tolerance relative to
# max(1, |seed value|); on 2 million random Gumbel points across the bracket
# the largest such difference was 2.8e-14 (log-density) and 1.7e-14 (h).
LOGADDEXP_TOL = 1e-13


def assert_near(got, ref, tol=LOGADDEXP_TOL):
    """Same type, shape, NaNs and infinities, and finite values within
    tol * max(1, |ref|)."""
    assert type(got) is type(ref)
    g, r = np.asarray(got), np.asarray(ref)
    assert g.shape == r.shape
    finite = np.isfinite(r)
    assert np.array_equal(g[~finite], r[~finite], equal_nan=True)
    err = np.abs(g[finite] - r[finite])
    assert np.all(err <= tol * np.maximum(1.0, np.abs(r[finite]))), float(np.max(err))


def assert_seed(model):
    """The check of a model's values against a seed formula: to within
    LOGADDEXP_TOL for Gumbel, whose seed formulas call np.logaddexp, bit for
    bit for every other family."""
    return assert_near if model.family == "gumbel" else assert_same


def assert_seed_cdf(model):
    """The check of a model's CDF against seed_cdf: assert_seed's, except
    for Clayton under rotations 90 and 270, whose survival form is checked
    with assert_near: there the seed's difference v - C(1 - u, v) is the
    inaccurate side (test_rotated_clayton_cdf_matches_mpmath bounds the
    survival form).  The seed's C(1 - u, v) divides a log-sum of absolute
    error about 2^-52 by theta, so near independence the tolerance is that
    error, 8 * 2^-52 / theta (1.8e-11 at theta = 1e-4; the largest
    difference seen there was 2.3e-12), where it exceeds LOGADDEXP_TOL."""
    if model.family == "clayton" and model.rotation in (90, 270):
        return functools.partial(assert_near,
                                 tol=max(LOGADDEXP_TOL, 8.0 * 2.0 ** -52 / model.theta))
    return assert_seed(model)


# both ends of the unit interval, the clamp and points between it and the ends
EDGE_POINTS = np.array([0.0, 1e-12, 1e-10, 0.3, 0.7, 1.0 - 1e-10, 1.0 - 1e-12, 1.0])


def oracle_inputs():
    """(first, second) argument pairs: scalar with array, array with array,
    2-d broadcasting, edge values and empty arrays."""
    rng = np.random.default_rng(64)
    inner = np.concatenate([rng.random(120), EDGE_POINTS, 10.0 ** -rng.uniform(4, 12, 20)])
    scalars = [0.005, 0.5, 0.995, *EDGE_POINTS]
    pairs = [(s, inner) for s in scalars]
    pairs += [(inner, s) for s in (0.25, 1e-10, 1.0)]
    pairs.append((rng.permutation(inner), inner))
    pairs.append((inner[:3].reshape(3, 1), inner[3:7]))
    pairs.append((inner[:3].reshape(3, 1), EDGE_POINTS))  # past the clamp in v alone
    pairs.append((np.array([[0.0], [0.4], [1.0]]), EDGE_POINTS[:4]))
    pairs += [(0.3, np.empty(0)), (np.empty(0), np.empty(0))]
    pairs += [(a, b) for a in (0.2, 1e-10, 1.0) for b in (0.0, 0.6, 1.0 - 1e-12)]
    pairs.append((np.float64(0.3), np.array(0.6)))  # scalars in give a float out
    return pairs


def interior(x):
    """The pair's first argument restricted to (0, 1), for the conditioner."""
    return np.clip(x, 1e-10, 1.0 - 1e-10) if np.ndim(x) else min(max(x, 1e-10), 1.0 - 1e-10)


@pytest.mark.parametrize("model", BRACKET_END_MODELS, ids=BRACKET_END_IDS)
def test_cdf_matches_seed_cdf(model):
    check = assert_seed_cdf(model)
    with np.errstate(all="ignore"):
        for u, v in oracle_inputs():
            check(cp.cdf(model, u, v), seed_cdf(model, u, v))
            check(cp.cdf(model, v, u), seed_cdf(model, v, u))


@pytest.mark.parametrize("model", BRACKET_END_MODELS, ids=BRACKET_END_IDS)
def test_conditionals_match_seed(model):
    # the seed h-inverses are the module's own, so they match bit for bit
    check = assert_seed(model)
    with np.errstate(all="ignore"):
        for u, v in oracle_inputs():
            given_u = interior(u)
            check(cp.hfunc(model, v, given_u), seed_conditional(model, "h", v, given_u))
            assert_same(cp.hfunc_inverse(model, v, given_u),
                        seed_conditional(model, "hinv", v, given_u))


def split_models():
    """Every family and rotation with theta at both ends and the middle of
    its bracket, Frank on both sides of |theta| = 1, and Gaussian at +-0.9999
    and in each bvn_cdf branch: 6, 12 and 20 nodes and the tail expansion
    from its edge at |rho| = 0.925."""
    models = [cp.CopulaModel("independence")]
    thetas = {"gaussian": (-0.9999, -0.3, 0.5, 0.9999, 0.1, 0.8, -0.8, 0.93, -0.93),
              "frank": (1e-6, -1e-6, 0.9, -0.9, 1.0, -1.0, 5.0, -5.0, 50.0, -50.0),
              "clayton": (1e-4, 1.5, 50.0),
              "gumbel": (1.0 + 1e-6, 2.5, 50.0),
              "joe": (1.0 + 1e-6, 2.5, 50.0)}
    for family, ts in thetas.items():
        rotations = cp.ROTATIONS if family in cp.ROTATABLE else (0,)
        models += [cp.CopulaModel(family, t, r) for t in ts for r in rotations]
    return models


SPLIT_MODELS = split_models()
SPLIT_IDS = [m.describe() for m in SPLIT_MODELS]


def split_v():
    """v with both ends, the clamp and points past it, and log-spread tails."""
    rng = np.random.default_rng(69)
    return np.concatenate([[0.0, 1.0, 1e-12, cp.EPS, 1.0 - cp.EPS, 1.0 - 1e-12],
                           rng.random(60), 10.0 ** -rng.uniform(1, 12, 20),
                           1.0 - 10.0 ** -rng.uniform(1, 12, 20)])


@pytest.mark.parametrize("model", SPLIT_MODELS, ids=SPLIT_IDS)
def test_prepared_cdf_matches_the_unsplit_formula(model):
    v = split_v()
    # v's values past the clamp interior at its start, from index 30 on, and nowhere
    interior_v = np.clip(v, 1e-6, 1.0 - 1e-6)
    check = assert_seed_cdf(model)
    with np.errstate(all="ignore"):
        for vs in (v, np.roll(v, 30), interior_v):
            at = cp.cdf_of(model, vs)
            for u in (0.0, 1e-12, cp.EPS, 0.005, 0.3, 0.995, 1.0 - cp.EPS, 1.0):
                for n in (0, 1, 7, 31, vs.size):
                    got = at(u, n)
                    assert_same(got, cp.cdf(model, u, vs[:n]))
                    check(got, seed_cdf(model, u, vs[:n]))


@settings(max_examples=200, deadline=None)
@given(model=st.sampled_from(SPLIT_MODELS),
       v=st.lists(st.one_of(log_unit, st.sampled_from([0.0, 1.0, 1e-12, 1.0 - 1e-12]),
                            st.floats(0.0, 1.0)), min_size=1, max_size=40),
       u=st.one_of(log_unit, st.floats(0.0, 1.0)),
       data=st.data())
def test_prepared_cdf_matches_the_unsplit_formula_anywhere(model, v, u, data):
    v = np.array(v)
    n = data.draw(st.integers(0, v.size))
    with np.errstate(all="ignore"):
        got = cp.cdf_of(model, v)(u, n)
        assert_same(got, cp.cdf(model, u, v[:n]))
        assert_seed_cdf(model)(got, seed_cdf(model, u, v[:n]))


@pytest.mark.parametrize("bad_v, message", [
    (0.5, r"^v must be a 1-d array, got shape \(\)$"),
    ([[0.5]], r"^v must be a 1-d array, got shape \(1, 1\)$"),
    ([0.5, 1.5], r"^v must lie in \[0, 1\]$"),
])
def test_cdf_of_rejects_bad_v(bad_v, message):
    with pytest.raises(ValueError, match=message):
        cp.cdf_of(cp.CopulaModel("clayton", 2.0), bad_v)


@pytest.mark.parametrize("u, n, message", [
    (np.array([0.5]), 1, "^u must be a scalar$"),
    (1.5, 1, r"^u must lie in \[0, 1\]$"),
    (np.nan, 1, r"^u must lie in \[0, 1\]$"),
    (0.5, 4, r"^prefix length must lie in \[0, 3\], got 4$"),
    (0.5, -1, r"^prefix length must lie in \[0, 3\], got -1$"),
])
def test_prepared_cdf_rejects_bad_arguments(u, n, message):
    at = cp.cdf_of(cp.CopulaModel("clayton", 2.0), np.array([0.2, 0.5, 0.9]))
    with pytest.raises(ValueError, match=message):
        at(u, n)


BAD_UNIT = [np.nan, -0.1, 1.1, np.inf, [0.2, np.nan], [0.2, 1.5], [[0.3], [-1e-300]]]


@pytest.mark.parametrize("bad", BAD_UNIT, ids=repr)
def test_bad_inputs_raise_the_seed_messages(bad):
    model = cp.CopulaModel("clayton", 2.0)
    calls = [
        (cp.cdf, seed_cdf, (bad, 0.5)),
        (cp.cdf, seed_cdf, (0.5, bad)),
        (cp.hfunc, lambda m, v, u: seed_conditional(m, "h", v, u), (bad, 0.5)),
        (cp.hfunc_inverse, lambda m, x, u: seed_conditional(m, "hinv", x, u), (bad, 0.5)),
    ]
    for fn, seed_fn, args in calls:
        with pytest.raises(ValueError) as seed_err:
            seed_fn(model, *args)
        with pytest.raises(ValueError, match=f"^{re.escape(str(seed_err.value))}$"):
            fn(model, *args)


@pytest.mark.parametrize("given_u", [0.0, 1.0, [0.5, 1.0], [1e-10, 0.0]], ids=repr)
def test_conditioner_on_the_closed_interval_matches_the_seed_at_the_clamp(given_u):
    # seed_conditional takes given_u on the open (0, 1) only, so it gets the clamp edge
    model = cp.CopulaModel("gumbel", 2.0, 270)
    clamped = np.clip(given_u, 1e-10, 1.0 - 1e-10)
    clamped = clamped if np.ndim(given_u) else float(clamped)
    for fn, kind in ((cp.hfunc, "h"), (cp.hfunc_inverse, "hinv")):
        assert_same(fn(model, 0.5, given_u), seed_conditional(model, kind, 0.5, clamped))
    assert_same(cp.log_density(model, given_u, 0.5), cp.log_density(model, clamped, 0.5))


@pytest.mark.parametrize("given_u", [np.nan, -0.1, 1.5, [0.5, np.nan], [1e-10, 1.5]], ids=repr)
def test_conditioner_outside_the_closed_interval_raises(given_u):
    model = cp.CopulaModel("gumbel", 2.0, 270)
    for fn in (cp.hfunc, cp.hfunc_inverse):
        with pytest.raises(ValueError, match=r"^given_u must lie in \[0, 1\]$"):
            fn(model, 0.5, given_u)
    with pytest.raises(ValueError, match=r"^u must lie in \[0, 1\]$"):
        cp.log_density(model, given_u, 0.5)


# ---------------------------------------------------------------------------
# Kendall tau maps against the seed code, which spelled out each family's
# tau, bracket and inverse in if-chains and a literal dict.
# ---------------------------------------------------------------------------


def seed_base_tau(family, theta):
    if family == "independence":
        return 0.0
    if family == "gaussian":
        return 2.0 / math.pi * math.asin(theta)
    if family == "clayton":
        return theta / (theta + 2.0)
    if family == "gumbel":
        return 1.0 - 1.0 / theta
    if family == "frank":
        return math.copysign(cp._frank_tau_positive(abs(theta)), theta)
    return cp._joe_tau(theta)


def seed_kendall_tau(model):
    tau = seed_base_tau(model.family, model.theta)
    return -tau if model.rotation in (90, 270) else tau


def seed_theta_bracket(family):
    return {
        "gaussian": (-0.9999, 0.9999),
        "frank": (1e-6, 50.0),
        "clayton": (1e-4, 50.0),
        "gumbel": (1.0 + 1e-6, 50.0),
        "joe": (1.0 + 1e-6, 50.0),
    }[family]


def seed_tau_to_theta(family, tau, rotation=None):
    if family not in cp.FAMILIES:
        raise ValueError(f"unknown copula family {family!r}")
    if not -1.0 < tau < 1.0:
        raise ValueError(f"kendall tau must be in (-1, 1), got {tau}")
    if family == "independence":
        if tau != 0.0:
            raise ValueError("independence copula requires tau = 0")
        if rotation not in (None, 0):
            raise ValueError("independence copula does not take a rotation")
        return cp.CopulaModel("independence")
    if family in ("gaussian", "frank"):
        if rotation not in (None, 0):
            raise ValueError(f"{family} copula does not take a rotation")
        if family == "gaussian":
            return cp.CopulaModel("gaussian", math.sin(math.pi * tau / 2.0))
        if tau == 0.0:
            raise ValueError("frank copula is undefined at tau = 0; use independence")
        lo, hi = seed_theta_bracket("frank")
        theta = cp._invert_tau(cp._frank_tau_positive, abs(tau), lo, hi)
        return cp.CopulaModel("frank", math.copysign(theta, tau))
    if rotation is None:
        rotation = 0 if tau >= 0.0 else 90
    if tau > 0.0 and rotation not in (0, 180):
        raise ValueError(f"positive tau requires rotation 0 or 180, got {rotation}")
    if tau < 0.0 and rotation not in (90, 270):
        raise ValueError(f"negative tau requires rotation 90 or 270, got {rotation}")
    mag = abs(tau)
    if family == "clayton":
        if mag == 0.0:
            raise ValueError("clayton copula is undefined at tau = 0; use independence")
        theta = 2.0 * mag / (1.0 - mag)
    elif family == "gumbel":
        theta = 1.0 / (1.0 - mag)
    elif mag == 0.0:
        theta = 1.0
    else:
        lo, hi = seed_theta_bracket("joe")
        theta = cp._invert_tau(cp._joe_tau, mag, lo, hi)
    return cp.CopulaModel(family, theta, rotation)


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def same_model(got, ref):
    """Equal models with theta equal bit for bit, sign of zero included."""
    if not isinstance(ref, cp.CopulaModel):
        return got == ref
    return (isinstance(got, cp.CopulaModel) and got == ref
            and (ref.theta is None or math.copysign(1.0, got.theta)
                 == math.copysign(1.0, ref.theta)))


ORACLE_TAUS = [s * t for t in (0.9, 0.7, 0.4, 0.1, 1e-4, 1e-9, 0.0) for s in (1.0, -1.0)]


@pytest.mark.parametrize("family", [*cp.FAMILIES, "foo"])
def test_tau_to_theta_matches_seed(family):
    for tau in ORACLE_TAUS:
        got = outcome(cp.tau_to_theta, family, tau)
        ref = outcome(seed_tau_to_theta, family, tau, None)
        assert same_model(got, ref), (family, tau, got, ref)


# The seed's two statements of the orientation rule: fit's bracket of
# inversion and fitting, and select_copula's inline rotation.
def seed_fit_bracket(family, tau_sign):
    lo, hi = cp.orientation(family, 1.0)[1]
    if family == "frank" and tau_sign < 0.0:
        return -hi, -lo
    return lo, hi


def seed_rotation(family, tau):
    return 90 if (family in ("clayton", "gumbel", "joe") and tau < 0.0) else 0


@pytest.mark.parametrize("family", [*cp.FAMILIES, "foo"])
def test_orientation_matches_seed(family):
    for tau in [s * t for t in (0.9, 0.4, 1e-9, 0.0) for s in (1.0, -1.0)]:
        got = outcome(cp.orientation, family, tau)
        if family == "independence":
            # the seed bracket raised here, and the placeholder took theta None
            assert got == (seed_rotation(family, tau), None)
            continue
        ref = outcome(lambda: (seed_rotation(family, tau), seed_fit_bracket(family, tau)))
        assert got == ref, (family, tau, got, ref)


@pytest.mark.parametrize("family", [f for f in cp.FAMILIES if f != "independence"])
def test_kendall_tau_at_bracket_ends_matches_seed(family):
    assert cp.orientation(family, 1.0)[1] == seed_theta_bracket(family)
    lo, hi = seed_theta_bracket(family)
    thetas = (lo, hi, -lo, -hi) if family == "frank" else (lo, hi)
    rotations = cp.ROTATIONS if family in cp.ROTATABLE else (0,)
    for theta in thetas:
        for rotation in rotations:
            model = cp.CopulaModel(family, theta, rotation)
            got, ref = cp.kendall_tau(model), seed_kendall_tau(model)
            assert got == ref and math.copysign(1.0, got) == math.copysign(1.0, ref)


def test_independence_kendall_tau_matches_seed():
    model = cp.CopulaModel("independence")
    assert cp.kendall_tau(model) == seed_kendall_tau(model) == 0.0


@pytest.mark.parametrize("family", cp.FAMILIES)
def test_orientation_of_a_nan_tau_raises(family):
    # a NaN compares False with 0, so unchecked it would count as a positive tau
    for tau in (math.nan, np.float64("nan")):
        with pytest.raises(ValueError, match="^kendall tau must not be NaN$"):
            cp.orientation(family, tau)


def test_orientation_of_unknown_family_raises_value_error():
    # the one intended difference: the seed's dict lookup raised KeyError
    with pytest.raises(KeyError):
        seed_theta_bracket("foo")
    for tau in (0.4, 0.0, -0.4):
        with pytest.raises(ValueError, match="^unknown copula family 'foo'$"):
            cp.orientation("foo", tau)


# ---------------------------------------------------------------------------
# log_density against the seed code, which evaluated each family's
# log-density as one formula of (theta, u, v), recomputing the theta-free
# transforms of the pairs on every call.
# ---------------------------------------------------------------------------


def seed_logpdf(family, t, u, v):
    if family == "independence":
        return np.zeros(np.broadcast_shapes(np.shape(u), np.shape(v)))
    if family == "gaussian":
        x, y = ndtri(u), ndtri(v)
        s2 = 1.0 - t * t
        return -0.5 * np.log(s2) - (t * t * (x * x + y * y) - 2.0 * t * x * y) / (2.0 * s2)
    if family == "frank":
        if abs(t) < 1.0:
            x = np.expm1(-t * u) * np.expm1(-t * v) / math.expm1(-t)
            return math.log(-t / math.expm1(-t)) - t * (u + v) - 2.0 * np.log1p(x)
        return seed_frank(t, u, v)[2]
    if family == "clayton":
        p, q = -t * np.log(u), -t * np.log(v)
        m = np.maximum(p, q)
        ln_a = m + np.log(np.exp(p - m) + np.exp(q - m) - np.exp(-m))
        return math.log1p(t) - (t + 1.0) * (np.log(u) + np.log(v)) - (2.0 + 1.0 / t) * ln_a
    if family == "gumbel":
        la, lb = np.log(-np.log(u)), np.log(-np.log(v))
        ln_s = np.logaddexp(t * la, t * lb)
        w = np.exp(ln_s / t)
        return (-w + (t - 1.0) * (la + lb) + (2.0 / t - 2.0) * ln_s
                - np.log(u) - np.log(v) + np.log1p((t - 1.0) / w))
    lx, ly = t * np.log1p(-u), t * np.log1p(-v)
    ex, ey = -np.expm1(lx), -np.expm1(ly)
    prod = ex * ey
    ln_t = np.where(prod < 0.5, np.log1p(-prod), np.log(np.exp(lx) + np.exp(ly) * ex))
    return ((1.0 / t - 2.0) * ln_t + (1.0 - 1.0 / t) * (lx + ly)
            + np.log(t - 1.0 + np.exp(ln_t)))


def seed_log_density(model, u, v):
    uu = seed_as_unit("u", u, lo_open=True, hi_open=True)
    vv = seed_as_unit("v", v, lo_open=True, hi_open=True)
    r = model.rotation
    ru = 1.0 - uu if r in (90, 180) else uu
    rv = 1.0 - vv if r in (180, 270) else vv
    return seed_maybe_scalar(seed_logpdf(model.family, model.theta, ru, rv), u, v)


# theta across each bracket; Frank on both sides of |theta| = 1, where its
# formula switches form
LOG_DENSITY_THETAS = {
    "independence": [None],
    "gaussian": [-0.9999, -0.6, -1e-3, 1e-3, 0.3, 0.9999],
    "frank": [s * t for t in (1e-6, 0.01, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 3.0, 50.0)
              for s in (1.0, -1.0)],
    "clayton": [1e-4, 0.05, 1.0, 7.5, 50.0],
    "gumbel": [1.0 + 1e-6, 1.3, 2.0, 12.0, 50.0],
    "joe": [1.0 + 1e-6, 1.5, 2.0, 9.0, 50.0],
}
LOG_DENSITY_MODELS = [cp.CopulaModel(f, t, r) for f, thetas in LOG_DENSITY_THETAS.items()
                      for t in thetas
                      for r in (cp.ROTATIONS if f in cp.ROTATABLE else (0,))]


def log_density_inputs():
    """(u, v) pairs: arrays with points at and inside the 1e-10 clamp, a
    scalar against an array, 2-d broadcasting and scalars."""
    rng = np.random.default_rng(65)
    ends = np.array([CLAMP, 1e-7, 0.5, 1.0 - 1e-7, 1.0 - CLAMP])
    inner = np.concatenate([rng.random(100), ends, 10.0 ** -rng.uniform(4, 10, 20),
                            1.0 - 10.0 ** -rng.uniform(4, 10, 20)])
    pairs = [(inner, rng.permutation(inner)), (np.repeat(ends, 5), np.tile(ends, 5))]
    pairs += [(s, inner) for s in (CLAMP, 0.3, 1.0 - CLAMP)]
    pairs += [(inner[:4].reshape(4, 1), ends), (0.3, 0.6), (np.float64(CLAMP), 1.0 - CLAMP)]
    return pairs


@pytest.mark.parametrize("model", LOG_DENSITY_MODELS, ids=[m.describe() for m in
                                                           LOG_DENSITY_MODELS])
def test_log_density_matches_seed(model):
    check = assert_seed(model)
    with np.errstate(all="ignore"):
        for u, v in log_density_inputs():
            ref = seed_log_density(model, u, v)
            check(cp.log_density(model, u, v), ref)
            check(cp.log_density_of(model.family, model.rotation, u, v)(model.theta), ref)


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(cp.FAMILIES[1:]), where=st.floats(0.0, 1.0),
       negative=st.booleans(), rotation=st.sampled_from(cp.ROTATIONS),
       pairs=st.lists(st.tuples(log_unit, log_unit), min_size=1, max_size=16))
def test_log_density_of_matches_seed_over_the_bracket(family, where, negative, rotation,
                                                      pairs):
    # one prepared pair set evaluated at two thetas, as a fit's steps are
    lo, hi = cp.orientation(family, 1.0)[1]
    thetas = [min(max(t, lo), hi) for t in (lo + where * (hi - lo), hi - where * (hi - lo))]
    if family == "frank" and negative:
        thetas = [-t for t in thetas]
    rotation = rotation if family in cp.ROTATABLE else 0
    u, v = np.array(pairs).T
    at = cp.log_density_of(family, rotation, u, v)
    with np.errstate(all="ignore"):
        for theta in thetas:
            model = cp.CopulaModel(family, theta, rotation)
            assert_seed(model)(at(theta), seed_log_density(model, u, v))


@pytest.mark.parametrize("family, rotation, theta", [
    ("foo", 0, 1.0), ("gaussian", 90, 0.5), ("clayton", 45, 2.0),
    ("clayton", 0, -1.0), ("gumbel", 90, 0.5), ("frank", 0, 0.0),
    ("gaussian", 0, 1.0), ("independence", 0, 0.3), ("joe", 0, float("nan")),
])
def test_log_density_of_rejects_what_copula_model_rejects(family, rotation, theta):
    with pytest.raises(ValueError) as model_err:
        cp.CopulaModel(family, theta, rotation)
    with pytest.raises(ValueError, match=f"^{re.escape(str(model_err.value))}$"):
        cp.log_density_of(family, rotation, [0.3, 0.6], [0.5, 0.2])(theta)


# ---------------------------------------------------------------------------
# One input rule for every evaluator: check the coordinates, clip those past
# the clamp interior [1e-10, 1 - 1e-10] into it, then reflect.
# ---------------------------------------------------------------------------


def bracket_models():
    """Every family and rotation at both ends and the middle of its bracket,
    Frank on both sides of 0."""
    models = [cp.CopulaModel("independence")]
    for family in ("gaussian", "frank", "clayton", "gumbel", "joe"):
        lo, hi = cp.orientation(family, 1.0)[1]
        thetas = (lo, 0.5 * (lo + hi), hi)
        if family == "frank":
            thetas += tuple(-t for t in thetas)
        rotations = cp.ROTATIONS if family in cp.ROTATABLE else (0,)
        models += [cp.CopulaModel(family, t, r) for t in thetas for r in rotations]
    return models


BRACKET_MODELS = bracket_models()
BRACKET_IDS = [m.describe() for m in BRACKET_MODELS]
# inside (0, 1) but past the clamp interior: 1 - u rounds to 1 from 2**-54 down,
# and 1 - 2**-53 is the largest double below 1
PAST_INTERIOR = (5e-324, 2.0 ** -60, 2.0 ** -54, 2.0 ** -53, 1e-12,
                 1.0 - 1e-12, 1.0 - 2.0 ** -52, 1.0 - 2.0 ** -53)
RULE_POINTS = PAST_INTERIOR[:5] + (CLAMP, 0.3, 0.7, 1.0 - CLAMP) + PAST_INTERIOR[5:]
GRID = [(a, b) for a in RULE_POINTS for b in RULE_POINTS]
open_unit = st.one_of(st.sampled_from(RULE_POINTS),
                      st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


def joe_upper_corner(model, u, v):
    """Where Joe's (1 - u)^theta and (1 - v)^theta, after the clip and the
    rotation, both underflow to 0: its log T takes log(0) there, and its
    log-density is +inf (see test_joe_log_density_is_finite_in_the_upper_corner)."""
    u, v = np.broadcast_arrays(*(np.clip(x, CLAMP, 1.0 - CLAMP) for x in (u, v)))
    if model.family != "joe":
        return np.zeros(u.shape, dtype=bool)
    ru, rv = cp._rotated_args(model.rotation, u, v)
    return ((np.exp(model.theta * np.log1p(-ru)) == 0.0)
            & (np.exp(model.theta * np.log1p(-rv)) == 0.0))


@pytest.mark.parametrize("model", BRACKET_MODELS, ids=BRACKET_IDS)
@settings(max_examples=25, deadline=None)
@given(pairs=st.lists(st.tuples(open_unit, open_unit), min_size=1, max_size=8))
@example(pairs=GRID)
def test_every_evaluator_is_finite_past_the_clamp_interior(model, pairs):
    # pyproject turns a RuntimeWarning into a failure
    u, v = np.array(pairs).T
    for args in ((u, v), (u[0], v[0])):
        for fn in (cp.cdf, cp.hfunc, cp.hfunc_inverse):
            out = np.asarray(fn(model, *args))
            assert np.all((out >= 0.0) & (out <= 1.0)), fn.__name__
        ll = cp.log_density(model, *args)
        assert np.all(np.isfinite(ll) | joe_upper_corner(model, *args))


@pytest.mark.xfail(strict=True, reason="Joe's log T takes log(0) when (1 - u)^theta and "
                   "(1 - v)^theta both underflow")
def test_joe_log_density_is_finite_in_the_upper_corner():
    u = 1.0 - CLAMP
    assert joe_upper_corner(cp.CopulaModel("joe", 50.0), u, u)
    assert math.isfinite(cp.log_density(cp.CopulaModel("joe", 50.0), u, u))


@pytest.mark.parametrize("model", BRACKET_MODELS, ids=BRACKET_IDS)
def test_a_coordinate_past_the_interior_evaluates_at_the_clamp(model):
    # the closed interval's ends 0 and 1 too, bit for bit, except as h's v and its
    # inverse's x, which keep them as the margins h(0 | u) = 0 and h(1 | u) = 1
    with_ends = (0.0, *PAST_INTERIOR, 1.0)
    other = np.array([CLAMP, 0.3, 0.7, 1.0 - CLAMP])[:, None]
    for fn in (cp.hfunc, cp.hfunc_inverse, cp.log_density):
        first = with_ends if fn is cp.log_density else PAST_INTERIOR
        for points, put in ((first, lambda x, y: (x, y)), (with_ends, lambda x, y: (y, x))):
            past = np.array(points)
            clamped = np.clip(past, CLAMP, 1.0 - CLAMP)
            assert_same(fn(model, *put(past, other)), fn(model, *put(clamped, other)))
            for p, c in zip(past, clamped):
                assert_same(fn(model, *put(float(p), 0.3)), fn(model, *put(float(c), 0.3)))
