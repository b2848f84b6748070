"""Bivariate normal CDF checks against independent identities."""

import numpy as np
import pytest
from scipy.special import ndtr, owens_t

from twostage_fdr.bvn import bvn_cdf


def phi2_via_owens_t(h, k, rho):
    # Owen (1956): Phi2 in terms of the T function; independent route.
    s = np.sqrt(1.0 - rho * rho)
    a_h = (k - rho * h) / (h * s)
    a_k = (h - rho * k) / (k * s)
    delta = 0.0 if h * k > 0 or (h * k == 0 and h + k >= 0) else 0.5
    return 0.5 * (ndtr(h) + ndtr(k)) - owens_t(h, a_h) - owens_t(k, a_k) - delta


def test_against_owens_t_identity():
    rng = np.random.default_rng(20240001)
    worst = 0.0
    for _ in range(3000):
        rho = rng.uniform(-0.999, 0.999)
        h, k = rng.normal(0.0, 2.5, size=2)
        if min(abs(h), abs(k)) < 1e-8:
            continue
        worst = max(worst, abs(bvn_cdf(h, k, rho) - phi2_via_owens_t(h, k, rho)))
    assert worst < 1e-13


def test_high_correlation_branch():
    rng = np.random.default_rng(7)
    for rho in (-0.999, -0.95, -0.93, 0.93, 0.97, 0.9999):
        for _ in range(200):
            h, k = rng.normal(0.0, 2.0, size=2)
            assert bvn_cdf(h, k, rho) == pytest.approx(phi2_via_owens_t(h, k, rho), abs=1e-13)


def test_zero_correlation_factorizes():
    rng = np.random.default_rng(3)
    h = rng.normal(size=50)
    k = rng.normal(size=50)
    np.testing.assert_allclose(bvn_cdf(h, k, 0.0), ndtr(h) * ndtr(k), atol=1e-15)


def test_origin_closed_form():
    for rho in (-0.8, -0.3, 0.0, 0.5, 0.9):
        expected = 0.25 + np.arcsin(rho) / (2.0 * np.pi)
        assert bvn_cdf(0.0, 0.0, rho) == pytest.approx(expected, abs=1e-14)


def test_symmetry_and_monotonicity():
    rng = np.random.default_rng(11)
    h = rng.normal(size=100)
    k = rng.normal(size=100)
    np.testing.assert_allclose(bvn_cdf(h, k, -0.59), bvn_cdf(k, h, -0.59), atol=1e-15)
    grid = np.linspace(-4, 4, 100)
    vals = bvn_cdf(grid, 0.7, 0.42)
    assert np.all(np.diff(vals) >= -1e-15)


def test_marginal_limit():
    h = np.array([-1.2, 0.0, 2.3])
    np.testing.assert_allclose(bvn_cdf(h, 8.5, -0.5), ndtr(h), atol=1e-12)


def test_invalid_rho():
    with pytest.raises(ValueError):
        bvn_cdf(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        bvn_cdf(0.0, 0.0, -1.5)
