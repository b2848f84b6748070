"""Bivariate normal CDF checks against independent identities."""

import numpy as np
import pytest
from scipy.special import ndtr, ndtri, owens_t

from twostage_fdr.bvn import _GL_NODES, _GL_WEIGHTS, _TWOPI, bvn_cdf, bvn_y_side
from twostage_fdr.procedure import default_gamma1_grid


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


def seed_bvn_cdf(x, y, rho):
    """bvn_cdf as the seed code computed it: h and k expanded to a common
    shape, one temporary per Gauss-Legendre term."""
    if not -1.0 < rho < 1.0:
        raise ValueError(f"correlation must be in (-1, 1), got {rho}")
    scalar = np.isscalar(x) and np.isscalar(y)
    h = -np.atleast_1d(np.asarray(x, dtype=float))
    k = -np.atleast_1d(np.asarray(y, dtype=float))
    h, k = np.broadcast_arrays(h, k)
    h = h.copy()
    k = k.copy()
    hk = h * k

    if abs(rho) < 0.925:
        if abs(rho) < 0.3:
            nodes, weights = _GL_NODES[0], _GL_WEIGHTS[0]
        elif abs(rho) < 0.75:
            nodes, weights = _GL_NODES[1], _GL_WEIGHTS[1]
        else:
            nodes, weights = _GL_NODES[2], _GL_WEIGHTS[2]
        hs = (h * h + k * k) / 2.0
        asr = np.arcsin(rho)
        bvn = np.zeros_like(h)
        for xi, wi in zip(nodes, weights):
            for sn in (np.sin(asr * (xi + 1.0) / 2.0), np.sin(asr * (-xi + 1.0) / 2.0)):
                bvn += wi * np.exp((sn * hk - hs) / (1.0 - sn * sn))
        bvn = bvn * asr / (2.0 * _TWOPI) + ndtr(-h) * ndtr(-k)
    else:
        nodes, weights = _GL_NODES[2], _GL_WEIGHTS[2]
        if rho < 0.0:
            k = -k
            hk = -hk
        a2 = (1.0 - rho) * (1.0 + rho)
        a = np.sqrt(a2)
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 16.0
        asq = -(bs / a2 + hk) / 2.0
        bvn = np.where(
            asq > -100.0,
            a * np.exp(asq) * (1.0 - c * (bs - a2) * (1.0 - d * bs / 5.0) / 3.0
                               + c * d * a2 * a2 / 5.0),
            0.0,
        )
        mask = hk > -100.0
        b = np.sqrt(bs)
        bvn = np.where(
            mask,
            bvn - np.exp(-hk / 2.0) * np.sqrt(_TWOPI) * ndtr(-b / a) * b
            * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0),
            bvn,
        )
        a = a / 2.0
        for xi, wi in zip(nodes, weights):
            for xs in ((a * (xi + 1.0)) ** 2, (a * (-xi + 1.0)) ** 2):
                rs = np.sqrt(1.0 - xs)
                asq = -(bs / xs + hk) / 2.0
                term = np.where(
                    asq > -100.0,
                    a * wi * np.exp(asq)
                    * (np.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
                       - (1.0 + c * xs * (1.0 + d * xs))),
                    0.0,
                )
                bvn += term
        bvn = -bvn / _TWOPI
        if rho > 0.0:
            bvn = bvn + ndtr(-np.maximum(h, k))
        else:
            bvn = -bvn + np.maximum(0.0, ndtr(-h) - ndtr(-k))

    out = np.clip(bvn, 0.0, 1.0)
    return float(out[0]) if scalar else out.reshape(np.broadcast_shapes(np.shape(x), np.shape(y)))


# one correlation per node set (|rho| < 0.3, < 0.75, < 0.925) and the tail
# expansion (|rho| >= 0.925), each with both signs
ORACLE_RHOS = [s * r for r in (0.1, 0.5, 0.8, 0.925, 0.99) for s in (1.0, -1.0)]


@pytest.mark.parametrize("rho", ORACLE_RHOS)
def test_matches_seed_bvn_cdf(rho):
    rng = np.random.default_rng(12)
    pts = np.concatenate([rng.normal(0.0, 2.5, 300), [0.0, -8.5, 8.5, -40.0, 40.0]])
    cases = [(s, pts) for s in (0.0, -1.3, 2.7, -9.0, 9.0)]
    cases += [(pts, 0.4), (pts, rng.permutation(pts)), (pts[:3].reshape(3, 1), pts[3:7]),
              (0.4, np.empty(0)), (0.4, -1.1), (np.float64(-2.0), 0.5)]
    for x, y in cases:
        ref = seed_bvn_cdf(x, y, rho)
        calls = [bvn_cdf(x, y, rho)]
        if np.ndim(y):
            calls.append(bvn_cdf(x, y, rho, bvn_y_side(y)))
        for got in calls:
            assert type(got) is type(ref)
            assert np.shape(got) == np.shape(ref)
            np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("rho", [-0.588, 0.5, -0.95, 0.97])
def test_prepared_matches_at_every_grid_level(rho):
    # the Gaussian hard scan: y = ndtri(p2) in p1 order, prepared once, and
    # x = ndtri(gamma1) at each screen level on the prefix it screens in
    rng = np.random.default_rng(21)
    p1 = np.sort(rng.random(600))
    y = ndtri(rng.random(600))
    prepared = bvn_y_side(y)
    for g1 in default_gamma1_grid():
        n = int(np.count_nonzero(p1 <= g1))
        x, yn = ndtri(g1), y[:n]
        got = bvn_cdf(x, yn, rho, [p[:n] for p in prepared])
        np.testing.assert_array_equal(got, bvn_cdf(x, yn, rho))
        np.testing.assert_array_equal(got, seed_bvn_cdf(x, yn, rho))


def test_prepared_of_another_shape_raises():
    y = np.linspace(-2.0, 2.0, 5)
    with pytest.raises(ValueError, match="prepared y-side"):
        bvn_cdf(0.3, y, 0.5, bvn_y_side(y[:4]))
