"""Kendall tau maps against a 50-digit mpmath oracle.

mpmath is imported at module level on purpose: without it these tests
fail instead of being skipped.
"""

import mpmath
import numpy as np

from twostage_fdr import copula as cp

mpmath.mp.dps = 50


def joe_tau_oracle(theta: float) -> float:
    """1 + 2 (psi(2) - psi(1 + 2/theta)) / (2 - theta), and its limit
    2 - pi^2 / 6 at theta = 2."""
    t = mpmath.mpf(theta)
    if t == 2:
        return float(2 - mpmath.pi ** 2 / 6)
    return float(1 + 2 * (mpmath.digamma(2) - mpmath.digamma(1 + 2 / t)) / (2 - t))


def test_joe_tau_near_theta_two_matches_mpmath():
    # the formula's 0/0 at theta = 2, approached from both sides
    near = [2.0 + s * h for s in (-1.0, 1.0) for h in (1e-4, 1e-6, 1e-9, 1e-12)]
    thetas = np.concatenate([np.linspace(1.9, 2.1, 2001), [2.0], near])
    for theta in thetas:
        got = cp.kendall_tau(cp.CopulaModel("joe", float(theta)))
        assert abs(got - joe_tau_oracle(float(theta))) <= 4e-15, theta
