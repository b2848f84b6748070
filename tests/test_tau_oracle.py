"""Kendall tau maps, Gumbel's h-inverse and the simulated alternatives'
|beta| against a 50-digit mpmath oracle, and the copula kernels' log-sum
against a 40-digit one.

mpmath is imported at module level on purpose: without it these tests
fail instead of being skipped.
"""

import itertools

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twostage_fdr import copula as cp
from twostage_fdr import simulate as sim

mpmath.mp.dps = 50


def joe_tau_oracle(theta: float) -> float:
    """1 + 2 (psi(2) - psi(1 + 2/theta)) / (2 - theta), and its limit
    2 - pi^2 / 6 at theta = 2."""
    t = mpmath.mpf(theta)
    if t == 2:
        return float(2 - mpmath.pi ** 2 / 6)
    return float(1 + 2 * (mpmath.digamma(2) - mpmath.digamma(1 + 2 / t)) / (2 - t))


def joe_tau(theta: float) -> float:
    return cp.kendall_tau(cp.CopulaModel("joe", theta))


def test_joe_tau_on_its_bracket_matches_mpmath():
    # theta = 1 + 10^-j, where tau is small and the oracle's digamma
    # difference cancels; the old band edges 1.9 and 2.1; the whole bracket
    steps = 1.0 + 10.0 ** -np.arange(1, 16)
    thetas = np.unique(np.concatenate([np.linspace(1.0, 50.0, 1000), np.geomspace(1.0, 50.0, 400),
                                       np.linspace(1.8, 2.3, 301), steps]))
    for theta in thetas[thetas > 1.0]:
        got, want = joe_tau(float(theta)), joe_tau_oracle(float(theta))
        assert abs(got - want) <= 4e-15, theta
        assert abs(got - want) <= 1e-13 * abs(want), theta


def test_joe_tau_is_zero_at_independence():
    assert joe_tau(1.0) == 0.0


def test_joe_tau_nondecreasing_at_the_finest_steps():
    # the bisection inverse needs tau monotone, also at the finest steps
    # near theta = 1 and near the old series band and its pole
    steps = [10.0 ** -j for j in range(1, 16)]
    for centre in (1.0, 1.9, 2.0, 2.1):
        thetas = sorted([centre - s for s in steps if centre - s >= 1.0] + [centre]
                        + [centre + s for s in steps])
        taus = [joe_tau(t) for t in thetas]
        assert all(a <= b for a, b in zip(taus, taus[1:])), centre


def test_joe_tau_near_theta_two_matches_mpmath():
    # the formula's 0/0 at theta = 2, approached from both sides
    near = [2.0 + s * h for s in (-1.0, 1.0) for h in (1e-4, 1e-6, 1e-9, 1e-12)]
    thetas = np.concatenate([np.linspace(1.9, 2.1, 2001), [2.0], near])
    for theta in thetas:
        got = cp.kendall_tau(cp.CopulaModel("joe", float(theta)))
        assert abs(got - joe_tau_oracle(float(theta))) <= 4e-15, theta


def frank_tau_oracle(theta: float) -> float:
    """1 - 4/theta + 4 D/theta^2 with D = int_0^theta s/(e^s - 1) ds =
    pi^2/6 + theta log(1 - e^-theta) - Li2(e^-theta); at 50 digits its
    cancellation at theta = 1e-6 still leaves over 30."""
    t = mpmath.mpf(theta)
    z = mpmath.exp(-t)
    debye = mpmath.pi ** 2 / 6 + t * mpmath.log(1 - z) - mpmath.polylog(2, z)
    return float(1 - 4 / t + 4 * debye / t ** 2)


def frank_tau(theta: float) -> float:
    return cp.kendall_tau(cp.CopulaModel("frank", theta))


def test_frank_tau_on_its_bracket_matches_mpmath():
    lo, hi = cp.orientation("frank", 0.5)[1]
    thetas = np.unique(np.concatenate([np.geomspace(lo, hi, 400), np.linspace(lo, hi, 400),
                                       np.linspace(1.9, 2.1, 201)]))
    for theta in thetas:
        got, want = frank_tau(float(theta)), frank_tau_oracle(float(theta))
        assert abs(got - want) <= 4e-15, theta
        assert abs(got - want) <= 1e-13 * abs(want), theta
        assert frank_tau(-float(theta)) == -got


def test_frank_tau_nondecreasing_near_theta_one_and_two():
    # the bisection inverse needs tau monotone, also where the series (below
    # theta = 2) meets the closed form, and at the finest steps near each point
    for centre in (1.0, 2.0):
        steps = [10.0 ** -j for j in range(1, 16)]
        thetas = sorted([centre - s for s in steps] + [centre] + [centre + s for s in steps])
        taus = [frank_tau(t) for t in thetas]
        assert all(a <= b for a, b in zip(taus, taus[1:])), centre


def gumbel_hinv_oracle(theta: float, x: float, u: float) -> float:
    """v with h(v | u) = x: w = a W(e^(B/a - log a)) solves w + a log w = B,
    and -log v = (w^theta - s^theta)^(1/theta), with a = theta - 1, s = -log u
    and B = -log x + s + a log s."""
    t = mpmath.mpf(theta)
    a = t - 1
    s = -mpmath.log(u)
    b = -mpmath.log(x) + s + a * mpmath.log(s)
    w = a * mpmath.lambertw(mpmath.exp(b / a - mpmath.log(a))).real
    return float(mpmath.exp(-(w ** t - s ** t) ** (1 / t)))


def test_gumbel_hinv_matches_mpmath():
    # the clamp edges of u and x, where h is flat in v (x near 1) or v lies
    # below the clamp (x and u near 0), across the bracket
    thetas = (1.0 + 1e-6, 1.3, 2.5, 7.0, 25.0, 50.0)
    us = (1e-10, 1e-3, 0.5, 0.99, 1.0 - 1e-10)
    xs = (1e-10, 1e-3, 0.3, 0.99, 1.0 - 1e-6, 1.0 - 1e-10)
    for theta, u, x in itertools.product(thetas, us, xs):
        got = cp.hfunc_inverse(cp.CopulaModel("gumbel", theta), x, u)
        want = gumbel_hinv_oracle(theta, x, u)
        assert abs(got - want) <= 1e-13 * want, (theta, u, x)


def alternative_magnitude_oracle(mu: float, v: float, start: float) -> float:
    """b with P(|X| > b) = Phi(mu - b) + Phi(-mu - b) = v for X from
    1/2 N(-mu, 1) + 1/2 N(mu, 1), by Newton's method from `start`."""
    m, b = mpmath.mpf(mu), mpmath.mpf(start)
    for _ in range(100):
        f = mpmath.ncdf(m - b) + mpmath.ncdf(-m - b) - v
        step = f / (mpmath.npdf(m - b) + mpmath.npdf(m + b))
        b += step
        if abs(step) <= mpmath.mpf(10) ** -30 * b:
            return float(b)
    raise AssertionError(f"no convergence at mu={mu}, v={v}")


def test_alternative_magnitude_matches_mpmath():
    # levels near 1, where |beta| is small and F(b) - F(-b) cancels, to the
    # far tail; mu on both sides of the cut at 9 and far beyond chndtrix's reach
    vs = (1.0 - 1e-12, 1.0 - 1e-9, 1.0 - 1e-6, 0.999, 0.5, 1e-3)
    for mu, v in itertools.product((0.5, 3.0, 8.99, 9.0, 12.0, 1e6), vs):
        got = float(sim._alternative_magnitude(mu, np.array([v]))[0])
        want = alternative_magnitude_oracle(mu, v, got)
        assert abs(got - want) <= 1e-13 * want, (mu, v, got, want)


def logaddexp_error_ulp(x, y, got):
    """|got - log(e^x + e^y)| at 40 digits, in ulp of max(|x|, |y|,
    |log(e^x + e^y)|), an ulp of a being 2^-52 a."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(x), mpmath.mpf(y)
        exact = max(a, b) + mpmath.log1p(mpmath.exp(-abs(a - b)))
        ulp = np.finfo(float).eps * mpmath.mpf(max(abs(x), abs(y), abs(float(exact))))
        return float(abs(mpmath.mpf(got) - exact) / ulp)


def test_logaddexp_matches_mpmath():
    rng = np.random.default_rng(26)
    n = 2500
    x = [rng.normal(size=n), rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)]
    y = [rng.normal(size=n), rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)]
    # gaps up to 800, where e^-|x - y| underflows
    far = rng.normal(0.0, 50.0, n)
    x.append(far)
    y.append(far - rng.choice([-1.0, 1.0], n) * rng.uniform(0.0, 800.0, n))
    # x near -y; and e^x + e^y near 1, where the result cancels to near 0
    near = rng.uniform(-50.0, 50.0, n)
    x += [near, -10.0 ** rng.uniform(-8, 1, n)]
    y += [-near * (1.0 + rng.normal(0.0, 1e-9, n)), np.log(-np.expm1(x[-1]))]
    # Gumbel's log-sum t log(-log u), t log(-log v) at the 1e-10 clamp and
    # across the bracket
    ends = np.array([1e-10, 1e-7, 0.3, 0.5, 1.0 - 1e-7, 1.0 - 1e-10])
    t, u, v = (a.ravel() for a in np.meshgrid([1.0 + 1e-6, 1.3, 2.5, 12.0, 50.0], ends, ends))
    x.append(t * np.log(-np.log(u)))
    y.append(t * np.log(-np.log(v)))
    x, y = np.concatenate(x), np.concatenate(y)
    got = cp._logaddexp(x, y)
    errors = [logaddexp_error_ulp(a, b, g) for a, b, g in zip(x.tolist(), y.tolist(), got.tolist())]
    worst = int(np.argmax(errors))
    assert errors[worst] <= 2.0, (x[worst], y[worst], errors[worst])


special = st.sampled_from([np.inf, -np.inf, np.nan])


@settings(deadline=None)
@given(x=st.one_of(special, st.floats()), y=st.one_of(special, st.floats()))
@example(x=np.inf, y=np.inf)
@example(x=-np.inf, y=-np.inf)
@example(x=np.inf, y=-np.inf)
@example(x=-np.inf, y=np.inf)
@example(x=-np.inf, y=2.5)
@example(x=np.nan, y=np.inf)
@example(x=1.7e308, y=-1.7e308)
def test_logaddexp_edges(x, y):
    # pyproject turns a RuntimeWarning into a failure
    got = cp._logaddexp(np.array([x]), np.array([y]))[0]
    if np.isfinite(x) and np.isfinite(y):
        assert logaddexp_error_ulp(x, y, got) <= 2.0
    elif np.isnan(x) or np.isnan(y):
        assert np.isnan(got)
    else:
        # an infinity wins over a finite value and +inf over -inf, as in
        # np.logaddexp; the same infinity twice gives that infinity
        assert got == max(x, y)
