"""Bivariate one-parameter copula families.

Implements the Independence, Gaussian, Frank, Clayton, Gumbel and Joe
families with CDF, log-density, conditional CDF (h-function), inverse
h-function, Kendall-tau parameter maps, the 90-degree rotation and
conditional-inversion sampling.  Clayton, Gumbel and Joe natively model
positive dependence only; negative dependence is represented by the 90
degree rotation, which reflects u.

All evaluators accept scalars or numpy arrays and are pure functions of
an immutable :class:`CopulaModel`, so concurrent use is safe.  Every
coordinate takes the closed [0, 1], and only this module clips it into [EPS, 1 - EPS].
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, spence, wrightomega, zeta

from .bvn import bvn_cdf, bvn_y_side

__all__ = [
    "CopulaModel",
    "PseudoObservations",
    "FAMILIES",
    "ROTATIONS",
    "EPS",
    "cdf",
    "cdf_of",
    "log_density",
    "log_density_of",
    "hfunc",
    "hfunc_inverse",
    "kendall_tau",
    "tau_to_theta",
    "orientation",
    "sample",
    "bisect_increasing",
]

FAMILIES = ("independence", "gaussian", "frank", "clayton", "gumbel", "joe")

ROTATIONS = (0, 90)  # 90 degrees reflects u: C90(u, v) = v - C(1 - u, v)

# the families that model positive dependence only, and take rotation 90 for a negative tau
ROTATABLE = ("clayton", "gumbel", "joe")

EPS = 1e-10  # boundary clamp for interior-only evaluations
_TAU_INDEPENDENT = 1e-6  # tau_to_theta takes |tau| below this as independence
_TINY = np.finfo(float).tiny  # the smallest normal double
_EXPM1_MAX = math.log(np.finfo(float).max)  # expm1 is finite up to here


def _check_family(family: str, rotation=0) -> _Family:
    """The family's _BASE row, once the family is known and takes the rotation."""
    if family not in FAMILIES:
        raise ValueError(f"unknown copula family {family!r}")
    if (isinstance(rotation, bool) or not isinstance(rotation, numbers.Integral)
            or rotation not in ROTATIONS):
        raise ValueError(f"rotation must be one of {ROTATIONS}, got {rotation!r}")
    if family not in ROTATABLE and rotation != 0:
        raise ValueError(f"{family} copula does not take a rotation")
    return _BASE[family]


def _check_theta(family: str, theta) -> None:
    if family == "independence":
        if theta is not None:
            raise ValueError("independence copula has no parameter")
        return
    if theta is None or isinstance(theta, (bool, np.bool_)) or not math.isfinite(theta):
        raise ValueError(f"{family} copula requires a finite parameter, got {theta!r}")
    if family == "gaussian" and not -1.0 < theta < 1.0:
        raise ValueError(f"gaussian correlation must be in (-1, 1), got {theta}")
    if family == "frank" and theta == 0.0:
        raise ValueError("frank parameter must be nonzero")
    if family == "clayton" and theta <= 0.0:
        raise ValueError(f"clayton parameter must be positive, got {theta}")
    if family in ("gumbel", "joe") and theta < 1.0:
        raise ValueError(f"{family} parameter must be >= 1, got {theta}")


@dataclass(frozen=True)
class CopulaModel:
    """A bivariate copula: family, scalar parameter and rotation."""

    family: str
    theta: float | None = None
    rotation: int = 0

    def __post_init__(self):
        _check_family(self.family, self.rotation)
        _check_theta(self.family, self.theta)
        # stored as an int and a Python float, whichever numpy types they came as
        object.__setattr__(self, "rotation", int(self.rotation))
        if self.theta is not None:
            object.__setattr__(self, "theta", float(self.theta))

    def describe(self) -> str:
        if self.family == "independence":
            return "independence"
        rot = f" rot{self.rotation}" if self.rotation else ""
        return f"{self.family}(theta={self.theta:.6g}){rot}"


@dataclass(frozen=True)
class PseudoObservations:
    """Paired observations on [0, 1]^2, e.g. p-values, stored clipped into [EPS, 1 - EPS]."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.ndim != 1 or v.ndim != 1 or u.shape != v.shape:
            raise ValueError("u and v must be 1-d arrays of equal length")
        if u.size < 2:
            raise ValueError("need at least 2 observation pairs")
        object.__setattr__(self, "u", _as_unit("u", u)[1])
        object.__setattr__(self, "v", _as_unit("v", v)[1])

    @property
    def n(self) -> int:
        return self.u.size


def _logaddexp(x, y):
    """log(e^x + e^y) as max(x, y) + log1p(e^-|x - y|), within 2^-51
    max(|x|, |y|, |result|) of the exact value.  On numpy 2.4.6 it is faster
    than np.logaddexp from a few hundred elements up (4.3 times at 20k; at
    200, 6.5 us against 2.9 us).  Where x and y are the same infinity,
    |x - y| is NaN and fmin takes it to inf, so the result is that infinity,
    as np.logaddexp gives; a NaN argument gives NaN."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf; a gap past the largest double
        return np.maximum(x, y) + np.log1p(np.exp(-np.fmin(np.abs(x - y), np.inf)))


# ---------------------------------------------------------------------------
# Base (unrotated) family evaluators.  All take theta and arrays with u, v
# strictly inside (0, 1) and are written to stay finite for the parameter
# brackets used in fitting (|theta| <= 50).  A CDF comes in two stages,
# _cdf_v(theta, v) and _cdf_at(theta, u, *those), and a log-density in two,
# prepare(u, v) and logpdf(theta, *those), so that an argument held fixed
# while another varies is transformed once.  An h-function is one formula.
# ---------------------------------------------------------------------------


def _indep_cdf_at(t, u, v):
    return u * v


def _indep_logpdf(t, u, v):
    return np.zeros(np.broadcast_shapes(np.shape(u), np.shape(v)))


def _indep_h(t, v, u):
    return np.broadcast_arrays(v, u)[0].astype(float, copy=True)


def _gaussian_cdf_v(t, v):
    y = ndtri(v)
    return (y, *bvn_y_side(y))


def _gaussian_cdf_at(t, u, y, *y_side):
    # through the bvn_cdf name, with y itself, so a wrapper of bvn_cdf sees
    # every Gaussian CDF and its points
    return bvn_cdf(ndtri(u), y, t, y_side)


def _gaussian_prepare(u, v):
    x = ndtri(u)
    y = ndtri(v)
    return x, y, x * x + y * y


def _gaussian_logpdf(t, x, y, xx_yy):
    s2 = 1.0 - t * t
    return -0.5 * np.log(s2) - (t * t * xx_yy - 2.0 * t * x * y) / (2.0 * s2)


def _gaussian_h(t, v, u):
    return ndtr((ndtri(v) - t * ndtri(u)) / math.sqrt(1.0 - t * t))


def _gaussian_hinv(t, x, u):
    return ndtr(ndtri(x) * math.sqrt(1.0 - t * t) + t * ndtri(u))


# Below this |theta| the Frank evaluators use expm1/log1p forms.  Near
# independence e^{-tu}, e^{-tv} and e^{-t} all lie near 1, and a sum of them
# that comes to a value of size ~t cancels; for large |t| the expm1 forms
# cancel instead (1 - 1), so there the sum of exponentials stays.
_FRANK_SMALL = 1.0


def _frank_ev(t, v):
    # v's exponential term in _frank_x and _frank_d: e^{-tv} - 1 near
    # independence, e^{-tv} otherwise
    return np.expm1(-t * v) if abs(t) < _FRANK_SMALL else np.exp(-t * v)


def _frank_cdf_v(t, v):
    return v, _frank_ev(t, v)


def _frank_x(t, u, ev):
    # _frank_d / expm1(-t) - 1, without forming the difference; |t| < _FRANK_SMALL
    return np.expm1(-t * u) * ev / math.expm1(-t)


def _frank_d(t, u, v, ev):
    # e^{-t(u+v)} + e^{-t} - e^{-tu} - e^{-tv}; shares the sign of e^{-t}-1.
    if abs(t) < _FRANK_SMALL:
        return np.expm1(-t * u) * ev + math.expm1(-t)
    return np.exp(-t * (u + v)) + math.exp(-t) - np.exp(-t * u) - ev


def _frank_cdf_at(t, u, v, ev):
    if abs(t) < _FRANK_SMALL:  # 0.0 - x, not -x: a C that rounds to 0 is +0.0
        return 0.0 - np.log1p(_frank_x(t, u, ev)) / t
    g1 = math.expm1(-t)
    return 0.0 - np.log(_frank_d(t, u, v, ev) / g1) / t


def _frank_logpdf(t, u, v):
    ev = _frank_ev(t, v)
    if abs(t) < _FRANK_SMALL:
        return (math.log(-t / math.expm1(-t)) - t * (u + v)
                - 2.0 * np.log1p(_frank_x(t, u, ev)))
    g1 = math.expm1(-t)
    return math.log(abs(t * g1)) - t * (u + v) - 2.0 * np.log(np.abs(_frank_d(t, u, v, ev)))


def _frank_h(t, v, u):
    v = np.asarray(v, dtype=float)
    gv = np.expm1(-t * v)
    return np.exp(-t * u) * gv / _frank_d(t, u, v, _frank_ev(t, v))


def _frank_hinv(t, x, u):
    # v = -(1/t) log[(a(1-x) + x e^-t) / (a(1-x) + x)], a = e^-tu; evaluated
    # in log space because a and e^-t underflow against x for large |t|.
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if abs(t) < _FRANK_SMALL:
        # the same v as -(1/t) log1p(x (e^-t - 1) / (1 + (a - 1)(1 - x))),
        # free of the difference of two O(1) logs below
        return -np.log1p(x * math.expm1(-t) / (1.0 + np.expm1(-t * u) * (1.0 - x))) / t
    lhs = -t * u + np.log1p(-x)
    lx = np.log(x)
    ln_num = _logaddexp(lhs, -t + lx)
    ln_den = _logaddexp(lhs, lx)
    return -(ln_num - ln_den) / t


def _clayton_ln_a(p, q):
    # log(u^-t + v^-t - 1) from p = -t log u and q = -t log v, overflow-safe for
    # large t.  Of e^(p-m) and e^(q-m), one is e^0 = 1 and the other e^-|p-q|.
    m = np.maximum(p, q)
    return m + np.log(1.0 + np.exp(-np.abs(p - q)) - np.exp(-m))


def _clayton_cdf_v(t, v):
    return (-t * np.log(v),)


def _clayton_cdf_at(t, u, q):
    return np.exp(-_clayton_ln_a(-t * np.log(u), q) / t)


def _clayton_prepare(u, v):
    lu = np.log(u)
    lv = np.log(v)
    return lu, lv, lu + lv


def _clayton_logpdf(t, lu, lv, lu_lv):
    ln_a = _clayton_ln_a(-t * lu, -t * lv)
    return math.log1p(t) - (t + 1.0) * lu_lv - (2.0 + 1.0 / t) * ln_a


def _clayton_h(t, v, u):
    lu = np.log(u)
    ln_a = _clayton_ln_a(-t * lu, -t * np.log(v))
    return np.exp(-(t + 1.0) * lu - (1.0 + 1.0 / t) * ln_a)


def _clayton_cdf90_v(t, v):
    # v^t, -v, and where v^t is not a normal double, as a mask when any is
    # (checked once per v, so that a scan's levels need not)
    vt = np.power(v, t)
    low = vt < _TINY
    return vt, -v, (low if low.any() else None)


def _clayton_cdf90_at(t, u, vt, neg_v, low):
    # C90(u, v) = v - C(1 - u, v) = -v expm1(-log1p(z) / t) with z = s v^t and
    # s = (1 - u)^-t - 1 = expm1(L), L = -t log1p(-u): no term cancels.  Where
    # s overflows or v^t is not a normal double, z is taken in log space.
    lu = -t * np.log1p(-u)
    big = lu > _EXPM1_MAX
    s = np.expm1(np.fmin(lu, _EXPM1_MAX))
    out = neg_v * np.expm1(np.log1p(s * vt) * (-1.0 / t))
    if low is None and not big.any():
        return out
    ln_z = lu + np.log(-np.expm1(-lu)) + t * np.log(-neg_v)
    slow = neg_v * np.expm1(_logaddexp(ln_z, 0.0) * (-1.0 / t))
    return np.where(big if low is None else big | low, slow, out)


def _clayton_hinv(t, x, u):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        # s = log(u^-t * (x^{-t/(1+t)} - 1)); s -> -inf at x=1, +inf at x=0.
        s = -t * np.log(u) + np.log(np.expm1(-t / (1.0 + t) * np.log(x)))
    return np.exp(-_logaddexp(s, 0.0) / t)


# Gumbel: ln_s = log((-log u)^t + (-log v)^t) = _logaddexp(t la, t lb) with
# la = log(-log u) and lb = log(-log v).


def _gumbel_cdf_v(t, v):
    return (t * np.log(-np.log(v)),)


def _gumbel_cdf_at(t, u, t_lb):
    ln_s = _logaddexp(t * np.log(-np.log(u)), t_lb)
    return np.exp(-np.exp(ln_s / t))


def _gumbel_cdf90_v(t, v):
    s = -np.log(v)
    return -v, -s, np.log(s)


def _gumbel_cdf90_at(t, u, neg_v, neg_s, ls):
    # C90(u, v) = v - C(1 - u, v) = -v expm1(-s expm1(log1p(r) / t)) with
    # s = -log v, r = (a / s)^t and a = -log1p(-u): no term cancels
    ln1p_r = _logaddexp(t * (np.log(-np.log1p(-u)) - ls), 0.0)
    return neg_v * np.expm1(neg_s * np.expm1(ln1p_r / t))


def _gumbel_hinv(t, x, u):
    # h(v | u) = x is w + a log w = B in w = ((-log u)^t + (-log v)^t)^(1/t),
    # with a = t - 1, s = -log u and B = -log x + s + a log s, so w is
    # a wrightomega(B/a - log a).  Near x = 1 the sum B rounds away digits of
    # -log x, which one Newton step in d = log(w / s) on s expm1(d) + a d =
    # -log x gives back; that side is convex in d, so the step lands at or past
    # the root, d > 0 for x < 1.  Then log(-log v) = log s + d + log(-expm1(-t d)) / t.
    a = t - 1.0
    if a == 0.0:  # the independence copula, where v = x exactly
        return _indep_h(t, x, u)
    s = -np.log(u)
    la = np.log(s)
    e = -np.log(x)
    d = np.log(a * wrightomega((e + s + a * la) / a - math.log(a))) - la
    d = d - (s * np.expm1(d) + a * d - e) / (s * np.exp(d) + a)
    return np.exp(-np.exp(la + d + np.log(-np.expm1(-t * d)) / t))


def _gumbel_prepare(u, v):
    lu = np.log(u)
    lv = np.log(v)
    la = np.log(-lu)
    lb = np.log(-lv)
    return lu, lv, la, lb, la + lb


def _gumbel_logpdf(t, lu, lv, la, lb, la_lb):
    ln_s = _logaddexp(t * la, t * lb)
    w = np.exp(ln_s / t)
    return (-w + (t - 1.0) * la_lb + (2.0 / t - 2.0) * ln_s
            - lu - lv + np.log1p((t - 1.0) / w))


def _gumbel_h(t, v, u):
    lu = np.log(u)
    la = np.log(-lu)
    ln_s = _logaddexp(t * la, t * np.log(-np.log(v)))
    w = np.exp(ln_s / t)
    return np.exp(-w + (t - 1.0) * la + (1.0 / t - 1.0) * ln_s - lu)


# Joe: from l1 = log(1 - u), lx = t l1, x = 1 - (1-u)^t and px = (1-u)^t;
# the same for v.  T = x + y - xy lies in (0, 1].


def _joe_side(t, l1):
    lx = t * l1
    return lx, -np.expm1(lx), np.exp(lx)


def _joe_ln_t(x_side, y_side):
    # log T from _joe_side's (lx, ex, px) and (ly, ey, py), in the
    # cancellation-free form per point.  Where px + py ex is not a normal
    # double (in the upper corner px and py underflow), log T is taken in log
    # space, from lx and ly; only there, so that no other value moves.
    lx, ex, px = x_side
    ly, ey, py = y_side
    prod = ex * ey
    rest = px + py * ex
    with np.errstate(divide="ignore"):
        ln_t = np.where(prod < 0.5, np.log1p(-prod), np.log(rest))
    corner = rest < _TINY
    if corner.any():
        ln_t = np.where(corner, _logaddexp(lx, ly + np.log(ex)), ln_t)
    return ln_t


def _joe_prepare(u, v):
    return np.log1p(-u), np.log1p(-v)


def _joe_cdf_v(t, v):
    return _joe_side(t, np.log1p(-v))


def _joe_cdf_at(t, u, *y_side):
    return -np.expm1(_joe_ln_t(_joe_side(t, np.log1p(-u)), y_side) / t)


def _joe_cdf90_v(t, v):
    # 1 - v and log expm1(L), L = -t log1p(-v)
    big_l = -t * np.log1p(-v)
    return 1.0 - v, big_l + np.log(-np.expm1(-big_l))


def _joe_cdf90_at(t, u, one_minus_v, ln_expm1_l):
    # C90(u, v) = v - C(1 - u, v) = (1 - v) expm1(log1p(z) / t) with
    # z = u^t expm1(L), taken in log space: no term cancels
    return one_minus_v * np.expm1(_logaddexp(t * np.log(u) + ln_expm1_l, 0.0) / t)


def _joe_logpdf(t, l1u, l1v):
    x_side = _joe_side(t, l1u)
    y_side = _joe_side(t, l1v)
    ln_t = _joe_ln_t(x_side, y_side)
    big_t = np.exp(ln_t)
    return ((1.0 / t - 2.0) * ln_t + (1.0 - 1.0 / t) * (x_side[0] + y_side[0])
            + np.log(t - 1.0 + big_t))


def _joe_h_at(t, v, a, x_side):
    # h(v | u) from the conditioner's a = (1 - 1/t) lx and _joe_side
    y_side = _joe_side(t, np.log1p(-v))
    return np.exp(a + np.log(y_side[1]) + (1.0 / t - 1.0) * _joe_ln_t(x_side, y_side))


def _joe_h(t, v, u):
    x_side = _joe_side(t, np.log1p(-u))
    return _joe_h_at(t, v, (1.0 - 1.0 / t) * x_side[0], x_side)


def _joe_hinv(t, x, u):
    # h is a CDF in v for fixed u: monotone, h(0)=0, h(1)=1.  80 halvings
    # narrow the v-bracket to 2^-80, below the spacing of doubles near 1,
    # where a residual h(v) - x measures how steep h is, not convergence.
    # The conditioner's transform is taken once, not at every halving.  Only
    # a NaN h raises: it compares False and would pass silently.
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    shape = np.broadcast_shapes(x.shape, u.shape)
    x_side = _joe_side(t, np.log1p(-u))
    a = (1.0 - 1.0 / t) * x_side[0]

    def h(v):
        return _joe_h_at(t, np.clip(v, EPS, 1.0 - EPS), a, x_side)

    v = bisect_increasing(h, np.broadcast_to(x, shape), np.zeros(shape), np.ones(shape), 80)
    if np.any(np.isnan(h(v))):
        raise RuntimeError("conditional quantile undefined: h(v | u) is NaN")
    return v


def _pick_float(take_hi, a, b):
    # np.where's choice between two scalars, as a numpy float: the type the
    # array path's 0-d results turn into at the next midpoint, so f sees and
    # the caller gets the same types on both paths
    return np.float64(a if take_hi else b)


def bisect_increasing(f, target, lo, hi, iterations: int):
    """Solve f(x) = target on [lo, hi] by a fixed number of halvings.

    f must be nondecreasing in x and is evaluated elementwise, so target,
    lo and hi may be arrays or scalars.  Each halving keeps the half whose
    lower end has f below target, so the result is the midpoint of a
    bracket of width (hi - lo) / 2**iterations around the smallest x with
    f(x) >= target (lo or hi when the target lies outside f's range).

    The loop stops early once a halving leaves lo and hi unchanged: f is a
    deterministic function, so every later halving would leave them as
    they are, and the result is that of all the halvings.  When target, lo
    and hi are all floats, the halvings choose and compare numpy float
    scalars rather than 0-d arrays: the same midpoints, choices and stop,
    about five times faster, and the same result bit for bit.
    """
    if all(isinstance(a, float) for a in (target, lo, hi)):
        pick, same = _pick_float, operator.eq
    else:
        pick, same = np.where, np.array_equal
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        take_hi = f(mid) < target
        new_lo = pick(take_hi, mid, lo)
        new_hi = pick(take_hi, hi, mid)
        # the ends take the halving's values and types before the stop test
        stop = same(new_lo, lo) and same(new_hi, hi)
        lo, hi = new_lo, new_hi
        if stop:
            break
    return 0.5 * (lo + hi)


# c_k = 4 B_2k / ((2k + 1) (2k)!), k = 1..14 with B_2k the Bernoulli numbers,
# rounded to doubles: Frank's tau is sum_k c_k theta^(2k - 1) for |theta| < 2 pi
_FRANK_TAU_SERIES = (
    0.1111111111111111, -0.0011111111111111111, 1.889644746787604e-05,
    -3.6743092298647856e-07, 7.5915479955884e-09, -1.6259046580576902e-10,
    3.568676408182581e-12, -7.97571834428843e-14, 1.8075920118479673e-15,
    -4.142607044872499e-17, 9.580874484104748e-19, -2.2327143497300036e-20,
    5.236603021673285e-22, -1.2349679209706961e-23,
)


def _frank_tau_positive(theta: float) -> float:
    # tau = 1 - 4/theta + 4*D/theta^2 with D = int_0^theta s/(e^s - 1) ds =
    # pi^2/6 + theta log(1 - e^-theta) - Li2(e^-theta), Li2(z) = spence(1 - z).
    # Below theta = 2 the terms cancel to a small tau, so the series is summed
    # there instead (Horner in theta^2); its first term left out is below 2e-16.
    if theta < 2.0:
        theta2, acc = theta * theta, 0.0
        for c in reversed(_FRANK_TAU_SERIES):
            acc = acc * theta2 + c
        return theta * acc
    e = -math.expm1(-theta)
    debye = math.pi ** 2 / 6.0 + theta * math.log(e) - float(spence(e))
    return 1.0 - 4.0 / theta + 4.0 * debye / (theta * theta)


# c_m = 2^(m-1) S_m with S_m = sum_{i >= m+2} zeta(i, 3), m = 1..90: the sums
# of positive terms, from the smallest up, so that nothing cancels
_JOE_TAU_SERIES = tuple((np.cumsum(zeta(np.arange(260, 2, -1), 3.0))[::-1][:90]
                         * 2.0 ** np.arange(90)).tolist())


def _joe_tau(theta: float) -> float:
    # tau = 1 + 2 (psi(2) - psi(1 + 2/theta)) / (2 - theta), expanded about
    # theta = 1 in y = 1 - 1/theta: tau = y (1 - 4 (1 - y) sum_m c_m y^(m-1)),
    # with no 0/0 at theta = 2 and tau(1) = 0 exactly.  The term ratio is
    # about 2y/3 < 2/3 on the bracket, so the first term left out is below
    # 1e-16 of the sum up to theta = 50.  The bisection inverse passes numpy
    # float scalars, and the Horner loop runs about five times faster on a float.
    theta = float(theta)
    y = (theta - 1.0) / theta
    acc = 0.0
    for c in reversed(_JOE_TAU_SERIES):
        acc = acc * y + c
    return y * (1.0 - 4.0 * (1.0 - y) * acc)


class _Family:
    """One base (unrotated) family: everything the module knows about it.

    The CDF at (u, v) is cdf_at(theta, u, *cdf_v(theta, v)): cdf_v computes
    what depends on v and theta alone (by default v itself), as the hard
    scan's p2 and theta are fixed across its screen levels; the split keeps
    the formula's operations in their order, so it changes no bit.
    cdf90_at(theta, u, *cdf90_v(theta, v)), given for the rotatable families,
    is the 90-degree rotation's C90(u, v) = v - C(1 - u, v) in a survival
    form, in which no term cancels, split the same way.  h is the h-function
    h(theta, v, u), and hinv its inverse in v.  The
    log-density at (u, v) is logpdf(theta, *prepare(u, v)): prepare computes
    the theta-free transforms of the pairs, which a fit needs only once (by
    default the pairs themselves).  tau maps theta to the population Kendall
    tau, and theta_of is its closed-form inverse, or None to bisect tau on
    bracket.  bracket is the admissible theta interval of inversion and
    fitting (Frank's positive branch, mirrored for negative tau), or None for
    independence, which has no parameter.
    """

    def __init__(self, cdf_at, logpdf, h, hinv, *, cdf_v=lambda t, v: (v,), cdf90_v=None,
                 cdf90_at=None, prepare=lambda u, v: (u, v), tau, theta_of=None, bracket=None):
        self.cdf_v = cdf_v
        self.cdf_at = cdf_at
        self.cdf90_v = cdf90_v
        self.cdf90_at = cdf90_at
        self.logpdf = logpdf
        self.prepare = prepare
        self.h = h
        self.hinv = hinv
        self.tau = tau
        self.theta_of = theta_of
        self.bracket = bracket


_BASE = {
    "independence": _Family(_indep_cdf_at, _indep_logpdf, _indep_h, _indep_h,
                            tau=lambda t: 0.0),
    "gaussian": _Family(_gaussian_cdf_at, _gaussian_logpdf, _gaussian_h, _gaussian_hinv,
                        cdf_v=_gaussian_cdf_v, prepare=_gaussian_prepare,
                        tau=lambda t: 2.0 / math.pi * math.asin(t),
                        theta_of=lambda tau: math.sin(math.pi * tau / 2.0),
                        bracket=(-0.9999, 0.9999)),
    "frank": _Family(_frank_cdf_at, _frank_logpdf, _frank_h, _frank_hinv, cdf_v=_frank_cdf_v,
                     tau=lambda t: math.copysign(_frank_tau_positive(abs(t)), t),
                     bracket=(1e-6, 50.0)),
    "clayton": _Family(_clayton_cdf_at, _clayton_logpdf, _clayton_h, _clayton_hinv,
                       cdf_v=_clayton_cdf_v, cdf90_v=_clayton_cdf90_v,
                       cdf90_at=_clayton_cdf90_at, prepare=_clayton_prepare,
                       tau=lambda t: t / (t + 2.0),
                       theta_of=lambda tau: 2.0 * tau / (1.0 - tau),
                       bracket=(1e-4, 50.0)),
    "gumbel": _Family(_gumbel_cdf_at, _gumbel_logpdf, _gumbel_h, _gumbel_hinv,
                      cdf_v=_gumbel_cdf_v, cdf90_v=_gumbel_cdf90_v,
                      cdf90_at=_gumbel_cdf90_at, prepare=_gumbel_prepare,
                      tau=lambda t: 1.0 - 1.0 / t,
                      theta_of=lambda tau: 1.0 / (1.0 - tau),
                      bracket=(1.0 + 1e-6, 50.0)),
    "joe": _Family(_joe_cdf_at, _joe_logpdf, _joe_h, _joe_hinv, cdf_v=_joe_cdf_v,
                   cdf90_v=_joe_cdf90_v, cdf90_at=_joe_cdf90_at, prepare=_joe_prepare,
                   tau=_joe_tau, bracket=(1.0 + 1e-6, 50.0)),
}


def _maybe_scalar(out, *arrays):
    if all(a.ndim == 0 for a in arrays):
        return float(np.asarray(out).reshape(()))
    return out


def _as_unit(name, value):
    """(checked, interior, past): value as a float array checked by its min
    and max against the closed [0, 1] (NaN fails); that array clipped into
    the clamp interior [EPS, 1 - EPS], all that family formulas and rotation
    reflections receive; and None when no entry lies past the interior, else
    the mask of those that do, the only entries where the clip (run only
    then) or an evaluator's edge rule changes a value."""
    arr = np.asarray(value, dtype=float)
    if arr.size == 0:
        return arr, arr, None
    lo = arr.min()
    hi = arr.max()
    if not (0.0 <= lo and hi <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1]")
    if EPS <= lo and hi <= 1.0 - EPS:
        return arr, arr, None
    interior = np.clip(arr, EPS, 1.0 - EPS)
    return arr, interior, arr != interior


def _rotated_cdf_v(model: CopulaModel, vi):
    """The family's transforms of interior v, its survival form's under rotation 90."""
    fam = _BASE[model.family]
    return (fam.cdf90_v if model.rotation else fam.cdf_v)(model.theta, vi)


def _rotated_cdf_at(model: CopulaModel, u_unit, v_unit, prepared):
    """C(u, v) from _as_unit's u and v and _rotated_cdf_v's transforms of v:
    the base formula, or under rotation 90 its survival form, on the clipped
    u.  cdf's edge rule takes the lower Frechet bound as
    max(v - (1 - u), u - (1 - v), 0), each term exact at its own end."""
    uu, ui, u_past = u_unit
    vv, _, v_past = v_unit
    fam = _BASE[model.family]
    at = fam.cdf90_at if model.rotation else fam.cdf_at
    out = np.clip(at(model.theta, ui, *prepared), 0.0, 1.0)
    if u_past is not None or v_past is not None:  # the entries past the interior alone
        past = u_past if v_past is None else v_past if u_past is None else u_past | v_past
        past = np.broadcast_to(past, np.shape(out))
        pu, pv = (np.broadcast_to(x, past.shape)[past] for x in (uu, vv))
        lower = np.maximum(np.maximum(pv - (1.0 - pu), pu - (1.0 - pv)), 0.0)
        out = np.asarray(out)  # np.clip's own array, or a 0-d one made here
        # + 0.0 makes a margin of 0 +0.0 where the formula gave -0.0
        out[past] = np.clip(out[past], lower, np.minimum(pu, pv)) + 0.0
    return _maybe_scalar(out, uu, vv)


def cdf(model: CopulaModel, u, v):
    """Copula CDF C(u, v); accepts the closed unit square.

    u and v broadcast inside the family formula without being expanded, so
    a scalar u is transformed once per call.  Inside the clamp
    interior [1e-10, 1 - 1e-10] the result is the formula's value clipped
    to [0, 1].  An entry past it is evaluated on the clipped u and v, then
    held to the Frechet bounds max(0, u + v - 1) <= C <= min(u, v) of the
    given ones, so that C(0, v) = C(u, 0) = 0, C(1, v) = v and C(u, 1) = u.
    """
    u_unit = _as_unit("u", u)
    v_unit = _as_unit("v", v)
    return _rotated_cdf_at(model, u_unit, v_unit, _rotated_cdf_v(model, v_unit[1]))


def cdf_of(model: CopulaModel, v):
    """C(u, v[:n]) as a function at(u, n) of a scalar u and a prefix length n.

    v must be a 1-d array in [0, 1].  Its check, clip, rotation and the
    family's transform of v run once, here, so a scan over u (the hard
    scan's screen levels on p2 in p1 order) runs only the u-dependent part
    of the formula per step; under rotation 90 that transform is the
    survival form's.  Each value equals cdf(model, u, v[:n]) bit for bit.
    at.v is the array prepared on, for a caller to check that it is theirs.
    """
    vv, vi, v_past = _as_unit("v", v)
    if vv.ndim != 1:
        raise ValueError(f"v must be a 1-d array, got shape {vv.shape}")
    prepared = _rotated_cdf_v(model, vi)

    def at(u, n: int):
        if np.ndim(u) != 0:
            raise ValueError("u must be a scalar")
        if not 0 <= n <= vv.size:
            raise ValueError(f"prefix length must lie in [0, {vv.size}], got {n}")
        return _rotated_cdf_at(model, _as_unit("u", u),
                               (vv[:n], vi[:n], None if v_past is None else v_past[:n]),
                               [p if p is None else p[:n] for p in prepared])

    at.v = vv
    return at


def log_density_of(family: str, rotation: int, u, v):
    """The log density of the family and rotation at (u, v), as a function
    of theta; u and v may lie in the closed [0, 1].

    The checks of u and v, their clip into the clamp interior, the rotation
    and the family's theta-free transforms of the pairs run once, here, so a
    likelihood search over theta runs only the theta-dependent part per step.
    """
    fam = _check_family(family, rotation)
    _, ui, _ = _as_unit("u", u)
    _, vi, _ = _as_unit("v", v)
    prepared = fam.prepare(1.0 - ui if rotation else ui, vi)

    def at(theta):
        _check_theta(family, theta)
        return _maybe_scalar(fam.logpdf(theta, *prepared), ui, vi)

    return at


def log_density(model: CopulaModel, u, v):
    """Log copula density; u and v may lie in the closed [0, 1], and are
    clipped into the clamp interior [1e-10, 1 - 1e-10] before the rotation
    reflects u."""
    return log_density_of(model.family, model.rotation, u, v)(model.theta)


def _rotated_conditional(model: CopulaModel, base_fn, name: str, value, given_u):
    """Apply a base-family h or h-inverse under the model's rotation.

    value (v for h, x for its inverse) may lie in the closed [0, 1], with
    0 and 1 mapped to themselves; given_u may too, and evaluates at the clamp.
    As in cdf, the inputs are not expanded to a common shape, are clipped
    into the clamp interior before rotation 90 reflects given_u, and take
    the boundary cases only for a value past the interior.
    """
    aa, ai, a_past = _as_unit(name, value)
    uu, ui, _ = _as_unit("given_u", given_u)
    out = base_fn(model.theta, ai, 1.0 - ui if model.rotation else ui)
    if a_past is not None:  # 0 and 1 are their own bounds, as in cdf
        out = np.clip(out, aa >= 1.0, aa > 0.0)
    out = np.clip(out, 0.0, 1.0)
    return _maybe_scalar(out, aa, uu)


def hfunc(model: CopulaModel, v, given_u):
    """Conditional CDF C(v | u) = dC(u, v)/du of the second coordinate; v and
    given_u are clipped into the clamp interior [1e-10, 1 - 1e-10] before the
    rotation reflects given_u."""
    return _rotated_conditional(model, _BASE[model.family].h, "v", v, given_u)


def hfunc_inverse(model: CopulaModel, x, given_u):
    """Solve hfunc(v | u) = x for v."""
    return _rotated_conditional(model, _BASE[model.family].hinv, "x", x, given_u)


# ---------------------------------------------------------------------------
# Kendall tau maps, read from each family's _BASE row.
# ---------------------------------------------------------------------------


def kendall_tau(model: CopulaModel) -> float:
    """Population Kendall tau of the model, rotation sign included."""
    tau = _BASE[model.family].tau(model.theta)
    return -tau if model.rotation else tau


def orientation(family: str, tau: float) -> tuple[int, tuple[float, float] | None]:
    """(rotation, theta bracket of inversion and fitting) of the family for
    a Kendall tau of tau's sign.  A negative tau rotates Clayton, Gumbel
    and Joe by 90 degrees and mirrors Frank's bracket to (-hi, -lo);
    Gaussian and independence (whose bracket is None) keep rotation 0 and
    their bracket.  A tau of 0 or -0.0 counts as positive; a NaN tau raises.
    """
    bracket = _check_family(family).bracket
    if math.isnan(tau):
        raise ValueError("kendall tau must not be NaN")
    if not tau < 0.0:
        return 0, bracket
    if family == "frank":
        return 0, (-bracket[1], -bracket[0])
    return (90 if family in ROTATABLE else 0), bracket


def tau_to_theta(family: str, tau: float) -> CopulaModel:
    """Build the model of a family whose population Kendall tau equals tau.

    Every family is the independence copula at |tau| < 1e-6, above the tau
    of Frank's and Joe's lower bracket ends (1.1e-7 and 5.8e-7) but not of
    Clayton's (5.0e-5: 1e-6 <= |tau| < 5e-5 builds a Clayton theta from 2.0e-6
    up to 1e-4, below the bracket its evaluators are checked over); the
    independence family raises at any other tau, NaN included.  Each other
    family raises past the |tau| of its bracket's upper end (Gaussian 0.9910,
    Frank 0.9226, Clayton 0.9615, Gumbel 0.9800, Joe 0.9610), and orientation
    raises on a NaN.  The rotation is orientation's: 90 degrees for
    Clayton/Gumbel/Joe at a negative tau.  Gaussian, Clayton and Gumbel invert
    in closed form; Frank and Joe by 60 fixed halvings of the theta bracket
    (width at most 50) to about 4e-17.
    """
    row = _check_family(family)
    if abs(tau) < _TAU_INDEPENDENT:
        return CopulaModel("independence")
    if family == "independence":
        raise ValueError(f"independence copula requires |tau| < {_TAU_INDEPENDENT}, got {tau}")
    if abs(tau) > (reach := row.tau(row.bracket[1])):
        raise ValueError(f"{family} copula takes kendall tau in [-{reach:.4f}, {reach:.4f}], "
                         f"got {tau}")

    rotation, _ = orientation(family, tau)
    if rotation:
        tau = abs(tau)  # the rotation carries the sign
    if row.theta_of is not None:
        theta = row.theta_of(tau)
    else:
        theta = math.copysign(bisect_increasing(row.tau, abs(tau), *row.bracket, 60), tau)
    return CopulaModel(family, theta, rotation)


def sample(model: CopulaModel, n: int, seed) -> PseudoObservations:
    """Draw n pairs by conditional inversion: v = hinv(w | u), u, w uniform."""
    if n < 2:
        raise ValueError("need n >= 2 samples")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    w = rng.random(n)
    return PseudoObservations(u, hfunc_inverse(model, w, u))
