"""Bivariate one-parameter copula families.

Implements the Independence, Gaussian, Frank, Clayton, Gumbel and Joe
families with CDF, log-density, conditional CDF (h-function), inverse
h-function, Kendall-tau parameter maps, 90/180/270-degree rotations and
conditional-inversion sampling.  Clayton, Gumbel and Joe natively model
positive dependence only; negative dependence is represented by the 90
or 270 degree rotation.

All evaluators accept scalars or numpy arrays and are pure functions of
an immutable :class:`CopulaModel`, so concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import digamma, ndtr, ndtri

from .bvn import bvn_cdf

__all__ = [
    "CopulaModel",
    "PseudoObservations",
    "FAMILIES",
    "ROTATIONS",
    "cdf",
    "log_density",
    "hfunc",
    "hfunc_inverse",
    "kendall_tau",
    "tau_to_theta",
    "theta_bracket",
    "sample",
]

FAMILIES = ("independence", "gaussian", "frank", "clayton", "gumbel", "joe")
ROTATIONS = (0, 90, 180, 270)

# Families that only model positive dependence and therefore need a
# rotation to represent negative Kendall tau.
ROTATABLE = ("clayton", "gumbel", "joe")

_EPS = 1e-10  # boundary clamp for interior-only evaluations


def _check_theta(family: str, theta) -> None:
    if family == "independence":
        if theta is not None:
            raise ValueError("independence copula has no parameter")
        return
    if theta is None or not math.isfinite(theta):
        raise ValueError(f"{family} copula requires a finite parameter, got {theta}")
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
        if self.family not in FAMILIES:
            raise ValueError(f"unknown copula family {self.family!r}")
        if self.rotation not in ROTATIONS:
            raise ValueError(f"rotation must be one of {ROTATIONS}, got {self.rotation}")
        if self.family not in ROTATABLE and self.rotation != 0:
            raise ValueError(f"{self.family} copula does not take a rotation")
        _check_theta(self.family, self.theta)

    def describe(self) -> str:
        if self.family == "independence":
            return "independence"
        rot = f" rot{self.rotation}" if self.rotation else ""
        return f"{self.family}(theta={self.theta:.6g}){rot}"


@dataclass(frozen=True)
class PseudoObservations:
    """Paired observations on (0,1)^2, e.g. coupled marginal p-values."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.ndim != 1 or v.ndim != 1 or u.shape != v.shape:
            raise ValueError("u and v must be 1-d arrays of equal length")
        if u.size < 2:
            raise ValueError("need at least 2 observation pairs")
        if not (np.all(u > 0.0) and np.all(u < 1.0) and np.all(v > 0.0) and np.all(v < 1.0)):
            raise ValueError("pseudo-observations must lie strictly inside (0, 1)")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return self.u.size

    @classmethod
    def clamped(cls, u, v) -> "PseudoObservations":
        """Pairs clipped into [_EPS, 1 - _EPS], e.g. p-values that reach 0 or 1."""
        return cls(np.clip(u, _EPS, 1.0 - _EPS), np.clip(v, _EPS, 1.0 - _EPS))


# ---------------------------------------------------------------------------
# Base (unrotated) family evaluators.  All take (theta, u, v) arrays with
# u, v strictly inside (0, 1) and are written to stay finite for the
# parameter brackets used in fitting (|theta| <= 50).
# ---------------------------------------------------------------------------


def _indep_cdf(t, u, v):
    return u * v


def _indep_logpdf(t, u, v):
    return np.zeros(np.broadcast_shapes(np.shape(u), np.shape(v)))


def _indep_h(t, v, u):
    return np.broadcast_arrays(v, u)[0].astype(float, copy=True)


def _gaussian_cdf(t, u, v):
    return bvn_cdf(ndtri(u), ndtri(v), t)


def _gaussian_logpdf(t, u, v):
    x = ndtri(u)
    y = ndtri(v)
    s2 = 1.0 - t * t
    return -0.5 * np.log(s2) - (t * t * (x * x + y * y) - 2.0 * t * x * y) / (2.0 * s2)


def _gaussian_h(t, v, u):
    return ndtr((ndtri(v) - t * ndtri(u)) / math.sqrt(1.0 - t * t))


def _gaussian_hinv(t, x, u):
    return ndtr(ndtri(x) * math.sqrt(1.0 - t * t) + t * ndtri(u))


# Below this |theta| the Frank evaluators use expm1/log1p forms.  Near
# independence e^{-tu}, e^{-tv} and e^{-t} all lie near 1, and a sum of them
# that comes to a value of size ~t cancels; for large |t| the expm1 forms
# cancel instead (1 - 1), so there the sum of exponentials stays.
_FRANK_SMALL = 1.0


def _frank_x(t, u, v):
    # _frank_d / expm1(-t) - 1, without forming the difference
    return np.expm1(-t * u) * np.expm1(-t * v) / math.expm1(-t)


def _frank_d(t, u, v):
    # e^{-t(u+v)} + e^{-t} - e^{-tu} - e^{-tv}; shares the sign of e^{-t}-1.
    if abs(t) < _FRANK_SMALL:
        return np.expm1(-t * u) * np.expm1(-t * v) + math.expm1(-t)
    return np.exp(-t * (u + v)) + math.exp(-t) - np.exp(-t * u) - np.exp(-t * v)


def _frank_cdf(t, u, v):
    if abs(t) < _FRANK_SMALL:
        return -np.log1p(_frank_x(t, u, v)) / t
    g1 = math.expm1(-t)
    return -np.log(_frank_d(t, u, v) / g1) / t


def _frank_logpdf(t, u, v):
    if abs(t) < _FRANK_SMALL:
        return (math.log(-t / math.expm1(-t)) - t * (u + v)
                - 2.0 * np.log1p(_frank_x(t, u, v)))
    g1 = math.expm1(-t)
    return math.log(abs(t * g1)) - t * (u + v) - 2.0 * np.log(np.abs(_frank_d(t, u, v)))


def _frank_h(t, v, u):
    gv = np.expm1(-t * np.asarray(v, dtype=float))
    return np.exp(-t * u) * gv / _frank_d(t, u, v)


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
    ln_num = np.logaddexp(lhs, -t + np.log(x))
    ln_den = np.logaddexp(lhs, np.log(x))
    return -(ln_num - ln_den) / t


def _clayton_ln_a(t, u, v):
    # log(u^-t + v^-t - 1), overflow-safe for large t.
    p = -t * np.log(u)
    q = -t * np.log(v)
    m = np.maximum(p, q)
    return m + np.log(np.exp(p - m) + np.exp(q - m) - np.exp(-m))


def _clayton_cdf(t, u, v):
    return np.exp(-_clayton_ln_a(t, u, v) / t)


def _clayton_logpdf(t, u, v):
    ln_a = _clayton_ln_a(t, u, v)
    return math.log1p(t) - (t + 1.0) * (np.log(u) + np.log(v)) - (2.0 + 1.0 / t) * ln_a


def _clayton_h(t, v, u):
    ln_a = _clayton_ln_a(t, u, v)
    return np.exp(-(t + 1.0) * np.log(u) - (1.0 + 1.0 / t) * ln_a)


def _clayton_hinv(t, x, u):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        # s = log(u^-t * (x^{-t/(1+t)} - 1)); s -> -inf at x=1, +inf at x=0.
        s = -t * np.log(u) + np.log(np.expm1(-t / (1.0 + t) * np.log(x)))
    return np.exp(-np.logaddexp(s, 0.0) / t)


def _gumbel_parts(t, u, v):
    la = np.log(-np.log(u))
    lb = np.log(-np.log(v))
    ln_s = np.logaddexp(t * la, t * lb)
    return la, lb, ln_s


def _gumbel_cdf(t, u, v):
    _, _, ln_s = _gumbel_parts(t, u, v)
    return np.exp(-np.exp(ln_s / t))


def _gumbel_logpdf(t, u, v):
    la, lb, ln_s = _gumbel_parts(t, u, v)
    w = np.exp(ln_s / t)
    return (-w + (t - 1.0) * (la + lb) + (2.0 / t - 2.0) * ln_s
            - np.log(u) - np.log(v) + np.log1p((t - 1.0) / w))


def _gumbel_h(t, v, u):
    la, _, ln_s = _gumbel_parts(t, u, v)
    w = np.exp(ln_s / t)
    return np.exp(-w + (t - 1.0) * la + (1.0 / t - 1.0) * ln_s - np.log(u))


def _joe_parts(t, u, v):
    lx = t * np.log1p(-u)
    ly = t * np.log1p(-v)
    ex = -np.expm1(lx)  # 1 - (1-u)^t
    ey = -np.expm1(ly)
    # T = x + y - xy in (0, 1]; pick the cancellation-free form per point.
    prod = ex * ey
    with np.errstate(divide="ignore"):
        ln_t = np.where(prod < 0.5, np.log1p(-prod),
                        np.log(np.exp(lx) + np.exp(ly) * ex))
    return lx, ly, ex, ey, ln_t


def _joe_cdf(t, u, v):
    ln_t = _joe_parts(t, u, v)[4]
    return -np.expm1(ln_t / t)


def _joe_logpdf(t, u, v):
    lx, ly, _, _, ln_t = _joe_parts(t, u, v)
    big_t = np.exp(ln_t)
    return ((1.0 / t - 2.0) * ln_t + (1.0 - 1.0 / t) * (lx + ly)
            + np.log(t - 1.0 + big_t))


def _joe_h(t, v, u):
    lx, _, _, ey, ln_t = _joe_parts(t, u, v)
    return np.exp((1.0 - 1.0 / t) * lx + np.log(ey) + (1.0 / t - 1.0) * ln_t)


def bisect_increasing(f, target, lo, hi, iterations: int):
    """Solve f(x) = target on [lo, hi] by a fixed number of halvings.

    f must be nondecreasing in x and is evaluated elementwise, so target,
    lo and hi may be arrays or scalars.  Each halving keeps the half whose
    lower end has f below target, so the result is the midpoint of a
    bracket of width (hi - lo) / 2**iterations around the smallest x with
    f(x) >= target (lo or hi when the target lies outside f's range).
    """
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        take_hi = f(mid) < target
        lo = np.where(take_hi, mid, lo)
        hi = np.where(take_hi, hi, mid)
    return 0.5 * (lo + hi)


def _frank_tau_positive(theta: float) -> float:
    # tau = 1 - 4/theta + 4*D1(theta)/theta with D1 the order-1 Debye function.
    debye, _ = quad(lambda s: s / math.expm1(s) if s != 0.0 else 1.0, 0.0, theta)
    return 1.0 - 4.0 / theta + 4.0 * debye / (theta * theta)


def _joe_tau(theta: float) -> float:
    if theta == 1.0:
        return 0.0

    def f(t):
        return 1.0 + 2.0 * (digamma(2.0) - digamma(1.0 + 2.0 / t)) / (2.0 - t)

    # 0/0 at theta = 2; bridge the hole by local linear interpolation.
    h = 1e-4
    if abs(theta - 2.0) < h:
        lo, hi = f(2.0 - h), f(2.0 + h)
        return lo + (theta - (2.0 - h)) * (hi - lo) / (2.0 * h)
    return f(theta)


class _Family:
    """One base (unrotated) family: everything the module knows about it.

    cdf, logpdf and h are its evaluators at (theta, u, v) and (theta, v, u);
    hinv inverts h, by bisection when not given.  tau maps theta to the
    population Kendall tau.  theta_of is the closed-form inverse of tau, or
    None to bisect tau on bracket.  bracket is the admissible theta interval
    of inversion and fitting (Frank's positive branch, mirrored for negative
    tau), or None for independence, which has no parameter.
    """

    def __init__(self, cdf, logpdf, h, hinv=None, *, tau, theta_of=None, bracket=None):
        self.cdf = cdf
        self.logpdf = logpdf
        self.h = h
        self.hinv = hinv if hinv is not None else self._hinv_bisect
        self.tau = tau
        self.theta_of = theta_of
        self.bracket = bracket

    def _hinv_bisect(self, t, x, u):
        # h is a CDF in v for fixed u: monotone, h(0)=0, h(1)=1.  80 halvings
        # narrow the v-bracket to 2^-80, below the spacing of doubles near 1,
        # where a residual h(v) - x measures how steep h is, not convergence.
        # Only a NaN h raises: it compares False and would pass silently.
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        shape = np.broadcast_shapes(x.shape, u.shape)
        ub = np.broadcast_to(u, shape)

        def h(v):
            return self.h(t, np.clip(v, _EPS, 1.0 - _EPS), ub)

        v = bisect_increasing(h, np.broadcast_to(x, shape), np.zeros(shape), np.ones(shape), 80)
        if np.any(np.isnan(h(v))):
            raise RuntimeError("conditional quantile undefined: h(v | u) is NaN")
        return v


_BASE = {
    "independence": _Family(_indep_cdf, _indep_logpdf, _indep_h, _indep_h,
                            tau=lambda t: 0.0),
    "gaussian": _Family(_gaussian_cdf, _gaussian_logpdf, _gaussian_h, _gaussian_hinv,
                        tau=lambda t: 2.0 / math.pi * math.asin(t),
                        theta_of=lambda tau: math.sin(math.pi * tau / 2.0),
                        bracket=(-0.9999, 0.9999)),
    "frank": _Family(_frank_cdf, _frank_logpdf, _frank_h, _frank_hinv,
                     tau=lambda t: math.copysign(_frank_tau_positive(abs(t)), t),
                     bracket=(1e-6, 50.0)),
    "clayton": _Family(_clayton_cdf, _clayton_logpdf, _clayton_h, _clayton_hinv,
                       tau=lambda t: t / (t + 2.0),
                       theta_of=lambda tau: 2.0 * tau / (1.0 - tau),
                       bracket=(1e-4, 50.0)),
    "gumbel": _Family(_gumbel_cdf, _gumbel_logpdf, _gumbel_h,
                      tau=lambda t: 1.0 - 1.0 / t,
                      theta_of=lambda tau: 1.0 / (1.0 - tau),
                      bracket=(1.0 + 1e-6, 50.0)),
    "joe": _Family(_joe_cdf, _joe_logpdf, _joe_h, tau=_joe_tau, bracket=(1.0 + 1e-6, 50.0)),
}


def _maybe_scalar(out, *arrays):
    if all(a.ndim == 0 for a in arrays):
        return float(np.asarray(out).reshape(()))
    return out


def _as_unit(name, value, open_=False):
    """value as a float array, checked by its min and max against the closed
    [0, 1], or the open (0, 1) when open_ (NaN fails either way); with it,
    whether an entry lies past the clamp interior [_EPS, 1 - _EPS], the only
    case where clipping into it or a boundary case at 0 or 1 changes a value.
    """
    arr = np.asarray(value, dtype=float)
    if arr.size == 0:
        return arr, False
    lo = arr.min()
    hi = arr.max()
    if not ((0.0 < lo and hi < 1.0) if open_ else (0.0 <= lo and hi <= 1.0)):
        raise ValueError(f"{name} must lie in {'(0, 1)' if open_ else '[0, 1]'}")
    return arr, bool(lo < _EPS or hi > 1.0 - _EPS)


def cdf(model: CopulaModel, u, v):
    """Copula CDF C(u, v); accepts the closed unit square.

    u and v broadcast inside the family formula without being expanded, so
    a scalar u (the hard scan's screen level) is rotated and transformed
    once per call.  Inside the clamp interior [1e-10, 1 - 1e-10] the result
    is the formula's value clipped to [0, 1].  Only an input past the
    interior takes the boundary path: the inputs are clipped into it for
    the formula, and the margins C(0, v) = C(u, 0) = 0, C(1, v) = v and
    C(u, 1) = u are imposed.
    """
    uu, u_edge = _as_unit("u", u)
    vv, v_edge = _as_unit("v", v)
    fam = _BASE[model.family]
    t = model.theta
    ui = np.clip(uu, _EPS, 1.0 - _EPS) if u_edge else uu
    vi = np.clip(vv, _EPS, 1.0 - _EPS) if v_edge else vv
    r = model.rotation
    if r == 0:
        out = fam.cdf(t, ui, vi)
    elif r == 90:
        out = vv - fam.cdf(t, 1.0 - ui, vi)
    elif r == 180:
        out = uu + vv - 1.0 + fam.cdf(t, 1.0 - ui, 1.0 - vi)
    else:
        out = uu - fam.cdf(t, ui, 1.0 - vi)
    if u_edge or v_edge:
        out = np.where(uu <= 0.0, 0.0, np.where(vv <= 0.0, 0.0,
                       np.where(uu >= 1.0, vv, np.where(vv >= 1.0, uu, out))))
    out = np.clip(out, 0.0, 1.0)
    return _maybe_scalar(out, uu, vv)


def _rotated_args(rotation: int, u, v):
    if rotation == 0:
        return u, v
    if rotation == 90:
        return 1.0 - u, v
    if rotation == 180:
        return 1.0 - u, 1.0 - v
    return u, 1.0 - v


def log_density(model: CopulaModel, u, v):
    """Log copula density; u and v must lie strictly inside (0, 1)."""
    uu, _ = _as_unit("u", u, open_=True)
    vv, _ = _as_unit("v", v, open_=True)
    ru, rv = _rotated_args(model.rotation, uu, vv)
    out = _BASE[model.family].logpdf(model.theta, ru, rv)
    return _maybe_scalar(out, uu, vv)


def _rotated_conditional(model: CopulaModel, base_fn, name: str, value, given_u):
    """Apply a base-family h or h-inverse under the model's rotation.

    value (v for h, x for its inverse) may lie in the closed [0, 1], with
    0 and 1 mapped to themselves; given_u must lie strictly inside (0, 1).
    As in cdf, the inputs are not expanded to a common shape, and the
    clip and the boundary cases run only for a value past the clamp
    interior.
    """
    aa, a_edge = _as_unit(name, value)
    uu, _ = _as_unit("given_u", given_u, open_=True)
    ai = np.clip(aa, _EPS, 1.0 - _EPS) if a_edge else aa
    ru, ra = _rotated_args(model.rotation, uu, ai)
    out = base_fn(model.theta, ra, ru)
    if model.rotation in (180, 270):  # the rotations that reflect v
        out = 1.0 - out
    if a_edge:
        out = np.where(aa <= 0.0, 0.0, np.where(aa >= 1.0, 1.0, out))
    out = np.clip(out, 0.0, 1.0)
    return _maybe_scalar(out, aa, uu)


def hfunc(model: CopulaModel, v, given_u):
    """Conditional CDF C(v | u) = dC(u, v)/du of the second coordinate."""
    return _rotated_conditional(model, _BASE[model.family].h, "v", v, given_u)


def hfunc_inverse(model: CopulaModel, x, given_u):
    """Solve hfunc(v | u) = x for v."""
    return _rotated_conditional(model, _BASE[model.family].hinv, "x", x, given_u)


# ---------------------------------------------------------------------------
# Kendall tau maps, read from each family's _BASE row.
# ---------------------------------------------------------------------------


def _row(family: str) -> _Family:
    if family not in _BASE:
        raise ValueError(f"unknown copula family {family!r}")
    return _BASE[family]


def kendall_tau(model: CopulaModel) -> float:
    """Population Kendall tau of the model, rotation sign included."""
    tau = _BASE[model.family].tau(model.theta)
    if model.rotation in (90, 270):
        tau = -tau
    return tau


def theta_bracket(family: str) -> tuple[float, float]:
    """Admissible parameter search interval used by inversion and fitting."""
    bracket = _row(family).bracket
    if bracket is None:
        raise ValueError(f"{family} copula has no parameter")
    return bracket


def _invert_tau(tau_fn, target: float, lo: float, hi: float) -> float:
    """theta in [lo, hi] with tau_fn(theta) = target, tau_fn increasing.

    60 fixed halvings narrow the theta-bracket (width at most 50) to about
    4e-17, below the spacing of doubles at theta >= 1.
    """
    if tau_fn(lo) > target or tau_fn(hi) < target:
        raise ValueError(f"kendall tau {target} outside invertible range")
    return float(bisect_increasing(tau_fn, target, lo, hi, 60))


def tau_to_theta(family: str, tau: float, rotation: int | None = None) -> CopulaModel:
    """Build the model of a family whose population Kendall tau equals tau.

    For Clayton/Gumbel/Joe a negative tau selects the 90-degree rotation
    (270 also accepted); a rotation argument that contradicts the sign of
    tau raises.  Gaussian, Clayton and Gumbel invert in closed form; Frank
    and Joe invert their tau map by 60 fixed halvings of theta_bracket.
    """
    row = _row(family)
    if not -1.0 < tau < 1.0:
        raise ValueError(f"kendall tau must be in (-1, 1), got {tau}")

    if family == "independence":
        if tau != 0.0:
            raise ValueError("independence copula requires tau = 0")
        if rotation not in (None, 0):
            raise ValueError("independence copula does not take a rotation")
        return CopulaModel("independence")

    if family in ROTATABLE:
        if rotation is None:
            rotation = 0 if tau >= 0.0 else 90
        if tau > 0.0 and rotation not in (0, 180):
            raise ValueError(f"positive tau requires rotation 0 or 180, got {rotation}")
        if tau < 0.0 and rotation not in (90, 270):
            raise ValueError(f"negative tau requires rotation 90 or 270, got {rotation}")
        tau = abs(tau)  # the rotation carries the sign
    elif rotation not in (None, 0):
        raise ValueError(f"{family} copula does not take a rotation")
    else:
        rotation = 0

    if tau == 0.0 and family in ("frank", "clayton"):
        raise ValueError(f"{family} copula is undefined at tau = 0; use independence")
    if tau == 0.0 and family == "joe":
        theta = 1.0
    elif row.theta_of is not None:
        theta = row.theta_of(tau)
    else:
        theta = math.copysign(_invert_tau(row.tau, abs(tau), *row.bracket), tau)
    return CopulaModel(family, theta, rotation)


def sample(model: CopulaModel, n: int, seed) -> PseudoObservations:
    """Draw n pairs by conditional inversion: v = hinv(w | u), u, w uniform."""
    if n < 2:
        raise ValueError("need n >= 2 samples")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    w = rng.random(n)
    u = np.clip(u, _EPS, 1.0 - _EPS)
    v = hfunc_inverse(model, w, u)
    v = np.clip(v, _EPS, 1.0 - _EPS)
    return PseudoObservations(u, v)
