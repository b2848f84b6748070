"""Bivariate standard normal CDF.

The bivariate CDF follows Genz's double-precision rewrite of the
Drezner-Wesolowsky algorithm (Gauss-Legendre quadrature on ``asin(rho)``
for moderate correlation, a tail-difference expansion for ``|rho|`` close
to 1).  Absolute error is below 1e-14, comfortably inside the 1e-10
budget every downstream p-value inherits.

The terms that depend on y alone come from ``bvn_y_side``, so a caller
that evaluates many x at one y (the Gaussian hard scan: one screen level
per x, p2 fixed) computes them once and passes them as ``prepared``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

__all__ = ["bvn_cdf", "bvn_y_side"]

_TWOPI = 2.0 * np.pi

# Gauss-Legendre (points, weights) on [-1, 1]: 6, 12 and 20 nodes, folded
# to the positive half as used by Genz.
_GL_NODES = (
    np.array([-0.9324695142031522, -0.6612093864662647, -0.2386191860831970]),
    np.array([
        -0.9815606342467191, -0.9041172563704750, -0.7699026741943050,
        -0.5873179542866171, -0.3678314989981802, -0.1252334085114692,
    ]),
    np.array([
        -0.9931285991850949, -0.9639719272779138, -0.9122344282513259,
        -0.8391169718222188, -0.7463319064601508, -0.6360536807265150,
        -0.5108670019508271, -0.3737060887154196, -0.2277858511416451,
        -0.07652652113349733,
    ]),
)
_GL_WEIGHTS = (
    np.array([0.1713244923791705, 0.3607615730481384, 0.4679139345726904]),
    np.array([
        0.04717533638651177, 0.1069393259953183, 0.1600783285433464,
        0.2031674267230659, 0.2334925365383547, 0.2491470458134029,
    ]),
    np.array([
        0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
        0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
        0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
        0.1527533871307259,
    ]),
)


def bvn_y_side(y):
    """bvn_cdf's terms of y alone: (k, k * k, ndtr(-k)) with k = -y.

    The tail expansion (|rho| >= 0.925) reads only k.
    """
    k = -np.asarray(y, dtype=float)
    return k, k * k, ndtr(-k)


def bvn_cdf(x, y, rho, prepared=None):
    """P(X <= x, Y <= y) for standard bivariate normal with correlation rho.

    Parameters
    ----------
    x, y : float or ndarray
        Evaluation points, broadcast against each other.
    rho : float
        Correlation, must lie strictly inside (-1, 1).
    prepared : tuple, optional
        bvn_y_side(y), for a caller that holds y fixed across calls.  The
        result equals the unprepared one bit for bit.

    Returns
    -------
    float or ndarray
        Joint probability, clipped to [0, 1].
    """
    if not -1.0 < rho < 1.0:
        raise ValueError(f"correlation must be in (-1, 1), got {rho}")
    scalar = np.isscalar(x) and np.isscalar(y)
    # h and k broadcast inside each expression, so a scalar h is squared
    # and passed through ndtr once, not once per k.
    h = -np.asarray(x, dtype=float)
    if prepared is None:
        prepared = bvn_y_side(y)
    k, kk, ndtr_mk = prepared
    if np.shape(k) != np.shape(y):
        raise ValueError(f"prepared y-side has shape {np.shape(k)}, y has {np.shape(y)}")
    shape = np.broadcast_shapes(h.shape, k.shape)
    hk = h * k

    if abs(rho) < 0.925:
        if abs(rho) < 0.3:
            nodes, weights = _GL_NODES[0], _GL_WEIGHTS[0]
        elif abs(rho) < 0.75:
            nodes, weights = _GL_NODES[1], _GL_WEIGHTS[1]
        else:
            nodes, weights = _GL_NODES[2], _GL_WEIGHTS[2]
        hs = (h * h + kk) / 2.0
        asr = np.arcsin(rho)
        bvn = np.zeros(shape)
        term = np.empty(shape)
        for xi, wi in zip(nodes, weights):
            for sn in (np.sin(asr * (xi + 1.0) / 2.0), np.sin(asr * (-xi + 1.0) / 2.0)):
                # bvn += wi * exp((sn * hk - hs) / (1 - sn^2)), in one buffer
                np.multiply(sn, hk, out=term)
                term -= hs
                term /= 1.0 - sn * sn
                np.exp(term, out=term)
                term *= wi
                bvn += term
        bvn = bvn * asr / (2.0 * _TWOPI) + ndtr(-h) * ndtr_mk
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
    return float(out) if scalar else np.reshape(out, shape)
