"""Marginal models: Gaussian-mixture null for the primary statistic, the
empirical distribution of the auxiliary statistic, and the two marginal
p-values that feed the copula machinery.

A HypothesisTable is the pair (p1, p2) of those p-values, one row per
hypothesis, and as_pvalues is the one check of a p-value array.

The mixture null is supplied as configuration rather than estimated from
data; the default below is the fitted two-component null used for the
yeast knockout analysis.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

__all__ = [
    "GaussianMixture",
    "HypothesisTable",
    "STANDARD_NORMAL",
    "REAL_DATA_NULL",
    "TAILS",
    "mixture_cdf",
    "p_value",
    "as_pvalues",
    "build_table",
    "mixture_from_json",
]

TAILS = ("two_sided", "left", "right")


@dataclass(frozen=True)
class GaussianMixture:
    """K-component normal mixture: weights, means and standard deviations."""

    weights: tuple
    means: tuple
    sds: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.asarray(self.means, dtype=float)
        sd = np.asarray(self.sds, dtype=float)
        if not (w.ndim == mu.ndim == sd.ndim == 1) or not (w.size == mu.size == sd.size >= 1):
            raise ValueError("weights, means and sds must be equal-length 1-d sequences")
        for name, v in (("weights", w), ("means", mu), ("sds", sd)):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"mixture {name} must be finite")
        if np.any(w <= 0.0):
            raise ValueError("mixture weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {w.sum()!r}")
        if np.any(sd <= 0.0):
            raise ValueError("mixture standard deviations must be positive")
        object.__setattr__(self, "weights", tuple(w))
        object.__setattr__(self, "means", tuple(mu))
        object.__setattr__(self, "sds", tuple(sd))


STANDARD_NORMAL = GaussianMixture((1.0,), (0.0,), (1.0,))

# Fixed two-component null for the knockout/wildtype log-fold data
# (component means 0 and -0.002, spreads 0.063 and 0.205).
REAL_DATA_NULL = GaussianMixture((0.615, 0.385), (0.0, -0.002), (0.063, 0.205))


def mixture_cdf(m: GaussianMixture, beta):
    """Mixture CDF: sum of weighted normal CDFs."""
    b = np.asarray(beta, dtype=float)
    out = np.zeros_like(b)
    for w, mu, sd in zip(m.weights, m.means, m.sds):
        out = out + w * ndtr((b - mu) / sd)
    return float(out) if np.isscalar(beta) else out


def p_value(m: GaussianMixture, beta_hat, tail: str = "two_sided"):
    """Marginal p-value of the primary statistic for the chosen tail."""
    if tail not in TAILS:
        raise ValueError(f"tail must be one of {TAILS}, got {tail!r}")
    f = mixture_cdf(m, beta_hat)
    if tail == "two_sided":
        return 2.0 * np.minimum(f, 1.0 - f)
    if tail == "left":
        return f
    return 1.0 - f


def as_pvalues(values, name: str) -> np.ndarray:
    """`values` as a float array that is 1-d, nonempty and within [0, 1];
    otherwise a ValueError whose message begins with `name`."""
    p = np.asarray(values, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"{name} must be a 1-d array, got shape {p.shape}")
    if p.size < 1:
        raise ValueError(f"{name} must not be empty")
    if not (p.min() >= 0.0 and p.max() <= 1.0):  # NaN fails too
        raise ValueError(f"{name} must be finite and lie in [0, 1]")
    return p


@dataclass(frozen=True)
class HypothesisTable:
    """Per-hypothesis marginal p-values: p1 of the auxiliary statistic and
    p2 of the primary one.  Rows are positions; ids stay with the caller."""

    p1: np.ndarray
    p2: np.ndarray

    def __post_init__(self):
        p1, p2 = as_pvalues(self.p1, "p1"), as_pvalues(self.p2, "p2")
        if p1.size != p2.size:
            raise ValueError(f"p1 and p2 must share the table length, got {p1.size} and {p2.size}")
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)

    @property
    def m(self) -> int:
        return self.p1.size


def build_table(beta_hats, ys, null: GaussianMixture,
                tail: str = "two_sided") -> HypothesisTable:
    """Assemble a HypothesisTable: p1 is the right-continuous empirical CDF
    #{y_i <= y} / n of the ys, capped at n/(n+1), so in [1/n, n/(n+1)]: the
    copula takes a p1 of 1, but the cap keeps the data, and so every fit,
    unchanged; p2 is the mixture-null p-value of the primary statistic."""
    beta = np.asarray(beta_hats, dtype=float)
    y = np.asarray(ys, dtype=float)
    if beta.size != y.size:
        raise ValueError("beta_hats and ys must have equal length")
    if y.size < 1:
        raise ValueError("ys must not be empty")
    if not np.all(np.isfinite(y)):
        raise ValueError("ys must be finite")
    if not np.all(np.isfinite(beta)):
        raise ValueError("beta_hats must be finite")
    n = y.size
    p1 = np.minimum(np.searchsorted(np.sort(y), y, side="right") / n, n / (n + 1.0))
    return HypothesisTable(p1, p_value(null, beta, tail))


_MIXTURE_KEYS = ("weights", "means", "sds")


def mixture_from_json(source) -> GaussianMixture:
    """Load a mixture from a JSON object, or from the file a str, bytes or
    path-like source names, with weights/means/sds keys, each a list of JSON
    numbers within the double range."""
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{os.fsdecode(source)}: {exc}") from None
    else:
        payload = source
    if not isinstance(payload, dict):
        raise ValueError(f"mixture JSON must be an object with keys {list(_MIXTURE_KEYS)}")
    extra = set(payload) - set(_MIXTURE_KEYS)
    if extra:
        raise ValueError(f"unknown mixture keys: {sorted(extra)}")
    missing = [k for k in _MIXTURE_KEYS if k not in payload]
    if missing:
        raise ValueError(f"mixture JSON is missing keys: {missing}")
    for key in _MIXTURE_KEYS:  # numpy would read true as 1.0 and "1.5" as 1.5
        items = payload[key]
        # an exact comparison: a float() of a huge int overflows
        if not isinstance(items, list) or not all(
                isinstance(x, float) or (isinstance(x, int) and not isinstance(x, bool)
                                         and abs(x) <= sys.float_info.max) for x in items):
            raise ValueError(f"mixture {key} must be a list of JSON numbers, got {items!r}")
    return GaussianMixture(*(payload[k] for k in _MIXTURE_KEYS))
