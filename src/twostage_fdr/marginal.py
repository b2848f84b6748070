"""Marginal models: Gaussian-mixture null for the primary statistic, the
empirical distribution of the auxiliary statistic, and the two marginal
p-values that feed the copula machinery.

The mixture null is supplied as configuration rather than estimated from
data; the default below is the fitted two-component null used for the
yeast knockout analysis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

__all__ = [
    "GaussianMixture",
    "EmpiricalCdf",
    "HypothesisTable",
    "STANDARD_NORMAL",
    "REAL_DATA_NULL",
    "TAILS",
    "mixture_cdf",
    "mixture_quantile",
    "p_two_sided",
    "p_value",
    "empirical_p1",
    "build_table",
    "mixture_from_json",
    "write_table_tsv",
    "read_table_tsv",
]

TAILS = ("two_sided", "left", "right")


@dataclass(frozen=True)
class GaussianMixture:
    """K-component normal mixture with density, CDF and quantiles."""

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


def mixture_quantile(m: GaussianMixture, q):
    """Inverse of mixture_cdf by bracketed bisection, |F(x) - q| <= 1e-10."""
    qq = np.asarray(q, dtype=float)
    if np.any(qq <= 0.0) or np.any(qq >= 1.0):
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    mu = np.asarray(m.means)
    sd = np.asarray(m.sds)
    lo = float(np.min(mu - 10.0 * sd))
    hi = float(np.max(mu + 10.0 * sd))
    # widen until the bracket covers the requested tail levels
    while mixture_cdf(m, lo) > np.min(qq):
        lo -= 2.0 * (hi - lo)
    while mixture_cdf(m, hi) < np.max(qq):
        hi += 2.0 * (hi - lo)
    lo_arr = np.full(qq.shape, lo)
    hi_arr = np.full(qq.shape, hi)
    for _ in range(200):
        mid = 0.5 * (lo_arr + hi_arr)
        take_hi = mixture_cdf(m, mid) < qq
        lo_arr = np.where(take_hi, mid, lo_arr)
        hi_arr = np.where(take_hi, hi_arr, mid)
        if np.max(hi_arr - lo_arr) < 1e-13 * max(1.0, abs(lo), abs(hi)):
            break
    out = 0.5 * (lo_arr + hi_arr)
    return float(out) if np.isscalar(q) else out


def p_two_sided(m: GaussianMixture, beta_hat):
    """Two-sided p-value 2 min(F0(b), 1 - F0(b)) under the mixture null."""
    f = mixture_cdf(m, beta_hat)
    return 2.0 * np.minimum(f, 1.0 - f)


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


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous empirical CDF H(y) = #{y_i <= y} / n."""

    sorted_values: np.ndarray

    def __post_init__(self):
        vals = np.sort(np.asarray(self.sorted_values, dtype=float))
        if vals.size < 1:
            raise ValueError("empirical CDF needs at least one value")
        if np.any(~np.isfinite(vals)):
            raise ValueError("empirical CDF values must be finite")
        object.__setattr__(self, "sorted_values", vals)

    @property
    def n(self) -> int:
        return self.sorted_values.size

    def __call__(self, y):
        counts = np.searchsorted(self.sorted_values, np.asarray(y, dtype=float), side="right")
        out = counts / self.n
        return float(out) if np.isscalar(y) else out


def empirical_p1(cdf: EmpiricalCdf, y):
    """H(y) clamped into [1/(n+1), n/(n+1)] for use as a pseudo-observation."""
    n = cdf.n
    out = np.clip(cdf(y), 1.0 / (n + 1.0), n / (n + 1.0))
    return float(out) if np.isscalar(y) else out


@dataclass(frozen=True)
class HypothesisTable:
    """Per-hypothesis record: id, primary statistic, auxiliary statistic
    and the two marginal p-values."""

    ids: tuple
    beta_hat: np.ndarray
    y: np.ndarray
    p1: np.ndarray
    p2: np.ndarray

    def __post_init__(self):
        ids = tuple(str(i) for i in self.ids)
        beta = np.asarray(self.beta_hat, dtype=float)
        y = np.asarray(self.y, dtype=float)
        p1 = np.asarray(self.p1, dtype=float)
        p2 = np.asarray(self.p2, dtype=float)
        m = len(ids)
        if m < 1:
            raise ValueError("hypothesis table must not be empty")
        if not (beta.shape == y.shape == p1.shape == p2.shape == (m,)):
            raise ValueError("all columns must share the table length")
        if len(set(ids)) != m:
            raise ValueError("hypothesis ids must be unique")
        for name, p in (("p1", p1), ("p2", p2)):
            if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails too
                raise ValueError(f"{name} values must be finite and lie in [0, 1]")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "beta_hat", beta)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)

    @property
    def m(self) -> int:
        return len(self.ids)


def build_table(ids, beta_hats, ys, null: GaussianMixture,
                tail: str = "two_sided") -> HypothesisTable:
    """Assemble a HypothesisTable: p1 from the empirical CDF of the ys,
    p2 from the mixture null of the primary statistic."""
    ids = list(ids)
    beta = np.asarray(beta_hats, dtype=float)
    y = np.asarray(ys, dtype=float)
    if not (len(ids) == beta.size == y.size):
        raise ValueError("ids, beta_hats and ys must have equal length")
    ecdf = EmpiricalCdf(y)
    p1 = empirical_p1(ecdf, y)
    p2 = p_value(null, beta, tail)
    return HypothesisTable(tuple(ids), beta, y, np.atleast_1d(p1), np.atleast_1d(p2))


def mixture_from_json(source) -> GaussianMixture:
    """Load a mixture from a JSON object/file with weights/means/sds keys."""
    if isinstance(source, (str, bytes)):
        with open(source, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    else:
        payload = source
    extra = set(payload) - {"weights", "means", "sds"}
    if extra:
        raise ValueError(f"unknown mixture keys: {sorted(extra)}")
    return GaussianMixture(tuple(payload["weights"]), tuple(payload["means"]),
                           tuple(payload["sds"]))


_TABLE_COLUMNS = ("id", "beta_hat", "y", "p1", "p2")


def write_table_tsv(table: HypothesisTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(_TABLE_COLUMNS) + "\n")
        for i in range(table.m):
            cells = (table.ids[i], repr(float(table.beta_hat[i])), repr(float(table.y[i])),
                     repr(float(table.p1[i])), repr(float(table.p2[i])))
            fh.write("\t".join(cells) + "\n")


def read_table_tsv(path) -> HypothesisTable:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = "\t".join(_TABLE_COLUMNS)
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    ids, beta, y, p1, p2 = [], [], [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ValueError(f"line {lineno}: expected 5 columns, got {len(parts)}")
        ids.append(parts[0])
        beta.append(float(parts[1]))
        y.append(float(parts[2]))
        p1.append(float(parts[3]))
        p2.append(float(parts[4]))
    return HypothesisTable(tuple(ids), np.array(beta), np.array(y),
                           np.array(p1), np.array(p2))
