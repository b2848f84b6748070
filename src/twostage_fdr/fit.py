"""Maximum-likelihood copula fitting on pseudo-observations and model
selection by log-likelihood, AIC and BIC."""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .copula import (
    FAMILIES,
    CopulaModel,
    PseudoObservations,
    log_density,
    log_density_of,
    orientation,
)

__all__ = [
    "FitError",
    "FitResult",
    "SelectionReport",
    "CRITERIA",
    "DEFAULT_CANDIDATES",
    "MIN_FIT_PAIRS",
    "check_families",
    "empirical_kendall_tau",
    "fit_mle",
    "select_copula",
    "report_to_json",
    "format_report",
]

CRITERIA = ("loglik", "aic", "bic")

DEFAULT_CANDIDATES = ("gaussian", "frank", "clayton", "gumbel", "joe")

MIN_FIT_PAIRS = 10  # fewest observation pairs fit_mle accepts


class FitError(RuntimeError):
    """Copula fit failed (degenerate data or optimizer breakdown)."""


@dataclass(frozen=True)
class FitResult:
    model: CopulaModel
    loglik: float
    aic: float
    bic: float
    n: int
    converged: bool


@dataclass(frozen=True)
class SelectionReport:
    candidates: tuple
    winner_index: dict

    def winner(self, criterion: str) -> FitResult:
        return self.candidates[self.winner_index[criterion]]


def check_families(families, key: str) -> tuple:
    """The family names as a tuple.  A str, a non-iterable, a non-str item or
    a repeated name raises ValueError naming `key`; an unknown name raises
    one naming it."""
    listed = isinstance(families, Iterable) and not isinstance(families, str)
    names = tuple(families) if listed else ()
    if not listed or not all(isinstance(f, str) for f in names):
        raise ValueError(f"{key} must be a list of family names, got {families!r}")
    for i, family in enumerate(names):
        if family not in FAMILIES:
            raise ValueError(f"unknown copula family {family!r}")
        if family in names[:i]:
            raise ValueError(f"{key} lists family {family!r} twice")
    return names


def _tied_pairs(changes: np.ndarray) -> int:
    """Pairs within the runs of equal values of a sorted array, given where
    its consecutive values change."""
    runs = np.diff(np.flatnonzero(np.concatenate(([True], changes, [True]))))
    return int(np.sum(runs * (runs - 1) // 2))


def _dense_ranks(x: np.ndarray, dtype) -> tuple:
    """Dense ranks of x (0 for its smallest value), an order that sorts x,
    and the pairs tied in x."""
    order = np.argsort(x)
    xs = x[order]
    changes = xs[1:] != xs[:-1]
    ranks = np.empty(x.size, dtype)
    ranks[order[0]] = 0
    ranks[order[1:]] = np.cumsum(changes, dtype=dtype)
    return ranks, order, _tied_pairs(changes)


def _stable_order(keys: np.ndarray, index: np.ndarray, bits: int) -> np.ndarray:
    """The order that sorts `keys`, ties by index: every packed key
    keys << bits | index is distinct, so any sort gives this order."""
    return np.sort((keys << bits) | index) & ((1 << bits) - 1)


def _discordant_pairs(pos: np.ndarray, index: np.ndarray, bits: int) -> int:
    """Inversions of the permutation whose value order visits positions
    `pos`, by a bottom-up merge count.

    At each level the positions form blocks of 2s, each a left half of s
    and a right half.  One sort of block << bits + 1 | value << 1 | half
    orders each block by value.  A right at index i of that run, in block
    b and after k other rights, then follows i - k - s·b lefts of its own
    block and is inverted with the other s - (i - k - s·b).  Summed over
    the R rights that is s·(R + sum(b)) + R(R - 1)/2 - sum(i), in closed
    form but sum(i).
    """
    n = pos.size
    count = 0
    value = index << 1
    for level in range(1, bits + 1):
        s = 1 << (level - 1)
        right = (pos >> (level - 1)) & 1
        if level < bits:  # more than one block
            right = np.sort(((pos >> level) << (bits + 1)) | value | right) & 1
        full, rest = divmod(n, 2 * s)
        extra = max(rest - s, 0)  # rights in the short last block
        rights = s * full + extra
        block_sum = s * full * (full - 1) // 2 + extra * full
        # sum(i) < n(n - 1)/2 fits the key type, so its dot cannot wrap
        count += (s * (rights + block_sum) + rights * (rights - 1) // 2
                  - int(np.dot(index, right)))
    return count


def empirical_kendall_tau(obs: PseudoObservations) -> float:
    """Kendall tau-a with ties counted as neither concordant nor discordant.

    With n0 = n(n-1)/2 pairs, nx, ny the pairs tied in u and in v, nxy those
    tied in both and D the discordant pairs, C - D = n0 - nx - ny + nxy - 2D
    exactly, and tau-a is (C - D) / n0.  D is the inversion count of v in
    (u, v)-lexicographic order, ties in v broken by that order so that a
    pair tied in v is never an inversion (Knight, JASA 61, 1966).  A
    constant column has C = D = 0 and gives 0.
    """
    n = obs.n
    if n < 2:
        raise ValueError("kendall tau needs at least 2 pairs")
    n0 = n * (n - 1) // 2
    bits = (n - 1).bit_length()
    # every packed sort key is below 2**(2 * bits)
    key = np.uint32 if bits <= 16 else np.uint64
    index = np.arange(n, dtype=key)
    u_rank, _, nx = _dense_ranks(obs.u, key)
    v_rank, by_v, ny = _dense_ranks(obs.v, key)
    by_uv = by_v[_stable_order(u_rank[by_v], index, bits)]
    v_uv = v_rank[by_uv]
    nxy = 0
    if nx and ny:
        u_uv = u_rank[by_uv]
        nxy = _tied_pairs((u_uv[1:] != u_uv[:-1]) | (v_uv[1:] != v_uv[:-1]))
    pos = _stable_order(v_uv, index, bits)
    discordant = _discordant_pairs(pos, index, bits)
    return (n0 - nx - ny + nxy - 2 * discordant) / n0


def fit_mle(family: str, rotation: int, obs: PseudoObservations,
            tau_hint: float | None = None) -> FitResult:
    """Fit the family's parameter by maximizing the copula log-likelihood.

    The parameter is located by bounded Brent search on the family bracket;
    the optimum is resolved to ~1e-7.  ``tau_hint`` (sample Kendall tau)
    only picks the Frank branch sign; it is computed when omitted.
    """
    n = obs.n
    if n < MIN_FIT_PAIRS:
        raise FitError(f"need at least {MIN_FIT_PAIRS} observation pairs to fit, got {n}")

    if family == "independence":
        return FitResult(CopulaModel("independence"), 0.0, 0.0, 0.0, n, True)

    if family == "frank" and tau_hint is None:
        tau_hint = empirical_kendall_tau(obs)
    _, (lo, hi) = orientation(family, 1.0 if tau_hint is None else tau_hint)

    log_density_at = log_density_of(family, rotation, obs.u, obs.v)

    def negloglik(theta: float) -> float:
        ll = np.sum(log_density_at(theta))
        return -ll if np.isfinite(ll) else np.inf

    from scipy.optimize import minimize_scalar  # deferred: slower to import than the whole CLI

    res = minimize_scalar(negloglik, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-7, "maxiter": 500})
    if not res.success or not np.isfinite(res.fun):
        raise FitError(f"{family} fit did not converge: {res.message}")
    model = CopulaModel(family, float(res.x), rotation)
    loglik = float(np.sum(log_density(model, obs.u, obs.v)))  # -res.fun, bit for bit
    aic = -2.0 * loglik + 2.0
    bic = -2.0 * loglik + math.log(n)
    return FitResult(model, loglik, aic, bic, n, True)


def select_copula(obs: PseudoObservations,
                  families=DEFAULT_CANDIDATES) -> SelectionReport:
    """Fit each candidate family and report the winner per criterion.

    Each family is fitted in the rotation that copula.orientation gives
    for the sample Kendall tau.  Per-family fit failures are recorded
    (converged=False) without aborting; an unknown or repeated family name
    raises ValueError before any family is fitted.
    """
    families = check_families(families, "families")
    if len(families) < 1:
        raise ValueError("need at least one candidate family")
    tau = empirical_kendall_tau(obs)
    results = []
    for family in families:
        rotation, bracket = orientation(family, tau)
        try:
            results.append(fit_mle(family, rotation, obs, tau_hint=tau))
        except FitError:
            placeholder = CopulaModel(family, None if bracket is None else bracket[0],
                                      rotation)
            results.append(FitResult(placeholder, float("nan"), float("nan"),
                                     float("nan"), obs.n, False))
    winner_index = {}
    ok = [i for i, r in enumerate(results) if r.converged]
    if not ok:
        raise FitError("every candidate family failed to fit")
    winner_index["loglik"] = max(ok, key=lambda i: results[i].loglik)
    winner_index["aic"] = min(ok, key=lambda i: results[i].aic)
    winner_index["bic"] = min(ok, key=lambda i: results[i].bic)
    return SelectionReport(tuple(results), winner_index)


def report_to_json(report: SelectionReport) -> str:
    def value(x):
        return x if math.isfinite(x) else None

    payload = {
        "candidates": [
            {
                "family": r.model.family,
                "rotation": r.model.rotation,
                "theta": r.model.theta if r.converged else None,
                "loglik": value(r.loglik),
                "aic": value(r.aic),
                "bic": value(r.bic),
                "n": r.n,
                "converged": r.converged,
            }
            for r in report.candidates
        ],
        "winners": {c: report.winner_index[c] for c in CRITERIA},
    }
    return json.dumps(payload, indent=2)


def format_report(report: SelectionReport) -> str:
    """Plain-text selection table (Family, LogLik, AIC, BIC)."""
    lines = [f"{'Family':<12}{'LogLik':>12}{'AIC':>12}{'BIC':>12}"]
    for i, r in enumerate(report.candidates):
        marks = "".join("*" if report.winner_index[c] == i else " " for c in CRITERIA)
        name = r.model.family + (f"(r{r.model.rotation})" if r.model.rotation else "")
        if r.converged:
            lines.append(f"{name:<12}{r.loglik:>12.2f}{r.aic:>12.2f}{r.bic:>12.2f} {marks}")
        else:
            lines.append(f"{name:<12}{'failed':>12}{'-':>12}{'-':>12}")
    return "\n".join(lines)
