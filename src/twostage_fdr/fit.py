"""Maximum-likelihood copula fitting on pseudo-observations and model
selection by log-likelihood, AIC and BIC."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.stats import kendalltau

from .copula import (
    _EPS,
    FAMILIES,
    ROTATABLE,
    CopulaModel,
    PseudoObservations,
    log_density,
    theta_bracket,
)

__all__ = [
    "FitError",
    "FitResult",
    "SelectionReport",
    "CRITERIA",
    "DEFAULT_CANDIDATES",
    "empirical_kendall_tau",
    "fit_mle",
    "select_copula",
    "report_to_json",
    "format_report",
]

CRITERIA = ("loglik", "aic", "bic")

DEFAULT_CANDIDATES = ("gaussian", "frank", "clayton", "gumbel", "joe")


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


def _tie_pairs(values: np.ndarray) -> int:
    _, counts = np.unique(values, return_counts=True)
    return int(np.sum(counts * (counts - 1) // 2))


def empirical_kendall_tau(obs: PseudoObservations) -> float:
    """Kendall tau-a with ties counted as neither concordant nor discordant.

    scipy's tau-b is (C - D) / sqrt((n0 - nx)(n0 - ny)) with n0 = n(n-1)/2
    pairs and nx, ny the pairs tied in u and in v; multiplying back and
    rounding recovers the integer C - D exactly, and (C - D) / n0 is tau-a.
    A constant column has no untied pairs and gives 0.
    """
    n = obs.n
    if n < 2:
        raise ValueError("kendall tau needs at least 2 pairs")
    n0 = n * (n - 1) // 2
    nx = _tie_pairs(obs.u)
    ny = _tie_pairs(obs.v)
    if nx == n0 or ny == n0:
        return 0.0
    tau_b = float(kendalltau(obs.u, obs.v).statistic)
    con_minus_dis = round(tau_b * math.sqrt(n0 - nx) * math.sqrt(n0 - ny))
    return con_minus_dis / n0


def _fit_bracket(family: str, tau_sign: float) -> tuple[float, float]:
    lo, hi = theta_bracket(family)
    if family == "frank" and tau_sign < 0.0:
        return -hi, -lo
    return lo, hi


def fit_mle(family: str, rotation: int, obs: PseudoObservations,
            tau_hint: float | None = None) -> FitResult:
    """Fit the family's parameter by maximizing the copula log-likelihood.

    The parameter is located by bounded Brent search on the family bracket;
    the optimum is resolved to ~1e-7.  ``tau_hint`` (sample Kendall tau)
    only picks the Frank branch sign; it is computed when omitted.
    """
    n = obs.n
    if n < 10:
        raise FitError(f"need at least 10 observation pairs to fit, got {n}")

    if family == "independence":
        return FitResult(CopulaModel("independence"), 0.0, 0.0, 0.0, n, True)

    u = np.clip(obs.u, _EPS, 1.0 - _EPS)
    v = np.clip(obs.v, _EPS, 1.0 - _EPS)

    if family == "frank" and tau_hint is None:
        tau_hint = empirical_kendall_tau(obs)
    lo, hi = _fit_bracket(family, tau_hint if tau_hint is not None else 1.0)

    def negloglik(theta: float) -> float:
        model = CopulaModel(family, theta, rotation)
        ll = np.sum(log_density(model, u, v))
        return -ll if np.isfinite(ll) else np.inf

    res = minimize_scalar(negloglik, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-7, "maxiter": 500})
    if not res.success or not np.isfinite(res.fun):
        raise FitError(f"{family} fit did not converge: {res.message}")
    theta_hat = float(res.x)
    loglik = -float(res.fun)
    aic = -2.0 * loglik + 2.0
    bic = -2.0 * loglik + math.log(n)
    return FitResult(CopulaModel(family, theta_hat, rotation), loglik, aic, bic, n, True)


def select_copula(obs: PseudoObservations,
                  families=DEFAULT_CANDIDATES) -> SelectionReport:
    """Fit each candidate family and report the winner per criterion.

    Clayton/Gumbel/Joe are rotated 90 degrees when the sample Kendall tau
    is negative; Gaussian and Frank cover both signs natively.  Per-family
    fit failures are recorded (converged=False) without aborting; an
    unknown family name raises ValueError before any family is fitted.
    """
    families = tuple(families)
    if len(families) < 1:
        raise ValueError("need at least one candidate family")
    unknown = [f for f in families if f not in FAMILIES]
    if unknown:
        raise ValueError(f"unknown copula family {unknown[0]!r}")
    tau = empirical_kendall_tau(obs)
    results = []
    for family in families:
        rotation = 90 if (family in ROTATABLE and tau < 0.0) else 0
        try:
            results.append(fit_mle(family, rotation, obs, tau_hint=tau))
        except FitError:
            placeholder = CopulaModel(family, None if family == "independence"
                                      else _fit_bracket(family, tau)[0], rotation)
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
                "theta": r.model.theta,
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
