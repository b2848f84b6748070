"""Two-stage FDR procedures.

The auxiliary p-value p1 and the primary p-value p2 are merged into a
single p-value that is uniform under the null coupling:

* hard variant: p = C(gamma1, p2) when p1 passes the screen p1 <= gamma1,
  otherwise p = p1 (the hypothesis is screened out);
* soft variant: p = C(p2 | p1), the conditional CDF of p2 given p1.

Rejection thresholds come from the plug-in FDR estimate
pi0 * gamma * M / max(R(gamma), 1), scanned over the observed values.
The hard variant additionally scans a grid of screen levels gamma1 and
keeps the one that rejects the most.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .copula import EPS, CopulaModel, cdf as copula_cdf, cdf_of, hfunc
from .ingest import write_tsv
from .marginal import HypothesisTable, as_pvalues

__all__ = [
    "AggregatedPValues",
    "ProcedureOutcome",
    "default_gamma1_grid",
    "aggregate_hard",
    "aggregate_soft",
    "estimate_pi0",
    "estimate_fdr",
    "select_gamma",
    "run_two_stage_hard",
    "run_two_stage_soft",
    "run_one_stage_storey",
    "outcome_to_json",
    "write_decisions_tsv",
    "write_gamma1_curve_tsv",
]


@dataclass(frozen=True)
class AggregatedPValues:
    """Merged p-values aligned with a HypothesisTable's rows."""

    kind: str  # "hard", "soft" or "raw"
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in ("hard", "soft", "raw"):
            raise ValueError(f"unknown aggregation kind {self.kind!r}")
        object.__setattr__(self, "values", as_pvalues(self.values, "aggregated p-values"))

    @property
    def m(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ProcedureOutcome:
    """Result of one FDR-controlling run."""

    method: str  # "hard", "soft" or "storey"
    alpha: float
    lambda_: float
    pi0_hat: float
    gamma_hat: float
    aggregated: AggregatedPValues
    gamma1_hat: float | None = None
    rejections_by_gamma1: tuple | None = None

    @property
    def rejected(self) -> np.ndarray:
        """Boolean mask over the table's rows: p <= gamma_hat."""
        return self.aggregated.values <= self.gamma_hat

    @property
    def n_rejected(self) -> int:
        return int(np.count_nonzero(self.rejected))


def default_gamma1_grid() -> np.ndarray:
    """199 equispaced screen levels 0.005..0.995 plus a refined band near 1."""
    coarse = np.round(np.arange(1, 200) * 0.005, 4)
    fine = np.round(0.996 + 0.0005 * np.arange(8), 4)
    return np.concatenate([coarse, fine])


def aggregate_hard(table: HypothesisTable, model, gamma1: float) -> AggregatedPValues:
    """p_i = C(gamma1, p2_i) if p1_i <= gamma1 else p1_i.

    model is a CopulaModel or copula.cdf_of(model, table.p2), and each takes
    one path.  A CopulaModel evaluates the copula CDF on the screened-in rows,
    gathered by index, in any row order.  The CDF prepared once on this
    table's p2, for a caller that aggregates one table at many screen levels,
    evaluates it on the first k rows, which must be the k screened-in ones (as
    in p1 order, where run_two_stage_hard scans them); rows out of that order,
    or a CDF prepared on another array, raise.  The CDF works element by
    element, so both paths give the values of an evaluation over all rows.
    """
    if not 0.0 < gamma1 < 1.0:
        raise ValueError(f"gamma1 must lie strictly inside (0, 1), got {gamma1}")
    p1, p2 = table.p1, table.p2
    values = p1.copy()
    if isinstance(model, CopulaModel):
        # integer indices gather and scatter faster than a boolean mask
        screened_in = np.flatnonzero(p1 <= gamma1)
        values[screened_in] = copula_cdf(model, gamma1, p2[screened_in])
    elif model.v is not p2:
        raise ValueError("the prepared copula CDF was not prepared on this table's p2")
    else:
        k = np.count_nonzero(p1 <= gamma1)
        if k and p1[:k].max() > gamma1:
            raise ValueError("the screened-in rows must come first for a prepared copula CDF")
        values[:k] = model(gamma1, k)
    return AggregatedPValues("hard", values)


def aggregate_soft(table: HypothesisTable, model: CopulaModel) -> AggregatedPValues:
    """p_i = C(p2_i | p1_i), the conditional CDF under the fitted copula.

    p1 is clipped into the copula's [1e-10, 1 - 1e-10] interior, as
    ``PseudoObservations.clamped`` does, so a p1 of 0 or 1 is accepted.
    """
    return AggregatedPValues("soft", hfunc(model, table.p2, np.clip(table.p1, EPS, 1.0 - EPS)))


def estimate_pi0(pvalues: AggregatedPValues, lambda_: float) -> float:
    """Tail estimate of the true-null proportion, capped at 1."""
    if not 0.0 < lambda_ < 1.0:
        raise ValueError(f"lambda must lie strictly inside (0, 1), got {lambda_}")
    m = pvalues.m
    pi0 = np.count_nonzero(pvalues.values > lambda_) / ((1.0 - lambda_) * m)
    return min(pi0, 1.0)


def estimate_fdr(pvalues: AggregatedPValues, gamma: float, pi0: float) -> float:
    """Plug-in FDR estimate pi0 * gamma * M / max(R(gamma), 1)."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    m = pvalues.m
    r = np.count_nonzero(pvalues.values <= gamma)
    return pi0 * gamma * m / max(r, 1)


# select_gamma widens its candidate cut alpha / pi0 by this factor.  Rounding
# puts pi0 * v * M / rank at most a few ulps (about 1e-15 relative) below its
# exact value, far inside the slack for any alpha above the subnormal range.
_CUT_SLACK = 1.0 + 1e-12


def select_gamma(pvalues: AggregatedPValues, alpha: float,
                 lambda_: float) -> tuple[float, float, int]:
    """Largest candidate threshold whose estimated FDR stays below alpha.

    Candidates are the observed p-values (plus 0); the rejection count is
    a step function of gamma, so scanning the observed values is exact.
    Returns (gamma_hat, pi0_hat, rejected_count).

    The value at sorted index i takes the rank i + 1 in place of its count
    R.  Rank and count agree at the last index of every run of tied values;
    earlier in a run the rank is smaller, so the estimate there is no smaller
    than at the run's last index.  The largest index passing the test is
    therefore the last of its run, where the rank is the exact count.

    Only values that can pass are sorted.  A rank is at most M, so a value v can
    pass pi0 * v * M / rank <= alpha only if v <= alpha / pi0; every value
    up to that cut, widened by a relative _CUT_SLACK for rounding in the
    product, is kept (all of them when pi0 = 0, where alpha / pi0 may be
    0 / 0).  The kept values are the smallest, so in sorted order they form
    a prefix of the sorted full set and each keeps its rank.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    pi0 = estimate_pi0(pvalues, lambda_)
    m = pvalues.m
    cut = alpha / pi0 * _CUT_SLACK if pi0 > 0.0 else np.inf
    vals = np.sort(pvalues.values[pvalues.values <= cut])
    fdr = pi0 * vals * m / np.arange(1, vals.size + 1)
    ok = np.nonzero(fdr <= alpha)[0]
    if ok.size == 0:
        return 0.0, pi0, 0
    best = ok[-1]
    return float(vals[best]), pi0, int(best) + 1


def run_one_stage_storey(table: HypothesisTable, alpha: float,
                         lambda_: float = 0.5) -> ProcedureOutcome:
    """Storey's one-stage procedure on the raw primary p-values."""
    agg = AggregatedPValues("raw", table.p2)
    gamma_hat, pi0, _ = select_gamma(agg, alpha, lambda_)
    return ProcedureOutcome("storey", alpha, lambda_, pi0, gamma_hat, agg)


def run_two_stage_soft(table: HypothesisTable, model: CopulaModel, alpha: float,
                       lambda_: float = 0.5) -> ProcedureOutcome:
    """Soft-threshold two-stage procedure."""
    agg = aggregate_soft(table, model)
    gamma_hat, pi0, _ = select_gamma(agg, alpha, lambda_)
    return ProcedureOutcome("soft", alpha, lambda_, pi0, gamma_hat, agg)


def run_two_stage_hard(table: HypothesisTable, model: CopulaModel, alpha: float,
                       lambda_: float = 0.5, gamma1_grid=None) -> ProcedureOutcome:
    """Hard-threshold two-stage procedure with data-driven screen level.

    Every grid level is evaluated end to end (aggregate, pi0, threshold);
    the level rejecting the most hypotheses wins, ties resolved toward the
    smallest (most stringent) screen.  The grid must be strictly increasing,
    so that the first maximum is the smallest level.

    The levels are scanned on a copy of the table with its rows in p1 order,
    where each level's screened-in rows are a prefix: aggregate_hard takes
    its prepared path there, on copula.cdf_of of the copy's p2, which checks,
    rotates and transforms p2 once for all levels.  Each merged value
    depends on its own row alone, and select_gamma on the values as a
    multiset, so every level's count is the one the caller's row order
    gives.  The final aggregate takes aggregate_hard's CopulaModel path on
    the caller's rows.
    """
    grid = default_gamma1_grid() if gamma1_grid is None else np.asarray(gamma1_grid, float)
    if grid.ndim != 1:
        raise ValueError(f"gamma1 grid must be a 1-d array, got shape {grid.shape}")
    if grid.size < 1:
        raise ValueError("gamma1 grid must be nonempty")
    if not np.all((grid > 0.0) & (grid < 1.0)):  # NaN fails too
        raise ValueError("gamma1 grid must lie strictly inside (0, 1)")
    if not np.all(np.diff(grid) > 0.0):
        raise ValueError("gamma1 grid must be strictly increasing")

    # the order among tied p1 values changes no count, so no stable sort
    order = np.argsort(table.p1)
    by_p1 = HypothesisTable(table.p1[order], table.p2[order])
    cdf_on_p2 = cdf_of(model, by_p1.p2)
    counts = []
    for g1 in grid:
        agg = aggregate_hard(by_p1, cdf_on_p2, g1)
        _, _, m_k = select_gamma(agg, alpha, lambda_)
        counts.append(m_k)
    counts = np.asarray(counts)
    gamma1_hat = float(grid[np.argmax(counts)])  # argmax takes the first (smallest) tie

    agg = aggregate_hard(table, model, gamma1_hat)
    gamma_hat, pi0, _ = select_gamma(agg, alpha, lambda_)
    return ProcedureOutcome(
        "hard", alpha, lambda_, pi0, gamma_hat, agg,
        gamma1_hat=gamma1_hat,
        rejections_by_gamma1=tuple((float(g), int(c)) for g, c in zip(grid, counts)),
    )


def outcome_to_json(outcome: ProcedureOutcome, ids, seed=None) -> str:
    """Outcome summary; ids[i] names row i, and the rejected ids are sorted."""
    if len(ids) != outcome.aggregated.m:
        raise ValueError(f"got {len(ids)} ids for {outcome.aggregated.m} hypotheses")
    payload = {
        "method": outcome.method,
        "alpha": outcome.alpha,
        "lambda": outcome.lambda_,
        "pi0_hat": outcome.pi0_hat,
        "gamma_hat": outcome.gamma_hat,
        "gamma1_hat": outcome.gamma1_hat,
        "n_rejected": outcome.n_rejected,
        "rejected": sorted(ids[i] for i in np.flatnonzero(outcome.rejected)),
    }
    if seed is not None:
        payload["seed"] = seed
    return json.dumps(payload, indent=2)


def write_decisions_tsv(ids, table: HypothesisTable, outcome: ProcedureOutcome, path,
                        seed=None) -> None:
    """Per-hypothesis decisions: id, p1, p2, aggregated p, rejected flag."""
    if not len(ids) == table.m == outcome.aggregated.m:
        raise ValueError("ids, table and outcome must cover the same hypotheses")
    rows = zip(ids, table.p1.tolist(), table.p2.tolist(),
               outcome.aggregated.values.tolist(), outcome.rejected.tolist())
    write_tsv(path, ("id", "p1", "p2", "p_aggregated", "rejected"),
              (f"{hid}\t{p1!r}\t{p2!r}\t{p!r}\t{int(rej)}" for hid, p1, p2, p, rej in rows),
              seed)


def write_gamma1_curve_tsv(outcome: ProcedureOutcome, path, seed=None) -> None:
    """Screen level vs rejection count, for plotting."""
    if outcome.rejections_by_gamma1 is None:
        raise ValueError("outcome has no gamma1 curve (not a hard run)")
    write_tsv(path, ("gamma1", "n_rejected"),
              (f"{g1!r}\t{count}" for g1, count in outcome.rejections_by_gamma1), seed)
