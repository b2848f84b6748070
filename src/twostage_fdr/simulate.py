"""Synthetic benchmark: generate coupled (primary, auxiliary) data and
estimate FDR/TPR of the procedures over Monte Carlo replications.

Generative design per replicate: a copula pair (u, v) drives both
statistics.  The auxiliary statistic is the Gamma(3, rate 4) quantile of
u.  The primary statistic carries a random sign and takes its magnitude
from v through the null (or alternative) magnitude quantile, so that the
two-sided p-value of a null statistic equals v exactly and the p-value
pair (p1, p2) follows the dependence copula under the null.  Alternatives
use the same construction with the |mixture| quantile, which keeps the
two-point mixture marginal and the orientation of the dependence.

The analysis copula is, by default, the data-generating family with its
parameter re-estimated from each replicate's p-value pairs by Kendall-tau
inversion ("tau", the only analysis mode).  For analysis with the true
copula, run ``run_misspecification`` with mode="fixed" and the generating
family.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri
from scipy.stats import gamma as _gamma_dist

from . import copula as cp
from . import fit as ft
from . import marginal as mg
from . import procedure as proc

__all__ = [
    "SimulationConfig",
    "MonteCarloResult",
    "SelectionStudyResult",
    "METHODS",
    "generate_dataset",
    "dependence_model",
    "run_cell",
    "run_misspecification",
    "run_copula_selection_study",
    "cell_to_tsv",
    "cell_to_json",
    "misspecification_to_tsv",
    "study_to_tsv",
]

METHODS = ("storey", "hard", "soft")

_TAU_INDEPENDENT = 1e-6  # |tau_hat| below this collapses to independence


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one simulation cell."""

    m: int = 8000              # hypotheses per replicate
    mu: float = 3.0            # alternative location
    tau: float = -0.4          # Kendall tau of the dependence copula
    p0: float = 0.95           # true-null proportion
    dep_family: str = "clayton"
    analysis_family: str | None = None   # None: same as dep_family
    analysis_mode: str = "tau"  # the only mode; kept so results.json records it
    k_reps: int = 100
    alpha: float = 0.05
    lambda_: float = 0.5
    seed: int = 20240001

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be positive")
        if self.mu <= 0.0:
            raise ValueError("mu must be positive")
        if not -1.0 < self.tau <= 0.0:
            raise ValueError(f"tau must lie in (-1, 0], got {self.tau}")
        if not 0.0 <= self.p0 <= 1.0:
            raise ValueError("p0 must lie in [0, 1]")
        if self.dep_family not in cp.FAMILIES:
            raise ValueError(f"unknown dependence family {self.dep_family!r}")
        if self.analysis_family is not None and self.analysis_family not in cp.FAMILIES:
            raise ValueError(f"unknown analysis family {self.analysis_family!r}")
        if self.analysis_mode != "tau":
            raise ValueError(f"analysis_mode must be 'tau', got {self.analysis_mode!r}")
        if self.k_reps < 1:
            raise ValueError("k_reps must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        if not 0.0 < self.lambda_ < 1.0:
            raise ValueError("lambda must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class MonteCarloResult:
    """Per-replicate rejection counts and the aggregated FDR/TPR."""

    v: np.ndarray   # false rejections
    r: np.ndarray   # rejections
    s: np.ndarray   # true rejections
    m1: np.ndarray  # true alternatives

    def __post_init__(self):
        v = np.asarray(self.v, dtype=int)
        r = np.asarray(self.r, dtype=int)
        s = np.asarray(self.s, dtype=int)
        m1 = np.asarray(self.m1, dtype=int)
        if not (v.shape == r.shape == s.shape == m1.shape):
            raise ValueError("count arrays must share one shape")
        if np.any(v < 0) or np.any(v > r) or np.any(s < 0) or np.any(s > m1):
            raise ValueError("need 0 <= V <= R and 0 <= S <= M1")
        if np.any(v + s != r):
            raise ValueError("rejections must split into false and true: R = V + S")
        for name, arr in (("v", v), ("r", r), ("s", s), ("m1", m1)):
            object.__setattr__(self, name, arr)

    @property
    def fdr_ratios(self) -> np.ndarray:
        return self.v / np.maximum(self.r, 1)

    @property
    def tpr_ratios(self) -> np.ndarray:
        return self.s / np.maximum(self.m1, 1)

    @property
    def fdr_hat(self) -> float:
        return float(np.mean(self.fdr_ratios))

    @property
    def tpr_hat(self) -> float:
        return float(np.mean(self.tpr_ratios))

    @property
    def fdr_sd(self) -> float:
        return float(np.std(self.fdr_ratios, ddof=1)) if self.v.size > 1 else 0.0

    @property
    def tpr_sd(self) -> float:
        return float(np.std(self.tpr_ratios, ddof=1)) if self.v.size > 1 else 0.0


def dependence_model(cfg: SimulationConfig) -> cp.CopulaModel:
    """The data-generating copula; tau = 0 degenerates to independence."""
    if cfg.tau == 0.0 or cfg.dep_family == "independence":
        return cp.CopulaModel("independence")
    return cp.tau_to_theta(cfg.dep_family, cfg.tau)


def _abs_mixture_quantile(mix: mg.GaussianMixture, q: np.ndarray) -> np.ndarray:
    """Quantile of |X| for X from a symmetric-about-zero mixture."""
    q = np.asarray(q, dtype=float)
    hi_cap = float(np.max(np.abs(np.asarray(mix.means)) + 12.0 * np.asarray(mix.sds)))

    def cdf_abs(b):
        return mg.mixture_cdf(mix, b) - mg.mixture_cdf(mix, -b)

    return cp.bisect_increasing(cdf_abs, q, np.zeros_like(q), np.full_like(q, hi_cap), 90)


def generate_dataset(cfg: SimulationConfig, replicate: int):
    """One synthetic dataset: (HypothesisTable, truth vector).

    The truth vector is a boolean array, True where the alternative holds.
    Deterministic in (cfg.seed, replicate).
    """
    dep = dependence_model(cfg)
    rng = np.random.default_rng([cfg.seed, replicate])
    u = np.clip(rng.random(cfg.m), cp._EPS, 1.0 - cp._EPS)
    w = rng.random(cfg.m)
    # 1e-12, not _EPS: v sets p2 through ndtri below, and a wider clamp would change the data
    v = np.clip(cp.hfunc_inverse(dep, w, u), 1e-12, 1.0 - 1e-12)
    is_alt = rng.random(cfg.m) < (1.0 - cfg.p0)
    sign = np.where(rng.random(cfg.m) < 0.5, -1.0, 1.0)

    # |beta| at null magnitude quantile: two-sided p-value comes out as v
    beta = sign * ndtri(1.0 - v / 2.0)
    if np.any(is_alt):
        alt_mix = mg.GaussianMixture((0.5, 0.5), (-cfg.mu, cfg.mu), (1.0, 1.0))
        beta[is_alt] = sign[is_alt] * _abs_mixture_quantile(alt_mix, 1.0 - v[is_alt])

    y = _gamma_dist.ppf(u, a=3.0, scale=0.25)
    table = mg.build_table(beta, y, mg.STANDARD_NORMAL)
    return table, is_alt


def _tau_model(family: str, tau_hat: float) -> cp.CopulaModel:
    if abs(tau_hat) < _TAU_INDEPENDENT or family == "independence":
        return cp.CopulaModel("independence")
    return cp.tau_to_theta(family, tau_hat)


def analysis_model(cfg: SimulationConfig, table: mg.HypothesisTable) -> cp.CopulaModel:
    """Analysis copula for one replicate: the analysis family at the Kendall
    tau of the replicate's p-value pairs."""
    obs = cp.PseudoObservations.clamped(table.p1, table.p2)
    return _tau_model(cfg.analysis_family or cfg.dep_family, ft.empirical_kendall_tau(obs))


def _counts(outcome: proc.ProcedureOutcome, is_alt: np.ndarray) -> tuple[int, int, int, int]:
    """(V, R, S, M1): false, all and true rejections, and true alternatives."""
    rejected = outcome.rejected
    v = int(np.count_nonzero(rejected & ~is_alt))
    s = int(np.count_nonzero(rejected & is_alt))
    return v, v + s, s, int(np.count_nonzero(is_alt))


def _cell_replicate(args) -> dict:
    cfg, k = args
    table, is_alt = generate_dataset(cfg, k)
    model = analysis_model(cfg, table)
    outcomes = {
        "storey": proc.run_one_stage_storey(table, cfg.alpha, cfg.lambda_),
        "hard": proc.run_two_stage_hard(table, model, cfg.alpha, cfg.lambda_),
        "soft": proc.run_two_stage_soft(table, model, cfg.alpha, cfg.lambda_),
    }
    return {name: _counts(o, is_alt) for name, o in outcomes.items()}


def _map_replicates(worker, arglist, threads: int):
    if threads < 1:
        raise ValueError(f"threads must be a positive integer, got {threads}")
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(worker, arglist))
    return [worker(a) for a in arglist]


def _mc_result(rows: list) -> MonteCarloResult:
    """One MonteCarloResult from per-replicate (V, R, S, M1) tuples."""
    return MonteCarloResult(*np.array(rows, dtype=int).T)


def run_cell(cfg: SimulationConfig, threads: int = 1) -> dict:
    """K replications of all three methods on one parameter cell."""
    per_rep = _map_replicates(_cell_replicate, [(cfg, k) for k in range(cfg.k_reps)],
                              threads)
    return {name: _mc_result([rep[name] for rep in per_rep]) for name in METHODS}


def _misspec_replicate(args) -> dict:
    cfg, k, families, mode = args
    table, is_alt = generate_dataset(cfg, k)
    obs = cp.PseudoObservations.clamped(table.p1, table.p2)
    tau_hat = ft.empirical_kendall_tau(obs)
    null_u = obs.u[~is_alt]
    null_v = obs.v[~is_alt]

    out = {"storey": _counts(proc.run_one_stage_storey(table, cfg.alpha, cfg.lambda_),
                             is_alt)}
    cache = {}
    for family in families:
        if mode == "fixed":
            model = _tau_model(family, cfg.tau)
        else:
            # Refit: the candidate set is {foil, generating family}; the
            # winner (by null-pair log-likelihood at tau-matched
            # parameters) is used, so misspecified foils fall back to the
            # generating family.
            candidates = dict.fromkeys((family, cfg.dep_family))
            scored = []
            for cand in candidates:
                mdl = _tau_model(cand, tau_hat)
                ll = float(np.sum(cp.log_density(mdl, null_u, null_v)))
                scored.append((ll, cand, mdl))
            model = max(scored, key=lambda t: t[0])[2]
        key = (model.family, model.rotation, model.theta)
        if key not in cache:
            cache[key] = {
                "hard": _counts(proc.run_two_stage_hard(table, model, cfg.alpha,
                                                        cfg.lambda_), is_alt),
                "soft": _counts(proc.run_two_stage_soft(table, model, cfg.alpha,
                                                        cfg.lambda_), is_alt),
            }
        out[family] = cache[key]
    return out


def run_misspecification(cfg: SimulationConfig, analysis_families=None,
                         mode: str = "refit", threads: int = 1) -> dict:
    """FDR/TPR when the analysis copula family is misspecified.

    mode="fixed": each listed family is used as-is with its parameter
    matched to the true tau.  mode="refit": per replicate the copula is
    re-estimated and the listed family competes against the generating
    family on the null pairs, mirroring data-driven copula selection.

    Returns {"storey": MonteCarloResult, family: {"hard"/"soft": ...}}.
    """
    if mode not in ("fixed", "refit"):
        raise ValueError(f"mode must be 'fixed' or 'refit', got {mode!r}")
    families = tuple(analysis_families if analysis_families is not None
                     else ft.DEFAULT_CANDIDATES)
    if not families:
        raise ValueError("need at least one analysis family")
    per_rep = _map_replicates(_misspec_replicate,
                              [(cfg, k, families, mode) for k in range(cfg.k_reps)],
                              threads)
    out = {"storey": _mc_result([rep["storey"] for rep in per_rep])}
    for family in families:
        out[family] = {method: _mc_result([rep[family][method] for rep in per_rep])
                       for method in ("hard", "soft")}
    return out


@dataclass(frozen=True)
class SelectionStudyResult:
    """Selection counts and criterion summaries per candidate family."""

    families: tuple
    counts: dict     # family -> {criterion: times selected}
    stats: dict      # family -> {criterion: (mean, sd)}
    reps: int


def run_copula_selection_study(true_model: cp.CopulaModel, n: int, reps: int,
                               seed: int = 20240001,
                               candidates=ft.DEFAULT_CANDIDATES) -> SelectionStudyResult:
    """Sample n pairs from the true copula `reps` times and tally which
    family each criterion selects."""
    if reps < 1:
        raise ValueError(f"reps must be positive, got {reps}")
    candidates = tuple(candidates)
    counts = {f: {c: 0 for c in ft.CRITERIA} for f in candidates}
    values = {f: {c: [] for c in ft.CRITERIA} for f in candidates}
    for rep in range(reps):
        obs = cp.sample(true_model, n, [seed, rep])
        report = ft.select_copula(obs, families=candidates)
        for criterion in ft.CRITERIA:
            counts[report.winner(criterion).model.family][criterion] += 1
        for result in report.candidates:
            values[result.model.family]["loglik"].append(result.loglik)
            values[result.model.family]["aic"].append(result.aic)
            values[result.model.family]["bic"].append(result.bic)
    stats = {
        f: {c: (float(np.mean(values[f][c])), float(np.std(values[f][c], ddof=1))
                if len(values[f][c]) > 1 else 0.0)
            for c in ft.CRITERIA}
        for f in candidates
    }
    return SelectionStudyResult(candidates, counts, stats, reps)


def cell_to_tsv(results: dict, path, seed=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if seed is not None:
            fh.write(f"# seed: {seed}\n")
        fh.write("method\tfdr\tfdr_sd\ttpr\ttpr_sd\n")
        for name in METHODS:
            r = results[name]
            fh.write(f"{name}\t{r.fdr_hat:.6f}\t{r.fdr_sd:.6f}"
                     f"\t{r.tpr_hat:.6f}\t{r.tpr_sd:.6f}\n")


def cell_to_json(results: dict, cfg: SimulationConfig) -> str:
    payload = {"config": {
        "m": cfg.m, "mu": cfg.mu, "tau": cfg.tau, "p0": cfg.p0,
        "dep_family": cfg.dep_family, "analysis_family": cfg.analysis_family,
        "analysis_mode": cfg.analysis_mode, "k_reps": cfg.k_reps,
        "alpha": cfg.alpha, "lambda": cfg.lambda_, "seed": cfg.seed,
    }}
    for name, r in results.items():
        if isinstance(r, dict):
            payload[name] = {sub: _mc_payload(rr) for sub, rr in r.items()}
        else:
            payload[name] = _mc_payload(r)
    return json.dumps(payload, indent=2)


def _mc_payload(r: MonteCarloResult) -> dict:
    return {
        "fdr_hat": r.fdr_hat, "fdr_sd": r.fdr_sd,
        "tpr_hat": r.tpr_hat, "tpr_sd": r.tpr_sd,
        "v": r.v.tolist(), "r": r.r.tolist(), "s": r.s.tolist(), "m1": r.m1.tolist(),
    }


def misspecification_to_tsv(results: dict, path, seed=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if seed is not None:
            fh.write(f"# seed: {seed}\n")
        fh.write("family\tmethod\tfdr\tfdr_sd\ttpr\ttpr_sd\n")
        storey = results["storey"]
        fh.write(f"-\tstorey\t{storey.fdr_hat:.6f}\t{storey.fdr_sd:.6f}"
                 f"\t{storey.tpr_hat:.6f}\t{storey.tpr_sd:.6f}\n")
        for family, sub in results.items():
            if family == "storey":
                continue
            for method in ("hard", "soft"):
                r = sub[method]
                fh.write(f"{family}\t{method}\t{r.fdr_hat:.6f}\t{r.fdr_sd:.6f}"
                         f"\t{r.tpr_hat:.6f}\t{r.tpr_sd:.6f}\n")


def study_to_tsv(study: SelectionStudyResult, path, seed=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if seed is not None:
            fh.write(f"# seed: {seed}\n")
        fh.write("family\tcriterion\tn_selected\tmean\tsd\n")
        for family in study.families:
            for criterion in ft.CRITERIA:
                mean, sd = study.stats[family][criterion]
                fh.write(f"{family}\t{criterion}\t{study.counts[family][criterion]}"
                         f"\t{mean:.3f}\t{sd:.3f}\n")
