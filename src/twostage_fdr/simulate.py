"""Synthetic benchmark: generate coupled (primary, auxiliary) data and
estimate FDR/TPR of the procedures over Monte Carlo replications.

Generative design per replicate: a copula pair (u, v) drives both
statistics.  The auxiliary statistic is u itself: the procedures read it
only through p1, its empirical CDF, which depends on the auxiliary values
through their ranks alone, so any strictly increasing map of u (such as
the Gamma(3, rate 4) quantile) gives the same p1 bit for bit.  The
primary statistic carries a random sign and takes its magnitude from v:
the N(0, 1) magnitude (a null's) or the 1/2 N(-mu, 1) + 1/2 N(mu, 1)
magnitude (an alternative's) exceeded with probability v.  So a null's
two-sided p-value 2 Phi(-|beta|) is v up to rounding (within 3e-14 relative
down to v = 1e-12; the table's p2 forms a positive beta's tail as
1 - F(beta), which loses relative accuracy as v falls), the pair (p1, p2)
follows the dependence copula under the null, and alternatives keep the
two-point mixture marginal and the orientation of the dependence.

Each analysis family's copula is re-estimated per replicate by Kendall-tau
inversion on the p-value pairs (``run_misspecification`` mode "refit") or
taken at the true tau with nothing fitted (mode "fixed").  A cell
(``run_cell``) is the refit analysis with the generating family alone.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from scipy.special import chndtrix, ndtri

from . import copula as cp
from . import fit as ft
from . import marginal as mg
from . import procedure as proc
from .ingest import write_tsv

__all__ = [
    "SimulationConfig",
    "MonteCarloResult",
    "SelectionStudyResult",
    "METHODS",
    "DEFAULT_SEED",
    "generate_dataset",
    "run_cell",
    "run_misspecification",
    "run_copula_selection_study",
    "run_config",
]

METHODS = ("storey", "hard", "soft")

_TAU_INDEPENDENT = 1e-6  # |tau| below this collapses to independence

DEFAULT_SEED = 20240001

_FIT_MODES = ("fixed", "refit")  # the modes of run_misspecification


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one simulation cell.  Each field's default sets the type it
    takes (see ``_check_value``), checked before any range."""

    m: int = 8000              # hypotheses per replicate
    mu: float = 3.0            # alternative location
    tau: float = -0.4          # Kendall tau of the dependence copula
    p0: float = 0.95           # true-null proportion
    dep_family: str = "clayton"
    analysis_mode: str = "tau"  # the only mode; kept so results.json records it
    k_reps: int = 100
    alpha: float = 0.05
    lambda_: float = 0.5
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for key, name in _CONFIG_KEYS.items():
            _check_value(key, getattr(self, name), _CELL[key])
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
        if self.k_reps < 1:
            raise ValueError("k_reps must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        if not 0.0 < self.lambda_ < 1.0:
            raise ValueError("lambda must lie strictly inside (0, 1)")


# JSON key -> SimulationConfig field, in field (and results.json) order; "lambda" is a keyword
_CONFIG_KEYS = {"lambda" if f.name == "lambda_" else f.name: f.name
                for f in fields(SimulationConfig)}

# Each simulate mode's keys besides "mode", with defaults that also set their types
_CELL = {key: f.default for key, f in zip(_CONFIG_KEYS, fields(SimulationConfig))}
_SCHEMAS = {
    "cell": _CELL,
    "misspecification": {**_CELL, "analysis_families": ft.DEFAULT_CANDIDATES,
                         "fit_mode": "refit"},
    "selection": {"n": 8000, "true_family": "clayton", "tau": -0.4, "reps": 100,
                  "seed": DEFAULT_SEED, "candidates": ft.DEFAULT_CANDIDATES},
}


def _check_value(key: str, value, default) -> None:
    """Raise ValueError naming config key `key` unless `value` has the type
    `default` sets (an int, a finite int or float, a family name or a list of
    them; never a bool), or, for a mode key, is one of the mode's values."""
    if key == "analysis_mode" and value != "tau":
        raise ValueError(f"analysis_mode must be 'tau', got {value!r}")
    if key == "fit_mode":
        ok, kind = value in _FIT_MODES, " or ".join(map(repr, _FIT_MODES))
    elif isinstance(default, int):
        ok, kind = isinstance(value, int), "an integer"
    elif isinstance(default, float):
        # an exact comparison: math.isfinite overflows on a huge int
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
        kind = "a finite number"
    elif isinstance(default, str):
        ok, kind = isinstance(value, str), "a family name"
    else:
        ok = isinstance(value, (list, tuple)) and all(isinstance(f, str) for f in value)
        kind = "a list of family names"
    if not ok or isinstance(value, bool):
        raise ValueError(f"config key {key!r} must be {kind}, got {value!r}")


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


def analysis_model(family: str, tau: float) -> cp.CopulaModel:
    """The copula of `family` at Kendall tau `tau`; independence for the
    independence family or |tau| < 1e-6."""
    if abs(tau) < _TAU_INDEPENDENT or family == "independence":
        return cp.CopulaModel("independence")
    return cp.tau_to_theta(family, tau)


def _alternative_magnitude(mu: float, v: np.ndarray) -> np.ndarray:
    """The |beta| that 1/2 N(-mu, 1) + 1/2 N(mu, 1) exceeds with probability v:
    below mu = 9 the noncentral chi-square (1 dof, noncentrality mu^2) quantile
    of beta^2; from mu = 9 on, where N(-mu, 1) adds under one ulp and chndtrix
    slows and then fails, the N(mu, 1) quantile."""
    if mu < 9.0:
        return np.sqrt(chndtrix(1.0 - v, 1.0, mu * mu))
    return mu - ndtri(v)


def generate_dataset(cfg: SimulationConfig, replicate: int):
    """One synthetic dataset: (HypothesisTable, truth vector).

    The truth vector is a boolean array, True where the alternative holds.
    Deterministic in (cfg.seed, replicate).
    """
    dep = analysis_model(cfg.dep_family, cfg.tau)
    rng = np.random.default_rng([cfg.seed, replicate])
    u = np.clip(rng.random(cfg.m), cp.EPS, 1.0 - cp.EPS)
    w = rng.random(cfg.m)
    # 1e-12, not EPS: v sets p2 through ndtri below, and a wider clamp would change the data
    v = np.clip(cp.hfunc_inverse(dep, w, u), 1e-12, 1.0 - 1e-12)
    is_alt = rng.random(cfg.m) < (1.0 - cfg.p0)
    sign = np.where(rng.random(cfg.m) < 0.5, -1.0, 1.0)

    # a null's |beta| = -ndtri(v/2), the N(0, 1) magnitude exceeded with probability v,
    # taken from the lower tail so that nothing cancels at small v
    beta = -sign * ndtri(v / 2.0)
    beta[is_alt] = sign[is_alt] * _alternative_magnitude(cfg.mu, v[is_alt])

    # u is the auxiliary statistic: p1 sees its ranks only
    table = mg.build_table(beta, u, mg.STANDARD_NORMAL)
    return table, is_alt


def _counts(outcome: proc.ProcedureOutcome, is_alt: np.ndarray) -> tuple[int, int, int, int]:
    """(V, R, S, M1): false, all and true rejections, and true alternatives."""
    rejected = outcome.rejected
    v = int(np.count_nonzero(rejected & ~is_alt))
    s = int(np.count_nonzero(rejected & is_alt))
    return v, v + s, s, int(np.count_nonzero(is_alt))


def _map_replicates(worker, arglist, threads: int):
    if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
        raise ValueError(f"threads must be a positive integer, got {threads}")
    workers = min(threads, len(arglist))  # a pool forks all its workers at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, arglist))
    return [worker(a) for a in arglist]


def _mc_result(rows: list) -> MonteCarloResult:
    """One MonteCarloResult from per-replicate (V, R, S, M1) tuples."""
    return MonteCarloResult(*np.array(rows, dtype=int).T)


def _replicate(args) -> dict:
    """Storey's (V, R, S, M1), and the hard and soft ones under each
    analysis family, for one replicate."""
    cfg, k, families, mode = args
    table, is_alt = generate_dataset(cfg, k)
    if mode == "refit":
        obs = cp.PseudoObservations.clamped(table.p1, table.p2)
        tau_hat = ft.empirical_kendall_tau(obs)
        true_model = analysis_model(cfg.dep_family, tau_hat)
        true_loglik = None  # the null pairs are gathered and scored when the first foil needs them

    out = {"storey": _counts(proc.run_one_stage_storey(table, cfg.alpha, cfg.lambda_),
                             is_alt)}
    cache = {}
    for family in families:
        if mode == "fixed":
            model = analysis_model(family, cfg.tau)
        elif family == cfg.dep_family:
            model = true_model
        else:
            # A foil competes with the generating family by null-pair
            # log-likelihood at tau-matched parameters and keeps a tie,
            # so a misspecified foil falls back to the generating family.
            model = analysis_model(family, tau_hat)
            if true_loglik is None:
                null_u, null_v = obs.u[~is_alt], obs.v[~is_alt]
                true_loglik = np.sum(cp.log_density(true_model, null_u, null_v))
            if np.sum(cp.log_density(model, null_u, null_v)) < true_loglik:
                model = true_model
        if model not in cache:
            cache[model] = {
                "hard": _counts(proc.run_two_stage_hard(table, model, cfg.alpha,
                                                        cfg.lambda_), is_alt),
                "soft": _counts(proc.run_two_stage_soft(table, model, cfg.alpha,
                                                        cfg.lambda_), is_alt),
            }
        out[family] = cache[model]
    return out


def run_misspecification(cfg: SimulationConfig, analysis_families=ft.DEFAULT_CANDIDATES,
                         mode: str = "refit", threads: int = 1) -> dict:
    """FDR/TPR when the analysis copula family is misspecified.

    mode="fixed": each listed family is used as-is with its parameter
    matched to the true tau, and nothing is fitted.  mode="refit": per
    replicate the copula is re-estimated and the listed family competes
    against the generating family on the null pairs, mirroring
    data-driven copula selection.

    Returns {"storey": MonteCarloResult, family: {"hard"/"soft": ...}}.
    """
    if mode not in _FIT_MODES:
        raise ValueError(f"mode must be {' or '.join(map(repr, _FIT_MODES))}, got {mode!r}")
    families = ft.check_families(analysis_families, "analysis_families")
    if not families:
        raise ValueError("need at least one analysis family")
    per_rep = _map_replicates(_replicate, [(cfg, k, families, mode) for k in range(cfg.k_reps)],
                              threads)
    out = {"storey": _mc_result([rep["storey"] for rep in per_rep])}
    for family in families:
        out[family] = {method: _mc_result([rep[family][method] for rep in per_rep])
                       for method in ("hard", "soft")}
    return out


def run_cell(cfg: SimulationConfig, threads: int = 1) -> dict:
    """K replications of all three methods on one parameter cell: the refit
    analysis with the generating family alone."""
    results = run_misspecification(cfg, (cfg.dep_family,), "refit", threads)
    return {"storey": results["storey"], **results[cfg.dep_family]}


@dataclass(frozen=True)
class SelectionStudyResult:
    """Selection counts and criterion summaries per candidate family."""

    families: tuple
    counts: dict     # family -> {criterion: times selected}
    stats: dict      # family -> {criterion: (mean, sd)} over its converged fits


def run_copula_selection_study(true_model: cp.CopulaModel, n: int, reps: int,
                               seed: int = DEFAULT_SEED,
                               candidates=ft.DEFAULT_CANDIDATES) -> SelectionStudyResult:
    """Sample n pairs from the true copula `reps` times and tally which
    family each criterion selects."""
    for key, value in (("n", n), ("reps", reps), ("seed", seed)):
        _check_value(key, value, _SCHEMAS["selection"][key])
    if n < ft.MIN_FIT_PAIRS:
        raise ValueError(f"n must be at least {ft.MIN_FIT_PAIRS}, got {n}")
    if reps < 1:
        raise ValueError(f"reps must be positive, got {reps}")
    candidates = ft.check_families(candidates, "candidates")
    counts = {f: {c: 0 for c in ft.CRITERIA} for f in candidates}
    values = {f: {c: [] for c in ft.CRITERIA} for f in candidates}
    for rep in range(reps):
        obs = cp.sample(true_model, n, [seed, rep])
        report = ft.select_copula(obs, families=candidates)
        for criterion in ft.CRITERIA:
            counts[report.winner(criterion).model.family][criterion] += 1
            for result in report.candidates:
                if result.converged:  # a failed fit's NaN would poison the mean
                    values[result.model.family][criterion].append(getattr(result, criterion))
    stats = {f: {c: _mean_sd(values[f][c]) for c in ft.CRITERIA} for f in candidates}
    return SelectionStudyResult(candidates, counts, stats)


def _mean_sd(values: list) -> tuple[float, float]:
    """(mean, sd) of `values`: sd 0 for one value, and both NaN for none."""
    if not values:
        return float("nan"), float("nan")
    sd = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return float(np.mean(values)), sd


_RATE_COLUMNS = ("fdr", "fdr_sd", "tpr", "tpr_sd")  # the columns of _rate_cells


def _rate_cells(r: MonteCarloResult) -> str:
    return f"{r.fdr_hat:.6f}\t{r.fdr_sd:.6f}\t{r.tpr_hat:.6f}\t{r.tpr_sd:.6f}"


def _cell_to_tsv(results: dict, path, seed=None) -> None:
    write_tsv(path, ("method", *_RATE_COLUMNS),
              (f"{name}\t{_rate_cells(results[name])}" for name in METHODS), seed)


def _cell_to_json(results: dict, cfg: SimulationConfig) -> str:
    payload = {"config": {key: getattr(cfg, name) for key, name in _CONFIG_KEYS.items()}}
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


def _misspecification_to_tsv(results: dict, path, seed=None) -> None:
    lines = [f"-\tstorey\t{_rate_cells(results['storey'])}"]
    lines += (f"{family}\t{method}\t{_rate_cells(sub[method])}"
              for family, sub in results.items() if family != "storey"
              for method in ("hard", "soft"))
    write_tsv(path, ("family", "method", *_RATE_COLUMNS), lines, seed)


def _study_to_tsv(study: SelectionStudyResult, path, seed=None) -> None:
    lines = []
    for family in study.families:
        for criterion in ft.CRITERIA:
            mean, sd = study.stats[family][criterion]
            lines.append(f"{family}\t{criterion}\t{study.counts[family][criterion]}"
                         f"\t{mean:.3f}\t{sd:.3f}")
    write_tsv(path, ("family", "criterion", "n_selected", "mean", "sd"), lines, seed)


def run_config(payload: dict, out_dir, seed=None, threads: int = 1) -> Path:
    """Run the ``simulate`` config `payload`, a JSON object, and return the path
    of its simtable.tsv, written (with results.json unless in selection mode) to
    `out_dir` once the run succeeds; `seed`, if given, overrides the config's."""
    mode = payload.get("mode", "cell")
    if not isinstance(mode, str) or mode not in _SCHEMAS:  # a list is unhashable
        raise ValueError(f"unknown simulate mode {mode!r}")
    unknown = set(payload) - {"mode", *_SCHEMAS[mode]}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    conf = {**_SCHEMAS[mode], **payload}
    for key, default in _SCHEMAS[mode].items():
        _check_value(key, conf[key], default)
    conf["seed"] = conf["seed"] if seed is None else seed
    out_dir = Path(out_dir)
    table_path = out_dir / "simtable.tsv"
    if mode == "selection":
        study = run_copula_selection_study(
            analysis_model(conf["true_family"], conf["tau"]), conf["n"], conf["reps"],
            conf["seed"], conf["candidates"])
        out_dir.mkdir(parents=True, exist_ok=True)
        _study_to_tsv(study, table_path, seed=conf["seed"])
        return table_path
    cfg = SimulationConfig(**{name: conf[key] for key, name in _CONFIG_KEYS.items()})
    if mode == "cell":
        results, write = run_cell(cfg, threads), _cell_to_tsv
    else:
        results = run_misspecification(cfg, conf["analysis_families"], conf["fit_mode"],
                                       threads)
        write = _misspecification_to_tsv
    out_dir.mkdir(parents=True, exist_ok=True)
    write(results, table_path, seed=cfg.seed)
    (out_dir / "results.json").write_text(_cell_to_json(results, cfg) + "\n", encoding="utf-8")
    return table_path
