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

Each listed analysis family is taken at one Kendall tau per replicate: the
tau of the replicate's p-value pairs (``run_misspecification`` mode
"refit") or the true tau with nothing fitted (mode "fixed").  Either way
the truth labels are read only to count rejections.  A cell (``run_cell``)
is the refit analysis with the generating family alone.
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

DEFAULT_SEED = 20240001


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one simulation cell, checked by the cell schema (_SCHEMAS)."""

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
        proc.check_levels(self.alpha, self.lambda_)
        _check_model("dep_family", self.dep_family, self.tau)


# JSON key -> SimulationConfig field, in field (and results.json) order; "lambda" is a keyword
_CONFIG_KEYS = {"lambda" if f.name == "lambda_" else f.name: f.name
                for f in fields(SimulationConfig)}

# Each simulate mode's keys besides "mode", as (default, range).  The default
# sets the type (see _check_value).  The range is the values of a mode key, the
# least value of an integer, or a number's range in words and as a test; None
# leaves it to the module that owns the rule: procedure.check_levels for alpha
# and lambda, analysis_model for a family with tau, fit.check_families for a
# family list.  Only tau's sign, (-1, 0] in the cell modes, is simulate's own.
_RANGES = {"m": 1, "mu": ("a positive number", lambda mu: mu > 0.0),
           "tau": ("a number in (-1, 0]", lambda tau: -1.0 < tau <= 0.0),
           "p0": ("a number in [0, 1]", lambda p0: 0.0 <= p0 <= 1.0),
           "dep_family": None, "analysis_mode": ("tau",), "k_reps": 1,
           "alpha": None, "lambda": None, "seed": 0}
_CELL = {key: (f.default, _RANGES[key]) for key, f in zip(_CONFIG_KEYS, fields(SimulationConfig))}
_SCHEMAS = {
    "cell": _CELL,
    "misspecification": {**_CELL, "analysis_families": (ft.DEFAULT_CANDIDATES, None),
                         "fit_mode": ("refit", ("fixed", "refit"))},
    "selection": {"n": (8000, ft.MIN_FIT_PAIRS), "true_family": ("clayton", None),
                  "tau": (-0.4, None), "reps": (100, 1), "seed": (DEFAULT_SEED, 0),
                  "candidates": (ft.DEFAULT_CANDIDATES, None)},
}
_REFIT_M = (SimulationConfig.m, 2)  # m's entry in a refit: a Kendall tau takes two pairs


def _check_value(key: str, value, entry) -> None:
    """Raise ValueError naming config key `key` unless `value` has the type
    and range of its scalar schema entry: an int, a finite int or float or a
    str (never a bool), or one of a mode key's values."""
    default, allowed = entry
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, str):
        ok = isinstance(value, str) if allowed is None else value in allowed
        kind = "a family name" if allowed is None else " or ".join(map(repr, allowed))
    elif isinstance(default, int):
        ok, kind = number and isinstance(value, int), "an integer"
        if ok and value < allowed:
            ok, kind = False, f"an integer >= {allowed}"
    else:
        # an exact comparison: math.isfinite overflows on a huge int
        ok, kind = number and abs(value) <= sys.float_info.max, "a finite number"
        if ok and allowed is not None and not allowed[1](value):
            ok, kind = False, allowed[0]
    if not ok:
        raise ValueError(f"config key {key!r} must be {kind}, got {value!r}")


def _model_at(where: str, family: str, tau: float) -> cp.CopulaModel:
    """analysis_model(family, tau), whose error begins with `where`."""
    try:
        return analysis_model(family, tau)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _check_model(family_key: str, family: str, tau: float) -> cp.CopulaModel:
    """analysis_model(family, tau), whose error names the config key at fault:
    `family_key` when the family fails at tau 0, which every family takes,
    else tau."""
    _model_at(f"config key {family_key!r}", family, 0.0)
    return _model_at("config key 'tau'", family, tau)


@dataclass(frozen=True)
class MonteCarloResult:
    """Per-replicate rejection counts and the aggregated FDR/TPR.  _mc_result
    builds it from _counts, whose R is V + S of two disjoint masks."""

    v: np.ndarray   # false rejections
    r: np.ndarray   # rejections
    s: np.ndarray   # true rejections
    m1: np.ndarray  # true alternatives

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
    """The copula of `family` at Kendall tau `tau` (``copula.tau_to_theta``,
    independence at |tau| < 1e-6); the independence family at any tau."""
    if family == "independence":
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
    u = rng.random(cfg.m)
    w = rng.random(cfg.m)
    # v sets p2 through ndtri below: 1e-12, not the copula's 1e-10 clamp, is part of the data
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
    analysis family's model: `models` maps each family to its model at the
    true tau (mode "fixed"), or is None to build each at the replicate's
    Kendall tau of (p1, p2) (mode "refit")."""
    cfg, k, families, models = args
    table, is_alt = generate_dataset(cfg, k)
    if models is None:
        tau = ft.empirical_kendall_tau(cp.PseudoObservations(table.p1, table.p2))
        models = {family: _model_at(f"replicate {k}: {family} at kendall tau {tau}", family, tau)
                  for family in families}
    out = {"storey": _counts(proc.run_one_stage_storey(table, cfg.alpha, cfg.lambda_),
                             is_alt)}
    for family, model in models.items():
        out[family] = {
            "hard": _counts(proc.run_two_stage_hard(table, model, cfg.alpha, cfg.lambda_),
                            is_alt),
            "soft": _counts(proc.run_two_stage_soft(table, model, cfg.alpha, cfg.lambda_),
                            is_alt),
        }
    return out


def run_misspecification(cfg: SimulationConfig, analysis_families=ft.DEFAULT_CANDIDATES,
                         mode: str = "refit", threads: int = 1) -> dict:
    """FDR/TPR when the analysis copula family is misspecified.

    Each listed family is analysed with its parameter matched to one tau:
    the true tau (mode="fixed", nothing fitted) or, per replicate, the
    empirical Kendall tau of the (p1, p2) pairs (mode="refit"), so a
    wrong family is analysed as a wrong family.  Mode "fixed" builds each
    model once, so a family that cannot take cfg.tau raises, naming config
    key 'tau', before any replicate is drawn.

    Returns {"storey": MonteCarloResult, family: {"hard"/"soft": ...}}.
    """
    _check_value("fit_mode", mode, _SCHEMAS["misspecification"]["fit_mode"])
    if mode == "refit":
        _check_value("m", cfg.m, _REFIT_M)
    families = ft.check_families(analysis_families, "analysis_families")
    models = None if mode == "refit" else {  # mode "fixed": each model once, at the true tau
        family: _model_at("config key 'tau'", family, cfg.tau) for family in families}
    per_rep = _map_replicates(_replicate, [(cfg, k, families, models) for k in range(cfg.k_reps)],
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


def run_copula_selection_study(model: cp.CopulaModel, n: int, reps: int,
                               seed: int = DEFAULT_SEED,
                               candidates=ft.DEFAULT_CANDIDATES) -> SelectionStudyResult:
    """Sample n pairs from the true copula `model` `reps` times and tally which
    family each criterion selects."""
    for key, value in (("n", n), ("reps", reps), ("seed", seed)):
        _check_value(key, value, _SCHEMAS["selection"][key])
    candidates = ft.check_families(candidates, "candidates")
    counts = {f: {c: 0 for c in ft.CRITERIA} for f in candidates}
    values = {f: {c: [] for c in ft.CRITERIA} for f in candidates}
    for rep in range(reps):
        obs = cp.sample(model, n, [seed, rep])
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


def _cell_to_json(results: dict, cfg: SimulationConfig, **config) -> str:
    """results.json: the config (cfg's keys, then those given) and the counts."""
    payload = {"config": {**{key: getattr(cfg, name) for key, name in _CONFIG_KEYS.items()},
                          **config}}
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
    conf = {**{key: default for key, (default, _) in _SCHEMAS[mode].items()}, **payload}
    if seed is not None:
        conf["seed"] = seed
    out_dir = Path(out_dir)
    table_path = out_dir / "simtable.tsv"
    if mode == "selection":
        for key in ("true_family", "tau"):  # the keys no library call checks
            _check_value(key, conf[key], _SCHEMAS[mode][key])
        study = run_copula_selection_study(
            _check_model("true_family", conf["true_family"], conf["tau"]), conf["n"],
            conf["reps"], conf["seed"], conf["candidates"])
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
    config = {key: conf[key] for key in _SCHEMAS[mode] if key not in _CONFIG_KEYS}
    (out_dir / "results.json").write_text(_cell_to_json(results, cfg, **config) + "\n",
                                          encoding="utf-8")
    return table_path
