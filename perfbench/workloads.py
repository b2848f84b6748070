"""The benchmark's workloads: one operation each, its decisions and checks.

* ``pipeline``: one in-process pass of the CLI (bootstrap, fit, hard test,
  soft test) on a seeded triplicate counts file of 20k genes by default, so
  that a 30 s run holds several passes.  Every pass reads the same file, so
  its decisions are keyed by the workload seed.
* ``sim_cell``: one replicate of the criterion-3 cell (Clayton, tau -0.4).
* ``misspec_fixed``: one replicate of the misspecification study with the
  five candidate families used as analysis copulas, data from a rotated
  Gumbel copula.

Operation i of a simulation workload runs the replicate with seed
``seed + i``, so its decisions are keyed by that replicate seed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

from twostage_fdr import cli
from twostage_fdr import fit as ft
from twostage_fdr import marginal as mg
from twostage_fdr import procedure as proc
from twostage_fdr import simulate as sim

import counts

GRID = frozenset(float(g) for g in proc.default_gamma1_grid())
PI0_RANGE = (0.90, 0.99)
PI0_CHECK_MIN_GENES = 10_000  # below this the tail estimate is too noisy to gate on

# Decision fields compared to a relative 1e-12; everything else must be equal.
RELATIVE_FIELDS = {"gamma_hat", "pi0_hat"}


def compare(expected, observed, where="") -> list:
    """Differences between a stored and an observed decision record."""
    if isinstance(expected, dict) and isinstance(observed, dict):
        diffs = []
        for key in sorted(set(expected) | set(observed)):
            if key not in expected or key not in observed:
                diffs.append(f"{where}{key}: present on one side only")
            else:
                diffs += compare(expected[key], observed[key], f"{where}{key}.")
        return diffs
    field = where.rstrip(".").rsplit(".", 1)[-1]
    if field in RELATIVE_FIELDS and isinstance(expected, float) and isinstance(observed, float):
        same = math.isclose(expected, observed, rel_tol=1e-12, abs_tol=0.0)
    else:
        same = expected == observed
    return [] if same else [f"{where.rstrip('.')}: expected {expected!r}, got {observed!r}"]


def _quiet_main(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"twostage-fdr {' '.join(argv)} exited with {code}")


class Pipeline:
    name = "pipeline"
    stages = ("bootstrap_s", "fit_s", "test_hard_s", "test_soft_s")
    # per operation; the hard and soft tests each select a copula as well
    expected_calls = {"cli.main": 4, "fit.select_copula": 3, "ingest.read_counts": 1,
                      "procedure.run_two_stage_hard": 1}

    def __init__(self, seed: int, work_dir: Path, genes: int):
        self.seed = seed
        self.size = {"genes": genes}
        self.dir = work_dir
        self.counts = work_dir / "counts.tsv"
        self.summary = work_dir / "summary.tsv"
        self.out = {k: work_dir / k for k in ("fit", "hard", "soft")}
        common = ["--copula", "auto", "--alpha", "0.10"]
        self.commands = (
            ("bootstrap_s", ["bootstrap", str(self.counts), str(self.summary)]),
            ("fit_s", ["fit", str(self.summary), "--out-dir", str(self.out["fit"])]),
            ("test_hard_s", ["test", str(self.summary), "--method", "H", *common,
                             "--out-dir", str(self.out["hard"])]),
            ("test_soft_s", ["test", str(self.summary), "--method", "S", *common,
                             "--out-dir", str(self.out["soft"])]),
        )

    def setup(self) -> dict:
        genes = self.size["genes"]
        ids, ko, wt, is_de = counts.generate_counts(genes, self.seed)
        nbytes = counts.write_counts_tsv(self.counts, ids, ko, wt)
        # Storey pi0 of the raw p-values under the built-in null: the
        # generator is calibrated when this sits near 1 - DE_FRACTION.
        beta = np.log2(ko.mean(axis=1) / wt.mean(axis=1))
        raw = proc.AggregatedPValues("raw", mg.p_value(mg.REAL_DATA_NULL, beta))
        pi0 = proc.estimate_pi0(raw, 0.5)
        if genes >= PI0_CHECK_MIN_GENES and not PI0_RANGE[0] <= pi0 <= PI0_RANGE[1]:
            raise RuntimeError(f"counts generator off calibration: raw pi0_hat {pi0:.4f} "
                               f"outside {PI0_RANGE}")
        return {"genes": genes, "de_genes": int(is_de.sum()), "input_bytes": nbytes,
                "raw_pi0_hat": pi0}

    def key(self, i: int) -> str:
        return str(self.seed)

    def prepare(self, i: int) -> None:
        """Remove the previous pass's outputs, so the checks read only this pass's."""
        self.summary.unlink(missing_ok=True)
        for out_dir in self.out.values():
            shutil.rmtree(out_dir, ignore_errors=True)

    def steps(self, i: int) -> list:
        return [(stage, functools.partial(_quiet_main, argv)) for stage, argv in self.commands]

    def decisions(self) -> dict:
        selection = json.loads((self.out["fit"] / "selection.json").read_text())
        win = selection["candidates"][selection["winners"]["bic"]]
        out = {"bic_winner": f"{win['family']}:{win['rotation']}"}
        for method in ("hard", "soft"):
            outcome = json.loads((self.out[method] / "outcome.json").read_text())
            rejected = "\n".join(outcome["rejected"]).encode()
            rec = {"n_rejected": outcome["n_rejected"],
                   "rejected_sha256": hashlib.sha256(rejected).hexdigest(),
                   "gamma_hat": outcome["gamma_hat"], "pi0_hat": outcome["pi0_hat"],
                   "gamma1_hat": outcome["gamma1_hat"]}
            if method == "hard":
                rows = (self.out["hard"] / "gamma1_curve.tsv").read_text().splitlines()
                rec["gamma1_curve"] = [int(r.split("\t")[1]) for r in rows[2:]]
            out[method] = rec
        return out

    def invariants(self, dec: dict) -> list:
        errors = []
        for method in ("hard", "soft"):
            rec = dec[method]
            outcome = json.loads((self.out[method] / "outcome.json").read_text())
            if len(outcome["rejected"]) != rec["n_rejected"]:
                errors.append(f"{method}: n_rejected disagrees with the rejected list")
            rows = (self.out[method] / "decisions.tsv").read_text().splitlines()[2:]
            cells = [r.split("\t") for r in rows]
            below = sum(float(c[3]) <= rec["gamma_hat"] for c in cells)
            flagged = sum(c[4] == "1" for c in cells)
            if not below == flagged == rec["n_rejected"]:
                errors.append(f"{method}: n_rejected {rec['n_rejected']}, "
                              f"#{{p <= gamma_hat}} {below}, flagged {flagged}")
        if dec["hard"]["gamma1_hat"] not in GRID:
            errors.append(f"hard: gamma1_hat {dec['hard']['gamma1_hat']!r} is not on the grid")
        return errors


class _Simulation:
    stages = ("replicate_s",)
    expected_calls = {"simulate.generate_dataset": 1}

    def __init__(self, seed: int, work_dir: Path, m: int):
        self.seed = seed
        self.size = {"m": m}
        self.dir = work_dir
        self.cfg = replace(self.base_config, m=m, k_reps=1, seed=seed)
        self.result = None

    def setup(self) -> dict:
        return dict(self.size)

    def key(self, i: int) -> str:
        return str(self.seed + i)

    def prepare(self, i: int) -> None:
        self.result = None

    def steps(self, i: int) -> list:
        return [("replicate_s", functools.partial(self._replicate, i))]

    def _replicate(self, i: int) -> None:
        self.result = self.simulate(replace(self.cfg, seed=self.seed + i))

    @staticmethod
    def _vrsm(r: sim.MonteCarloResult) -> list:
        return [int(r.v[0]), int(r.r[0]), int(r.s[0]), int(r.m1[0])]

    def invariants(self, dec: dict) -> list:
        errors = []
        m1 = {vrsm[3] for vrsm in dec.values()}
        if len(m1) != 1:
            errors.append(f"methods disagree on M1: {sorted(m1)}")
        for method, (v, r, s, _) in dec.items():
            if r != v + s or not 0 <= v <= r:
                errors.append(f"{method}: (V, R, S) = ({v}, {r}, {s}) breaks R = V + S")
        return errors


class SimCell(_Simulation):
    name = "sim_cell"
    base_config = sim.SimulationConfig(mu=3.0, tau=-0.4, p0=0.95, dep_family="clayton",
                                       analysis_mode="tau", alpha=0.05, lambda_=0.5)
    expected_calls = {**_Simulation.expected_calls, "procedure.run_two_stage_hard": 1}

    def simulate(self, cfg):
        return sim.run_cell(cfg)

    def decisions(self) -> dict:
        return {method: self._vrsm(self.result[method]) for method in sim.METHODS}


class MisspecFixed(_Simulation):
    name = "misspec_fixed"
    base_config = sim.SimulationConfig(tau=-0.4, dep_family="gumbel")
    expected_calls = {**_Simulation.expected_calls,
                      "procedure.run_two_stage_hard": len(ft.DEFAULT_CANDIDATES)}

    def simulate(self, cfg):
        return sim.run_misspecification(cfg, analysis_families=ft.DEFAULT_CANDIDATES,
                                        mode="fixed")

    def decisions(self) -> dict:
        out = {"storey": self._vrsm(self.result["storey"])}
        for family in ft.DEFAULT_CANDIDATES:
            for method in ("hard", "soft"):
                out[f"{family}.{method}"] = self._vrsm(self.result[family][method])
        return out


WORKLOADS = {w.name: w for w in (Pipeline, SimCell, MisspecFixed)}
