"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line (run with -s to see them).

Criteria 3-5 replay the published simulation operating points at desk
scale; tolerances are fixed here and nowhere else.
"""

import itertools
import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from twostage_fdr import copula as cp
from twostage_fdr import fit as ft
from twostage_fdr import ingest as ig
from twostage_fdr import marginal as mg
from twostage_fdr import procedure as proc
from twostage_fdr import simulate as sim

SEED = 20240001

UNIFORMITY_FAMILIES = ("gaussian", "frank", "clayton", "gumbel", "joe")


def ks_uniform(values: np.ndarray) -> float:
    v = np.sort(values)
    n = v.size
    i = np.arange(1, n + 1)
    return max(np.max(i / n - v), np.max(v - (i - 1) / n))


def null_table(model, n, seed):
    obs = cp.sample(model, n, seed)
    return mg.HypothesisTable(obs.u, obs.v)


def test_criterion_1_uniformity():
    """Merged p-values are null-uniform for every family at tau = -0.4."""
    n = 100_000
    crit = 1.63 / math.sqrt(n)
    for fam_index, family in enumerate(UNIFORMITY_FAMILIES):
        start = time.monotonic()
        model = cp.tau_to_theta(family, -0.4)
        table = null_table(model, n, [SEED, fam_index])
        for gamma1 in (0.3, 0.7, 0.9):
            agg = proc.aggregate_hard(table, model, gamma1)
            ks = ks_uniform(agg.values)
            assert ks < crit, (family, gamma1, ks)
        ks = ks_uniform(proc.aggregate_soft(table, model).values)
        assert ks < crit, (family, "soft", ks)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, (family, elapsed)
    print("ACCEPTANCE 1 (uniformity of merged p-values, 5 families): PASS")


def test_criterion_2_joint_probability_identity():
    """P(p_hard <= gamma, p1 <= gamma1) = P(p1 <= gamma1, p2 <= gamma2)
    for gamma = C(gamma1, gamma2), within 3 combined binomial SEs."""
    n = 100_000
    for family in UNIFORMITY_FAMILIES:
        model = cp.tau_to_theta(family, -0.4)
        for gamma1, gamma2 in ((0.5, 0.1), (0.9, 0.05)):
            gamma = cp.cdf(model, gamma1, gamma2)
            t1 = null_table(model, n, [SEED, 101])
            agg = proc.aggregate_hard(t1, model, gamma1)
            lhs = float(np.mean((agg.values <= gamma) & (t1.p1 <= gamma1)))
            t2 = null_table(model, n, [SEED, 202])
            rhs = float(np.mean((t2.p1 <= gamma1) & (t2.p2 <= gamma2)))
            se = math.sqrt(lhs * (1 - lhs) / n + rhs * (1 - rhs) / n)
            assert abs(lhs - rhs) <= 3.0 * se, (family, gamma1, gamma2, lhs, rhs)
    print("ACCEPTANCE 2 (joint probability identity): PASS")


def test_criterion_3_benchmark_cell():
    """The tau=-0.4, mu=3 cell reproduces the published FDR/TPR."""
    start = time.monotonic()
    cfg = sim.SimulationConfig(m=8000, mu=3.0, tau=-0.4, p0=0.95,
                               k_reps=100, alpha=0.05, lambda_=0.5, seed=SEED)
    res = sim.run_cell(cfg)
    targets = {
        "soft": (0.028, 0.015, 0.804, 0.05),
        "hard": (0.038, 0.02, 0.643, 0.05),
        "storey": (0.046, 0.02, 0.378, 0.06),
    }
    for method, (fdr0, fdr_tol, tpr0, tpr_tol) in targets.items():
        r = res[method]
        assert abs(r.fdr_hat - fdr0) <= fdr_tol, (method, "fdr", r.fdr_hat)
        assert abs(r.tpr_hat - tpr0) <= tpr_tol, (method, "tpr", r.tpr_hat)
    elapsed = time.monotonic() - start
    assert elapsed < 900.0, elapsed
    lines = ", ".join(f"{m} {res[m].fdr_hat:.3f}/{res[m].tpr_hat:.3f}"
                      for m in ("storey", "hard", "soft"))
    print(f"ACCEPTANCE 3 (benchmark cell, K=100: {lines}; {elapsed:.0f}s): PASS")


def test_criterion_4_power_increases_with_signal():
    """TPR grows strictly with the alternative location for every method."""
    mus = (2.0, 2.5, 3.0, 3.5, 4.0)
    tprs = {m: [] for m in sim.METHODS}
    soft_tpr_mu4 = None
    for mu in mus:
        cfg = sim.SimulationConfig(m=8000, mu=mu, tau=-0.4, p0=0.95,
                                   k_reps=50, alpha=0.05, lambda_=0.5, seed=SEED)
        res = sim.run_cell(cfg)
        for method in sim.METHODS:
            tprs[method].append(res[method].tpr_hat)
        if mu == 4.0:
            soft_tpr_mu4 = res["soft"].tpr_hat
    for method in sim.METHODS:
        seq = tprs[method]
        assert all(a < b for a, b in zip(seq, seq[1:])), (method, seq)
    assert abs(soft_tpr_mu4 - 0.973) <= 0.06, soft_tpr_mu4
    print(f"ACCEPTANCE 4 (TPR monotone in mu; soft at mu=4: {soft_tpr_mu4:.3f}): PASS")


MISSPEC_CFG = sim.SimulationConfig(m=8000, mu=3.0, tau=-0.4, p0=0.95,
                                   k_reps=50, alpha=0.05, lambda_=0.5, seed=SEED)


@pytest.fixture(scope="module")
def misspecification_refit():
    return sim.run_misspecification(MISSPEC_CFG, analysis_families=ft.DEFAULT_CANDIDATES,
                                    mode="refit")


def test_criterion_5_misspecification_refit(misspecification_refit):
    """Every candidate family, refitted at the replicate's Kendall tau,
    keeps the hard method's FDR on the Clayton cell under control."""
    summary = []
    for family in ft.DEFAULT_CANDIDATES:
        hard, soft = (misspecification_refit[family][m] for m in ("hard", "soft"))
        assert hard.fdr_hat <= 0.06, (family, hard.fdr_hat)
        summary.append(f"{family} hard {hard.fdr_hat:.3f}/{hard.tpr_hat:.3f} "
                       f"soft {soft.fdr_hat:.3f}/{soft.tpr_hat:.3f}")
    print(f"ACCEPTANCE 5 (misspecification refit, FDR/TPR: {'; '.join(summary)}): PASS")


@pytest.mark.parametrize("family", [
    family if family == MISSPEC_CFG.dep_family else pytest.param(family, marks=pytest.mark.xfail(
        strict=True, reason="a wrong family matched to the replicate's Kendall tau loses "
        "30-40% of the hard TPR: the method misses the operating point, not the code "
        "(ROADMAP item 13)"))
    for family in ft.DEFAULT_CANDIDATES])
def test_criterion_5_misspecification_refit_tpr(misspecification_refit, family):
    """The refitted hard method keeps the cell's published TPR."""
    r = misspecification_refit[family]["hard"]
    assert abs(r.tpr_hat - 0.643) <= 0.05, (family, r.tpr_hat)


def test_criterion_6_copula_selection_study():
    """With Clayton truth at n=8000 the criteria select Clayton nearly
    always, and the AIC/BIC gap equals (ln n - 2) exactly."""
    true_model = cp.tau_to_theta("clayton", -0.4)
    study = sim.run_copula_selection_study(true_model, n=8000, reps=100, seed=SEED)
    for criterion in ft.CRITERIA:
        assert study.counts["clayton"][criterion] >= 95, (criterion, study.counts)

    gap = math.log(8000) - 2.0
    assert round(gap, 3) == 6.987
    rng = np.random.default_rng(SEED)
    for family in ft.DEFAULT_CANDIDATES:
        obs = cp.sample(true_model, 8000, rng.integers(2**31))
        result = ft.fit_mle(family, obs, ft.empirical_kendall_tau(obs))
        assert abs((result.bic - result.aic) - gap) <= 1e-9, family

    # published ordering of the mean log-likelihoods on Clayton data
    means = {f: study.stats[f]["loglik"][0] for f in ft.DEFAULT_CANDIDATES}
    assert (means["clayton"] > means["gaussian"] > means["frank"]
            > means["gumbel"] > means["joe"]), means
    counts = {c: study.counts["clayton"][c] for c in ft.CRITERIA}
    print(f"ACCEPTANCE 6 (selection study, clayton wins {counts}; "
          f"BIC-AIC={gap:.6f}): PASS")


def test_criterion_7_exhaustive_bootstrap():
    """729 combinations per triplicate gene, enumerated by brute force on 10
    fixture genes: summarize's closed-form SD of each gene equals the sample
    SD of its enumerated log-fold changes."""
    rng = np.random.default_rng(SEED)
    genes = []
    for _ in range(10):
        ko = rng.uniform(0.5, 40.0, 3).tolist()
        wt = rng.uniform(0.5, 40.0, 3).tolist()
        oracle = []
        for ko_pick in itertools.product(range(3), repeat=3):
            ko_mean = statistics.mean(ko[i] for i in ko_pick)
            for wt_pick in itertools.product(range(3), repeat=3):
                wt_mean = statistics.mean(wt[i] for i in wt_pick)
                oracle.append(math.log2(ko_mean / wt_mean))
        assert len(oracle) == 729
        genes.append((ko, wt, statistics.stdev(oracle)))
    ko, wt, oracle_sd = zip(*genes)
    summary = ig.summarize(ig.ReplicateData([f"g{i}" for i in range(10)], ko, wt))
    for sd, expected in zip(summary.sd_boot, oracle_sd):
        assert sd == pytest.approx(expected, abs=1e-12)
    print("ACCEPTANCE 7 (exhaustive bootstrap vs enumeration oracle): PASS")


# Complete null: no alternatives, so a replicate's FDP is 1 when it rejects
# anything and FDR = P(R > 0).  K, the seed and the bound alpha + 3 se, with
# se = sqrt(alpha (1 - alpha) / K) the binomial SE at FDR = alpha, are fixed
# here before any run.
NULL_CFG = sim.SimulationConfig(m=2000, mu=3.0, tau=-0.4, p0=1.0, dep_family="clayton",
                                k_reps=200, alpha=0.05, seed=20261019)
NULL_BOUND = NULL_CFG.alpha + 3.0 * math.sqrt(NULL_CFG.alpha * (1.0 - NULL_CFG.alpha)
                                              / NULL_CFG.k_reps)


@pytest.fixture(scope="module")
def complete_null_cell():
    return sim.run_cell(NULL_CFG)


def test_complete_null_fdr_control(complete_null_cell):
    """Storey and soft keep P(R > 0) within 3 SE of alpha when every
    hypothesis is null."""
    for method in ("storey", "soft"):
        r = complete_null_cell[method]
        assert np.all(r.m1 == 0)
        assert r.fdr_hat <= NULL_BOUND, (method, r.fdr_hat, NULL_BOUND)
    print(f"ACCEPTANCE null (complete-null FDR, K={NULL_CFG.k_reps}, bound {NULL_BOUND:.4f}: "
          f"storey {complete_null_cell['storey'].fdr_hat:.3f}, "
          f"soft {complete_null_cell['soft'].fdr_hat:.3f}): PASS")


@pytest.mark.xfail(strict=True, reason=(
    "hard keeps the gamma1 level that rejects the most; each level alone is a "
    "Storey procedure, but the maximum over the levels rejects whenever any "
    "level does, so under the complete null FDR = P(R > 0) is about 0.5"))
def test_complete_null_fdr_control_hard(complete_null_cell):
    r = complete_null_cell["hard"]
    assert r.fdr_hat <= NULL_BOUND, ("hard", r.fdr_hat, NULL_BOUND)


REAL_DATA_CANDIDATES = (
    Path(__file__).resolve().parent.parent / "data" / "set4_counts.tsv",
    Path(__file__).resolve().parent.parent / "data" / "set4_counts.tsv.gz",
)


def test_criterion_8_real_data_reproduction():
    """Exact rejection counts on the knockout dataset; runs only when the
    dataset file is present, otherwise the property suite (criteria 1, 2,
    7, 9) stands in for it."""
    path = next((p for p in REAL_DATA_CANDIDATES if p.exists()), None)
    if path is None:
        print("ACCEPTANCE 8 (real-data counts): SKIPPED - dataset not available; "
              "covered by the property suite per the conditional criterion")
        pytest.skip("real dataset not available; criterion replaced by property suite")
    data = ig.read_counts(path)
    summary = ig.summarize(data)
    table = mg.build_table(summary.beta_hat, summary.sd_boot, mg.REAL_DATA_NULL)
    obs = cp.PseudoObservations(table.p1, table.p2)
    model = ft.select_copula(obs).winner("bic").model
    hard = proc.run_two_stage_hard(table, model, 0.10)
    soft = proc.run_two_stage_soft(table, model, 0.10)
    storey = proc.run_one_stage_storey(table, 0.10)
    assert hard.gamma1_hat == pytest.approx(0.987, abs=1e-3)
    assert hard.n_rejected == 485
    assert soft.n_rejected == 582
    assert storey.n_rejected == 424
    print("ACCEPTANCE 8 (real-data counts): PASS")


def test_criterion_9_property_suite():
    """Headline module invariants, re-run here so the acceptance module is
    self-contained."""
    rng = np.random.default_rng(SEED)

    # Frechet bounds + h-function versus finite difference
    for family in UNIFORMITY_FAMILIES:
        model = cp.tau_to_theta(family, -0.4)
        u = rng.uniform(0.02, 0.98, 500)
        v = rng.uniform(0.02, 0.98, 500)
        c = cp.cdf(model, u, v)
        assert np.all(c >= np.maximum(u + v - 1.0, 0.0) - 1e-12)
        assert np.all(c <= np.minimum(u, v) + 1e-12)
        step = 1e-5
        fd = (cp.cdf(model, u + step, v) - cp.cdf(model, u - step, v)) / (2 * step)
        np.testing.assert_allclose(cp.hfunc(model, v, u), fd, atol=1e-6)
        x = rng.uniform(0.01, 0.99, 500)
        vv = cp.hfunc_inverse(model, x, u)
        np.testing.assert_allclose(cp.hfunc(model, vv, u), x, atol=1e-8)

    # tau recovery within Monte Carlo noise
    for family in UNIFORMITY_FAMILIES:
        model = cp.tau_to_theta(family, -0.4)
        obs = cp.sample(model, 100_000, [SEED, 9])
        tau_hat = ft.empirical_kendall_tau(obs)
        assert abs(tau_hat - (-0.4)) < 0.02, (family, tau_hat)

    # pi0 / FDR estimator arithmetic identities
    vals = rng.uniform(size=5000)
    agg = proc.AggregatedPValues("raw", vals)
    lam = 0.5
    assert proc.estimate_pi0(agg, lam) == min(
        np.count_nonzero(vals > lam) / ((1 - lam) * vals.size), 1.0)
    # select_gamma's (gamma_hat, pi0_hat, R) meet the plug-in bound
    # pi0 * gamma * M / max(R, 1) <= alpha, with R = #{p <= gamma_hat}
    vals = np.concatenate([vals, rng.uniform(0.0, 1e-3, 250)])
    agg = proc.AggregatedPValues("raw", vals)
    alpha = 0.05
    gam, pi0, r = proc.select_gamma(agg, alpha, lam)
    assert pi0 == proc.estimate_pi0(agg, lam)
    assert r == np.count_nonzero(vals <= gam) > 0
    assert pi0 * gam * vals.size / max(r, 1) <= alpha

    # seed determinism across thread counts
    cfg = sim.SimulationConfig(m=1000, k_reps=4, seed=SEED)
    a = sim.run_cell(cfg, threads=1)
    b = sim.run_cell(cfg, threads=2)
    for method in sim.METHODS:
        np.testing.assert_array_equal(a[method].v, b[method].v)
        np.testing.assert_array_equal(a[method].r, b[method].r)
    print("ACCEPTANCE 9 (module property suite): PASS")
