"""Simulation harness tests (small scales; the full cells live in the
acceptance suite)."""

import json

import numpy as np
import pytest

from twostage_fdr import copula as cp
from twostage_fdr import fit as ft
from twostage_fdr import procedure as proc
from twostage_fdr import simulate as sim


def small_cfg(**kw):
    base = dict(m=2000, mu=3.0, tau=-0.4, p0=0.95, k_reps=3, seed=777)
    base.update(kw)
    return sim.SimulationConfig(**base)


class TestConfig:
    def test_domains(self):
        with pytest.raises(ValueError):
            sim.SimulationConfig(tau=0.4)
        with pytest.raises(ValueError):
            sim.SimulationConfig(mu=0.0)
        with pytest.raises(ValueError):
            sim.SimulationConfig(p0=1.5)
        for mode in ("magic", "mle", "true"):
            with pytest.raises(ValueError, match="analysis_mode must be 'tau'"):
                sim.SimulationConfig(analysis_mode=mode)

    def test_tau_zero_gives_independence(self):
        cfg = small_cfg(tau=0.0)
        assert sim.dependence_model(cfg).family == "independence"


class TestGenerateDataset:
    def test_auxiliary_mean(self):
        cfg = small_cfg(m=8000)
        table, _ = sim.generate_dataset(cfg, 0)
        assert np.mean(table.y) == pytest.approx(0.75, abs=0.02)

    def test_null_p2_is_uniform_pure_null(self):
        cfg = small_cfg(m=100_000, p0=1.0)
        table, is_alt = sim.generate_dataset(cfg, 0)
        assert not is_alt.any()
        p = np.sort(table.p2)
        n = p.size
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - p), np.max(p - (i - 1) / n))
        assert ks < 1.63 / np.sqrt(n)

    def test_independence_when_tau_zero(self):
        cfg = small_cfg(m=20_000, tau=0.0, p0=1.0)
        table, _ = sim.generate_dataset(cfg, 0)
        obs = cp.PseudoObservations(np.clip(table.p1, 1e-9, 1 - 1e-9),
                                    np.clip(table.p2, 1e-9, 1 - 1e-9))
        assert abs(ft.empirical_kendall_tau(obs)) < 0.02

    def test_null_pvalue_pair_follows_copula(self):
        # (p1, p2) of null hypotheses should carry the requested tau
        cfg = small_cfg(m=50_000, p0=1.0)
        table, _ = sim.generate_dataset(cfg, 1)
        obs = cp.PseudoObservations(np.clip(table.p1, 1e-9, 1 - 1e-9),
                                    np.clip(table.p2, 1e-9, 1 - 1e-9))
        assert ft.empirical_kendall_tau(obs) == pytest.approx(-0.4, abs=0.02)

    def test_alternative_marginal_is_two_point_mixture(self):
        # empirical CDF of alternative betas vs the mixture CDF
        from twostage_fdr import marginal as mg
        cfg = small_cfg(m=50_000, p0=0.0)
        table, is_alt = sim.generate_dataset(cfg, 2)
        assert is_alt.all()
        mix = mg.GaussianMixture((0.5, 0.5), (-3.0, 3.0), (1.0, 1.0))
        grid = np.linspace(-6.0, 6.0, 25)
        emp = np.searchsorted(np.sort(table.beta_hat), grid, side="right") / table.m
        np.testing.assert_allclose(emp, mg.mixture_cdf(mix, grid), atol=0.01)

    def test_abs_mixture_quantile_matches_seed_loop(self):
        from twostage_fdr import marginal as mg
        mix = mg.GaussianMixture((0.5, 0.5), (-3.0, 3.0), (1.0, 1.0))
        q = np.random.default_rng(4).random(5000)
        # reference: the hand-written 90-halving loop on [0, max |mean| + 12 sd]
        lo, hi = np.zeros_like(q), np.full_like(q, 15.0)
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            take_hi = mg.mixture_cdf(mix, mid) - mg.mixture_cdf(mix, -mid) < q
            lo = np.where(take_hi, mid, lo)
            hi = np.where(take_hi, hi, mid)
        np.testing.assert_array_equal(sim._abs_mixture_quantile(mix, q), 0.5 * (lo + hi))

    def test_determinism(self):
        cfg = small_cfg()
        t1, a1 = sim.generate_dataset(cfg, 5)
        t2, a2 = sim.generate_dataset(cfg, 5)
        np.testing.assert_array_equal(t1.beta_hat, t2.beta_hat)
        np.testing.assert_array_equal(t1.y, t2.y)
        np.testing.assert_array_equal(a1, a2)
        t3, _ = sim.generate_dataset(cfg, 6)
        assert not np.array_equal(t1.beta_hat, t3.beta_hat)


class TestRunCell:
    def test_counts_consistent(self):
        res = sim.run_cell(small_cfg())
        for name in sim.METHODS:
            r = res[name]
            assert np.all(r.v + r.s == r.r)
            assert np.all(r.s <= r.m1)
            assert 0.0 <= r.fdr_hat <= 1.0
            assert 0.0 <= r.tpr_hat <= 1.0

    def test_seed_determinism(self):
        a = sim.run_cell(small_cfg())
        b = sim.run_cell(small_cfg())
        for name in sim.METHODS:
            np.testing.assert_array_equal(a[name].v, b[name].v)
            np.testing.assert_array_equal(a[name].r, b[name].r)

    def test_thread_count_does_not_change_results(self):
        cfg = small_cfg(k_reps=4)
        a = sim.run_cell(cfg, threads=1)
        b = sim.run_cell(cfg, threads=2)
        for name in sim.METHODS:
            np.testing.assert_array_equal(a[name].v, b[name].v)
            np.testing.assert_array_equal(a[name].r, b[name].r)
            np.testing.assert_array_equal(a[name].s, b[name].s)

    @pytest.mark.parametrize("threads", [0, -5])
    def test_threads_must_be_positive(self, threads):
        message = f"^threads must be a positive integer, got {threads}$"
        with pytest.raises(ValueError, match=message):
            sim._map_replicates(abs, [1, 2], threads)
        with pytest.raises(ValueError, match=message):
            sim.run_cell(small_cfg(k_reps=1), threads=threads)
        with pytest.raises(ValueError, match=message):
            sim.run_misspecification(small_cfg(k_reps=1), mode="fixed", threads=threads)

    def test_pure_null_fdr_control(self):
        # no alternatives: plug-in control keeps the false rejection rate near 0
        cfg = small_cfg(m=2000, p0=1.0, k_reps=200)
        res = sim.run_cell(cfg)
        for name in ("hard", "soft"):
            r = res[name]
            assert r.fdr_hat <= cfg.alpha + 3.0 * max(r.fdr_sd, 1e-12), name
            assert np.all(r.m1 == 0)
            assert np.all(r.s == 0)

    def test_tau_zero_methods_agree(self):
        # without dependence the two-stage methods collapse onto the baseline
        cfg = small_cfg(m=2000, tau=0.0, k_reps=5)
        res = sim.run_cell(cfg)
        tprs = [res[m].tpr_hat for m in sim.METHODS]
        assert max(tprs) - min(tprs) <= 0.02


class TestMisspecification:
    def test_true_family_refit_matches_run_cell_bitwise(self):
        cfg = small_cfg(k_reps=3)
        cell = sim.run_cell(cfg)
        mis = sim.run_misspecification(cfg, analysis_families=("clayton",), mode="refit")
        for method in ("hard", "soft"):
            np.testing.assert_array_equal(mis["clayton"][method].v, cell[method].v)
            np.testing.assert_array_equal(mis["clayton"][method].r, cell[method].r)
        np.testing.assert_array_equal(mis["storey"].v, cell["storey"].v)

    @pytest.mark.parametrize("family", ft.DEFAULT_CANDIDATES)
    def test_fixed_generating_family_analyses_with_the_true_copula(self, family):
        # fixed mode with the generating family is the analysis under the
        # data-generating copula itself
        cfg = small_cfg(m=1000, k_reps=2, dep_family=family)
        res = sim.run_misspecification(cfg, analysis_families=(family,), mode="fixed")
        true_model = sim.dependence_model(cfg)
        expected = {"storey": [], "hard": [], "soft": []}
        for k in range(cfg.k_reps):
            table, is_alt = sim.generate_dataset(cfg, k)
            outcomes = {
                "storey": proc.run_one_stage_storey(table, cfg.alpha, cfg.lambda_),
                "hard": proc.run_two_stage_hard(table, true_model, cfg.alpha, cfg.lambda_),
                "soft": proc.run_two_stage_soft(table, true_model, cfg.alpha, cfg.lambda_),
            }
            for method, outcome in outcomes.items():
                rej = outcome.rejected
                expected[method].append((np.count_nonzero(rej & ~is_alt), np.count_nonzero(rej),
                                         np.count_nonzero(rej & is_alt),
                                         np.count_nonzero(is_alt)))
        for method, rows in expected.items():
            got = res["storey"] if method == "storey" else res[family][method]
            assert list(zip(got.v, got.r, got.s, got.m1)) == rows, method

    def test_fixed_mode_runs_each_family(self):
        cfg = small_cfg(k_reps=2, m=1000)
        res = sim.run_misspecification(cfg, analysis_families=("gaussian", "joe"),
                                       mode="fixed")
        assert set(res) == {"storey", "gaussian", "joe"}
        for fam in ("gaussian", "joe"):
            assert np.all(res[fam]["hard"].r >= 0)

    def test_fixed_mode_controls_fdr(self):
        # the merged p-values stay valid enough under a wrong family for
        # the plug-in estimate to hold the line
        cfg = small_cfg(m=2000, k_reps=5)
        res = sim.run_misspecification(cfg, analysis_families=("joe",), mode="fixed")
        r = res["joe"]["hard"]
        assert r.fdr_hat <= cfg.alpha + 3.0 * max(r.fdr_sd, 1e-12)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            sim.run_misspecification(small_cfg(), mode="other")


class TestSelectionStudy:
    def test_counts_sum_to_reps(self):
        true_model = cp.tau_to_theta("clayton", -0.4)
        study = sim.run_copula_selection_study(true_model, n=2000, reps=3, seed=5)
        for criterion in ft.CRITERIA:
            assert sum(study.counts[f][criterion] for f in study.families) == 3

    @pytest.mark.parametrize("reps", [0, -1])
    def test_reps_must_be_positive(self, reps):
        true_model = cp.tau_to_theta("clayton", -0.4)
        with pytest.raises(ValueError, match=f"^reps must be positive, got {reps}$"):
            sim.run_copula_selection_study(true_model, n=300, reps=reps)

    def test_true_family_dominates_smoke(self):
        true_model = cp.tau_to_theta("clayton", -0.4)
        study = sim.run_copula_selection_study(true_model, n=4000, reps=3, seed=5)
        assert study.counts["clayton"]["bic"] == 3


class TestSerialization:
    def test_cell_tsv_and_json(self, tmp_path):
        cfg = small_cfg(k_reps=2, m=500)
        res = sim.run_cell(cfg)
        path = tmp_path / "cell.tsv"
        sim.cell_to_tsv(res, path, seed=cfg.seed)
        lines = path.read_text().splitlines()
        assert lines[0] == f"# seed: {cfg.seed}"
        assert lines[1].startswith("method\t")
        assert len(lines) == 5
        payload = json.loads(sim.cell_to_json(res, cfg))
        assert payload["config"]["m"] == 500
        assert len(payload["storey"]["v"]) == 2

    def test_misspec_tsv(self, tmp_path):
        cfg = small_cfg(k_reps=2, m=500)
        res = sim.run_misspecification(cfg, analysis_families=("clayton",), mode="refit")
        path = tmp_path / "mis.tsv"
        sim.misspecification_to_tsv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("family\t")
        assert len(lines) == 4

    def test_study_tsv(self, tmp_path):
        study = sim.run_copula_selection_study(cp.tau_to_theta("clayton", -0.4),
                                               n=1000, reps=2, seed=1)
        path = tmp_path / "study.tsv"
        sim.study_to_tsv(study, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "family\tcriterion\tn_selected\tmean\tsd"
        assert len(lines) == 1 + 3 * len(ft.DEFAULT_CANDIDATES)
