"""Simulation harness tests (small scales; the full cells live in the
acceptance suite)."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import gamma as scipy_gamma

from twostage_fdr import copula as cp
from twostage_fdr import fit as ft
from twostage_fdr import marginal as mg
from twostage_fdr import procedure as proc
from twostage_fdr import simulate as sim


def small_cfg(**kw):
    base = dict(m=2000, mu=3.0, tau=-0.4, p0=0.95, k_reps=3, seed=777)
    base.update(kw)
    return sim.SimulationConfig(**base)


def generate_recorded(cfg, replicate):
    """generate_dataset(cfg, replicate) as (table, is_alt, beta, aux), with
    the primary and auxiliary statistics it passed to build_table, which the
    table does not keep; checks that p2 is the null p-value of beta bit for bit."""
    build_table, passed = mg.build_table, []

    def recording(beta_hats, ys, *args):
        passed.append((beta_hats, ys))
        return build_table(beta_hats, ys, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mg, "build_table", recording)
        table, is_alt = sim.generate_dataset(cfg, replicate)
    [(beta, aux)] = passed
    assert table.p2.tobytes() == mg.p_value(mg.STANDARD_NORMAL, beta).tobytes()
    return table, is_alt, beta, aux


class TestConfig:
    def test_domains(self):
        for field, value, message in [
                ("tau", 0.4, "config key 'tau' must be a number in (-1, 0], got 0.4"),
                ("mu", 0.0, "config key 'mu' must be a positive number, got 0.0"),
                ("p0", 1.5, "config key 'p0' must be a number in [0, 1], got 1.5")]:
            with pytest.raises(ValueError) as exc:
                sim.SimulationConfig(**{field: value})
            assert str(exc.value) == message
        for mode in ("magic", "mle", "true"):
            with pytest.raises(ValueError, match="^config key 'analysis_mode' must be 'tau', "):
                sim.SimulationConfig(analysis_mode=mode)

    @pytest.mark.parametrize("family, tau, reach", [("frank", -0.95, "0.9226"),
                                                    ("joe", -0.97, "0.9610")])
    def test_tau_the_family_cannot_take_is_named_before_any_replicate(self, monkeypatch,
                                                                       family, tau, reach):
        def no_replicate(*args):
            raise AssertionError("generated a replicate before checking tau")

        monkeypatch.setattr(sim, "generate_dataset", no_replicate)
        with pytest.raises(ValueError) as exc:
            sim.run_cell(sim.SimulationConfig(m=100, k_reps=1, dep_family=family, tau=tau))
        assert str(exc.value) == (f"config key 'tau': {family} copula takes kendall tau in "
                                  f"[-{reach}, {reach}], got {tau}")

    def test_config_keys_follow_the_fields(self):
        assert list(sim._CONFIG_KEYS) == ["m", "mu", "tau", "p0", "dep_family",
                                          "analysis_mode", "k_reps", "alpha", "lambda", "seed"]
        assert sim._CONFIG_KEYS["lambda"] == "lambda_"
        assert sim.SimulationConfig().seed == sim.DEFAULT_SEED
        with pytest.raises(TypeError, match="analysis_family"):
            sim.SimulationConfig(analysis_family="frank")

    @pytest.mark.parametrize("field, value, message", [
        ("m", 800.5, "'m' must be an integer, got 800.5"),
        ("k_reps", 2.0, "'k_reps' must be an integer, got 2.0"),
        ("seed", True, "'seed' must be an integer, got True"),
        ("mu", math.nan, "'mu' must be a finite number, got nan"),
        ("mu", math.inf, "'mu' must be a finite number, got inf"),
        ("mu", 10**400, f"'mu' must be a finite number, got {10**400}"),  # beyond any float
        ("alpha", "0.05", "'alpha' must be a finite number, got '0.05'"),
        ("lambda_", None, "'lambda' must be a finite number, got None"),
    ], ids=["m", "k_reps", "seed", "mu-nan", "mu-inf", "mu-huge", "alpha", "lambda"])
    def test_field_of_the_wrong_type_names_its_key(self, field, value, message):
        # the field's default sets its type; the message names the JSON key
        with pytest.raises(ValueError) as exc:
            sim.SimulationConfig(**{field: value})
        assert str(exc.value) == f"config key {message}"

    @pytest.mark.parametrize("seed", [-1, -3])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError) as exc:
            sim.SimulationConfig(seed=seed)
        assert str(exc.value) == f"config key 'seed' must be an integer >= 0, got {seed}"

    @pytest.mark.parametrize("mode", ["cell", "misspecification", "selection"])
    @pytest.mark.parametrize("seed, kind", [(-1, "an integer >= 0"),
                                            (2.5, "an integer"), (True, "an integer")])
    def test_seed_override_checked_by_the_config_rule(self, tmp_path, mode, seed, kind):
        out = tmp_path / "out"
        with pytest.raises(ValueError) as exc:
            sim.run_config({"mode": mode}, out, seed=seed)
        assert str(exc.value) == f"config key 'seed' must be {kind}, got {seed!r}"
        assert not out.exists()

    def test_seed_zero_taken(self):
        assert sim.SimulationConfig(seed=0).seed == 0

    def test_tau_zero_gives_independence(self):
        cfg = small_cfg(tau=0.0)
        assert sim.analysis_model(cfg.dep_family, cfg.tau).family == "independence"

    @pytest.mark.parametrize("family", ft.DEFAULT_CANDIDATES)
    def test_near_zero_tau_generates_with_the_fixed_analysis_model(self, family):
        # below |tau| = 1e-6 the data come from independence, the model that
        # fixed mode analyses the generating family with, and match tau = 0
        cfg = small_cfg(m=500, tau=-5e-7, dep_family=family)
        independence = cp.CopulaModel("independence")
        assert sim.analysis_model(family, cfg.tau) == independence
        table, _ = sim.generate_dataset(cfg, 0)
        at_zero, _ = sim.generate_dataset(small_cfg(m=500, tau=0.0, dep_family=family), 0)
        np.testing.assert_array_equal(table.p2, at_zero.p2)


class TestGenerateDataset:
    @pytest.mark.parametrize("family", ["clayton", "gumbel"])  # gumbel at tau < 0: rotated
    def test_p1_is_that_of_the_scipy_stats_gamma_quantile(self, family):
        # the auxiliary column is the clipped u; p1 sees its ranks only, so it
        # equals p1 of the Gamma(3, scale 0.25) quantile of u bit for bit
        for seed in range(50):
            cfg = small_cfg(m=8000, dep_family=family, seed=9000 + seed)
            table, _, beta, aux = generate_recorded(cfg, seed % 3)
            # u is the first draw of the replicate's generator
            u = np.clip(np.random.default_rng([cfg.seed, seed % 3]).random(cfg.m),
                        cp.EPS, 1.0 - cp.EPS)
            assert aux.tobytes() == u.tobytes()
            for y in (u, scipy_gamma.ppf(u, a=3.0, scale=0.25)):
                ref = mg.build_table(beta, y, mg.STANDARD_NORMAL)
                assert table.p1.tobytes() == ref.p1.tobytes(), seed

    def test_null_p2_is_uniform_pure_null(self):
        cfg = small_cfg(m=100_000, p0=1.0)
        table, is_alt = sim.generate_dataset(cfg, 0)
        assert not is_alt.any()
        p = np.sort(table.p2)
        n = p.size
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - p), np.max(p - (i - 1) / n))
        assert ks < 1.63 / np.sqrt(n)

    def test_null_magnitude_gives_back_the_copula_level(self, monkeypatch):
        # a null's two-sided p-value 2 Phi(-|beta|) is its copula level v, here
        # set through the h-inverse and log-spread over [1e-12, 0.5].  ndtr at
        # |beta| scales |beta|'s last-bit rounding by about beta^2, so the round
        # trip is off by up to 1.75e-14 relative near v = 1e-12 (on 200k levels)
        levels = np.geomspace(1e-12, 0.5, 20_000)
        monkeypatch.setattr(cp, "hfunc_inverse", lambda model, x, u: levels)
        _, is_alt, beta, _ = generate_recorded(small_cfg(m=levels.size, p0=1.0), 0)
        assert not is_alt.any()
        p = 2.0 * ndtr(-np.abs(beta))
        assert np.all(np.abs(p - levels) <= 3e-14 * levels)

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
        cfg = small_cfg(m=50_000, p0=0.0)
        table, is_alt, beta, _ = generate_recorded(cfg, 2)
        assert is_alt.all()
        mix = mg.GaussianMixture((0.5, 0.5), (-3.0, 3.0), (1.0, 1.0))
        grid = np.linspace(-6.0, 6.0, 25)
        emp = np.searchsorted(np.sort(beta), grid, side="right") / table.m
        np.testing.assert_allclose(emp, mg.mixture_cdf(mix, grid), atol=0.01)

    def test_alternative_magnitude_matches_seed_loop(self):
        q = np.random.default_rng(4).random(5000)
        for mu in (2.0, 2.5, 3.0, 3.5, 4.0):  # criterion 4
            mix = mg.GaussianMixture((0.5, 0.5), (-mu, mu), (1.0, 1.0))
            # reference: the hand-written 90-halving loop on [0, max |mean| + 12 sd]
            lo, hi = np.zeros_like(q), np.full_like(q, mu + 12.0)
            for _ in range(90):
                mid = 0.5 * (lo + hi)
                take_hi = mg.mixture_cdf(mix, mid) - mg.mixture_cdf(mix, -mid) < q
                lo = np.where(take_hi, mid, lo)
                hi = np.where(take_hi, hi, mid)
            # the loop's F(b) - F(-b) cancels at small q, so the two differ by
            # up to about 2.5e-12 relative there and by 5e-14 for q in [1e-3, 0.999]
            np.testing.assert_allclose(sim._alternative_magnitude(mu, 1.0 - q),
                                       0.5 * (lo + hi), rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("mu", [1e-8, 0.01, 3.0, 8.99, 9.0, 12.0, 1e6, 1e150])
    def test_alternatives_are_finite_at_any_mu(self, mu):
        # |beta| of each alternative is the helper's value at its copula level
        # v, also where chndtrix would return NaN (large mu)
        cfg = small_cfg(m=2000, mu=mu, p0=0.0)
        _, is_alt, beta, _ = generate_recorded(cfg, 0)
        assert is_alt.all()
        assert np.all(np.isfinite(beta))
        # u and w are the first two draws of the replicate's generator
        rng = np.random.default_rng([cfg.seed, 0])
        u = np.clip(rng.random(cfg.m), cp.EPS, 1.0 - cp.EPS)
        w = rng.random(cfg.m)
        v = np.clip(cp.hfunc_inverse(sim.analysis_model(cfg.dep_family, cfg.tau), w, u),
                    1e-12, 1.0 - 1e-12)
        assert np.abs(beta).tobytes() == sim._alternative_magnitude(mu, v).tobytes()

    def test_determinism(self):
        cfg = small_cfg()
        t1, a1 = sim.generate_dataset(cfg, 5)
        t2, a2 = sim.generate_dataset(cfg, 5)
        np.testing.assert_array_equal(t1.p1, t2.p1)
        np.testing.assert_array_equal(t1.p2, t2.p2)
        np.testing.assert_array_equal(a1, a2)
        t3, _ = sim.generate_dataset(cfg, 6)
        assert not np.array_equal(t1.p1, t3.p1)
        assert not np.array_equal(t1.p2, t3.p2)


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
        # fixed mode sends the models it built once to the workers; results.json
        # holds every family's and method's per-replicate counts
        a, b = (sim._cell_to_json(sim.run_misspecification(cfg, mode="fixed", threads=threads),
                                  cfg) for threads in (1, 2))
        assert a == b

    @pytest.mark.parametrize("threads", [0, -5, True, 2.5])
    def test_threads_must_be_positive(self, threads):
        message = f"^threads must be a positive integer, got {threads}$"
        with pytest.raises(ValueError, match=message):
            sim._map_replicates(abs, [1, 2], threads)
        with pytest.raises(ValueError, match=message):
            sim.run_cell(small_cfg(k_reps=1), threads=threads)
        with pytest.raises(ValueError, match=message):
            sim.run_misspecification(small_cfg(k_reps=1), mode="fixed", threads=threads)

    @pytest.mark.parametrize("threads, n_args, workers", [
        (8, 2, [2]), (3, 3, [3]), (2, 5, [2]), (8, 1, []), (1, 4, []),
    ])
    def test_pool_never_larger_than_the_replicate_count(self, monkeypatch, threads, n_args,
                                                        workers):
        started = []

        class RecordingPool:
            """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", RecordingPool)
        args = list(range(-n_args, 0))
        assert sim._map_replicates(abs, args, threads) == [abs(a) for a in args]
        assert started == workers

    def test_pure_null_fdr_control(self):
        # no alternatives: FDR is P(R > 0), so storey and soft stay within 3
        # binomial SEs of alpha; hard is left out of that bound, because it
        # rejects whenever any gamma1 level does (the strict xfail
        # test_acceptance.py::test_complete_null_fdr_control_hard)
        cfg = small_cfg(m=2000, p0=1.0, k_reps=200)
        res = sim.run_cell(cfg)
        bound = cfg.alpha + 3.0 * math.sqrt(cfg.alpha * (1.0 - cfg.alpha) / cfg.k_reps)
        for name in sim.METHODS:
            r = res[name]
            assert np.all(r.m1 == 0), name
            assert np.all(r.s == 0), name
            if name != "hard":
                assert r.fdr_hat <= bound, (name, r.fdr_hat, bound)

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
        for method in sim.METHODS:
            got = mis["storey"] if method == "storey" else mis["clayton"][method]
            for count in ("v", "r", "s", "m1"):
                np.testing.assert_array_equal(getattr(got, count), getattr(cell[method], count))

    @pytest.mark.parametrize("family", ft.DEFAULT_CANDIDATES)
    def test_fixed_generating_family_analyses_with_the_true_copula(self, family):
        # fixed mode with the generating family is the analysis under the
        # data-generating copula itself
        cfg = small_cfg(m=1000, k_reps=2, dep_family=family)
        res = sim.run_misspecification(cfg, analysis_families=(family,), mode="fixed")
        true_model = sim.analysis_model(cfg.dep_family, cfg.tau)
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
        with pytest.raises(ValueError, match="^config key 'fit_mode' must be 'fixed' or "
                                             "'refit', got 'other'$"):
            sim.run_misspecification(small_cfg(), mode="other")

    @pytest.mark.parametrize("families, message", [
        (("frank", "frank"), "^analysis_families lists family 'frank' twice$"),
        # at tau = 0 every family collapses to independence, so only the
        # up-front check sees the unknown name
        (("foo",), "^analysis_families names unknown copula family 'foo'$"),
        # a bare string is not a list of one family
        ("frank", "^analysis_families must be a list of family names, got 'frank'$"),
        (["frank", 1], r"^analysis_families must be a list of family names, got \['frank', 1\]$"),
        # nor is a value that is not iterable
        (5, "^analysis_families must be a list of family names, got 5$"),
        ([], "^analysis_families must name at least one family$"),
        ((), "^analysis_families must name at least one family$"),
    ])
    def test_bad_family_list_rejected(self, families, message):
        with pytest.raises(ValueError, match=message):
            sim.run_misspecification(small_cfg(k_reps=1, tau=0.0), analysis_families=families,
                                     mode="fixed")

    @pytest.mark.parametrize("mode", ["fixed", "refit"])
    def test_counts_split_rejections_into_false_and_true(self, mode):
        # R = V + S, 0 <= V <= R and 0 <= S <= M1 for every method and family
        cfg = small_cfg(m=1000, k_reps=2)
        res = sim.run_misspecification(cfg, mode=mode)
        results = [res["storey"]] + [res[f][m] for f in ft.DEFAULT_CANDIDATES
                                     for m in ("hard", "soft")]
        for r in results:
            for count in (r.v, r.r, r.s, r.m1):
                assert count.dtype.kind == "i" and count.shape == (cfg.k_reps,)
            assert np.all(r.v + r.s == r.r)
            assert np.all((0 <= r.v) & (r.v <= r.r))
            assert np.all((0 <= r.s) & (r.s <= r.m1))
        assert any(np.any(r.r > 0) for r in results)  # not vacuous

    @pytest.mark.parametrize("k_reps", [1, 3])
    def test_each_mode_builds_one_model_per_family_and_scores_no_density(self, monkeypatch,
                                                                         k_reps):
        calls = {"tau_to_theta": 0, "log_density": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(cp, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(cp, name, counted)
        cfg = small_cfg(m=400, k_reps=k_reps, dep_family="frank")
        # the data's model per replicate, and one model per listed family: once
        # at the true tau (fixed), or per replicate at its tau (refit); no
        # family is scored against the truth
        n_families = len(ft.DEFAULT_CANDIDATES)
        for mode, models in (("fixed", k_reps + n_families),
                             ("refit", k_reps * (1 + n_families))):
            calls.update(tau_to_theta=0, log_density=0)
            sim.run_misspecification(cfg, mode=mode)
            assert calls == {"tau_to_theta": models, "log_density": 0}, mode
        calls.update(tau_to_theta=0, log_density=0)
        sim.run_cell(cfg)
        assert calls == {"tau_to_theta": 2 * k_reps, "log_density": 0}


# Reference replicates, written out without the shared replicate path: a
# cell analysed with the generating family at the replicate's Kendall tau,
# and a misspecification replicate that computes tau in both modes and
# analyses every family at the true tau (fixed) or at that tau (refit).
# run_cell and run_misspecification must match them count for count.

def oracle_tau_model(family, tau_hat):
    if abs(tau_hat) < 1e-6 or family == "independence":
        return cp.CopulaModel("independence")
    return cp.tau_to_theta(family, tau_hat)


def oracle_analysis_model(cfg, table):
    obs = cp.PseudoObservations(table.p1, table.p2)
    return oracle_tau_model(cfg.dep_family, ft.empirical_kendall_tau(obs))


def oracle_counts(outcome, is_alt):
    rejected = outcome.rejected
    v = int(np.count_nonzero(rejected & ~is_alt))
    s = int(np.count_nonzero(rejected & is_alt))
    return v, v + s, s, int(np.count_nonzero(is_alt))


def oracle_cell_replicate(cfg, k):
    table, is_alt = sim.generate_dataset(cfg, k)
    model = oracle_analysis_model(cfg, table)
    outcomes = {
        "storey": proc.run_one_stage_storey(table, cfg.alpha, cfg.lambda_),
        "hard": proc.run_two_stage_hard(table, model, cfg.alpha, cfg.lambda_),
        "soft": proc.run_two_stage_soft(table, model, cfg.alpha, cfg.lambda_),
    }
    return {name: oracle_counts(o, is_alt) for name, o in outcomes.items()}


def oracle_misspec_replicate(cfg, k, families, mode):
    table, is_alt = sim.generate_dataset(cfg, k)
    obs = cp.PseudoObservations(table.p1, table.p2)
    tau_hat = ft.empirical_kendall_tau(obs)

    out = {"storey": oracle_counts(proc.run_one_stage_storey(table, cfg.alpha, cfg.lambda_),
                                   is_alt)}
    for family in families:
        model = oracle_tau_model(family, cfg.tau if mode == "fixed" else tau_hat)
        out[family] = {
            "hard": oracle_counts(proc.run_two_stage_hard(table, model, cfg.alpha,
                                                          cfg.lambda_), is_alt),
            "soft": oracle_counts(proc.run_two_stage_soft(table, model, cfg.alpha,
                                                          cfg.lambda_), is_alt),
        }
    return out


def per_replicate(result):
    """(V, R, S, M1) of each replicate of a MonteCarloResult."""
    return list(zip(result.v.tolist(), result.r.tolist(), result.s.tolist(),
                    result.m1.tolist()))


ORACLE_CELLS = [(family, tau, p0) for family in cp.FAMILIES
                for tau in (-0.4, 0.0) for p0 in (0.95, 1.0)]


@pytest.mark.parametrize("family, tau, p0", ORACLE_CELLS)
def test_run_cell_matches_the_cell_replicate_oracle(family, tau, p0):
    cfg = small_cfg(m=400, k_reps=2, tau=tau, p0=p0, dep_family=family)
    res = sim.run_cell(cfg)
    expected = [oracle_cell_replicate(cfg, k) for k in range(cfg.k_reps)]
    for method in sim.METHODS:
        assert per_replicate(res[method]) == [rep[method] for rep in expected], method


@pytest.mark.parametrize("mode", ["fixed", "refit"])
@pytest.mark.parametrize("family, tau, p0", ORACLE_CELLS)
def test_run_misspecification_matches_the_replicate_oracle(family, tau, p0, mode):
    cfg = small_cfg(m=400, k_reps=2, tau=tau, p0=p0, dep_family=family)
    res = sim.run_misspecification(cfg, cp.FAMILIES, mode)
    expected = [oracle_misspec_replicate(cfg, k, cp.FAMILIES, mode) for k in range(cfg.k_reps)]
    assert per_replicate(res["storey"]) == [rep["storey"] for rep in expected]
    for analysis in cp.FAMILIES:
        for method in ("hard", "soft"):
            assert (per_replicate(res[analysis][method])
                    == [rep[analysis][method] for rep in expected]), (analysis, method)


class TestSelectionStudy:
    def test_counts_sum_to_reps(self):
        true_model = cp.tau_to_theta("clayton", -0.4)
        study = sim.run_copula_selection_study(true_model, n=2000, reps=3, seed=5)
        for criterion in ft.CRITERIA:
            assert sum(study.counts[f][criterion] for f in study.families) == 3

    @pytest.mark.parametrize("reps", [0, -1])
    def test_reps_must_be_positive(self, reps):
        true_model = cp.tau_to_theta("clayton", -0.4)
        with pytest.raises(ValueError,
                           match=f"^config key 'reps' must be an integer >= 1, got {reps}$"):
            sim.run_copula_selection_study(true_model, n=300, reps=reps)

    @pytest.mark.parametrize("n", [-1, 0, 1, 5, 9])
    def test_n_below_the_fit_floor_rejected_before_sampling(self, monkeypatch, n):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking n")

        monkeypatch.setattr(cp, "sample", no_sampling)
        true_model = cp.tau_to_theta("clayton", -0.4)
        with pytest.raises(ValueError, match=f"^config key 'n' must be an integer >= 10, got {n}$"):
            sim.run_copula_selection_study(true_model, n=n, reps=1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"n": True}, "'n' must be an integer, got True"),
        ({"reps": 2.0}, "'reps' must be an integer, got 2.0"),
        ({"seed": "5"}, "'seed' must be an integer, got '5'"),
        ({"seed": -1}, "'seed' must be an integer >= 0, got -1"),
    ])
    def test_wrong_type_rejected_before_sampling(self, monkeypatch, kwargs, message):
        def no_sampling(*args, **kw):
            raise AssertionError("sampled before checking the arguments")

        monkeypatch.setattr(cp, "sample", no_sampling)
        true_model = cp.tau_to_theta("clayton", -0.4)
        with pytest.raises(ValueError) as exc:
            sim.run_copula_selection_study(true_model, **{"n": 300, "reps": 1, **kwargs})
        assert str(exc.value) == f"config key {message}"

    def test_n_floor_is_the_fit_floor(self):
        true_model = cp.tau_to_theta("clayton", -0.4)
        obs = cp.sample(true_model, ft.MIN_FIT_PAIRS - 1, 5)
        with pytest.raises(ft.FitError, match=f"need at least {ft.MIN_FIT_PAIRS} "):
            ft.fit_mle("clayton", obs, -0.4)
        study = sim.run_copula_selection_study(true_model, n=ft.MIN_FIT_PAIRS, reps=1, seed=5)
        assert sum(study.counts[f]["bic"] for f in study.families) == 1

    @pytest.mark.parametrize("candidates", [[], ()], ids=repr)
    def test_empty_candidates_rejected_before_sampling(self, monkeypatch, candidates):
        def no_sampling(*args, **kw):
            raise AssertionError("sampled before checking the candidates")

        monkeypatch.setattr(cp, "sample", no_sampling)
        true_model = cp.tau_to_theta("clayton", -0.4)
        with pytest.raises(ValueError, match="^candidates must name at least one family$"):
            sim.run_copula_selection_study(true_model, n=300, reps=1, candidates=candidates)

    def test_repeated_candidate_rejected(self):
        true_model = cp.tau_to_theta("clayton", -0.4)
        with pytest.raises(ValueError, match="^candidates lists family 'clayton' twice$"):
            sim.run_copula_selection_study(true_model, n=300, reps=2,
                                           candidates=("clayton", "clayton", "frank"))

    def test_failed_fit_is_left_out_of_the_family_statistics(self, monkeypatch):
        # one failed Joe fit in three reps: Joe's statistics come from its two
        # converged fits, and every other family's are unchanged
        true_model = cp.tau_to_theta("clayton", -0.4)
        clean = sim.run_copula_selection_study(true_model, n=400, reps=3, seed=5)
        fit_mle, joe_fits = ft.fit_mle, []

        def fail_once(family, *args, **kwargs):
            if family != "joe":
                return fit_mle(family, *args, **kwargs)
            joe_fits.append(None if len(joe_fits) == 1 else fit_mle(family, *args, **kwargs))
            if joe_fits[-1] is None:
                raise ft.FitError("forced failure")
            return joe_fits[-1]

        monkeypatch.setattr(ft, "fit_mle", fail_once)
        study = sim.run_copula_selection_study(true_model, n=400, reps=3, seed=5)
        assert study.counts == clean.counts
        for family in study.families:
            if family != "joe":
                assert study.stats[family] == clean.stats[family]
        converged = [r for r in joe_fits if r is not None]
        assert len(converged) == 2
        for criterion in ft.CRITERIA:
            values = [getattr(r, criterion) for r in converged]
            assert study.stats["joe"][criterion] == (np.mean(values), np.std(values, ddof=1))

    def test_family_with_no_converged_fit_reports_nan(self, monkeypatch):
        fit_mle = ft.fit_mle

        def joe_fails(family, *args, **kwargs):
            if family == "joe":
                raise ft.FitError("forced failure")
            return fit_mle(family, *args, **kwargs)

        monkeypatch.setattr(ft, "fit_mle", joe_fails)
        study = sim.run_copula_selection_study(cp.tau_to_theta("clayton", -0.4),
                                               n=400, reps=2, seed=5)
        for criterion in ft.CRITERIA:
            assert all(math.isnan(x) for x in study.stats["joe"][criterion])
            assert study.counts["joe"][criterion] == 0
            assert math.isfinite(study.stats["clayton"][criterion][0])

    @pytest.mark.parametrize("family, tau", [("clayton", 0.0), ("independence", -0.4),
                                             ("clayton", -5e-7)])
    def test_config_samples_the_analysis_model(self, tmp_path, monkeypatch, family, tau):
        # a selection config takes its copula by the rule cell and
        # misspecification data follow: independence for the independence
        # family at any tau, and for every family at |tau| < 1e-6
        config = {"mode": "selection", "n": 300, "reps": 2, "seed": 3}
        reference = sim.run_config({**config, "true_family": "independence", "tau": 0.0},
                                   tmp_path / "reference")
        sample, sampled = cp.sample, []

        def recording(model, *args):
            sampled.append(model)
            return sample(model, *args)

        monkeypatch.setattr(cp, "sample", recording)
        got = sim.run_config({**config, "true_family": family, "tau": tau}, tmp_path / "got")
        assert sampled == [cp.CopulaModel("independence")] * 2
        assert got.read_bytes() == reference.read_bytes()

    def test_true_family_dominates_smoke(self):
        true_model = cp.tau_to_theta("clayton", -0.4)
        study = sim.run_copula_selection_study(true_model, n=4000, reps=3, seed=5)
        assert study.counts["clayton"]["bic"] == 3


class TestSerialization:
    def test_cell_tsv_and_json(self, tmp_path):
        cfg = small_cfg(k_reps=2, m=500)
        res = sim.run_cell(cfg)
        path = tmp_path / "cell.tsv"
        sim._cell_to_tsv(res, path, seed=cfg.seed)
        lines = path.read_text().splitlines()
        assert lines[0] == f"# seed: {cfg.seed}"
        assert lines[1].startswith("method\t")
        assert len(lines) == 5
        payload = json.loads(sim._cell_to_json(res, cfg))
        assert payload["config"]["m"] == 500
        assert len(payload["storey"]["v"]) == 2

    def test_misspec_tsv(self, tmp_path):
        cfg = small_cfg(k_reps=2, m=500)
        res = sim.run_misspecification(cfg, analysis_families=("clayton",), mode="refit")
        path = tmp_path / "mis.tsv"
        sim._misspecification_to_tsv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("family\t")
        assert len(lines) == 4

    def test_study_tsv(self, tmp_path):
        study = sim.run_copula_selection_study(cp.tau_to_theta("clayton", -0.4),
                                               n=1000, reps=2, seed=1)
        path = tmp_path / "study.tsv"
        sim._study_to_tsv(study, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "family\tcriterion\tn_selected\tmean\tsd"
        assert len(lines) == 1 + 3 * len(ft.DEFAULT_CANDIDATES)
