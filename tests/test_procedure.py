"""Procedure tests: aggregation, Storey machinery, two-stage pipelines."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage_fdr import copula as cp
from twostage_fdr import fit as ft
from twostage_fdr import procedure as proc
from twostage_fdr import simulate as sim
from twostage_fdr.marginal import HypothesisTable

INDEP = cp.CopulaModel("independence")
CLAYTON2 = cp.CopulaModel("clayton", 2.0)


def table_from_copula(model, n, seed):
    obs = cp.sample(model, n, seed)
    return HypothesisTable(obs.u, obs.v)


def ks_uniform(values):
    v = np.sort(np.asarray(values))
    n = v.size
    i = np.arange(1, n + 1)
    return max(np.max(i / n - v), np.max(v - (i - 1) / n))


class TestAggregatedPValues:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.1])
    def test_rejects_non_finite_and_out_of_range(self, bad):
        with pytest.raises(ValueError, match="finite"):
            proc.AggregatedPValues("raw", np.array([0.2, bad, 0.7]))
        # the size of a hard scan, the bad value in the middle
        values = np.full(8000, 0.5)
        values[4000] = bad
        with pytest.raises(ValueError, match="finite"):
            proc.AggregatedPValues("hard", values)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="must not be empty"):
            proc.AggregatedPValues("raw", np.array([]))

    @pytest.mark.parametrize("shape", [(), (3, 3), (0, 2)])
    def test_rejects_non_1d(self, shape):
        with pytest.raises(ValueError, match="1-d array"):
            proc.AggregatedPValues("hard", np.full(shape, 0.5))


class TestAggregateHard:
    def test_independence_product(self):
        t = HypothesisTable([0.4], [0.1])
        agg = proc.aggregate_hard(t, INDEP, 0.9)
        assert agg.values[0] == pytest.approx(0.09, abs=1e-12)

    def test_screen_failure_keeps_p1(self):
        t = HypothesisTable([0.95], [0.001])
        agg = proc.aggregate_hard(t, INDEP, 0.9)
        assert agg.values[0] == pytest.approx(0.95, abs=0.0)

    def test_clayton_joint_value(self):
        t = HypothesisTable([0.5], [0.5])
        agg = proc.aggregate_hard(t, CLAYTON2, 0.5)
        assert agg.values[0] == pytest.approx(7.0 ** -0.5, abs=1e-10)

    def test_branch_structure(self):
        rng = np.random.default_rng(8)
        t = HypothesisTable(rng.uniform(0.01, 0.99, 500), rng.uniform(0.01, 0.99, 500))
        for g1 in (0.3, 0.7, 0.9):
            agg = proc.aggregate_hard(t, CLAYTON2, g1)
            above = agg.values > g1
            np.testing.assert_array_equal(above, t.p1 > g1)

    def test_gamma1_domain(self):
        t = HypothesisTable([0.5], [0.5])
        with pytest.raises(ValueError):
            proc.aggregate_hard(t, INDEP, 0.0)
        with pytest.raises(ValueError):
            proc.aggregate_hard(t, INDEP, 1.0)


def gather_aggregate_hard(table, model, gamma1):
    """The merged values by definition: the CDF on the screened-in rows,
    gathered by index; the oracle of both of aggregate_hard's paths."""
    screened_in = np.flatnonzero(table.p1 <= gamma1)
    values = table.p1.copy()
    values[screened_in] = cp.cdf(model, gamma1, table.p2[screened_in])
    return values


PREFIX_RAISES = "^the screened-in rows must come first for a prepared copula CDF$"


class TestAggregateHardPaths:
    """A CopulaModel gathers the screened-in rows in any row order; a CDF
    prepared on the table's p2 takes them as the first rows, and raises
    when they are not.  Both give the gather oracle's values."""

    LEVELS = (0.005, 0.25, 0.5, 0.75, 0.995)

    @staticmethod
    def rows(order):
        rng = np.random.default_rng(32)
        p1 = rng.uniform(0.01, 0.99, 300)
        p1[:30] = 0.25  # ties on a grid level
        p2 = rng.uniform(size=300)
        p2[30:40] = 0.0
        p2[40:50] = 1.0
        p2[50:60] = 1e-10
        rows = np.argsort(p1, kind="stable")
        if order == "reverse":
            rows = rows[::-1]
        return HypothesisTable(p1[rows], p2[rows])

    def model_cdf_args(self, table, model, monkeypatch):
        """Run every level with the model; the p2 arrays its CDF saw."""
        seen = []

        def spy(m, u, v):
            seen.append(v)
            return cp.cdf(m, u, v)

        monkeypatch.setattr(proc, "copula_cdf", spy)
        for g1 in self.LEVELS:
            got = proc.aggregate_hard(table, model, g1)
            np.testing.assert_array_equal(got.values, gather_aggregate_hard(table, model, g1))
        return seen

    @pytest.mark.parametrize("order", ["p1", "reverse"])
    @pytest.mark.parametrize("model", [CLAYTON2, cp.CopulaModel("gumbel", 1.7, 90)],
                             ids=lambda m: m.describe())
    def test_model_gathers_the_screened_in_rows(self, model, order, monkeypatch):
        table = self.rows(order)
        seen = self.model_cdf_args(table, model, monkeypatch)
        assert len(seen) == len(self.LEVELS)
        for g1, v in zip(self.LEVELS, seen):
            assert not np.shares_memory(v, table.p2)  # a gathered copy, never a view
            np.testing.assert_array_equal(v, table.p2[table.p1 <= g1])

    def test_screened_in_rows_first_but_unsorted(self, monkeypatch):
        # the prepared CDF takes the levels whose screened-in rows come
        # first (none, the first three, all) and raises at the others
        table = HypothesisTable([0.2, 0.1, 0.25, 0.9, 0.5], [0.3, 0.4, 0.5, 0.6, 0.7])
        prepared = cp.cdf_of(CLAYTON2, table.p2)
        for g1 in self.LEVELS:
            if g1 in (0.5, 0.75):
                with pytest.raises(ValueError, match=PREFIX_RAISES):
                    proc.aggregate_hard(table, prepared, g1)
            else:
                got = proc.aggregate_hard(table, prepared, g1)
                np.testing.assert_array_equal(got.values,
                                              gather_aggregate_hard(table, CLAYTON2, g1))
        self.model_cdf_args(table, CLAYTON2, monkeypatch)  # the model's values, every level


class TestPreparedCdf:
    """aggregate_hard on the CDF prepared once on the table's p2."""

    MODELS = [CLAYTON2, cp.CopulaModel("gumbel", 1.7, 90), cp.CopulaModel("gaussian", -0.6),
              cp.CopulaModel("frank", 0.5), cp.CopulaModel("joe", 2.0, 180)]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.describe())
    def test_same_values_as_the_model(self, model):
        table = TestAggregateHardPaths.rows("p1")
        prepared = cp.cdf_of(model, table.p2)
        for g1 in TestAggregateHardPaths.LEVELS:
            got = proc.aggregate_hard(table, prepared, g1)
            np.testing.assert_array_equal(got.values, gather_aggregate_hard(table, model, g1))

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.describe())
    def test_reverse_order_raises_between_the_ends(self, model):
        # 0.005 screens in no row and 0.995 every row: only those come first
        table = TestAggregateHardPaths.rows("reverse")
        prepared = cp.cdf_of(model, table.p2)
        for g1 in (0.005, 0.995):
            got = proc.aggregate_hard(table, prepared, g1)
            np.testing.assert_array_equal(got.values, gather_aggregate_hard(table, model, g1))
        for g1 in (0.25, 0.5, 0.75):
            with pytest.raises(ValueError, match=PREFIX_RAISES):
                proc.aggregate_hard(table, prepared, g1)

    def test_prepared_on_another_array_raises(self):
        table = TestAggregateHardPaths.rows("p1")
        for other in (table.p2.copy(), table.p2[::-1], table.p1):
            with pytest.raises(ValueError, match="^the prepared copula CDF was not prepared "
                                                 "on this table's p2$"):
                proc.aggregate_hard(table, cp.cdf_of(CLAYTON2, other), 0.5)

    def test_one_hard_run_prepares_p2_once(self, monkeypatch):
        table = TestAggregateHardPaths.rows("reverse")
        calls = {"cdf_of": [], "copula_cdf": 0, "transform": []}

        def cdf_of_spy(model, v):
            calls["cdf_of"].append(np.array(v))
            return cp.cdf_of(model, v)

        def copula_cdf_spy(*args):
            calls["copula_cdf"] += 1
            return cp.cdf(*args)

        base = cp._BASE["clayton"]
        transform = base.cdf_v

        def transform_spy(t, v):
            calls["transform"].append(v.size)
            return transform(t, v)

        monkeypatch.setattr(proc, "cdf_of", cdf_of_spy)
        monkeypatch.setattr(proc, "copula_cdf", copula_cdf_spy)
        monkeypatch.setattr(base, "cdf_v", transform_spy)
        proc.run_two_stage_hard(table, CLAYTON2, 0.1)
        # one preparation for the 207 levels, one transform for the final
        # aggregate on the caller's rows
        assert len(calls["cdf_of"]) == 1
        np.testing.assert_array_equal(calls["cdf_of"][0], table.p2[np.argsort(table.p1)])
        assert calls["copula_cdf"] == 1
        assert len(calls["transform"]) == 2 and calls["transform"][0] == table.m


# p1 in [0, 1] with ties on the screen levels, and p2 at both ends of [0, 1]
# and 1e-12 inside them, past the copula's 1e-10 clamp
GRID = proc.default_gamma1_grid()
seam_p1 = st.one_of(st.sampled_from(GRID.tolist()), st.sampled_from([0.0, 1.0]),
                    st.floats(0.0, 1.0))
seam_p2 = st.one_of(st.sampled_from([0.0, 1.0, 1e-12, 1.0 - 1e-12]), st.floats(0.0, 1.0))


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_prepared_path_equals_the_model_path_at_every_grid_level(data):
    n = data.draw(st.integers(1, 40), label="n")
    p1 = np.sort(data.draw(st.lists(seam_p1, min_size=n, max_size=n), label="p1"))
    p2 = np.array(data.draw(st.lists(seam_p2, min_size=n, max_size=n), label="p2"))
    table = HypothesisTable(p1, p2)
    for model in TestPreparedCdf.MODELS:
        prepared = cp.cdf_of(model, table.p2)
        for g1 in GRID:
            np.testing.assert_array_equal(proc.aggregate_hard(table, prepared, g1).values,
                                          proc.aggregate_hard(table, model, g1).values,
                                          err_msg=f"{model.describe()} at {g1}")


class TestAggregateSoft:
    def test_independence_is_p2(self):
        t = HypothesisTable([0.8], [0.1])
        agg = proc.aggregate_soft(t, INDEP)
        assert agg.values[0] == pytest.approx(0.1, abs=0.0)

    def test_clayton_conditional(self):
        t = HypothesisTable([0.5], [0.5])
        agg = proc.aggregate_soft(t, CLAYTON2)
        assert agg.values[0] == pytest.approx(8.0 * 7.0 ** -1.5, rel=1e-10)

    def test_p2_one_maps_to_one(self):
        t = HypothesisTable([0.2, 0.8], [1.0, 1.0])
        agg = proc.aggregate_soft(t, CLAYTON2)
        np.testing.assert_allclose(agg.values, 1.0)


class TestPi0AndFdr:
    def test_pi0_cap(self):
        vals = np.concatenate([np.full(4000, 0.9), np.full(4000, 0.1)])
        agg = proc.AggregatedPValues("raw", vals)
        assert proc.estimate_pi0(agg, 0.5) == 1.0

    def test_pi0_arithmetic(self):
        vals = np.array([0.6, 0.7, 0.8, 0.1, 0.2, 0.3, 0.4, 0.45, 0.05, 0.5])
        agg = proc.AggregatedPValues("raw", vals)
        assert proc.estimate_pi0(agg, 0.5) == pytest.approx(0.6, abs=1e-15)

    def test_pi0_zero(self):
        agg = proc.AggregatedPValues("raw", np.full(10, 0.2))
        assert proc.estimate_pi0(agg, 0.5) == 0.0


class TestSelectGamma:
    def test_constructed_example(self):
        vals = np.concatenate([np.full(10, 0.004), np.linspace(0.5, 0.99, 90)])
        agg = proc.AggregatedPValues("raw", vals)
        gamma_hat, pi0, count = proc.select_gamma(agg, 0.05, 0.5)
        # FDR at 0.004 = pi0 * 0.004 * 100 / 10 <= 0.05 for pi0 <= 1
        assert gamma_hat >= 0.004
        assert count >= 10

    def test_all_ones(self):
        agg = proc.AggregatedPValues("raw", np.ones(50))
        gamma_hat, _, count = proc.select_gamma(agg, 0.05, 0.5)
        assert gamma_hat == 0.0
        assert count == 0

    def test_null_calibration(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            agg = proc.AggregatedPValues("raw", rng.uniform(size=10_000))
            _, _, count = proc.select_gamma(agg, 0.05, 0.5)
            if count / 10_000 <= 0.001:
                hits += 1
        assert hits >= 19

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(123)
        vals = np.concatenate([rng.uniform(0, 0.01, 50), rng.uniform(size=950)])
        agg = proc.AggregatedPValues("raw", vals)
        prev = -1.0
        for alpha in (0.01, 0.05, 0.1, 0.2, 0.4):
            gamma_hat, _, count = proc.select_gamma(agg, alpha, 0.5)
            assert gamma_hat >= prev
            prev = gamma_hat


def brute_force_hard_counts(table, model, grid, alpha, lambda_):
    """Direct re-implementation of the per-level scan, loop based."""
    out = []
    for g1 in grid:
        values = []
        for i in range(table.m):
            if table.p1[i] <= g1:
                values.append(cp.cdf(model, g1, float(table.p2[i])))
            else:
                values.append(float(table.p1[i]))
        values = np.array(values)
        m = values.size
        pi0 = min(np.sum(values > lambda_) / ((1 - lambda_) * m), 1.0)
        best = 0
        for g in values:
            r = int(np.sum(values <= g))
            if pi0 * g * m / max(r, 1) <= alpha:
                best = max(best, r)
        out.append(best)
    return out


class TestTwoStageHard:
    def test_levels_scan_rows_in_p1_order(self, monkeypatch):
        table = table_from_copula(CLAYTON2, 500, 12)
        tables = []

        def spy(t, model, gamma1):
            tables.append(t)
            return aggregate_hard(t, model, gamma1)

        aggregate_hard = proc.aggregate_hard
        monkeypatch.setattr(proc, "aggregate_hard", spy)
        proc.run_two_stage_hard(table, CLAYTON2, 0.1)
        levels, final = tables[:-1], tables[-1]
        assert len(levels) == proc.default_gamma1_grid().size
        assert all(t is levels[0] for t in levels)
        assert np.all(np.diff(levels[0].p1) >= 0.0)
        assert final is table

    def test_against_brute_force_scan(self):
        rng = np.random.default_rng(99)
        m = 300
        p1 = rng.uniform(0.001, 0.999, m)
        p2 = np.where(rng.random(m) < 0.1, rng.uniform(0, 0.01, m), rng.uniform(size=m))
        t = HypothesisTable(p1, p2)
        grid = np.array([0.2, 0.5, 0.8, 0.95])
        outcome = proc.run_two_stage_hard(t, INDEP, 0.1, 0.5, gamma1_grid=grid)
        expected = brute_force_hard_counts(t, INDEP, grid, 0.1, 0.5)
        got = [c for _, c in outcome.rejections_by_gamma1]
        assert got == expected
        best = int(np.argmax(expected))
        assert outcome.gamma1_hat == pytest.approx(grid[best])
        assert outcome.n_rejected == expected[best]

    def test_single_point_grid(self):
        t = table_from_copula(cp.tau_to_theta("clayton", -0.4), 500, 3)
        outcome = proc.run_two_stage_hard(t, cp.tau_to_theta("clayton", -0.4),
                                          0.05, 0.5, gamma1_grid=[0.6])
        assert outcome.gamma1_hat == 0.6

    def test_rejection_count_invariant(self):
        t = table_from_copula(cp.tau_to_theta("clayton", -0.4), 2000, 5)
        outcome = proc.run_two_stage_hard(t, cp.tau_to_theta("clayton", -0.4), 0.05)
        assert outcome.n_rejected == np.sum(outcome.aggregated.values <= outcome.gamma_hat)
        fdr_at_hat = (outcome.pi0_hat * outcome.gamma_hat * outcome.aggregated.m
                      / max(outcome.n_rejected, 1))
        assert fdr_at_hat <= 0.05 + 1e-12

    def test_grid_validation(self):
        t = HypothesisTable([0.5], [0.5])
        with pytest.raises(ValueError):
            proc.run_two_stage_hard(t, INDEP, 0.05, 0.5, gamma1_grid=[])
        with pytest.raises(ValueError):
            proc.run_two_stage_hard(t, INDEP, 0.05, 0.5, gamma1_grid=[0.0, 0.5])
        with pytest.raises(ValueError, match="inside"):
            proc.run_two_stage_hard(t, INDEP, 0.05, 0.5, gamma1_grid=[0.5, float("nan")])
        for grid in ([0.97, 0.95], [0.5, 0.5], [0.2, 0.6, 0.4]):
            with pytest.raises(ValueError, match="strictly increasing"):
                proc.run_two_stage_hard(t, INDEP, 0.05, 0.5, gamma1_grid=grid)
        for grid, shape in ((0.5, r"\(\)"), ([[0.1, 0.2], [0.3, 0.4]], r"\(2, 2\)")):
            with pytest.raises(ValueError, match=f"1-d array, got shape {shape}"):
                proc.run_two_stage_hard(t, INDEP, 0.05, 0.5, gamma1_grid=grid)

    def test_tied_levels_resolve_to_the_smallest(self):
        # levels 0.95 and 0.97 both reject 58 here, with different rejected sets;
        # in an increasing grid the first maximum is the smallest level
        cfg = sim.SimulationConfig(m=2000, seed=1)
        table, _ = sim.generate_dataset(cfg, 0)
        obs = cp.PseudoObservations(table.p1, table.p2)
        model = sim.analysis_model(cfg.dep_family, ft.empirical_kendall_tau(obs))
        outcome = proc.run_two_stage_hard(table, model, cfg.alpha, cfg.lambda_,
                                          gamma1_grid=[0.95, 0.97])
        assert outcome.rejections_by_gamma1 == ((0.95, 58), (0.97, 58))
        assert outcome.gamma1_hat == 0.95
        at_97 = proc.run_two_stage_hard(table, model, cfg.alpha, cfg.lambda_,
                                        gamma1_grid=[0.97])
        assert not np.array_equal(outcome.rejected, at_97.rejected)

    def test_rejection_curve_rises_then_falls(self):
        # on dependent data with signal the count peaks at an interior screen level
        cfg = sim.SimulationConfig(m=4000, mu=3.0, tau=-0.4, p0=0.95,
                                   k_reps=1, seed=424)
        table, _ = sim.generate_dataset(cfg, 0)
        obs = cp.PseudoObservations(table.p1, table.p2)
        model = sim.analysis_model(cfg.dep_family, ft.empirical_kendall_tau(obs))
        outcome = proc.run_two_stage_hard(table, model, 0.05)
        counts = np.array([c for _, c in outcome.rejections_by_gamma1])
        peak = int(np.argmax(counts))
        assert 0 < peak < counts.size - 1
        assert counts[0] < counts[peak]
        assert counts[-1] < counts[peak]


def seed_select_gamma(values, alpha, lambda_):
    """Threshold scan of the original code: R(gamma) by searchsorted."""
    m = values.size
    pi0 = min(np.count_nonzero(values > lambda_) / ((1.0 - lambda_) * m), 1.0)
    vals = np.sort(values)
    counts = np.searchsorted(vals, vals, side="right")
    fdr = pi0 * vals * m / np.maximum(counts, 1)
    ok = np.nonzero(fdr <= alpha)[0]
    if ok.size == 0:
        return 0.0, pi0, 0
    return float(vals[ok[-1]]), pi0, int(counts[ok[-1]])


def seed_hard_scan(table, model, alpha, lambda_=0.5, grid=None):
    """Hard procedure of the original code: every level aggregates all M
    rows with np.where and thresholds with seed_select_gamma."""
    grid = proc.default_gamma1_grid() if grid is None else np.asarray(grid, float)

    def aggregate(g1):
        return np.where(table.p1 <= g1, cp.cdf(model, g1, table.p2), table.p1)

    counts = [seed_select_gamma(aggregate(g1), alpha, lambda_)[2] for g1 in grid]
    gamma1_hat = float(grid[np.argmax(counts)])
    values = aggregate(gamma1_hat)
    gamma_hat, pi0, _ = seed_select_gamma(values, alpha, lambda_)
    rejected = values <= gamma_hat
    curve = tuple((float(g), int(c)) for g, c in zip(grid, counts))
    return gamma1_hat, gamma_hat, pi0, rejected, curve, values


def assert_matches_seed_scan(table, model, alpha, grid=None):
    got = proc.run_two_stage_hard(table, model, alpha, 0.5, gamma1_grid=grid)
    gamma1_hat, gamma_hat, pi0, rejected, curve, values = seed_hard_scan(
        table, model, alpha, 0.5, grid)
    assert got.gamma1_hat == gamma1_hat
    assert got.gamma_hat == gamma_hat
    assert got.pi0_hat == pi0
    np.testing.assert_array_equal(got.rejected, rejected)
    assert got.rejections_by_gamma1 == curve
    np.testing.assert_array_equal(got.aggregated.values, values)


ORACLE_MODELS = (
    [cp.CopulaModel("independence"), cp.tau_to_theta("gaussian", -0.4),
     cp.tau_to_theta("frank", -0.4)]
    + [cp.CopulaModel(fam, cp.tau_to_theta(fam, 0.4).theta, rot)
       for fam in cp.ROTATABLE for rot in cp.ROTATIONS]
)


class TestHardMatchesSeedScan:
    """The screened-in-only aggregation and the rank-based threshold scan
    reproduce the original full-table scan exactly."""

    @pytest.mark.parametrize("alpha", [0.05, 0.10])
    @pytest.mark.parametrize("model", ORACLE_MODELS, ids=lambda m: m.describe())
    def test_simulated_tables(self, model, alpha):
        tau = 0.0 if model.family == "independence" else -0.4
        cfg = sim.SimulationConfig(m=2000, mu=3.0, tau=tau, p0=0.9,
                                   dep_family=model.family, k_reps=1, seed=2718)
        table, _ = sim.generate_dataset(cfg, 0)
        assert_matches_seed_scan(table, model, alpha)

    @pytest.mark.parametrize("model", ORACLE_MODELS, ids=lambda m: m.describe())
    def test_edge_tables(self, model):
        rng = np.random.default_rng(31)
        m = 400
        p1 = rng.uniform(0.01, 0.99, m)
        p1[:40] = 0.25      # exactly on a grid level
        p1[40:60] = 0.5
        p2 = rng.uniform(size=m)
        p2[60:80] = 0.0
        p2[80:100] = 1.0
        p2[100:140] = 1e-10  # the boundary clamp
        p2[140:170] = rng.uniform(0, 1e-4, 30)
        table = HypothesisTable(p1, p2)
        # 0.005 screens in no row, 0.995 screens in every row
        grid = [0.005, 0.25, 0.5, 0.75, 0.995]
        for alpha in (0.05, 0.10):
            assert_matches_seed_scan(table, model, alpha, grid)


def widest_inversion(values):
    """The largest j - i over i < j with values[i] > values[j]; 0 when the
    values are nondecreasing."""
    after = np.searchsorted(np.maximum.accumulate(values), values, side="right")
    gaps = np.arange(values.size) - after
    return int(gaps.max(initial=0))


def assert_scan_never_falls(family, tau, edge_p2=()):
    """At every default grid level the hard scan's C(g1, p2) over the rows
    with p1 <= g1, in p2 order, never falls.  The rows of smallest p1,
    screened in at every level, and as many from the middle of the p1 order
    take edge_p2 as their p2."""
    cfg = sim.SimulationConfig(m=8000, tau=tau, dep_family=family, seed=0)
    table, _ = sim.generate_dataset(cfg, 0)
    model = sim.analysis_model(family, tau)
    assert model.rotation == cp.orientation(family, tau)[0]
    order = np.argsort(table.p1)
    p1, p2 = table.p1[order], table.p2[order].copy()
    for start in (0, p2.size // 2):
        p2[start:start + len(edge_p2)] = edge_p2
    cdf_on_p2 = cp.cdf_of(model, p2)
    widths = {}
    for g1 in proc.default_gamma1_grid():
        k = int(np.count_nonzero(p1 <= g1))
        width = widest_inversion(cdf_on_p2(g1, k)[np.argsort(p2[:k])])
        if width:
            widths[float(g1)] = width
    assert not widths, (f"{len(widths)} levels fall, widest inversion "
                        f"{max(widths.values())} rows at g1 = {max(widths, key=widths.get)}")


@pytest.mark.parametrize("tau", [-0.4, -0.8])
@pytest.mark.parametrize("family", ft.DEFAULT_CANDIDATES)
def test_scan_cdf_is_nondecreasing_in_p2_over_the_screened_in_rows(family, tau):
    """At every default grid level the hard scan's C(g1, p2) over the rows
    with p1 <= g1, in p2 order, never falls: a candidate-only scan relies
    on it."""
    assert_scan_never_falls(family, tau)


# p2 past the clamp interior on both sides, both ends among them
EDGE_P2 = (0.0, 2.0 ** -1074, 1e-300, 1e-12, 5e-11, 1.0 - 5e-11, 1.0 - 1e-12,
           1.0 - 2.0 ** -53, 1.0)


@pytest.mark.parametrize("tau", [-0.4, -0.8])
@pytest.mark.parametrize("family", ft.DEFAULT_CANDIDATES)
def test_scan_cdf_is_nondecreasing_in_p2_past_the_clamp_interior(family, tau):
    """As above, with screened-in rows whose p2 lies in [0, 1e-10) and in
    (1 - 1e-10, 1] at every level: the edge rule holds those values to the
    Frechet bounds, so that no p2 past the interior needs a block of its own."""
    assert_scan_never_falls(family, tau, EDGE_P2)


tie_values = st.lists(
    st.one_of(st.just(0.0), st.just(1.0),
              st.floats(0.0, 1.0).map(lambda x: round(x, 2))),
    min_size=1, max_size=300,
)


@settings(max_examples=300, deadline=None)
@given(values=tie_values,
       alpha=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
       lambda_=st.floats(0.01, 0.99))
def test_select_gamma_matches_searchsorted_under_ties(values, alpha, lambda_):
    vals = np.array(values)
    got = proc.select_gamma(proc.AggregatedPValues("raw", vals), alpha, lambda_)
    assert got == seed_select_gamma(vals, alpha, lambda_)


# Cases at the edges of select_gamma's candidate cut alpha / pi0:
# (values, alpha, lambda, expected (gamma_hat, R)).
CUT_EDGE_CASES = {
    # no value above lambda: pi0 = 0, every value is a candidate and passes
    "pi0_zero": ([0.3, 0.1, 0.2, 0.1], 0.05, 0.5, (0.3, 4)),
    "pi0_zero_alpha_zero": ([0.3, 0.1, 0.0], 0.0, 0.5, (0.3, 3)),
    # alpha = 0: the cut is 0 and only the zeros pass
    "alpha_zero": ([0.0, 0.9, 0.0, 0.2, 0.7], 0.0, 0.5, (0.0, 2)),
    # pi0 = 1, and the largest passing value is alpha / pi0 itself
    "at_the_cut": ([0.9, 0.1], 0.9, 0.5, (0.9, 2)),
    # pi0 = 1 / 1.08 and alpha / pi0 = 0.5832; the next double above it
    # still passes once the estimate is rounded
    "one_ulp_past_the_cut": ([0.2, np.nextafter(0.54 / (1.0 / 1.08), 1.0)], 0.54, 0.46,
                             (np.nextafter(0.5832, 1.0), 2)),
    # pi0 = 1 and no value at or below the cut 0.05
    "nothing_below_the_cut": ([0.6, 0.7, 0.8], 0.05, 0.5, (0.0, 0)),
}


@pytest.mark.parametrize("case", list(CUT_EDGE_CASES.values()), ids=list(CUT_EDGE_CASES))
def test_select_gamma_cut_edges(case):
    values, alpha, lambda_, (gamma_hat, count) = case
    vals = np.array(values)
    got = proc.select_gamma(proc.AggregatedPValues("raw", vals), alpha, lambda_)
    assert got == seed_select_gamma(vals, alpha, lambda_)
    assert got[0] == gamma_hat and got[2] == count


# Ties from two-decimal rounding plus both ends of the 1e-10 clamp.  p1 and p2
# may also reach 0 and 1, which HypothesisTable accepts.
clamp_ends = st.sampled_from([1e-10, 1.0 - 1e-10])
p1_values = st.one_of(clamp_ends, st.sampled_from([0.0, 1.0]),
                      st.floats(0.01, 0.99).map(lambda x: round(x, 2)))
p2_values = st.one_of(clamp_ends, st.floats(0.0, 1.0).map(lambda x: round(x, 2)))
PERMUTATION_MODELS = (INDEP, cp.tau_to_theta("clayton", -0.4))


def run_every_procedure(table, alpha):
    out = {"storey": proc.run_one_stage_storey(table, alpha)}
    for model in PERMUTATION_MODELS:
        out[f"soft {model.describe()}"] = proc.run_two_stage_soft(table, model, alpha)
        out[f"hard {model.describe()}"] = proc.run_two_stage_hard(
            table, model, alpha, gamma1_grid=[0.1, 0.5, 0.9])
    return out


@settings(max_examples=100, deadline=None)
@given(data=st.data(), alpha=st.sampled_from([0.0, 0.05, 0.2, 0.5]))
def test_row_permutation_permutes_the_rejected_mask_only(data, alpha):
    n = data.draw(st.integers(1, 60), label="n")
    p1 = np.array(data.draw(st.lists(p1_values, min_size=n, max_size=n), label="p1"))
    p2 = np.array(data.draw(st.lists(p2_values, min_size=n, max_size=n), label="p2"))
    perm = np.array(data.draw(st.permutations(range(n)), label="perm"))
    base = run_every_procedure(HypothesisTable(p1, p2), alpha)
    moved = run_every_procedure(HypothesisTable(p1[perm], p2[perm]), alpha)
    for name, outcome in base.items():
        other = moved[name]
        np.testing.assert_array_equal(other.rejected, outcome.rejected[perm], err_msg=name)
        assert ((other.gamma_hat, other.pi0_hat, other.gamma1_hat, other.rejections_by_gamma1)
                == (outcome.gamma_hat, outcome.pi0_hat, outcome.gamma1_hat,
                    outcome.rejections_by_gamma1)), name
        assert outcome.n_rejected == proc.select_gamma(outcome.aggregated, alpha, 0.5)[2], name


class TestTwoStageSoft:
    def test_independence_equals_storey(self):
        rng = np.random.default_rng(17)
        m = 2000
        p2 = np.where(rng.random(m) < 0.05, rng.uniform(0, 0.001, m), rng.uniform(size=m))
        t = HypothesisTable(rng.uniform(0.001, 0.999, m), p2)
        soft = proc.run_two_stage_soft(t, INDEP, 0.1)
        storey = proc.run_one_stage_storey(t, 0.1)
        np.testing.assert_array_equal(soft.rejected, storey.rejected)
        assert soft.gamma_hat == pytest.approx(storey.gamma_hat)

    def test_all_p2_one(self):
        t = HypothesisTable([0.2, 0.5, 0.8], [1.0, 1.0, 1.0])
        outcome = proc.run_two_stage_soft(t, CLAYTON2, 0.1)
        assert outcome.n_rejected == 0


class TestStorey:
    def test_empty_table_rejected_upstream(self):
        with pytest.raises(ValueError):
            HypothesisTable([], [])

    def test_alpha_zero(self):
        t = HypothesisTable([0.5, 0.6], [0.2, 0.9])
        outcome = proc.run_one_stage_storey(t, 0.0)
        assert outcome.n_rejected == 0


@pytest.mark.parametrize("family,tau", [
    ("gaussian", -0.4), ("frank", -0.4), ("clayton", -0.4),
    ("gumbel", -0.4), ("joe", -0.4),
])
class TestNullUniformity:
    """Merged p-values are uniform when the model matches the null coupling."""

    def test_hard_uniform(self, family, tau):
        model = cp.tau_to_theta(family, tau)
        t = table_from_copula(model, 20_000, 271)
        crit = 1.63 / np.sqrt(t.m)
        for g1 in (0.3, 0.7, 0.9):
            agg = proc.aggregate_hard(t, model, g1)
            assert ks_uniform(agg.values) < crit, (family, g1)

    def test_soft_uniform(self, family, tau):
        model = cp.tau_to_theta(family, tau)
        t = table_from_copula(model, 20_000, 272)
        agg = proc.aggregate_soft(t, model)
        assert ks_uniform(agg.values) < 1.63 / np.sqrt(t.m)


def test_joint_probability_identity():
    # P(p_hard <= gamma, p1 <= gamma1) = P(p1 <= gamma1, p2 <= gamma2)
    # with gamma = C(gamma1, gamma2); two independent samples must agree.
    model = cp.tau_to_theta("clayton", -0.4)
    n = 50_000
    for gamma1, gamma2 in ((0.5, 0.1), (0.9, 0.05)):
        gamma = cp.cdf(model, gamma1, gamma2)
        t1 = table_from_copula(model, n, 31)
        agg = proc.aggregate_hard(t1, model, gamma1)
        lhs = np.mean((agg.values <= gamma) & (t1.p1 <= gamma1))
        t2 = table_from_copula(model, n, 32)
        rhs = np.mean((t2.p1 <= gamma1) & (t2.p2 <= gamma2))
        se = np.sqrt(lhs * (1 - lhs) / n + rhs * (1 - rhs) / n)
        assert abs(lhs - rhs) <= 3.0 * se


class TestSerialization:
    def test_outcome_json(self):
        t = HypothesisTable([0.5, 0.6], [0.001, 0.9])
        outcome = proc.run_one_stage_storey(t, 0.1)
        payload = json.loads(proc.outcome_to_json(outcome, ["b", "a"], seed=42))
        assert payload["method"] == "storey"
        assert payload["seed"] == 42
        assert payload["n_rejected"] == len(payload["rejected"])
        with pytest.raises(ValueError, match="ids"):
            proc.outcome_to_json(outcome, ["a"])

    def test_outcome_json_sorts_rejected_ids(self):
        t = HypothesisTable([0.5, 0.6, 0.7, 0.8], [0.001, 0.9, 0.0005, 0.95])
        outcome = proc.run_one_stage_storey(t, 0.1)
        np.testing.assert_array_equal(outcome.rejected, [True, False, True, False])
        payload = json.loads(proc.outcome_to_json(outcome, ["z", "y", "x", "w"]))
        assert payload["rejected"] == ["x", "z"]

    def test_decision_tsv(self, tmp_path):
        t = HypothesisTable([0.5, 0.6, 0.7], [0.001, 0.9, 0.5])
        outcome = proc.run_one_stage_storey(t, 0.1)
        path = tmp_path / "decisions.tsv"
        proc.write_decisions_tsv(["a", "b", "c"], t, outcome, path, seed=1)
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed: 1"
        assert lines[1] == "id\tp1\tp2\tp_aggregated\trejected"
        assert len(lines) == 5
        assert lines[2] == "a\t0.5\t0.001\t0.001\t1"
        assert lines[3] == "b\t0.6\t0.9\t0.9\t0"
        with pytest.raises(ValueError, match="ids"):
            proc.write_decisions_tsv(["a", "b"], t, outcome, path)

    def test_gamma1_curve_tsv(self, tmp_path):
        t = table_from_copula(cp.tau_to_theta("clayton", -0.4), 500, 3)
        outcome = proc.run_two_stage_hard(t, cp.tau_to_theta("clayton", -0.4), 0.05,
                                          gamma1_grid=[0.3, 0.6, 0.9])
        path = tmp_path / "curve.tsv"
        proc.write_gamma1_curve_tsv(outcome, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "gamma1\tn_rejected"
        assert len(lines) == 4
        storey = proc.run_one_stage_storey(t, 0.1)
        with pytest.raises(ValueError):
            proc.write_gamma1_curve_tsv(storey, path)
