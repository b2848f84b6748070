"""Ingestion and exhaustive-bootstrap tests."""

import gzip
import itertools
import math
import re
import statistics

import numpy as np
import pytest

from twostage_fdr import ingest as ig


def oracle_bootstrap_folds(ko, wt):
    """Independent enumeration: plain double loop, stdlib arithmetic."""
    r = len(ko)
    folds = []
    for ko_pick in itertools.product(range(r), repeat=r):
        ko_mean = statistics.mean(ko[i] for i in ko_pick)
        for wt_pick in itertools.product(range(r), repeat=r):
            wt_mean = statistics.mean(wt[i] for i in wt_pick)
            folds.append(math.log2(ko_mean / wt_mean))
    return folds


class TestLogfold:
    def test_equal_conditions(self):
        assert ig.logfold([3.0, 3.0, 3.0], [3.0, 3.0, 3.0]) == 0.0

    def test_doubling(self):
        assert ig.logfold([4.0, 4.0, 4.0], [2.0, 2.0, 2.0]) == 1.0

    def test_halving(self):
        assert ig.logfold([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == -1.0

    def test_nonpositive_mean(self):
        with pytest.raises(ValueError):
            ig.logfold([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])


class TestBootstrap:
    def test_constant_replicates(self):
        sd, count = ig.bootstrap_sd([5.0, 5.0, 5.0], [2.0, 2.0, 2.0])
        assert sd == 0.0
        assert count == 729

    def test_count_is_729_for_triplicates(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            ko = rng.uniform(1.0, 10.0, 3)
            wt = rng.uniform(1.0, 10.0, 3)
            _, count = ig.bootstrap_sd(ko, wt)
            assert count == 729

    def test_multiset_matches_oracle_simple(self):
        got = ig.bootstrap_logfolds([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        expected = oracle_bootstrap_folds([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        np.testing.assert_allclose(np.sort(got), np.sort(expected), atol=1e-12)
        sd, count = ig.bootstrap_sd([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        assert sd == pytest.approx(statistics.stdev(expected), abs=1e-12)
        assert count == 729

    def test_multiset_matches_oracle_random_genes(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            ko = rng.uniform(0.5, 50.0, 3).tolist()
            wt = rng.uniform(0.5, 50.0, 3).tolist()
            got = np.sort(ig.bootstrap_logfolds(ko, wt))
            expected = np.sort(oracle_bootstrap_folds(ko, wt))
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_permutation_invariance(self):
        ko, wt = [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]
        base_sd, _ = ig.bootstrap_sd(ko, wt)
        for ko_perm in itertools.permutations(ko):
            sd, _ = ig.bootstrap_sd(list(ko_perm), wt)
            assert sd == pytest.approx(base_sd, abs=1e-14)

    def test_scaling_invariance(self):
        ko, wt = [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]
        base = np.sort(ig.bootstrap_logfolds(ko, wt))
        scaled = np.sort(ig.bootstrap_logfolds([7.0 * k for k in ko],
                                               [7.0 * w for w in wt]))
        np.testing.assert_allclose(base, scaled, atol=1e-12)

    def test_combination_cap(self):
        with pytest.raises(ValueError, match="cap"):
            ig.bootstrap_logfolds(np.ones(5), np.ones(5))

    def test_four_replicates_supported(self):
        sd, count = ig.bootstrap_sd([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 2.0, 2.0])
        assert count == 4 ** 4 * 4 ** 4
        assert sd > 0.0


def oracle_summary_sd(ko, wt):
    """Per-gene SD straight from the enumerated bootstrap log-folds."""
    return float(np.std(ig.bootstrap_logfolds(ko, wt), ddof=1))


def random_genes(rng, n_genes, r):
    """Random positive genes with some rows constant in one or both conditions."""
    ko = rng.uniform(0.5, 50.0, (n_genes, r))
    wt = rng.uniform(0.5, 50.0, (n_genes, r))
    ko[0] = wt[0] = 7.3  # constant in both, equal levels
    ko[1], wt[1] = 0.1, 3.0  # constant in both, repeating-decimal level
    ko[2] = 4.0  # constant KO only
    wt[3] = 0.3  # constant WT only
    return ko, wt


class TestClosedFormSummary:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_matches_enumeration_oracle(self, r):
        rng = np.random.default_rng(100 + r)
        ko, wt = random_genes(rng, 12, r)
        summary = ig.summarize(ig.ReplicateData([f"g{i}" for i in range(12)], ko, wt))
        for i in range(12):
            assert summary.beta_hat[i] == ig.logfold(ko[i], wt[i])
            if r == 1 or i < 2:
                assert summary.sd_boot[i] == 0.0
            else:
                expected = oracle_summary_sd(ko[i], wt[i])
                assert expected > 0.0
                assert summary.sd_boot[i] == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert ig.bootstrap_sd(ko[i], wt[i])[0] == summary.sd_boot[i]

    def test_blocks_give_the_same_values(self, monkeypatch):
        rng = np.random.default_rng(7)
        ko, wt = random_genes(rng, 9, 3)  # blocks of 4, 4 and 1 genes
        data = ig.ReplicateData([f"g{i}" for i in range(9)], ko, wt)
        whole = ig.summarize(data)
        monkeypatch.setattr(ig, "BOOTSTRAP_BLOCK_GENES", 4)
        blocked = ig.summarize(data)
        np.testing.assert_array_equal(blocked.sd_boot, whole.sd_boot)
        np.testing.assert_array_equal(blocked.beta_hat, whole.beta_hat)

    def test_five_replicates_hit_the_cap(self):
        data = ig.ReplicateData(["g1"], np.ones((1, 5)), np.ones((1, 5)))
        with pytest.raises(ValueError, match="cap"):
            ig.summarize(data)
        with pytest.raises(ValueError, match="cap"):
            ig.bootstrap_sd(np.ones(5), np.ones(5))


class TestFoldChangeSummaryChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_beta_rejected(self, bad):
        with pytest.raises(ValueError, match="beta_hat"):
            ig.FoldChangeSummary(("g1", "g2"), [0.1, bad], [0.2, 0.3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1])
    def test_bad_sd_rejected(self, bad):
        with pytest.raises(ValueError, match="sd_boot"):
            ig.FoldChangeSummary(("g1", "g2"), [0.1, 0.2], [0.2, bad])


def write_counts(path, rows, header="gene_id\tko_1\tko_2\tko_3\twt_1\twt_2\twt_3"):
    path.write_text("\n".join([header] + rows) + "\n")


class TestReadCounts:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "counts.tsv"
        write_counts(path, ["g1\t1\t2\t3\t4\t5\t6", "g2\t2\t2\t2\t3\t3\t3"])
        data = ig.read_counts(path)
        assert data.ids == ("g1", "g2")
        assert data.r == 3
        np.testing.assert_array_equal(data.ko[0], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(data.wt[1], [3.0, 3.0, 3.0])

    def test_zero_count_names_row(self, tmp_path):
        path = tmp_path / "counts.tsv"
        write_counts(path, ["g1\t1\t2\t3\t4\t5\t6", "g2\t0\t2\t2\t3\t3\t3"])
        with pytest.raises(ValueError, match="line 3"):
            ig.read_counts(path)

    def test_crlf_equals_lf(self, tmp_path):
        rows = ["g1\t1\t2\t3\t4\t5\t6", "g2\t2\t2\t2\t3\t3\t3"]
        lf = tmp_path / "lf.tsv"
        crlf = tmp_path / "crlf.tsv"
        write_counts(lf, rows)
        crlf.write_bytes(lf.read_text().replace("\n", "\r\n").encode())
        a = ig.read_counts(lf)
        b = ig.read_counts(crlf)
        assert a.ids == b.ids
        np.testing.assert_array_equal(a.ko, b.ko)

    def test_gzip_by_extension(self, tmp_path):
        rows = ["g1\t1\t2\t3\t4\t5\t6"]
        plain = tmp_path / "counts.tsv"
        write_counts(plain, rows)
        gz = tmp_path / "counts.tsv.gz"
        with gzip.open(gz, "wt", encoding="utf-8") as fh:
            fh.write(plain.read_text())
        a = ig.read_counts(plain)
        b = ig.read_counts(gz)
        assert a.ids == b.ids
        np.testing.assert_array_equal(a.wt, b.wt)

    def test_duplicate_ids(self, tmp_path):
        path = tmp_path / "counts.tsv"
        write_counts(path, ["g1\t1\t2\t3\t4\t5\t6", "g1\t2\t2\t2\t3\t3\t3"])
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: line 3: duplicate gene id 'g1'")):
            ig.read_counts(path)

    def test_short_row(self, tmp_path):
        path = tmp_path / "counts.tsv"
        write_counts(path, ["g1\t1\t2\t3\t4\t5"])
        with pytest.raises(ValueError, match="line 2"):
            ig.read_counts(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "counts.tsv"
        write_counts(path, ["g1\t1\t2\tx\t4\t5\t6"])
        with pytest.raises(ValueError, match="non-numeric"):
            ig.read_counts(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            ig.read_counts(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_names_row(self, tmp_path, cell):
        path = tmp_path / "counts.tsv"
        write_counts(path, ["g1\t1\t2\t3\t4\t5\t6", f"g2\t1\t{cell}\t3\t4\t5\t6"])
        with pytest.raises(ValueError, match="line 3: non-finite count"):
            ig.read_counts(path)

    def test_negative_count_names_row(self, tmp_path):
        path = tmp_path / "counts.tsv"
        write_counts(path, ["g1\t1\t2\t3\t4\t5\t-6"])
        with pytest.raises(ValueError, match="line 2: counts must be positive"):
            ig.read_counts(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("gene\tko_1\twt_1\n")
        with pytest.raises(ValueError, match="gene_id"):
            ig.read_counts(path)


class TestSummary:
    def test_summarize_and_round_trip(self, tmp_path):
        data = ig.ReplicateData(("g1", "g2"),
                                np.array([[1.0, 2.0, 3.0], [4.0, 4.0, 4.0]]),
                                np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]))
        summary = ig.summarize(data)
        assert summary.beta_hat[0] == pytest.approx(ig.logfold([1, 2, 3], [1, 1, 1]))
        assert summary.beta_hat[1] == 1.0
        assert summary.sd_boot[1] == 0.0
        path = tmp_path / "summary.tsv"
        ig.write_summary(summary, path)
        ids, beta_hat, sd_boot = ig.read_hypotheses(path)
        assert tuple(ids) == summary.ids
        np.testing.assert_array_equal(beta_hat, summary.beta_hat)
        np.testing.assert_array_equal(sd_boot, summary.sd_boot)


class TestReadHypotheses:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        summary = ig.FoldChangeSummary([f"g{i}" for i in range(50)], rng.normal(size=50),
                                       rng.gamma(3.0, 0.25, size=50))
        plain, gz = tmp_path / "summary.tsv", tmp_path / "summary.tsv.gz"
        ig.write_summary(summary, plain)
        ig.write_summary(summary, gz)
        for path in (plain, gz):
            ids, beta_hat, sd_boot = ig.read_hypotheses(path)
            assert tuple(ids) == summary.ids
            np.testing.assert_array_equal(beta_hat, summary.beta_hat)
            np.testing.assert_array_equal(sd_boot, summary.sd_boot)

    def test_id_and_y_columns_in_any_order(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("y\tbeta_hat\tid\n0.2\t0.5\ta\n\n0.3\t-1.5\tb\n")
        ids, beta_hat, y = ig.read_hypotheses(path)
        assert ids == ["a", "b"]
        np.testing.assert_array_equal(beta_hat, [0.5, -1.5])
        np.testing.assert_array_equal(y, [0.2, 0.3])

    def test_names_non_numeric_line(self, tmp_path):
        path = tmp_path / "summary.tsv"
        path.write_text("gene_id\tbeta_hat\tsd_boot\ng1\t0.1\t0.2\ng2\tabc\t0.3\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: ") + ".*'abc'"):
            ig.read_hypotheses(path)

    def test_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "summary.tsv"
        path.write_text("gene_id\tbeta_hat\tsd_boot\n"
                        "g1\t0.1\t0.2\ng2\t0.1\t0.2\n\ng1\t0.3\t0.4\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 5: duplicate id 'g1'")):
            ig.read_hypotheses(path)

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("gene_id\tbeta_hat\n", "need columns"),
        ("gene_id\tbeta_hat\tsd_boot\n", "no data rows"),
        ("gene_id\tbeta_hat\tsd_boot\ng1\t0.1\n", "line 2: expected 3 columns"),
    ])
    def test_malformed_input(self, tmp_path, text, message):
        path = tmp_path / "summary.tsv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + message):
            ig.read_hypotheses(path)
