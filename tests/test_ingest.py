"""Ingestion and exhaustive-bootstrap tests."""

import gzip
import itertools
import math
import re
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage_fdr import ingest as ig


def enumerated_logfolds(ko, wt):
    """All r^r x r^r bootstrap log-fold changes of one gene (KO resamples
    outer), one with-replacement resample at a time: the reference that
    summarize's closed-form SD is tested against."""
    ko_means = [statistics.fmean(pick) for pick in itertools.product(ko, repeat=len(ko))]
    wt_means = [statistics.fmean(pick) for pick in itertools.product(wt, repeat=len(wt))]
    return [math.log2(a / b) for a in ko_means for b in wt_means]


def oracle_logfold(ko, wt):
    """log2 of the ratio of condition means, knockout over wildtype: the
    one-gene rule that summarize's beta_hat must reproduce bit for bit."""
    ko_mean = float(np.mean(ko))
    wt_mean = float(np.mean(wt))
    if ko_mean <= 0.0 or wt_mean <= 0.0:
        raise ValueError("condition means must be positive")
    return float(np.log2(ko_mean / wt_mean))


def summarize_one(ko, wt):
    """summarize on a one-gene ReplicateData: (beta_hat, sd_boot)."""
    summary = ig.summarize(ig.ReplicateData(("g1",), [ko], [wt]))
    return summary.beta_hat[0], summary.sd_boot[0]


class TestLogfold:
    """summarize's beta_hat, the one home of the log-fold rule."""

    def test_equal_conditions(self):
        assert summarize_one([3.0, 3.0, 3.0], [3.0, 3.0, 3.0])[0] == 0.0

    def test_doubling(self):
        assert summarize_one([4.0, 4.0, 4.0], [2.0, 2.0, 2.0])[0] == 1.0

    def test_halving(self):
        assert summarize_one([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])[0] == -1.0

    def test_nonpositive_mean(self):
        with pytest.raises(ValueError, match="^counts must be positive$"):
            summarize_one([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])


class TestBootstrap:
    """summarize's SD, one gene at a time."""

    def test_constant_replicates(self):
        assert summarize_one([5.0, 5.0, 5.0], [2.0, 2.0, 2.0])[1] == 0.0

    def test_sd_matches_the_enumeration_simple(self):
        folds = enumerated_logfolds([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        assert len(folds) == 729
        sd = summarize_one([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])[1]
        assert sd == pytest.approx(statistics.stdev(folds), abs=1e-12)

    def test_permutation_invariance(self):
        ko, wt = [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]
        base_sd = summarize_one(ko, wt)[1]
        for ko_perm in itertools.permutations(ko):
            sd = summarize_one(list(ko_perm), wt)[1]
            assert sd == pytest.approx(base_sd, abs=1e-14)

    def test_scaling_invariance(self):
        ko, wt = [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]
        base = summarize_one(ko, wt)
        scaled = summarize_one([7.0 * k for k in ko], [7.0 * w for w in wt])
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_four_replicates_supported(self):
        assert summarize_one([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 2.0, 2.0])[1] > 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_counts_rejected(self, bad):
        with pytest.raises(ValueError, match="^counts must be finite$"):
            summarize_one([bad, 1.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="^counts must be finite$"):
            summarize_one([1.0, 1.0, 1.0], [1.0, bad, 1.0])

    def test_mismatched_replicate_counts_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "ko and wt must be (n_genes, r) arrays matching ids")):
            summarize_one([1.0, 2.0], [1.0, 2.0, 3.0])


def oracle_summary_sd(ko, wt):
    """Per-gene SD straight from the enumerated bootstrap log-folds."""
    return float(np.std(enumerated_logfolds(ko, wt), ddof=1))


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
            assert summary.beta_hat[i] == oracle_logfold(ko[i], wt[i])
            if r == 1 or i < 2:
                assert summary.sd_boot[i] == 0.0
            else:
                expected = oracle_summary_sd(ko[i], wt[i])
                assert expected > 0.0
                assert summary.sd_boot[i] == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert summarize_one(ko[i], wt[i])[1] == summary.sd_boot[i]

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


class TestReplicateDataChecks:
    """ReplicateData is the one check of replicate counts."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_count_rejected(self, bad):
        with pytest.raises(ValueError, match="^counts must be finite$"):
            ig.ReplicateData(("g1", "g2"), [[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [bad, 4.0]])

    @pytest.mark.parametrize("bad", [0.0, -0.0, -2.5])
    def test_nonpositive_count_rejected(self, bad):
        with pytest.raises(ValueError, match="^counts must be positive$"):
            ig.ReplicateData(("g1", "g2"), [[1.0, 2.0], [3.0, bad]], [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("ko, wt, ids", [
        ([[1.0, 2.0]], [[1.0, 2.0, 3.0]], ("g1",)),  # replicate counts differ
        ([[1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]], ("g1",)),  # gene counts differ
        ([[1.0, 2.0]], [[1.0, 2.0]], ("g1", "g2")),  # ids do not match the rows
        ([1.0, 2.0], [1.0, 2.0], ("g1", "g2")),  # not (n_genes, r)
    ])
    def test_shape_mismatch_rejected(self, ko, wt, ids):
        with pytest.raises(ValueError, match=re.escape(
                "ko and wt must be (n_genes, r) arrays matching ids")):
            ig.ReplicateData(ids, ko, wt)

    def test_repeated_id_rejected(self):
        with pytest.raises(ValueError, match="^gene ids must be unique$"):
            ig.ReplicateData(("g1", "g2", "g1"), np.ones((3, 3)), np.ones((3, 3)))


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
                           match=re.escape(f"{path}: line 3: duplicate gene_id 'g1'")):
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
        with pytest.raises(ValueError, match="line 3: non-finite ko_2"):
            ig.read_counts(path)

    def test_negative_count_names_row(self, tmp_path):
        path = tmp_path / "counts.tsv"
        write_counts(path, ["g1\t1\t2\t3\t4\t5\t-6"])
        with pytest.raises(ValueError, match="line 2: wt_3 must be positive"):
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
        assert summary.beta_hat[0] == pytest.approx(oracle_logfold([1, 2, 3], [1, 1, 1]))
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
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 5: duplicate gene_id 'g1'")):
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


# ---------------------------------------------------------------------------
# The bulk parse against the per-line loop it falls back to, which stays the
# authority on what is accepted and on the messages: with _bulk_rows made to
# fail, both readers run the per-line loop alone.
# ---------------------------------------------------------------------------


def read_outcome(reader, path):
    """What a reader gives: its ids and the bits of its arrays, or its error."""
    try:
        result = reader(path)
    except ValueError as exc:
        return ("error", str(exc))
    if isinstance(result, ig.ReplicateData):
        ids, arrays = result.ids, (result.ko, result.wt)
    else:
        ids, arrays = tuple(result[0]), result[1:]
    return ("ok", ids, [(a.dtype, a.shape, a.tobytes()) for a in arrays])


def per_line_outcome(reader, path):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ig, "_bulk_rows", lambda *args, **kwargs: None)
        return read_outcome(reader, path)


def bulk_taken(reader, path):
    """Whether the reader's bulk parse accepted the file."""
    results = []
    real = ig._bulk_rows

    def spy(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ig, "_bulk_rows", spy)
        read_outcome(reader, path)
    return results[0] is not None


def number_text(lo=None):
    """Numeric cells as writers format them: repr, %.6g, %E and integers."""
    floats = st.floats(min_value=lo, exclude_min=lo is not None)
    return st.one_of(floats.map(repr), floats.map(lambda x: f"{x:.6g}"),
                     floats.map(lambda x: f"{x:E}"),
                     st.integers(1 if lo is not None else -10**6, 10**6).map(str))


# float() accepts some of these and np.loadtxt fewer: underscores, non-ASCII
# digits, the separators \x1c-\x1f that float() rejects and loadtxt strips;
# and characters str.splitlines() would end a line at, which both strip
ODD_TEXT = st.sampled_from([
    "1_0", "2_500.5", "\u0661\u0662", "\u0663.\u0665", ".5", "5.", "+7", "-0", "1e5", "1E-5",
    "inf", "-Infinity", "nan", "NaN", "", " ", "abc", "0x10", "1 5", "1e", "--1",
    "1.5\x1f", "\x1f2", "0", "-3.5", "1.5\x1e", "\x1c2", "3\x1d",
    "4\x85", "\u20285", "6\u2029", "\f7", "8\v",
])
PAD = st.sampled_from(["", "", " ", "  ", "\u2003", "\xa0"])


@st.composite
def table_text(draw, header, order, cell_columns, number):
    """A TSV with the given header: in cell_columns of each row (listed in
    unpermuted order, ids first) a padded number or, in some tables, now
    and then an odd cell; in some tables a repeated id or a row one cell
    short; blank lines here and there."""
    odd_every = draw(st.sampled_from([0, 0, 4, 20]))
    dup_row, short_row = (draw(st.sampled_from([None, None, None, 1, 3])) for _ in range(2))
    lines = ["\t".join(header)]
    for k in range(draw(st.integers(1, 6))):
        cells = ["g0" if k == dup_row else f"g{k}"]
        for j in range(1, len(order)):
            odd = odd_every and draw(st.integers(1, odd_every)) == 1
            text = draw(ODD_TEXT if odd else number) if j in cell_columns else "note"
            cells.append(draw(PAD) + text + draw(PAD) if j in cell_columns else text)
        row = [cells[i] for i in order]
        lines.append("\t".join(row[:-1] if k == short_row else row))
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


@st.composite
def hypothesis_table_text(draw):
    """Header columns id, beta_hat, aux and maybe a text column, in any order."""
    names = [draw(st.sampled_from(["gene_id", "id"])), "beta_hat",
             draw(st.sampled_from(["y", "sd_boot"]))] + ["note"] * draw(st.integers(0, 1))
    order = draw(st.permutations(range(len(names))))
    return draw(table_text([names[i] for i in order], list(order), {1, 2}, number_text()))


@st.composite
def count_table_text(draw):
    r = draw(st.integers(1, 3))
    names = ["gene_id"] + [f"ko_{j + 1}" for j in range(r)] + [f"wt_{j + 1}" for j in range(r)]
    return draw(table_text(names, list(range(len(names))), set(range(1, 1 + 2 * r)),
                           number_text(lo=0.0)))


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


@settings(max_examples=300, deadline=None)
@given(text=hypothesis_table_text())
def test_read_hypotheses_bulk_matches_per_line(table_dir, text):
    path = table_dir / "table.tsv"
    path.write_text(text, encoding="utf-8")
    assert read_outcome(ig.read_hypotheses, path) == per_line_outcome(ig.read_hypotheses, path)


@settings(max_examples=300, deadline=None)
@given(text=count_table_text())
def test_read_counts_bulk_matches_per_line(table_dir, text):
    path = table_dir / "counts.tsv"
    path.write_text(text, encoding="utf-8")
    assert read_outcome(ig.read_counts, path) == per_line_outcome(ig.read_counts, path)


def test_bulk_parse_takes_well_formed_files_and_leaves_odd_cells_to_float(tmp_path):
    plain = tmp_path / "plain.tsv"
    plain.write_text("y\tbeta_hat\tid\n 0.25\t-1e-3\ta\n\n.5\t-0\tb\n")
    assert bulk_taken(ig.read_hypotheses, plain)
    counts = tmp_path / "counts.tsv"
    write_counts(counts, ["g1\t1\t2.5\t3e2\t4\t5\t6"])
    assert bulk_taken(ig.read_counts, counts)
    for cell, value in (("1_0", 10.0), ("\u0661\u0662", 12.0)):
        odd = tmp_path / "odd.tsv"
        odd.write_text(f"gene_id\tbeta_hat\ty\ng1\t{cell}\t0.5\n")
        assert not bulk_taken(ig.read_hypotheses, odd)
        assert ig.read_hypotheses(odd)[1].tolist() == [value]
    for sep in "\x1c\x1d\x1e\x1f":  # loadtxt strips these, float() rejects them
        odd.write_text(f"gene_id\tbeta_hat\ty\ng1\t1.5{sep}\t0.5\n")
        assert not bulk_taken(ig.read_hypotheses, odd)
        with pytest.raises(ValueError, match="line 2: non-numeric beta_hat: could not convert"):
            ig.read_hypotheses(odd)


COUNTS_HEADER = "gene_id\tko_1\tko_2\tko_3\twt_1\twt_2\twt_3\n"


# every malformed input of the tests above, and headers naming a column twice,
# with the whole message each gives
@pytest.mark.parametrize("reader, text, message", [
    (ig.read_counts, COUNTS_HEADER + "g1\t1\t2\t3\t4\t5\t6\ng2\t0\t2\t2\t3\t3\t3\n",
     "line 3: ko_1 must be positive"),
    (ig.read_counts, COUNTS_HEADER + "g1\t1\t2\t3\t4\t5\t6\ng1\t2\t2\t2\t3\t3\t3\n",
     "line 3: duplicate gene_id 'g1'"),
    (ig.read_counts, COUNTS_HEADER + "g1\t1\t2\t3\t4\t5\n", "line 2: expected 7 columns, got 6"),
    (ig.read_counts, COUNTS_HEADER + "g1\t1\t2\tx\t4\t5\t6\n",
     "line 2: non-numeric ko_3: could not convert string to float: 'x'"),
    (ig.read_counts, "", "empty file"),
    (ig.read_counts, COUNTS_HEADER + "g1\t1\t2\t3\t4\t5\t6\ng2\t1\tnan\t3\t4\t5\t6\n",
     "line 3: non-finite ko_2"),
    (ig.read_counts, COUNTS_HEADER + "g1\t1\t2\t3\t4\t5\t6\ng2\t1\t-inf\t3\t4\t5\t6\n",
     "line 3: non-finite ko_2"),
    (ig.read_counts, COUNTS_HEADER + "g1\t1\t2\t3\t4\t5\t-6\n", "line 2: wt_3 must be positive"),
    (ig.read_counts, "gene\tko_1\twt_1\n", "first column must be gene_id, got 'gene'"),
    (ig.read_counts, COUNTS_HEADER + "\n", "no data rows"),
    (ig.read_hypotheses, "gene_id\tbeta_hat\tsd_boot\ng1\t0.1\t0.2\ng2\tabc\t0.3\n",
     "line 3: non-numeric beta_hat: could not convert string to float: 'abc'"),
    (ig.read_hypotheses, "gene_id\tbeta_hat\tsd_boot\ng1\t0.1\t0.2\ng2\t0.1\t0.2\n\ng1\t0.3\t0.4\n",
     "line 5: duplicate gene_id 'g1'"),
    (ig.read_hypotheses, "", "empty file"),
    (ig.read_hypotheses, "gene_id\tbeta_hat\n", "need columns gene_id/id, beta_hat and y/sd_boot"),
    (ig.read_hypotheses, "gene_id\tbeta_hat\tsd_boot\n", "no data rows"),
    (ig.read_hypotheses, "gene_id\tbeta_hat\tsd_boot\ng1\t0.1\n",
     "line 2: expected 3 columns, got 2"),
    (ig.read_hypotheses, "gene_id\tbeta_hat\ty\ng1\t0.5\t0.2\ng2\tinf\t0.3\n",
     "line 3: non-finite beta_hat"),
    (ig.read_hypotheses, "gene_id\tbeta_hat\tbeta_hat\tsd_boot\ng1\t0.1\t5\t0.3\n",
     "header names column 'beta_hat' twice"),
    (ig.read_hypotheses, "id\tbeta_hat\ty\tnote\tnote\ng1\t0.1\t0.3\ta\tb\n",
     "header names column 'note' twice"),
    (ig.read_counts, "gene_id\tko_1\tko_1\twt_1\twt_2\ng1\t1\t2\t3\t4\n",
     "header names column 'ko_1' twice"),
])
def test_malformed_input_keeps_its_message(tmp_path, reader, text, message):
    path = tmp_path / "table.tsv"
    path.write_text(text)
    expected = ("error", f"{path}: {message}")
    assert read_outcome(reader, path) == expected
    assert per_line_outcome(reader, path) == expected


# Characters str.splitlines() ends a line at besides LF and CR.  A line ends
# at LF alone, so none of them splits a row or shifts a line number.
LINE_BREAKS_BUT_LF = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
ROWS = {ig.read_hypotheses: ("gene_id\tbeta_hat\tsd_boot\n", "{}\t0.1\t0.2", "beta_hat"),
        ig.read_counts: (COUNTS_HEADER, "{}\t1\t2\t3\t4\t5\t6", "ko_1")}


@pytest.mark.parametrize("reader", list(ROWS), ids=lambda r: r.__name__)
@pytest.mark.parametrize("sep", LINE_BREAKS_BUT_LF, ids=repr)
def test_only_lf_ends_a_line(tmp_path, reader, sep):
    header, row, first_value = ROWS[reader]
    path = tmp_path / "table.tsv"
    n_columns = header.count("\t") + 1
    cases = [
        # two rows' text on one physical line: one row with too many cells
        (row.format("g1") + sep + row.format("g2") + "\n",
         f"line 2: expected {n_columns} columns, got {2 * n_columns - 1}"),
        # a bad cell after a row holding the character is named on its own line
        (row.format("g1" + sep) + "\n" + row.format("g2") + "\n"
         + row.format("g3").replace("\t1", "\tx", 1).replace("\t0.1", "\tx") + "\n",
         f"line 4: non-numeric {first_value}: could not convert string to float: 'x'"),
    ]
    for text, message in cases:
        path.write_text(header + text, encoding="utf-8")
        expected = ("error", f"{path}: {message}")
        assert read_outcome(reader, path) == expected
        assert per_line_outcome(reader, path) == expected
    # the character is part of the cell it is in: one row, one id
    path.write_text(header + row.format("g1" + sep) + "\n" + row.format("g2") + "\n",
                    encoding="utf-8")
    outcome = read_outcome(reader, path)
    assert outcome[:2] == ("ok", ("g1" + sep, "g2"))
    assert per_line_outcome(reader, path) == outcome


# ---------------------------------------------------------------------------
# The two per-line loops the readers had before they shared _line_rows, kept
# as oracles: the shared loop must accept and reject the same files, with the
# same ids and value bits, and name the same line in any error.
# ---------------------------------------------------------------------------


def oracle_count_rows(path, lines, r: int):
    ids, rows, seen = [], [], set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 1 + 2 * r:
            raise ValueError(f"{path}: line {lineno}: expected {1 + 2 * r} columns, "
                             f"got {len(parts)}")
        try:
            values = [float(x) for x in parts[1:]]
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric count") from None
        if not all(0.0 < x < math.inf for x in values):  # NaN fails too
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}: line {lineno}: non-finite count")
            raise ValueError(f"{path}: line {lineno}: counts must be positive")
        if parts[0] in seen:
            raise ValueError(f"{path}: line {lineno}: duplicate gene id {parts[0]!r}")
        seen.add(parts[0])
        ids.append(parts[0])
        rows.append(values)
    if not ids:
        raise ValueError(f"{path}: no data rows")
    return ids, np.array(rows)


def oracle_hypothesis_rows(path, lines, header, id_col, beta_col, aux_col):
    ids, rows, seen = [], [], set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != len(header):
            raise ValueError(f"{path}: line {lineno}: expected {len(header)} columns")
        try:
            b, a = float(parts[beta_col]), float(parts[aux_col])
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        if not (math.isfinite(b) and math.isfinite(a)):
            raise ValueError(f"{path}: line {lineno}: non-finite {header[beta_col]} "
                             f"or {header[aux_col]}")
        rows.append((b, a))
        hid = parts[id_col]
        if hid in seen:
            raise ValueError(f"{path}: line {lineno}: duplicate id {hid!r}")
        seen.add(hid)
        ids.append(hid)
    if not ids:
        raise ValueError(f"{path}: no data rows")
    return ids, np.array(rows)


def oracle_outcome(reader, path):
    """read_outcome of the reader with its old per-line loop, an error
    reduced to the line it names (None for a file-level error)."""
    with ig.open_text(path) as fh:
        lines = fh.read().split("\n")
    header = lines[0].split("\t")
    try:
        if reader is ig.read_counts:
            r = (len(header) - 1) // 2
            ids, values = oracle_count_rows(path, lines, r)
            arrays = (np.ascontiguousarray(values[:, :r]), np.ascontiguousarray(values[:, r:]))
        else:
            cols = {name: i for i, name in enumerate(header)}
            id_col = next(cols[c] for c in ("gene_id", "id") if c in cols)
            aux_col = next(cols[c] for c in ("y", "sd_boot") if c in cols)
            ids, values = oracle_hypothesis_rows(path, lines, header, id_col,
                                                 cols["beta_hat"], aux_col)
            arrays = tuple(np.ascontiguousarray(values.T))
    except ValueError as exc:
        return ("error", error_line(str(exc)))
    return ("ok", tuple(ids), [(a.dtype, a.shape, a.tobytes()) for a in arrays])


def error_line(message):
    found = re.search(r": line (\d+): ", message)
    return found and int(found[1])


def shared_loop_outcome(reader, path):
    outcome = per_line_outcome(reader, path)
    return ("error", error_line(outcome[1])) if outcome[0] == "error" else outcome


@settings(max_examples=300, deadline=None)
@given(text=hypothesis_table_text())
def test_read_hypotheses_per_line_matches_old_loop(table_dir, text):
    path = table_dir / "table.tsv"
    path.write_text(text, encoding="utf-8")
    assert shared_loop_outcome(ig.read_hypotheses, path) == oracle_outcome(ig.read_hypotheses, path)


@settings(max_examples=300, deadline=None)
@given(text=count_table_text())
def test_read_counts_per_line_matches_old_loop(table_dir, text):
    path = table_dir / "counts.tsv"
    path.write_text(text, encoding="utf-8")
    assert shared_loop_outcome(ig.read_counts, path) == oracle_outcome(ig.read_counts, path)
