"""End-to-end CLI tests."""

import gzip
import hashlib
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import twostage_fdr
from twostage_fdr import copula as cp
from twostage_fdr import fit as ft
from twostage_fdr import ingest as ig
from twostage_fdr import simulate as sim
from twostage_fdr.cli import main, parse_copula_spec

COUNTS = "\n".join([
    "gene_id\tko_1\tko_2\tko_3\twt_1\twt_2\twt_3",
    "g1\t4\t4\t4\t2\t2\t2",
    "g2\t1\t2\t3\t1\t1\t1",
]) + "\n"


def write_test_table(path, m=400, seed=3, tau=-0.5, alt_frac=0.05):
    """Synthetic beta/y table with planted strong signals."""
    from scipy.special import ndtri
    rng = np.random.default_rng(seed)
    obs = cp.sample(cp.tau_to_theta("clayton", tau), m, seed)
    # null magnitudes from the p-value coordinate, plus planted alternatives
    sign = np.where(rng.random(m) < 0.5, -1.0, 1.0)
    beta = sign * ndtri(1.0 - obs.v / 2.0)
    alt = rng.random(m) < alt_frac
    beta[alt] = sign[alt] * (4.0 + rng.random(alt.sum()))
    y = obs.u
    lines = ["gene_id\tbeta_hat\ty"]
    for i in range(m):
        lines.append(f"g{i:04d}\t{float(beta[i])!r}\t{float(y[i])!r}")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def null_json(tmp_path):
    p = tmp_path / "null.json"
    p.write_text('{"weights": [1.0], "means": [0.0], "sds": [1.0]}')
    return str(p)


class TestParseCopulaSpec:
    def test_forms(self):
        assert parse_copula_spec("independence").family == "independence"
        m = parse_copula_spec("clayton:1.333:90")
        assert (m.family, m.theta, m.rotation) == ("clayton", 1.333, 90)
        m = parse_copula_spec("gaussian:-0.59")
        assert m.theta == -0.59
        with pytest.raises(ValueError):
            parse_copula_spec("clayton")
        with pytest.raises(ValueError):
            parse_copula_spec("independence:2.0")

    @pytest.mark.parametrize("spec, message", [
        ("clayton", "clayton copula requires a finite parameter, got None"),
        ("independence:2.0", "independence copula has no parameter"),
        ("clayton:nan", "clayton copula requires a finite parameter, got nan"),
        ("frank:2:90", "frank copula does not take a rotation"),
        ("clayton:2:45", "rotation must be one of (0, 90), got 45"),
        ("clayton:2:270", "rotation must be one of (0, 90), got 270"),
        ("foo:1", "unknown copula family 'foo'"),
    ])
    def test_model_rule_is_the_copula_models(self, spec, message):
        # the spec is split and its numbers parsed; CopulaModel says what is wrong
        with pytest.raises(ValueError) as exc:
            parse_copula_spec(spec)
        assert str(exc.value) == f"--copula {spec!r}: {message}"

    def test_extra_parts_rejected(self):
        with pytest.raises(ValueError, match="^copula spec 'clayton:1.2:90:junk' has more "
                                             "than three ':'-separated parts$"):
            parse_copula_spec("clayton:1.2:90:junk")


class TestBootstrapCommand:
    def test_known_output(self, tmp_path, capsys):
        src = tmp_path / "counts.tsv"
        src.write_text(COUNTS)
        out = tmp_path / "summary.tsv"
        assert main(["bootstrap", str(src), str(out)]) == 0
        ids, beta_hat, sd_boot = ig.read_hypotheses(out)
        assert ids == ["g1", "g2"]
        assert beta_hat[0] == pytest.approx(1.0)
        assert sd_boot[0] == 0.0
        # enumeration oracle for gene 2: the 27 KO resample means over the WT mean 1
        ko_means = [statistics.fmean(p) for p in itertools.product([1.0, 2.0, 3.0], repeat=3)]
        expected = statistics.stdev([math.log2(m) for m in ko_means] * 27)
        assert sd_boot[1] == pytest.approx(expected, abs=1e-12)

    def test_gzip_input_same_output(self, tmp_path):
        plain = tmp_path / "counts.tsv"
        plain.write_text(COUNTS)
        gz = tmp_path / "counts.tsv.gz"
        with gzip.open(gz, "wt", encoding="utf-8") as fh:
            fh.write(COUNTS)
        out1 = tmp_path / "a.tsv"
        out2 = tmp_path / "b.tsv"
        assert main(["bootstrap", str(plain), str(out1)]) == 0
        assert main(["bootstrap", str(gz), str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    def test_empty_input_fails(self, tmp_path, capsys):
        src = tmp_path / "counts.tsv"
        src.write_text("")
        out = tmp_path / "summary.tsv"
        assert main(["bootstrap", str(src), str(out)]) == 1
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_unequal_replicate_header_fails(self, tmp_path, capsys):
        src = tmp_path / "counts.tsv"
        src.write_text("gene_id\tko_1\tko_2\twt_1\ng1\t1\t2\t3\n")
        out = tmp_path / "summary.tsv"
        assert main(["bootstrap", str(src), str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {src}: header must be gene_id, ko_1..ko_r, wt_1..wt_r\n")
        assert not out.exists()

    def test_bad_row_fails(self, tmp_path, capsys):
        src = tmp_path / "counts.tsv"
        src.write_text(COUNTS + "g3\t0\t1\t1\t1\t1\t1\n")
        assert main(["bootstrap", str(src), str(tmp_path / "o.tsv")]) == 1
        assert "line 4" in capsys.readouterr().err


class TestFitCommand:
    def test_clayton_data_selects_clayton(self, tmp_path, capsys, null_json):
        table = tmp_path / "table.tsv"
        write_test_table(table, m=2000, seed=11, alt_frac=0.0)
        assert main(["fit", str(table), "--null-mixture", null_json,
                     "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "clayton" in out
        payload = json.loads((tmp_path / "selection.json").read_text())
        winner = payload["candidates"][payload["winners"]["bic"]]
        assert winner["family"] == "clayton"

    def test_too_small_input_fails(self, tmp_path, capsys, null_json):
        table = tmp_path / "table.tsv"
        table.write_text("gene_id\tbeta_hat\ty\ng1\t0.5\t0.2\n")
        assert main(["fit", str(table), "--null-mixture", null_json,
                     "--out-dir", str(tmp_path)]) == 1

    def test_every_family_failing_names_the_reason(self, tmp_path, capsys, null_json):
        table = tmp_path / "table.tsv"
        write_test_table(table, m=5)
        out = tmp_path / "out"
        assert main(["fit", str(table), "--null-mixture", null_json, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: every candidate family failed to fit: gaussian, frank, clayton, gumbel, "
            "joe: need at least 10 observation pairs to fit, got 5\n")
        assert not out.exists()


class TestTestCommand:
    def test_independence_soft_equals_storey(self, tmp_path, null_json):
        table = tmp_path / "table.tsv"
        write_test_table(table, m=500, seed=7)
        d1 = tmp_path / "soft"
        d2 = tmp_path / "storey"
        assert main(["test", str(table), "--method", "S", "--copula", "independence",
                     "--null-mixture", null_json, "--out-dir", str(d1)]) == 0
        assert main(["test", str(table), "--method", "storey",
                     "--null-mixture", null_json, "--out-dir", str(d2)]) == 0
        o1 = json.loads((d1 / "outcome.json").read_text())
        o2 = json.loads((d2 / "outcome.json").read_text())
        assert o1["rejected"] == o2["rejected"]

    def test_hard_writes_curve(self, tmp_path, null_json):
        table = tmp_path / "table.tsv"
        write_test_table(table, m=500, seed=7)
        out = tmp_path / "hard"
        assert main(["test", str(table), "--method", "H", "--copula", "clayton:1.5:90",
                     "--null-mixture", null_json, "--out-dir", str(out),
                     "--gamma1-grid", "0.5,0.8,0.9,0.95"]) == 0
        curve = (out / "gamma1_curve.tsv").read_text().splitlines()
        assert curve[1] == "gamma1\tn_rejected"
        assert len(curve) == 6
        outcome = json.loads((out / "outcome.json").read_text())
        assert outcome["gamma1_hat"] in (0.5, 0.8, 0.9, 0.95)
        decisions = (out / "decisions.tsv").read_text().splitlines()
        assert len(decisions) == 502

    def test_decreasing_gamma1_grid_rejected(self, tmp_path, capsys, null_json):
        table = tmp_path / "table.tsv"
        write_test_table(table, m=300, seed=7)
        assert main(["test", str(table), "--method", "H", "--copula", "clayton:1.5:90",
                     "--null-mixture", null_json, "--out-dir", str(tmp_path / "hard"),
                     "--gamma1-grid", "0.97,0.95"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "strictly increasing" in err

    def test_alpha_zero_rejects_nothing(self, tmp_path, null_json):
        table = tmp_path / "table.tsv"
        write_test_table(table, m=300, seed=9)
        out = tmp_path / "a0"
        assert main(["test", str(table), "--method", "storey", "--alpha", "0.0",
                     "--null-mixture", null_json, "--out-dir", str(out)]) == 0
        outcome = json.loads((out / "outcome.json").read_text())
        assert outcome["n_rejected"] == 0

    @pytest.mark.parametrize("method", ["storey", "H"])
    def test_non_numeric_cell_names_line(self, tmp_path, capsys, null_json, method):
        table = tmp_path / "table.tsv"
        table.write_text("gene_id\tbeta_hat\ty\ng1\t0.5\t0.2\ng2\tabc\t0.3\n")
        assert main(["test", str(table), "--method", method, "--null-mixture", null_json,
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"{table}: line 3:" in err
        assert "'abc'" in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_line(self, tmp_path, capsys, null_json, cell):
        table = tmp_path / "table.tsv"
        table.write_text(f"gene_id\tbeta_hat\ty\ng1\t0.5\t0.2\ng2\t{cell}\t0.3\n")
        assert main(["test", str(table), "--method", "storey", "--null-mixture", null_json,
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {table}: line 3: non-finite beta_hat\n"

    @pytest.mark.parametrize("payload, message", [
        ('{"weights": [1.0], "means": [0.0]}', "mixture JSON is missing keys: ['sds']"),
        ('[1.0, 0.0, 1.0]',
         "mixture JSON must be an object with keys ['weights', 'means', 'sds']"),
        ('{"weights": [true], "means": [0.0], "sds": [1.0]}',
         "mixture weights must be a list of JSON numbers, got [True]"),
        ('{"weights": [0.0, 1.0], "means": [0.0, 1.0], "sds": [1.0, 1.0]}',
         "mixture weights must be positive"),
    ])
    def test_malformed_null_mixture_fails(self, tmp_path, capsys, payload, message):
        table = tmp_path / "table.tsv"
        write_test_table(table, m=50, seed=7)
        null = tmp_path / "null.json"
        null.write_text(payload)
        assert main(["test", str(table), "--method", "storey", "--null-mixture", str(null),
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("key, value", [("weights", '"abc"'),
                                            ("means", "[1" + "0" * 400 + "]")],
                             ids=["string", "int-past-double"])
    def test_null_mixture_value_names_its_key(self, tmp_path, capsys, key, value):
        table = tmp_path / "table.tsv"
        write_test_table(table, m=50, seed=7)
        fields = {"weights": "[1.0]", "means": "[0.0]", "sds": "[1.0]", key: value}
        null = tmp_path / "null.json"
        null.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
        out = tmp_path / "out"
        assert main(["test", str(table), "--method", "storey", "--null-mixture", str(null),
                     "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: mixture {key} must be a list of JSON numbers, got {json.loads(value)!r}\n")
        assert not out.exists()

    def test_truncated_null_mixture_names_its_file(self, tmp_path, capsys):
        table = tmp_path / "table.tsv"
        write_test_table(table, m=50, seed=7)
        null = tmp_path / "null.json"
        null.write_text('{"weights": [1.0], "means": [0.0]')
        out = tmp_path / "out"
        assert main(["test", str(table), "--method", "storey", "--null-mixture", str(null),
                     "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {null}: Expecting ',' delimiter: line 1 column 34 (char 33)\n")
        assert not out.exists()

    def test_copula_spec_with_extra_parts_rejected(self, tmp_path, capsys, null_json):
        table = tmp_path / "table.tsv"
        write_test_table(table, m=200)
        assert main(["test", str(table), "--method", "H", "--copula", "clayton:1.2:90:junk",
                     "--null-mixture", null_json, "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.strip() == (
            "error: copula spec 'clayton:1.2:90:junk' has more than three ':'-separated parts")
        assert not (tmp_path / "decisions.tsv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--copula", "clayton:abc"],
         "--copula 'clayton:abc': could not convert string to float: 'abc'"),
        (["--copula", "clayton:1.2:90.5"],
         "--copula 'clayton:1.2:90.5': invalid literal for int() with base 10: '90.5'"),
        (["--copula", "clayton:-1"],
         "--copula 'clayton:-1': clayton parameter must be positive, got -1.0"),
        (["--copula", "frank:2:90"],
         "--copula 'frank:2:90': frank copula does not take a rotation"),
        (["--gamma1-grid", "0.1,x"],
         "--gamma1-grid '0.1,x': could not convert string to float: 'x'"),
        (["--gamma1-grid", "0.97,0.95"], "gamma1 grid must be strictly increasing"),
        # a later --method overrides the H below: flags that method ignores
        (["--method", "S", "--gamma1-grid", "0.1,x"],
         "--gamma1-grid applies only to the hard method, not soft"),
        (["--method", "storey", "--gamma1-grid", "0.5"],
         "--gamma1-grid applies only to the hard method, not storey"),
        (["--method", "storey", "--copula", "nonsense:abc"],
         "--copula applies only to the hard and soft methods, not storey"),
        # simulate's seed rule: the header never records a seed numpy would refuse
        (["--seed", "-1"], "--seed must be a non-negative integer, got -1"),
        (["--alpha", "1.0"], "alpha must lie in [0, 1), got 1.0"),
        (["--lambda", "1.0"], "lambda must lie strictly inside (0, 1), got 1.0"),
    ])
    def test_bad_flag_is_named_and_leaves_no_out_dir(self, tmp_path, capsys, null_json,
                                                      flags, message):
        table = tmp_path / "table.tsv"
        write_test_table(table, m=200)
        out = tmp_path / "out"
        assert main(["test", str(table), "--method", "H", "--null-mixture", null_json,
                     "--out-dir", str(out), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("method", ["H", "S", "storey"])
    @pytest.mark.parametrize("flags, message", [
        (["--alpha", "1.0"], "alpha must lie in [0, 1), got 1.0"),
        (["--alpha", "-0.1"], "alpha must lie in [0, 1), got -0.1"),
        (["--lambda", "0"], "lambda must lie strictly inside (0, 1), got 0.0"),
        (["--lambda", "1.0"], "lambda must lie strictly inside (0, 1), got 1.0"),
    ])
    def test_bad_level_is_rejected_before_the_table_is_read(self, tmp_path, capsys, null_json,
                                                            method, flags, message):
        # no copula is fit (for H and S, --copula auto) and no table is read:
        # a missing table gives the same message
        table = tmp_path / "table.tsv"
        write_test_table(table, m=200)
        out = tmp_path / "out"
        for path in (table, tmp_path / "missing.tsv"):
            assert main(["test", str(path), "--method", method, "--null-mixture", null_json,
                         "--out-dir", str(out), *flags]) == 1
            assert capsys.readouterr() == ("", f"error: {message}\n")
            assert not out.exists()

    def test_duplicate_id_names_line(self, tmp_path, capsys, null_json):
        table = tmp_path / "table.tsv"
        table.write_text("gene_id\tbeta_hat\ty\ng1\t0.5\t0.2\ng2\t0.1\t0.3\ng1\t0.2\t0.4\n")
        assert main(["test", str(table), "--method", "storey", "--null-mixture", null_json,
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {table}: line 4: duplicate gene_id 'g1'\n"

    def test_byte_identical_reruns(self, tmp_path, null_json):
        table = tmp_path / "table.tsv"
        write_test_table(table, m=500, seed=13)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        args = ["test", str(table), "--method", "H", "--copula", "auto",
                "--null-mixture", null_json, "--seed", "42"]
        assert main(args + ["--out-dir", str(d1)]) == 0
        assert main(args + ["--out-dir", str(d2)]) == 0
        for name in ("decisions.tsv", "outcome.json", "gamma1_curve.tsv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


# sha256 of every file that `fit` and `test -m H/S/storey` write for the
# write_test_table(m=500, seed=13) fixture under the standard normal null at
# alpha 0.10; any change in a written byte changes a digest.
GOLDEN_SHA256 = {
    "H/decisions.tsv": "f7d74376bc9ef7d177486a22c364a49e50c86a181500df1d6d31e77091b9d862",
    "H/gamma1_curve.tsv": "949c326d7ac12eb96c940a06ec58e300d20701fab672f59253b0ac9cdb5058ff",
    "H/outcome.json": "f41898a7eb1f7cc602f42a65031dad94d134407bdd5dece470376816ad283421",
    "S/decisions.tsv": "cc448127c7063b0109b2c3b6e61b67470dfbadd03177a3064af947b36494c623",
    "S/outcome.json": "061a21bb428223dbb08781e516878ee297ec89e3095fd0d8a1f4d57f1763ba78",
    "fit/selection.json": "234d4310102aa4fcc264d7b76dadc6c223662b8ced2ba2b49275533c8eab9b4b",
    "storey/decisions.tsv": "b0c53ee0336c6cc66fac5c6ab161dc2730afccf4a648d948e46afdd5acbc1cbd",
    "storey/outcome.json": "d6f311ca821eb593bd623793116affc6cc08725ef87275bce12367d149de4e59",
}


def test_golden_outputs(tmp_path, null_json):
    table = tmp_path / "table.tsv"
    write_test_table(table, m=500, seed=13)
    assert main(["fit", str(table), "--null-mixture", null_json,
                 "--out-dir", str(tmp_path / "fit")]) == 0
    for method in ("H", "S", "storey"):
        assert main(["test", str(table), "--method", method, "--alpha", "0.10",
                     "--null-mixture", null_json, "--out-dir", str(tmp_path / method)]) == 0
    written = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.glob("*/*") if p.is_file()}
    assert written == GOLDEN_SHA256


def fit_and_test_outputs(rows, out, null_json):
    """Every file that `fit`, `test -m H` and `test -m S` write for the
    hypothesis table `rows` (id, beta_hat, y), by path under `out`."""
    table = out / "table.tsv"
    out.mkdir()
    table.write_text("gene_id\tbeta_hat\ty\n" + "".join(f"{hid}\t{beta!r}\t{y!r}\n"
                                                         for hid, beta, y in rows))
    assert main(["fit", str(table), "--null-mixture", null_json,
                 "--out-dir", str(out / "fit")]) == 0
    for method in ("H", "S"):
        assert main(["test", str(table), "--method", method, "--null-mixture", null_json,
                     "--out-dir", str(out / method)]) == 0
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.glob("*/*")}


def metamorphic_rows(tmp_path):
    """The 400 rows of write_test_table(m=400, seed=3), with float columns."""
    write_test_table(tmp_path / "source.tsv", m=400, seed=3)
    lines = (tmp_path / "source.tsv").read_text().splitlines()[1:]
    return [(hid, float(beta), float(y)) for hid, beta, y in (ln.split("\t") for ln in lines)]


def test_increasing_map_of_the_auxiliary_column_changes_no_output(tmp_path, null_json):
    # p1 sees the auxiliary column through its ranks alone, and scaling by a
    # power of two is exact, so it keeps every tie and creates none
    rows = metamorphic_rows(tmp_path)
    base = fit_and_test_outputs(rows, tmp_path / "base", null_json)
    scaled = fit_and_test_outputs([(hid, beta, 4.0 * y) for hid, beta, y in rows],
                                  tmp_path / "scaled", null_json)
    assert sorted(base) == ["H/decisions.tsv", "H/gamma1_curve.tsv", "H/outcome.json",
                            "S/decisions.tsv", "S/outcome.json", "fit/selection.json"]
    assert scaled == base


def test_renamed_ids_change_only_the_id_columns(tmp_path, null_json):
    # the new names sort in the reverse order, so the sorted rejected list moves too
    rows = metamorphic_rows(tmp_path)
    rename = {hid: f"r{len(rows) - i:04d}" for i, (hid, _, _) in enumerate(rows)}
    base = fit_and_test_outputs(rows, tmp_path / "base", null_json)
    renamed = fit_and_test_outputs([(rename[hid], beta, y) for hid, beta, y in rows],
                                   tmp_path / "renamed", null_json)
    assert sorted(renamed) == sorted(base)
    for name in ("fit/selection.json", "H/gamma1_curve.tsv"):
        assert renamed[name] == base[name]
    for method in ("H", "S"):
        expected = []
        for line in base[f"{method}/decisions.tsv"].decode().splitlines(keepends=True):
            first, tab, rest = line.partition("\t")
            expected.append(rename.get(first, first) + tab + rest)
        assert renamed[f"{method}/decisions.tsv"].decode() == "".join(expected)
        outcome = json.loads(base[f"{method}/outcome.json"])
        assert outcome["n_rejected"] > 0
        outcome["rejected"] = sorted(rename[hid] for hid in outcome["rejected"])
        assert renamed[f"{method}/outcome.json"].decode() == json.dumps(outcome, indent=2) + "\n"


def seeded_counts_text(genes=300, seed=17):
    """Triplicate counts TSV text whose cells mix integers, %.6g and repr floats."""
    rng = np.random.default_rng(seed)
    level = np.exp(rng.normal(4.0, 1.5, genes))
    counts = level[:, None] * rng.gamma(20.0, 1.0 / 20.0, (genes, 6))
    style = rng.integers(0, 3, (genes, 6))
    lines = ["gene_id\tko_1\tko_2\tko_3\twt_1\twt_2\twt_3"]
    for i in range(genes):
        cells = [str(int(x) + 1) if s == 0 else f"{x:.6g}" if s == 1 else repr(float(x))
                 for x, s in zip(counts[i], style[i])]
        lines.append("\t".join([f"gene{i:04d}"] + cells))
    return "\n".join(lines) + "\n"


# sha256 of the summary.tsv that `bootstrap` writes for seeded_counts_text(),
# whatever the line endings, compression or blank lines of its input.
BOOTSTRAP_GOLDEN_SHA256 = "006768a1be543998b44fec6b2cfd44e1757e6116136128d4b734e5d9ee8b3dd1"


@pytest.mark.parametrize("variant", ["lf", "crlf", "gzip", "blank_lines"])
def test_golden_bootstrap_output(tmp_path, variant):
    text = seeded_counts_text()
    src = tmp_path / ("counts.tsv.gz" if variant == "gzip" else "counts.tsv")
    if variant == "gzip":
        with gzip.open(src, "wt", encoding="utf-8") as fh:
            fh.write(text)
    elif variant == "crlf":
        src.write_bytes(text.replace("\n", "\r\n").encode())
    elif variant == "blank_lines":
        src.write_text(text.replace("\ngene0100\t", "\n\n\ngene0100\t") + "\n\n")
    else:
        src.write_text(text)
    out = tmp_path / "summary.tsv"
    assert main(["bootstrap", str(src), str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BOOTSTRAP_GOLDEN_SHA256


def test_the_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1]
    example = example.split("```", 1)[0]
    (tmp_path / "counts.tsv").write_text(seeded_counts_text(genes=200))
    monkeypatch.chdir(tmp_path)
    assert main(["bootstrap", "counts.tsv", "summary.tsv"]) == 0
    capsys.readouterr()
    scope = {}
    exec(compile(example, "README.md", "exec"), scope)
    outcome, ids = scope["outcome"], scope["ids"]
    assert len(ids) == outcome.aggregated.m == 200
    assert capsys.readouterr().out == f"{outcome.n_rejected} {sorted(scope['rejected_ids'])[:5]}\n"
    # the same decisions as the command line's soft test with the BIC winner
    assert main(["test", "summary.tsv", "--method", "S", "--alpha", "0.10",
                 "--out-dir", "cli"]) == 0
    cli = json.loads((tmp_path / "cli" / "outcome.json").read_text())
    assert (cli["n_rejected"], cli["gamma_hat"]) == (outcome.n_rejected, outcome.gamma_hat)


REJECTED_CONFIGS = [
    {"mode": "cell", "bogus": 1},
    {"mode": "cell", "m": 100, "tau": 0.5},
    {"mode": "misspecification", "m": 100, "k_reps": 1, "fit_mode": "sometimes"},
    {"mode": "selection", "n": 50, "reps": 0},
    {"mode": "selection", "true_family": "foo"},
    {"mode": "nonsense"},
    {"mode": []},
]

MISTYPED_VALUES = [
    ({"mode": "cell", "m": "abc"}, "'m'"),
    ({"mode": "cell", "m": 8000.0}, "'m'"),
    ({"mode": "cell", "mu": "3"}, "'mu'"),
    ({"mode": "misspecification", "lambda": None}, "'lambda'"),
    ({"mode": "selection", "reps": "2"}, "'reps'"),
    ({"mode": "cell", "seed": True}, "'seed'"),
    ({"mode": "cell", "seed": -1}, "'seed'"),
]

# a family list is checked by fit.check_families, whose messages name the key
MISTYPED_FAMILY_LISTS = [
    ({"mode": "misspecification", "analysis_families": 5},
     "error: analysis_families must be a list of family names, got 5"),
    ({"mode": "misspecification", "analysis_families": "gumbel"},
     "error: analysis_families must be a list of family names, got 'gumbel'"),
    ({"mode": "selection", "candidates": 3},
     "error: candidates must be a list of family names, got 3"),
    ({"mode": "selection", "candidates": ["clayton", 1]},
     "error: candidates must be a list of family names, got ['clayton', 1]"),
]

NON_STRING_FAMILIES = [
    ({"mode": "selection", "n": 50, "reps": 1, "true_family": []}, "true_family", "[]"),
    ({"mode": "selection", "n": 50, "reps": 1, "true_family": {}}, "true_family", "{}"),
    ({"mode": "cell", "m": 100, "k_reps": 1, "dep_family": ["clayton"]}, "dep_family",
     "['clayton']"),
]

BAD_SELECTION_STUDIES = [
    ({"mode": "selection", "n": 300, "reps": 1, "candidates": ["clayton", "foo"]},
     "error: candidates names unknown copula family 'foo'"),
    # the family is checked at every tau, independence's range included
    ({"mode": "selection", "n": 300, "reps": 1, "true_family": "foo", "tau": 0.0},
     "error: config key 'true_family': unknown copula family 'foo'"),
    ({"mode": "selection", "n": 300, "reps": 0},
     "error: config key 'reps' must be an integer >= 1, got 0"),
    ({"mode": "selection", "n": 300, "reps": -2},
     "error: config key 'reps' must be an integer >= 1, got -2"),
    ({"mode": "selection", "n": 5, "reps": 1},
     "error: config key 'n' must be an integer >= 10, got 5"),
    ({"mode": "selection", "n": 1, "reps": 1},
     "error: config key 'n' must be an integer >= 10, got 1"),
    ({"mode": "selection", "n": 300, "reps": 1, "candidates": []},
     "error: candidates must name at least one family"),
    ({"mode": "selection", "n": 300, "reps": 1, "seed": -1},
     "error: config key 'seed' must be an integer >= 0, got -1"),
]

# a value of the right type out of SimulationConfig's range, in both modes that take it
BAD_CELL_VALUES = [
    ({"mode": mode, "k_reps": 1, **value}, f"error: {message}")
    for value, message in [
        ({"m": 0}, "config key 'm' must be an integer >= 1, got 0"),
        ({"m": 100, "k_reps": 0}, "config key 'k_reps' must be an integer >= 1, got 0"),
        ({"m": 100, "alpha": 1}, "alpha must lie in [0, 1), got 1"),
        ({"m": 100, "lambda": 0}, "lambda must lie strictly inside (0, 1), got 0"),
        ({"m": 100, "dep_family": "foo"}, "config key 'dep_family': unknown copula family 'foo'"),
        ({"m": 100, "mu": 0}, "config key 'mu' must be a positive number, got 0"),
        ({"m": 100, "mu": -1.5}, "config key 'mu' must be a positive number, got -1.5"),
        ({"m": 100, "p0": 1.5}, "config key 'p0' must be a number in [0, 1], got 1.5"),
        ({"m": 100, "p0": -0.1}, "config key 'p0' must be a number in [0, 1], got -0.1"),
        ({"m": 100, "tau": 0.4}, "config key 'tau' must be a number in (-1, 0], got 0.4"),
        ({"m": 100, "tau": -1}, "config key 'tau' must be a number in (-1, 0], got -1"),
        # a tau past the family's theta bracket fails before any replicate
        ({"m": 100, "dep_family": "frank", "tau": -0.95},
         "config key 'tau': frank copula takes kendall tau in [-0.9226, 0.9226], got -0.95"),
        ({"m": 100, "dep_family": "joe", "tau": -0.97},
         "config key 'tau': joe copula takes kendall tau in [-0.9610, 0.9610], got -0.97"),
        # the closed-form families take tau up to their brackets' reach too
        ({"m": 100, "tau": -0.99},
         "config key 'tau': clayton copula takes kendall tau in [-0.9615, 0.9615], got -0.99"),
        ({"m": 100, "dep_family": "gumbel", "tau": -0.99},
         "config key 'tau': gumbel copula takes kendall tau in [-0.9800, 0.9800], got -0.99"),
        ({"m": 100, "dep_family": "gaussian", "tau": -0.999},
         "config key 'tau': gaussian copula takes kendall tau in [-0.9910, 0.9910], "
         "got -0.999")]
    for mode in ("cell", "misspecification")
]

BAD_FIT_MODES = [5, "sometimes", None, "Fixed"]

# a refit takes the Kendall tau of each replicate's pairs: m = 1 has no pair, and
# few pairs can all agree, giving a tau-hat of +-1 that no copula family takes
BAD_REFITS = [
    ({"mode": "cell", "m": 1, "k_reps": 1}, "error: config key 'm' must be an integer >= 2, got 1"),
    ({"mode": "misspecification", "m": 1, "k_reps": 1},
     "error: config key 'm' must be an integer >= 2, got 1"),
    ({"mode": "cell", "m": 2, "k_reps": 1},
     "error: replicate 0: clayton at kendall tau 1.0: clayton copula takes kendall tau in "
     "[-0.9615, 0.9615], got 1.0"),
    ({"mode": "cell", "m": 4, "k_reps": 5, "dep_family": "frank", "seed": 0},
     "error: replicate 3: frank at kendall tau -1.0: frank copula takes kendall tau in "
     "[-0.9226, 0.9226], got -1.0"),
    ({"mode": "misspecification", "m": 2, "k_reps": 1, "analysis_families": ["gaussian"]},
     "error: replicate 0: gaussian at kendall tau 1.0: gaussian copula takes kendall tau in "
     "[-0.9910, 0.9910], got 1.0"),
]

# fixed mode builds each analysis model where the config enters: a family that
# cannot take tau fails before replicate 0 is drawn
FIXED_PAST_REACH = [
    ({"mode": "misspecification", "fit_mode": "fixed", "dep_family": "clayton", "tau": -0.95,
      "analysis_families": ["frank"]},
     "error: config key 'tau': frank copula takes kendall tau in [-0.9226, 0.9226], got -0.95"),
]

REPEATED_FAMILIES = [
    ({"mode": "selection", "n": 300, "reps": 2, "candidates": ["clayton", "clayton", "frank"]},
     "error: candidates lists family 'clayton' twice"),
    ({"mode": "misspecification", "m": 300, "k_reps": 1,
      "analysis_families": ["frank", "frank"]},
     "error: analysis_families lists family 'frank' twice"),
]

EMPTY_FAMILY_LISTS = [
    ({"mode": "misspecification", "m": 300, "k_reps": 1, "analysis_families": []},
     "error: analysis_families must name at least one family"),
]


class TestSimulateCommand:
    def test_cell_mode(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "mode": "cell", "m": 400, "mu": 3.0, "tau": -0.4, "k_reps": 2,
            "seed": 5,
        }))
        assert main(["simulate", str(cfgfile), "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "simtable.tsv").read_text().splitlines()
        assert lines[0] == "# seed: 5"
        assert len(lines) == 5
        payload = json.loads((tmp_path / "results.json").read_text())
        assert payload["config"]["k_reps"] == 2
        assert "fit_mode" not in payload["config"]
        assert "analysis_families" not in payload["config"]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"mode": "cell", "m": 100, "bogus": 1}))
        assert main(["simulate", str(cfgfile), "--out-dir", str(tmp_path)]) == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", REJECTED_CONFIGS, ids=repr)
    def test_rejected_config_leaves_no_out_dir(self, tmp_path, capsys, payload):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["simulate", str(cfgfile), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("payload, key", MISTYPED_VALUES)
    def test_non_numeric_value_rejected(self, tmp_path, capsys, payload, key):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(payload))
        assert main(["simulate", str(cfgfile), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config key ")
        assert key in err

    @pytest.mark.parametrize("payload, message", MISTYPED_FAMILY_LISTS)
    def test_mistyped_family_list_rejected(self, tmp_path, capsys, payload, message):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["simulate", str(cfgfile), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"{message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("payload, key, value", NON_STRING_FAMILIES)
    def test_non_string_family_rejected(self, tmp_path, capsys, payload, key, value):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(payload))
        assert main(["simulate", str(cfgfile), "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.strip() == (
            f"error: config key {key!r} must be a family name, got {value}")
        assert not (tmp_path / "simtable.tsv").exists()

    def test_removed_analysis_family_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"mode": "cell", "m": 100, "k_reps": 1,
                                       "analysis_family": "frank"}))
        assert main(["simulate", str(cfgfile), "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.strip() == (
            "error: unknown config keys: ['analysis_family']")
        assert not (tmp_path / "simtable.tsv").exists()

    @pytest.mark.parametrize("mode", ["mle", "true"])
    def test_removed_analysis_mode_rejected(self, tmp_path, capsys, mode):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"mode": "cell", "m": 100, "k_reps": 1,
                                       "analysis_mode": mode}))
        assert main(["simulate", str(cfgfile), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err == f"error: config key 'analysis_mode' must be 'tau', got {mode!r}\n"
        assert not (tmp_path / "simtable.tsv").exists()

    def test_malformed_json_names_its_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text('{"mode": "cell",')
        out = tmp_path / "out"
        assert main(["simulate", str(cfgfile), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfgfile}: Expecting property name enclosed in double quotes: "
            "line 1 column 17 (char 16)\n")
        assert not out.exists()

    def test_non_object_config_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text("[1, 2]")
        assert main(["simulate", str(cfgfile), "--out-dir", str(tmp_path)]) == 1
        assert "must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, message", BAD_SELECTION_STUDIES)
    def test_bad_selection_study_rejected(self, tmp_path, capsys, payload, message):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["simulate", str(cfgfile), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.strip() == message
        assert not out.exists()

    @pytest.mark.parametrize("payload, message", BAD_CELL_VALUES, ids=repr)
    def test_out_of_range_cell_value_is_named(self, tmp_path, capsys, payload, message):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["simulate", str(cfgfile), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"{message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["cell", "misspecification"])
    def test_alpha_zero_runs_as_in_test(self, tmp_path, mode):
        # alpha takes procedure.check_levels' rule, [0, 1), as test --alpha does
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"mode": mode, "m": 300, "k_reps": 1, "alpha": 0.0}))
        out = tmp_path / "out"
        assert main(["simulate", str(cfgfile), "--out-dir", str(out)]) == 0
        assert (out / "simtable.tsv").exists()
        assert json.loads((out / "results.json").read_text())["config"]["alpha"] == 0.0

    @pytest.mark.parametrize("payload, message", BAD_REFITS, ids=repr)
    def test_refit_without_a_kendall_tau_is_named(self, tmp_path, capsys, payload, message):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["simulate", str(cfgfile), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"{message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("payload, message", FIXED_PAST_REACH)
    def test_fixed_mode_rejects_tau_past_a_family_reach_before_drawing(
            self, tmp_path, capsys, monkeypatch, payload, message):
        drawn = []
        monkeypatch.setattr(sim, "generate_dataset", lambda *args: drawn.append(args))
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["simulate", str(cfgfile), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"{message}\n"
        assert drawn == []
        assert not out.exists()

    def test_fixed_mode_takes_one_hypothesis(self, tmp_path):
        # fixed mode estimates no tau, so m = 1 runs
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"mode": "misspecification", "m": 1, "k_reps": 1,
                                       "fit_mode": "fixed"}))
        out = tmp_path / "out"
        assert main(["simulate", str(cfgfile), "--out-dir", str(out)]) == 0
        assert (out / "simtable.tsv").exists()

    @pytest.mark.parametrize("fit_mode", BAD_FIT_MODES, ids=repr)
    def test_bad_fit_mode_names_its_key(self, tmp_path, capsys, fit_mode):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"mode": "misspecification", "m": 100, "k_reps": 1,
                                       "fit_mode": fit_mode}))
        out = tmp_path / "out"
        assert main(["simulate", str(cfgfile), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: config key 'fit_mode' must be 'fixed' or 'refit', got {fit_mode!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("payload, message", REPEATED_FAMILIES)
    def test_repeated_family_rejected(self, tmp_path, capsys, payload, message):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["simulate", str(cfgfile), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.strip() == message
        assert not out.exists()

    @pytest.mark.parametrize("payload, message", EMPTY_FAMILY_LISTS)
    def test_empty_family_list_rejected(self, tmp_path, capsys, payload, message):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["simulate", str(cfgfile), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.strip() == message
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["cell", "misspecification", "selection"])
    def test_negative_seed_flag_rejected(self, tmp_path, capsys, mode):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"mode": mode}))
        out = tmp_path / "out"
        assert main(["simulate", str(cfgfile), "--seed", "-1", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: config key 'seed' must be an integer >= 0, got -1\n")
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["cell", "misspecification"])
    @pytest.mark.parametrize("threads", ["0", "-5"])
    def test_threads_must_be_positive(self, tmp_path, capsys, mode, threads):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"mode": mode, "m": 300, "k_reps": 1}))
        assert main(["simulate", str(cfgfile), "--threads", threads,
                     "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip()
        assert err == f"error: threads must be a positive integer, got {threads}"
        assert not (tmp_path / "simtable.tsv").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"mode": "cell", "m": 300, "k_reps": 2, "seed": 5}))
        d1, d2 = tmp_path / "s5", tmp_path / "s9"
        d1.mkdir(), d2.mkdir()
        assert main(["simulate", str(cfgfile), "--out-dir", str(d1)]) == 0
        assert main(["simulate", str(cfgfile), "--seed", "9", "--out-dir", str(d2)]) == 0
        t1 = (d1 / "simtable.tsv").read_text()
        t2 = (d2 / "simtable.tsv").read_text()
        assert t1 != t2
        assert t2.splitlines()[0] == "# seed: 9"

    def test_misspecification_mode(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "mode": "misspecification", "m": 400, "k_reps": 2, "seed": 4,
            "analysis_families": ["joe"], "fit_mode": "refit",
        }))
        assert main(["simulate", str(cfgfile), "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "simtable.tsv").read_text().splitlines()
        assert lines[1] == "family\tmethod\tfdr\tfdr_sd\ttpr\ttpr_sd"
        assert any(line.startswith("joe\thard") for line in lines)
        config = json.loads((tmp_path / "results.json").read_text())["config"]
        assert (config["analysis_families"], config["fit_mode"]) == (["joe"], "refit")

    def test_misspecification_results_record_the_defaults(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"mode": "misspecification", "m": 200, "k_reps": 1}))
        assert main(["simulate", str(cfgfile), "--out-dir", str(tmp_path)]) == 0
        config = json.loads((tmp_path / "results.json").read_text())["config"]
        assert config["analysis_families"] == list(ft.DEFAULT_CANDIDATES)
        assert config["fit_mode"] == "refit"

    def test_selection_mode(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "mode": "selection", "n": 800, "true_family": "clayton",
            "tau": -0.4, "reps": 2, "seed": 3,
        }))
        assert main(["simulate", str(cfgfile), "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "simtable.tsv").read_text().splitlines()
        assert lines[1] == "family\tcriterion\tn_selected\tmean\tsd"

    def test_threads_identical_output(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"mode": "cell", "m": 300, "k_reps": 4, "seed": 2}))
        d1, d2 = tmp_path / "t1", tmp_path / "t2"
        assert main(["simulate", str(cfgfile), "--out-dir", str(d1)]) == 0
        assert main(["simulate", str(cfgfile), "--threads", "2",
                     "--out-dir", str(d2)]) == 0
        assert (d1 / "simtable.tsv").read_bytes() == (d2 / "simtable.tsv").read_bytes()
        assert (d1 / "results.json").read_bytes() == (d2 / "results.json").read_bytes()


# Every config object TestSimulateCommand rejects, with its --threads value.
REJECTED_RUNS = (
    [(payload, 1) for payload in REJECTED_CONFIGS]
    + [(payload, 1) for payload, *_ in MISTYPED_VALUES + NON_STRING_FAMILIES]
    + [(payload, 1) for payload, _ in
       BAD_SELECTION_STUDIES + REPEATED_FAMILIES + EMPTY_FAMILY_LISTS + MISTYPED_FAMILY_LISTS
       + BAD_REFITS + FIXED_PAST_REACH]
    + [({"mode": "cell", "m": 100, "bogus": 1}, 1),
       ({"mode": "cell", "m": 100, "k_reps": 1, "analysis_family": "frank"}, 1)]
    + [({"mode": "cell", "m": 100, "k_reps": 1, "analysis_mode": mode}, 1)
       for mode in ("mle", "true")]
    + [({"mode": "misspecification", "m": 100, "k_reps": 1, "fit_mode": fit_mode}, 1)
       for fit_mode in BAD_FIT_MODES]
    + [({"mode": mode, "m": 300, "k_reps": 1}, threads)
       for mode in ("cell", "misspecification") for threads in (0, -5)]
)


@pytest.mark.parametrize("payload, threads", REJECTED_RUNS, ids=repr)
def test_simulate_error_is_the_library_error(tmp_path, capsys, payload, threads):
    # the command adds nothing to the config schema: its message is run_config's
    with pytest.raises(ValueError) as exc:
        sim.run_config(payload, tmp_path / "lib", threads=threads)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(payload))
    assert main(["simulate", str(cfgfile), "--threads", str(threads),
                 "--out-dir", str(tmp_path / "cli")]) == 1
    assert capsys.readouterr().err == f"error: {exc.value}\n"
    assert not (tmp_path / "lib").exists()
    assert not (tmp_path / "cli").exists()


# sha256 of what `simulate` writes for small runs of each mode.  The two
# misspecification cases differ only in fit_mode: at seed 0 tau-hat moves
# Frank's and Joe's rejected sets, so the refit golden pins what refitting
# changes.
MISSPEC_CONFIG = {"mode": "misspecification", "m": 400, "k_reps": 2, "seed": 0,
                  "analysis_families": ["frank", "joe"]}
SIMULATE_CASES = {
    "cell": ({"mode": "cell", "m": 400, "mu": 3.0, "tau": -0.4, "k_reps": 2, "seed": 5},
             "69cfffdde7e5aad5af11b2a69bb12177e48b2e095e8b2c8d61cf4d7c439af695",
             "9b88af0fe23bf1e43c32b9d90044948727430fb4f11a12d574ab80b1a5f71b84"),
    "misspec_fixed": ({**MISSPEC_CONFIG, "fit_mode": "fixed"},
                      "bd5116e9122fbda4b9eb51d9aaf07dc44cf9ccbe3586021e121ae14e61fa06c5",
                      "3572fa9fb0858245562d835b65b6359d2a902b258109882edaf83ced9c089889"),
    "misspec_refit": ({**MISSPEC_CONFIG, "fit_mode": "refit"},
                      "c3ac17daeac42e6d238e8c2c5c70ce560951b80831e1edd07ce87637eca71cda",
                      "992cad506d0747a865a48874d9c9247319a50725df5a006688b872482125cf04"),
    "selection": ({"mode": "selection", "n": 300, "true_family": "clayton", "tau": -0.4,
                   "reps": 2, "seed": 3},
                  "4e790bb8810742e5f22b7f628c82102ea446294a7370da3e1cb261d368e2e172", None),
}


@pytest.mark.parametrize("case", sorted(SIMULATE_CASES))
def test_golden_simulate_outputs(tmp_path, case):
    config, table_sha, results_sha = SIMULATE_CASES[case]
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["simulate", str(cfgfile), "--out-dir", str(out)]) == 0
    assert hashlib.sha256((out / "simtable.tsv").read_bytes()).hexdigest() == table_sha
    results = out / "results.json"
    if results_sha is None:
        assert not results.exists()
        return
    assert hashlib.sha256(results.read_bytes()).hexdigest() == results_sha


def test_refit_golden_differs_from_fixed():
    fixed, refit = SIMULATE_CASES["misspec_fixed"], SIMULATE_CASES["misspec_refit"]
    assert {**fixed[0], "fit_mode": "refit"} == refit[0]
    assert fixed[1] != refit[1]


class TestParserBasics:
    def test_help_available_for_all_subcommands(self, capsys):
        for cmd in ("bootstrap", "fit", "test", "simulate"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--help"])
            assert exc.value.code == 0
            assert "usage" in capsys.readouterr().out

    @pytest.mark.parametrize("cmd", ["fit", "test"])
    def test_fit_and_test_describe_their_shared_arguments_alike(self, capsys, cmd):
        with pytest.raises(SystemExit):
            main([cmd, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert ("--null-mixture NULL_MIXTURE JSON file with the null mixture "
                "(weights/means/sds)") in text
        assert "input TSV with id, beta_hat and y/sd_boot columns" in text

    def test_invalid_flag_exits_nonzero(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["test", "nofile.tsv", "--method", "H", "--bogus-flag"])
        assert exc.value.code == 2
        assert not (tmp_path / "decisions.tsv").exists()

    def test_invalid_method_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["test", "x.tsv", "--method", "Q"])
        assert exc.value.code == 2


# Each command after the import, in one fresh interpreter.  Loaded modules
# accumulate, so the commands that load no heavy subpackage come first; then
# `fit`, the control that the probe sees a subpackage load, and last
# `test --copula auto`, which may load only what `fit` loaded.
COLD_START_SCRIPT = textwrap.dedent("""
    import json, sys
    HEAVY = ("scipy.stats", "scipy.optimize", "scipy.integrate")
    def loaded():
        return [m for m in HEAVY if m in sys.modules]
    steps = {}
    from twostage_fdr import cli
    steps["import"] = loaded()
    counts, summary, out = sys.argv[1:4]
    with open(out + "/fixed.json", "w") as fh:
        json.dump({"mode": "misspecification", "fit_mode": "fixed", "m": 200, "k_reps": 1,
                   "analysis_families": ["frank", "joe"]}, fh)
    with open(out + "/cell.json", "w") as fh:
        json.dump({"mode": "cell", "m": 200, "k_reps": 1}, fh)
    for name, argv in [
        ("bootstrap", ["bootstrap", counts, summary]),
        ("test H frank", ["test", summary, "--method", "H", "--copula", "frank:-2.4",
                          "--out-dir", out + "/h"]),
        ("test storey", ["test", summary, "--method", "storey", "--out-dir", out + "/st"]),
        ("simulate fixed", ["simulate", out + "/fixed.json", "--out-dir", out + "/sim"]),
        ("simulate cell", ["simulate", out + "/cell.json", "--out-dir", out + "/cell"]),
        ("fit", ["fit", summary, "--out-dir", out + "/fit"]),
        ("test S auto", ["test", summary, "--method", "S", "--copula", "auto",
                         "--out-dir", out + "/s"]),
    ]:
        assert cli.main(argv) == 0, name
        steps[name] = loaded()
    print(json.dumps(steps))
""")


def test_cold_commands_load_no_heavy_scipy_subpackage(tmp_path):
    counts = tmp_path / "counts.tsv"
    counts.write_text(seeded_counts_text())
    src = str(Path(twostage_fdr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run(
        [sys.executable, "-c", COLD_START_SCRIPT, str(counts), str(tmp_path / "summary.tsv"),
         str(tmp_path)], env=env, timeout=120, capture_output=True, text=True, check=True)
    steps = json.loads(done.stdout.splitlines()[-1])
    assert steps == {"import": [], "bootstrap": [], "test H frank": [], "test storey": [],
                     "simulate fixed": [], "simulate cell": [],
                     "fit": ["scipy.optimize"],  # its maximum-likelihood fits load it
                     "test S auto": ["scipy.optimize"]}
