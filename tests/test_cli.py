"""End-to-end CLI tests."""

import gzip
import hashlib
import json

import numpy as np
import pytest

from twostage_fdr import copula as cp
from twostage_fdr import ingest as ig
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
        # oracle for gene 2
        expected = ig.bootstrap_sd([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])[0]
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
        assert f"error: {table}: line 3: non-finite beta_hat or y" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, message", [
        ('{"weights": [1.0], "means": [0.0]}', "missing keys: ['sds']"),
        ('[1.0, 0.0, 1.0]', "must be an object"),
    ])
    def test_malformed_null_mixture_fails(self, tmp_path, capsys, payload, message):
        table = tmp_path / "table.tsv"
        write_test_table(table, m=50, seed=7)
        null = tmp_path / "null.json"
        null.write_text(payload)
        assert main(["test", str(table), "--method", "storey", "--null-mixture", str(null),
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err

    def test_duplicate_id_names_line(self, tmp_path, capsys, null_json):
        table = tmp_path / "table.tsv"
        table.write_text("gene_id\tbeta_hat\ty\ng1\t0.5\t0.2\ng2\t0.1\t0.3\ng1\t0.2\t0.4\n")
        assert main(["test", str(table), "--method", "storey", "--null-mixture", null_json,
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert f"{table}: line 4: duplicate id 'g1'" in capsys.readouterr().err

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
    "H/decisions.tsv": "c18ce042cb84b86a2ef3695993aeccac3914098d1bd3d81206d1ec447b867a59",
    "H/gamma1_curve.tsv": "949c326d7ac12eb96c940a06ec58e300d20701fab672f59253b0ac9cdb5058ff",
    "H/outcome.json": "9490158dff19324d4d60d8d66ac92213edbeee14b6857d754bbe462096f6fbc9",
    "S/decisions.tsv": "590d7dedc93e4b7e7dc64b2e40857ef51734821956ee2eb7b1a6b3c9969b0aa2",
    "S/outcome.json": "fbe0e68df1ce296d1df36c5709ee12e34ddd04d058e259d5a143802455bc1be7",
    "fit/selection.json": "09d781233955980e0423513675f0a9621df6afa112735ff984c9cb10df088c13",
    "storey/decisions.tsv": "283ebaa98c4fe4fa15937598e7fd4967f9b0986afa3be131b3c8bf17417dbd24",
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

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"mode": "cell", "m": 100, "bogus": 1}))
        assert main(["simulate", str(cfgfile), "--out-dir", str(tmp_path)]) == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, key", [
        ({"mode": "cell", "m": "abc"}, "'m'"),
        ({"mode": "cell", "m": 8000.0}, "'m'"),
        ({"mode": "cell", "mu": "3"}, "'mu'"),
        ({"mode": "misspecification", "lambda": None}, "'lambda'"),
        ({"mode": "selection", "reps": "2"}, "'reps'"),
        ({"mode": "cell", "seed": True}, "'seed'"),
        ({"mode": "misspecification", "analysis_families": 5}, "'analysis_families'"),
        ({"mode": "misspecification", "analysis_families": "gumbel"}, "'analysis_families'"),
        ({"mode": "selection", "candidates": 3}, "'candidates'"),
        ({"mode": "selection", "candidates": ["clayton", 1]}, "'candidates'"),
    ])
    def test_non_numeric_value_rejected(self, tmp_path, capsys, payload, key):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(payload))
        assert main(["simulate", str(cfgfile), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config key ")
        assert key in err

    @pytest.mark.parametrize("mode", ["mle", "true"])
    def test_removed_analysis_mode_rejected(self, tmp_path, capsys, mode):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"mode": "cell", "m": 100, "k_reps": 1,
                                       "analysis_mode": mode}))
        assert main(["simulate", str(cfgfile), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "analysis_mode must be 'tau'" in err
        assert not (tmp_path / "simtable.tsv").exists()

    def test_non_object_config_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text("[1, 2]")
        assert main(["simulate", str(cfgfile), "--out-dir", str(tmp_path)]) == 1
        assert "must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, message", [
        ({"mode": "selection", "n": 300, "reps": 1, "candidates": ["clayton", "foo"]},
         "error: unknown copula family 'foo'"),
        ({"mode": "selection", "n": 300, "reps": 0}, "error: reps must be positive, got 0"),
        ({"mode": "selection", "n": 300, "reps": -2}, "error: reps must be positive, got -2"),
    ])
    def test_bad_selection_study_rejected(self, tmp_path, capsys, payload, message):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(payload))
        assert main(["simulate", str(cfgfile), "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.strip() == message
        assert not (tmp_path / "simtable.tsv").exists()

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


class TestParserBasics:
    def test_help_available_for_all_subcommands(self, capsys):
        for cmd in ("bootstrap", "fit", "test", "simulate"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--help"])
            assert exc.value.code == 0
            assert "usage" in capsys.readouterr().out

    def test_invalid_flag_exits_nonzero(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["test", "nofile.tsv", "--method", "H", "--bogus-flag"])
        assert exc.value.code == 2
        assert not (tmp_path / "decisions.tsv").exists()

    def test_invalid_method_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["test", "x.tsv", "--method", "Q"])
        assert exc.value.code == 2
