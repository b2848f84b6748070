"""Smoke test of the benchmark at tiny sizes; not a timing gate.

Every workload runs with 300 genes or M = 500 and two operations, untraced
and traced.  The checks: every metric named in BENCHMARK.json is printed
with its unit, no operation fails against a reference recorded in the same
test, a reference with one decision altered makes an operation fail, a
pipeline pass cannot pass its checks on an earlier pass's output files,
and the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "3", "--seconds", "1", "--ops", "2", "--genes", "300", "--m", "500"]


def run_bench(workload, trace, work, *extra, script=HERE / "run.py", cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--trace", str(trace),
         *TINY, "--work-dir", str(work), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return done


def result_of(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def _bump_first_int(record):
    """Alter one decision: add 1 to the first integer in the record."""
    items = record.items() if isinstance(record, dict) else enumerate(record)
    for key, value in items:
        if isinstance(value, int) and not isinstance(value, bool):
            record[key] = value + 1
            return True
        if isinstance(value, (dict, list)) and _bump_first_int(value):
            return True
    return False


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_and_checks_decisions(workload, tmp_path):
    ref = tmp_path / "reference.json"
    result, text = result_of(run_bench(workload, 0, tmp_path / "w", "--write-reference", ref))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "failed_frac" in text

    result, text = result_of(run_bench(workload, 1, tmp_path / "w", "--reference", ref))
    assert result["correct"] and result["failed"] == 0
    assert "checked 4 of 4 operations" in text
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert result["metrics"]["trace.structure_ok"]["value"] == 1

    stored = json.loads(ref.read_text())
    assert _bump_first_int(next(iter(stored["decisions"].values())))
    altered = tmp_path / "altered.json"
    altered.write_text(json.dumps(stored))
    result, text = result_of(run_bench(workload, 0, tmp_path / "w", "--reference", altered))
    assert not result["correct"] and result["failed"] > 0
    assert float(text.split("failed_frac", 1)[1].split()[0]) > 0


def test_pipeline_checks_do_not_accept_an_earlier_pass_output(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    import workloads

    pipeline = workloads.Pipeline(3, tmp_path, 300)
    pipeline.setup()
    for i in range(2):
        pipeline.prepare(i)
        for name, step in pipeline.steps(i):
            if i == 0 or name != "fit_s":  # the second pass's fit writes nothing
                step()
        if i == 0:
            assert pipeline.invariants(pipeline.decisions()) == []
    with pytest.raises(FileNotFoundError):
        pipeline.decisions()


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench("sim_cell", 0, tmp_path / "w", script=tmp_path / HERE.name / "run.py",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
