"""The benchmark's workloads reproduce its stored decisions.

The benchmark checks every operation against ``perfbench/reference``, but
only when it runs.  These tests replay the first stored seeds of the two
simulation workloads (M = 8000) and the stored pipeline seed (20k genes) at
the stored sizes with the workload classes themselves, loaded from
``perfbench/workloads.py``, so a change that flips a reference decision
fails here too and the configs cannot drift from the benchmark's.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workloads():
    """perfbench/workloads.py, loaded from its file: the benchmark's workloads.
    It imports its sibling ``counts`` by name, as the benchmark's path allows."""
    sys.modules["counts"] = _load("counts", PERFBENCH / "counts.py")
    try:
        return _load("perfbench_workloads", PERFBENCH / "workloads.py")
    finally:
        del sys.modules["counts"]


WORKLOADS = _workloads()


def _stored(name):
    return json.loads((PERFBENCH / "reference" / f"{name}.json").read_text())


def _replay(workload, stored, i):
    """Run operation i of the workload and check its decisions."""
    workload.prepare(i)
    for _, step in workload.steps(i):
        step()
    observed = workload.decisions()
    assert workload.invariants(observed) == [], i
    assert WORKLOADS.compare(stored["decisions"][workload.key(i)], observed) == [], i


@pytest.mark.parametrize("name, seeds", [("sim_cell", 40), ("misspec_fixed", 8)])
def test_replicates_match_the_benchmark_reference(name, seeds, tmp_path):
    stored = _stored(name)
    workload = WORKLOADS.WORKLOADS[name](0, tmp_path, stored["size"]["m"])
    assert workload.size == stored["size"] == {"m": 8000}
    for i in range(seeds):
        _replay(workload, stored, i)


def test_pipeline_matches_the_benchmark_reference(tmp_path):
    # seed 0: the BIC winner, hard and soft gamma_hat (to a relative 1e-12),
    # gamma1_hat, the gamma1 curve and the rejected sets
    stored = _stored("pipeline")
    workload = WORKLOADS.WORKLOADS["pipeline"](0, tmp_path, stored["size"]["genes"])
    assert workload.size == stored["size"] == {"genes": 20000}
    workload.setup()
    _replay(workload, stored, 0)
