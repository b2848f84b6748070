"""Measurement, checks and reporting behind ``run.py``.

Inputs come from ``--seed``.  Operations run back to back, one client: the
next starts when the previous one has finished, until the next one would
end past ``--seconds``.  Each operation's decisions are checked against the
stored reference (``reference/<workload>.json``) where one exists for its
key, and against invariants always; an operation that raises or disagrees
counts as failed.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

* ``op_cal_p50``: median time of one operation in units of the calibration
  kernel (see ``calibrate.py``).  Raw wall times drift with the host's speed
  by 10-20% between runs; the ratio repeats within a few percent.
* ``setup_s``: median time to import ``twostage_fdr.cli`` in a fresh
  interpreter, which every CLI call pays.
* ``peak_rss_mb``: peak resident memory of the benchmark process.

The lines printed before the result also give the raw wall times: per pass
and per CLI command for ``pipeline``; replicates per second, median and
tail for the simulations; and ``failed_frac``.

``--trace 1`` alternates untraced and traced runs of the same operation
and reports per-layer self times and counts per operation (medians over
the traced operations) plus the tracing overhead.  The last line of
standard output is the JSON result, and a run record is written under the
work directory.

``--workload all`` runs the three workloads one after another in this
process; its ``peak_rss_mb`` is then the process peak up to each workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

import calibrate
import tracing
import workloads
from run import PINNED_ENV

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = tuple(workloads.WORKLOADS)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_REPEATS = 5


def fresh_import_seconds() -> float:
    """Time `import twostage_fdr.cli` in a new interpreter, as every CLI call pays it."""
    code = ("import time; t = time.perf_counter(); import twostage_fdr.cli; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, timeout=120,
                          capture_output=True, text=True, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def tail(samples):
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    n = len(samples)
    if n < 21:  # below this the percentile would not lie above the median
        return None, None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_rev():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "twostage_fdr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Runner:
    """Runs operations, checks their decisions and keeps the tallies.

    Each step of an operation is timed between two calibration boundaries
    (``calibrate.boundary_seconds``); the step's time over the mean of those
    two kernel times is its calibrated time, and an operation's calibrated
    time is the sum over its steps.  The workload's ``prepare`` runs before
    the first boundary, untimed.
    """

    def __init__(self, workload, reference: dict | None):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.unreferenced = 0
        self.errors = []
        self.observed = {}
        self.kernel_s = []

    def run(self, i: int):
        """One operation: (seconds, calibrated time, step times), or None if it raised.

        An operation whose decisions are wrong still returns its times, and
        counts as failed.
        """
        self.attempted += 1
        done = None
        try:
            self.workload.prepare(i)
            if not self.kernel_s:
                self.kernel_s.append(calibrate.boundary_seconds())
            seconds = cal = 0.0
            steps = {}
            for name, step in self.workload.steps(i):
                t0 = time.perf_counter()
                step()
                steps[name] = time.perf_counter() - t0
                self.kernel_s.append(calibrate.boundary_seconds())
                seconds += steps[name]
                cal += steps[name] / (0.5 * (self.kernel_s[-2] + self.kernel_s[-1]))
            done = seconds, cal, steps
            errors = self.check(i)
        except Exception:
            errors = [traceback.format_exc(limit=3).strip()]
        if errors:
            self.failed += 1
            self.errors.append({"op": i, "errors": errors[:10]})
            print(f"operation {i} failed: {errors[0]}", file=sys.stderr)
        return done

    def check(self, i: int) -> list:
        dec = self.workload.decisions()
        key = self.workload.key(i)
        self.observed[key] = dec
        errors = self.workload.invariants(dec)
        expected = (self.reference or {}).get(key)
        if expected is None:
            self.unreferenced += 1
        else:
            errors += workloads.compare(expected, dec)
        return errors


def measure_untraced(runner, seconds: float, ops: int | None):
    """Operations back to back: (seconds, calibrated times, step times)."""
    durations, cal, steps = [], [], {}
    start = time.perf_counter()
    i = 0
    while ops is None or i < ops:
        if ops is None and i > 0:
            typical = statistics.median(durations) if durations else 0.0
            if time.perf_counter() - start + typical > seconds:
                break
        done = runner.run(i)
        if done is not None:
            durations.append(done[0])
            cal.append(done[1])
            for name, value in done[2].items():
                steps.setdefault(name, []).append(value)
        i += 1
    return durations, cal, steps


def measure_traced(runner, seconds: float, ops: int | None):
    """Each operation untraced, then traced: both results, layer metrics and spans."""
    tracer = tracing.Tracer()
    pairs, per_op, structure, kept = [], [], [], []
    start = time.perf_counter()
    i = 0
    while ops is None or i < ops:
        if ops is None and i > 0:
            pair = statistics.median(p[0][0] + p[1][0] for p in pairs) if pairs else 0.0
            if time.perf_counter() - start + pair > seconds:
                break
        plain = runner.run(i)
        tracer.install()
        try:
            with_trace = runner.run(i)
        finally:
            tracer.uninstall()
        spans = tracer.reset()
        if plain is not None and with_trace is not None:
            pairs.append((plain, with_trace))
            per_op.append(tracing.layer_metrics(spans))
            structure += tracing.structure_errors(spans, runner.workload.expected_calls)
            kept.append((i, spans))
        i += 1
    return pairs, per_op, structure, kept


def end_to_end(args, workload, runner):
    """Untraced run: (metrics, report rows, raw samples), or None if every op raised."""
    # a fixed operation count is a smoke run: one import will do
    setup = [fresh_import_seconds() for _ in range(1 if args.ops else SETUP_REPEATS)]
    durations, cal, steps = measure_untraced(runner, args.seconds, args.ops)
    if not durations:
        return None
    n = len(durations)
    metrics = {
        "op_cal_p50": statistics.median(cal),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = [("op_cal_p50", metrics["op_cal_p50"], UNITS["op_cal_p50"], n,
               "operation time / calibration kernel time"),
              ("setup_s", metrics["setup_s"], UNITS["setup_s"], len(setup),
               "fresh import of the CLI"),
              ("peak_rss_mb", metrics["peak_rss_mb"], UNITS["peak_rss_mb"], 1, ""),
              ("calibration_ms", statistics.median(runner.kernel_s) * 1e3, "ms",
               len(runner.kernel_s), "")]
    if workload.name == "pipeline":
        report.append(("pipeline_s", statistics.median(durations), "s", n, ""))
        report += [(name, statistics.median(steps[name]), "s", len(steps[name]), "")
                   for name in workload.stages]
    else:
        ms = [d * 1e3 for d in durations]
        value, pct = tail(ms)
        report += [("replicates_per_s", n / sum(durations), "1/s", n, ""),
                   ("replicate_ms_p50", statistics.median(ms), "ms", n, ""),
                   ("replicate_ms_tail", value, "ms", n,
                    f"p{pct:.1f}" if pct else "fewer than 21 samples")]
    report.append(("failed_frac", runner.failed / runner.attempted, "ratio",
                   runner.attempted, ""))
    return metrics, report, {"durations_s": durations, "calibrated": cal, "steps_s": steps,
                             "setup_s": setup, "kernel_s": runner.kernel_s}


def per_layer(args, workload, runner):
    """Traced run: (metrics, report rows, raw samples), or None if every op raised."""
    pairs, per_op, structure, kept = measure_traced(runner, args.seconds, args.ops)
    if not per_op:
        return None
    metrics = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
    # calibrated times, so that drift in host speed between the two runs cancels
    untraced = sum(plain[1] for plain, _ in pairs)
    metrics["trace.overhead_frac"] = sum(traced[1] for _, traced in pairs) / untraced - 1.0
    metrics["trace.structure_ok"] = 0 if structure else 1
    for error in sorted(set(structure)):
        print(f"structure check: {error}", file=sys.stderr)
    tracing.dump(workload.dir / f"spans-seed{args.seed}.jsonl", kept)
    report = [(name, value, UNITS[name], len(per_op), "")
              for name, value in metrics.items()]
    return metrics, report, {"untraced_s": [p[0][0] for p in pairs],
                             "traced_s": [p[1][0] for p in pairs],
                             "structure_errors": structure}


def write_reference(path: Path, workload, observed: dict) -> None:
    """Merge observed decisions into a reference file, one entry per line."""
    decisions = {}
    if path.is_file():
        old = json.loads(path.read_text())
        if old["size"] == workload.size:
            decisions = old["decisions"]
    decisions.update(observed)
    entries = sorted(decisions.items(), key=lambda kv: int(kv[0]))
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in entries)
    path.write_text(f'{{\n"workload": {json.dumps(workload.name)},\n'
                    f'"size": {json.dumps(workload.size)},\n'
                    f'"decisions": {{\n{body}\n}}\n}}\n')


def run_workload(args, name: str):
    """Set up, measure and report one workload; returns its result object."""
    load_start = os.getloadavg()
    work_dir = args.work_dir / name
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](args.seed, work_dir,
                                         args.genes if name == "pipeline" else args.m)
    t0 = time.perf_counter()
    setup_info = workload.setup()
    input_s = time.perf_counter() - t0

    ref_path = args.reference or HERE / "reference" / f"{name}.json"
    reference = None
    if ref_path.is_file():
        stored = json.loads(ref_path.read_text())
        if stored["size"] == workload.size:
            reference = stored["decisions"]
    runner = Runner(workload, reference)

    measured = (per_layer if args.trace else end_to_end)(args, workload, runner)
    if measured is None:
        print(f"error: every {name} operation raised", file=sys.stderr)
        return None
    metrics, report, samples = measured
    if args.write_reference is not None:
        write_reference(args.write_reference, workload, runner.observed)

    checked = runner.attempted - runner.unreferenced
    reference_note = f"reference: checked {checked} of {runner.attempted} operations"
    if reference is None:
        reference_note += f" (none stored for size {workload.size} in {ref_path.name})"
    if runner.unreferenced:
        reference_note += (f"; no reference was checked for {runner.unreferenced} "
                           "(invariants only)")
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": workload.size,
        "git_rev": _git_rev(), "source_sha256": _source_sha256(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "thread_env": {v: os.environ.get(v) for v in PINNED_ENV},
        "input_generation_s": input_s, "setup": setup_info,
        "attempted": runner.attempted, "failed": runner.failed,
        "reference": reference_note, "errors": runner.errors,
        "metrics": {m: {"value": v, "unit": u, "n": n, "note": note}
                    for m, v, u, n, note in report},
        "samples": samples,
    }
    first = next(iter(runner.observed.values()), None)
    if name == "pipeline" and first:
        record["decisions"] = {"pi0_hat_hard": first["hard"]["pi0_hat"],
                               "n_rejected_hard": first["hard"]["n_rejected"],
                               "n_rejected_soft": first["soft"]["n_rejected"],
                               "bic_winner": first["bic_winner"]}
    record_path = work_dir / f"record-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {name} seed={args.seed} trace={args.trace} size={workload.size} "
          f"python={record['python']} numpy={record['numpy']} scipy={record['scipy']} "
          f"nproc={record['nproc']} load={load_start[0]:.2f}->{record['loadavg_end'][0]:.2f}")
    print(f"# input generation {input_s:.3f} s; {reference_note}")
    if "decisions" in record:
        print(f"# decisions: {record['decisions']}")
    for metric, value, unit, n, note in report:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{metric:<34} {shown:>14} {unit:<6} n={n} {note}".rstrip())
    print(f"# run record: {record_path}")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {m: {"value": v, "unit": UNITS[m]} for m, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' runs every workload in this process, one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many operations (pairs when tracing) and "
                             "time one import for setup_s: a smoke run")
    parser.add_argument("--genes", type=int, default=20_000, help="pipeline input size")
    parser.add_argument("--m", type=int, default=8000, help="hypotheses per replicate")
    parser.add_argument("--work-dir", type=Path, default=ROOT / ".perfbench_work")
    parser.add_argument("--reference", type=Path, default=None,
                        help="decision reference (default: reference/<workload>.json)")
    parser.add_argument("--write-reference", type=Path, default=None,
                        help="merge the decisions seen in this run into this file")
    args = parser.parse_args(argv)
    if args.workload == "all" and (args.reference or args.write_reference):
        parser.error("--reference and --write-reference need a single workload")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(args, name)
        if results[name] is None:
            return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{m}": v for w, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0
