"""Benchmark of twostage-fdr: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from its
``src`` directory, and the run exits non-zero without a result when that
is missing.  See ``bench.py`` for what is measured and checked.
"""

import os
import sys
from pathlib import Path

# BLAS pinned to one thread before numpy is first imported.
PINNED_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for var in PINNED_ENV:
    os.environ[var] = "1"
# The process, and the import timings it starts, stay on one CPU: on a
# shared host each CPU's speed drifts on its own, and the calibration kernel
# only cancels that drift when it runs where the operation runs.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

if __name__ == "__main__":
    if not (SRC / "twostage_fdr" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC}; run from a source checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import twostage_fdr
    if Path(twostage_fdr.__file__).resolve().parent != SRC / "twostage_fdr":
        sys.exit(f"error: twostage_fdr imported from {twostage_fdr.__file__}, not {SRC}")
    import bench
    sys.exit(bench.main())
