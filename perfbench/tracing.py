"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function under every name it is
bound to in the loaded ``twostage_fdr`` modules (so by-name imports such as
``procedure.copula_cdf`` or ``copula.bvn_cdf`` are covered too) and
``Tracer.uninstall`` puts the originals back.  Spans are kept in memory as
``[id, parent, name, family, count, start, end]`` and turned into per-layer
metrics by ``layer_metrics``; ``dump`` writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np
from twostage_fdr.fit import DEFAULT_CANDIDATES
from twostage_fdr.procedure import default_gamma1_grid

PACKAGE = "twostage_fdr"

# module -> public functions that get a span
TRACED = {
    "ingest": ("read_counts", "summarize", "write_summary"),
    "marginal": ("build_table",),
    "fit": ("empirical_kendall_tau", "fit_mle", "select_copula"),
    "copula": ("cdf", "hfunc", "hfunc_inverse", "log_density", "tau_to_theta"),
    "bvn": ("bvn_cdf",),
    "procedure": ("run_two_stage_hard", "aggregate_hard", "select_gamma",
                  "run_two_stage_soft", "run_one_stage_storey", "write_decisions_tsv"),
    "simulate": ("generate_dataset", "analysis_model"),
    "cli": ("main",),
}

# Bindings made by `from .x import y`; if one of these is missed the spans
# under it vanish, so install() insists on each of them.
REQUIRED_ALIASES = (("procedure", "copula_cdf"), ("procedure", "hfunc"),
                    ("copula", "bvn_cdf"), ("fit", "log_density"))

COPULA_FAMILIES = ("independence", "gaussian", "frank", "clayton", "gumbel", "joe")
POINT_FUNCS = ("copula.cdf", "copula.hfunc", "copula.hfunc_inverse", "bvn.bvn_cdf")

ID, PARENT, NAME, FAMILY, COUNT, START, END = range(7)


def _points(x, y) -> int:
    return int(np.broadcast(np.asarray(x), np.asarray(y)).size)


def _model_family(args, kwargs):
    return args[0].family if args else kwargs["model"].family


def _gamma1_levels(args, kwargs):
    grid = kwargs.get("gamma1_grid", args[4] if len(args) > 4 else None)
    return len(default_gamma1_grid() if grid is None else grid)


def _cli_io(argv):
    """(bytes read, bytes written) of one CLI command, from its file arguments.

    The workload removes the outputs of the previous pass before each pass,
    so every file found under an output name was written by this command.
    """
    read = os.path.getsize(argv[1]) if len(argv) > 1 and os.path.isfile(argv[1]) else 0
    if argv[0] == "bootstrap":
        outputs = [argv[2]]
    else:
        out_dir = argv[argv.index("--out-dir") + 1] if "--out-dir" in argv else "."
        outputs = [os.path.join(out_dir, f) for f in os.listdir(out_dir)]
    written = sum(os.path.getsize(p) for p in outputs if os.path.isfile(p))
    return read, written


# name -> info(args, kwargs, result) -> (family, count)
_INFO = {
    "copula.cdf": lambda a, k, r: (_model_family(a, k), _points(a[1], a[2])),
    "copula.hfunc": lambda a, k, r: (_model_family(a, k), _points(a[1], a[2])),
    "copula.hfunc_inverse": lambda a, k, r: (_model_family(a, k), _points(a[1], a[2])),
    "copula.log_density": lambda a, k, r: (_model_family(a, k), None),
    "copula.tau_to_theta": lambda a, k, r: (a[0] if a else k["family"], None),
    "bvn.bvn_cdf": lambda a, k, r: (None, _points(a[0], a[1])),
    "ingest.read_counts": lambda a, k, r: (None, r.n_genes),
    # count = (grid levels + the final run, M)
    "procedure.run_two_stage_hard": lambda a, k, r: (
        None, (_gamma1_levels(a, k) + 1, a[0].m)),
    "fit.select_copula": lambda a, k, r: (
        None, len(tuple(k.get("families", a[1] if len(a) > 1 else DEFAULT_CANDIDATES)))),
    "cli.main": lambda a, k, r: (None, _cli_io(list(a[0]))),
}


class Tracer:
    """Records spans for every traced call while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        info = _INFO.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, None, None, 0.0, 0.0]
            spans.append(rec)
            stack.append(rec[ID])
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if info is not None:
                rec[FAMILY], rec[COUNT] = info(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for modname, fnames in TRACED.items():
            home = importlib.import_module(f"{PACKAGE}.{modname}")
            for fname in fnames:
                original = getattr(home, fname)
                wrapped = self._wrap(f"{modname}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapped)
        patched = {(m.__name__.rsplit(".", 1)[-1], a) for m, a, _ in self._patched}
        missing = [f"{m}.{a}" for m, a in REQUIRED_ALIASES if (m, a) not in patched]
        if missing:
            self.uninstall()
            raise RuntimeError(f"trace bindings not found: {missing}")

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def reset(self) -> list:
        spans = list(self.spans)
        self.spans.clear()
        return spans


def _ancestor(spans, span, name):
    parent = span[PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return parent
        parent = spans[parent][PARENT]
    return None


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one operation's spans (self times in seconds)."""
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    out = {}
    for modname, fnames in TRACED.items():
        for fname in fnames:
            out[f"{modname}.{fname}_s"] = 0.0
            out[f"{modname}.{fname}_calls"] = 0
    for fn in POINT_FUNCS:
        out[f"{fn}_points"] = 0
    for fname in TRACED["copula"]:
        for fam in COPULA_FAMILIES:
            out[f"copula.{fname}.{fam}_s"] = 0.0
    out.update({"ingest.genes": 0, "cli.bytes_read": 0, "cli.bytes_written": 0})
    hard_points = hard_needed = 0
    for s in spans:
        name = s[NAME]
        self_time = s[END] - s[START] - child_time[s[ID]]
        out[f"{name}_s"] += self_time
        out[f"{name}_calls"] += 1
        if name in POINT_FUNCS:
            out[f"{name}_points"] += s[COUNT]
        if name.startswith("copula."):
            out[f"{name}.{s[FAMILY]}_s"] += self_time
        if name == "ingest.read_counts":
            out["ingest.genes"] += s[COUNT]
        elif name == "cli.main":
            out["cli.bytes_read"] += s[COUNT][0]
            out["cli.bytes_written"] += s[COUNT][1]
        elif name == "procedure.run_two_stage_hard":
            hard_needed += s[COUNT][0] * s[COUNT][1]
        elif name == "copula.cdf" and _ancestor(spans, s, "procedure.run_two_stage_hard") is not None:
            hard_points += s[COUNT]
    out["procedure.hard_cdf_fraction"] = hard_points / hard_needed if hard_needed else 0.0
    return out


def structure_errors(spans, expected_calls: dict) -> list:
    """Count checks that expose a missed binding as a wrong count.

    Each hard run makes one aggregate_hard and one select_gamma call per
    grid level plus one for the final run; each select_copula fits every
    candidate family once; ``expected_calls`` gives per-operation totals.
    """
    errors = []
    below = defaultdict(lambda: defaultdict(int))
    for s in spans:
        for owner in ("procedure.run_two_stage_hard", "fit.select_copula"):
            anc = _ancestor(spans, s, owner)
            if anc is not None:
                below[anc][s[NAME]] += 1
    for s in spans:
        if s[NAME] == "procedure.run_two_stage_hard":
            want = s[COUNT][0]
            for child in ("procedure.aggregate_hard", "procedure.select_gamma"):
                got = below[s[ID]][child]
                if got != want:
                    errors.append(f"{child}: {got} calls in a hard run, expected {want}")
        elif s[NAME] == "fit.select_copula":
            got = below[s[ID]]["fit.fit_mle"]
            if got != s[COUNT]:
                errors.append(f"fit.fit_mle: {got} calls in select_copula, "
                              f"expected {s[COUNT]}")
    calls = defaultdict(int)
    for s in spans:
        calls[s[NAME]] += 1
    for name, want in expected_calls.items():
        if calls[name] != want:
            errors.append(f"{name}: {calls[name]} calls per operation, expected {want}")
    return errors


def dump(path, spans_by_op) -> None:
    """Write spans as JSON lines: op, id, parent, name, family, count, start, end."""
    with open(path, "w", encoding="utf-8") as fh:
        for op, spans in spans_by_op:
            for s in spans:
                fh.write(json.dumps([op] + s) + "\n")
