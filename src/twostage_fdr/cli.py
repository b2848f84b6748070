"""Command-line interface: bootstrap, fit, test and simulate subcommands.

Every run is reproducible: all randomness flows from --seed, and the seed
is recorded in the output headers.  Flags override values given in JSON
config files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import copula as cp
from . import fit as ft
from . import ingest as ig
from . import marginal as mg
from . import procedure as proc
from . import simulate as sim

_METHOD_ALIASES = {"h": "hard", "hard": "hard", "s": "soft", "soft": "soft",
                   "storey": "storey"}


def parse_copula_spec(spec: str) -> cp.CopulaModel:
    """Parse the --copula value 'family[:theta[:rotation]]', e.g. 'clayton:1.333:90'."""
    parts = spec.lower().split(":")
    if len(parts) > 3:
        raise ValueError(f"copula spec {spec!r} has more than three ':'-separated parts")
    family = parts[0]
    if family == "independence":
        if len(parts) > 1:
            raise ValueError("independence takes no parameter")
        return cp.CopulaModel("independence")
    if len(parts) < 2:
        raise ValueError(f"copula spec {spec!r} needs a parameter, e.g. 'clayton:2.0'")
    try:
        return cp.CopulaModel(family, float(parts[1]), int(parts[2]) if len(parts) > 2 else 0)
    except ValueError as exc:
        raise ValueError(f"--copula {spec!r}: {exc}") from None


def _read_table(path, null_path: str | None, tail: str) -> tuple[list, mg.HypothesisTable]:
    """Hypothesis ids and the table built from a hypothesis TSV."""
    null = mg.REAL_DATA_NULL if null_path is None else mg.mixture_from_json(null_path)
    ids, beta, aux = ig.read_hypotheses(path)
    return ids, mg.build_table(beta, aux, null, tail)


def cmd_bootstrap(args) -> int:
    data = ig.read_counts(args.input)
    summary = ig.summarize(data)
    ig.write_summary(summary, args.output)
    print(f"wrote {len(summary.ids)} genes to {args.output}")
    return 0


def cmd_fit(args) -> int:
    _, table = _read_table(args.input, args.null_mixture, args.tail)
    report = ft.select_copula(cp.PseudoObservations.clamped(table.p1, table.p2))
    print(ft.format_report(report))
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    out = Path(args.out_dir) / "selection.json"
    out.write_text(ft.report_to_json(report) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


def cmd_test(args) -> int:
    method = _METHOD_ALIASES[args.method.lower()]
    if method == "storey" and args.copula != "auto":
        raise ValueError("--copula applies only to the hard and soft methods, not storey")
    if method != "hard" and args.gamma1_grid is not None:
        raise ValueError(f"--gamma1-grid applies only to the hard method, not {method}")
    model = grid = None
    if args.copula != "auto":
        model = parse_copula_spec(args.copula)
    if args.gamma1_grid is not None:
        try:
            grid = [float(x) for x in args.gamma1_grid.split(",")]
        except ValueError as exc:
            raise ValueError(f"--gamma1-grid {args.gamma1_grid!r}: {exc}") from None
    ids, table = _read_table(args.input, args.null_mixture, args.tail)

    if method in ("hard", "soft") and model is None:
        report = ft.select_copula(cp.PseudoObservations.clamped(table.p1, table.p2))
        model = report.winner("bic").model
        print(f"auto-selected copula: {model.describe()}")

    if method == "storey":
        outcome = proc.run_one_stage_storey(table, args.alpha, args.lambda_)
    elif method == "soft":
        outcome = proc.run_two_stage_soft(table, model, args.alpha, args.lambda_)
    else:
        outcome = proc.run_two_stage_hard(table, model, args.alpha, args.lambda_,
                                          gamma1_grid=grid)

    out_dir = Path(args.out_dir)  # made only once the run has succeeded
    out_dir.mkdir(parents=True, exist_ok=True)
    proc.write_decisions_tsv(ids, table, outcome, out_dir / "decisions.tsv", seed=args.seed)
    (out_dir / "outcome.json").write_text(proc.outcome_to_json(outcome, ids, seed=args.seed)
                                          + "\n", encoding="utf-8")
    if method == "hard":
        proc.write_gamma1_curve_tsv(outcome, out_dir / "gamma1_curve.tsv", seed=args.seed)
    extra = f", gamma1_hat={outcome.gamma1_hat}" if outcome.gamma1_hat is not None else ""
    print(f"{method}: rejected {outcome.n_rejected} of {table.m} "
          f"(gamma_hat={outcome.gamma_hat:.6g}, pi0_hat={outcome.pi0_hat:.4f}{extra})")
    return 0


def cmd_simulate(args) -> int:
    try:
        payload = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{args.config}: config must be a JSON object")
    print(f"wrote {sim.run_config(payload, args.out_dir, args.seed, args.threads)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twostage-fdr",
        description="Two-stage FDR procedures with a copula-coupled auxiliary statistic")
    sub = parser.add_subparsers(dest="command", required=True)

    p_boot = sub.add_parser("bootstrap",
                            help="exhaustive bootstrap SD of log-fold changes")
    p_boot.add_argument("input", help="counts TSV: gene_id, ko_1..ko_r, wt_1..wt_r")
    p_boot.add_argument("output", help="summary TSV: gene_id, beta_hat, sd_boot")
    p_boot.set_defaults(func=cmd_bootstrap)

    p_fit = sub.add_parser("fit", help="fit candidate copulas and report criteria")
    p_fit.add_argument("input", help="TSV with id, beta_hat and y/sd_boot columns")
    p_fit.add_argument("--null-mixture", default=None,
                       help="JSON file with the null mixture (weights/means/sds)")
    p_fit.add_argument("--tail", default="two_sided", choices=mg.TAILS)
    p_fit.add_argument("--out-dir", default=".")
    p_fit.set_defaults(func=cmd_fit)

    p_test = sub.add_parser("test", help="run an FDR-controlling procedure")
    p_test.add_argument("input", help="TSV with id, beta_hat and y/sd_boot columns")
    p_test.add_argument("--method", required=True, type=str.lower,
                        choices=sorted(_METHOD_ALIASES),
                        help="H (hard), S (soft) or storey")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--lambda", dest="lambda_", type=float, default=0.5)
    p_test.add_argument("--copula", default="auto",
                        help="'auto' or family[:theta[:rotation]]")
    p_test.add_argument("--gamma1-grid", default=None,
                        help="comma-separated, strictly increasing screen levels in (0, 1) "
                             "for the hard method")
    p_test.add_argument("--null-mixture", default=None)
    p_test.add_argument("--tail", default="two_sided", choices=mg.TAILS)
    p_test.add_argument("--out-dir", default=".")
    p_test.add_argument("--seed", type=int, default=sim.DEFAULT_SEED)
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", help="run a simulation study from a JSON config")
    p_sim.add_argument("config", help="JSON config (mode: cell/misspecification/selection)")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_sim.add_argument("--threads", type=int, default=1)
    p_sim.add_argument("--out-dir", default=".")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ft.FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
