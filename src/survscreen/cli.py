"""Command line front end.

Subcommands: score, select, simulate, evaluate, bench, plotdata.  All I/O
is CSV plus flat key=value config files.  Exit codes: 0 success, 2 input
validation error, 3 numerical failure; error lines on stderr have the form
``survscreen: <ErrorKind>: <message>``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import bench as bench_mod
from .cars import DEFAULT_NU, ScoreVector, cars_score, rank_by_magnitude
from .cox import cox_scores
from .data import fmt_float, load_sample, parse_cell, read_table, save_sample, write_table
from .errors import BadValue, SurvScreenError, TooFewScores, ValidationError
from .fdr import null_model_curve, select as fdr_select
from .metrics import pr_auc, rank_correlation, selection_confusion
from .simulate import Scenario, load_scenario_config, replicate_rng


def _write_scores(sv: ScoreVector, names: list[str], path) -> None:
    order = rank_by_magnitude(sv)
    ranks = np.empty(len(names), dtype=int)
    ranks[order] = np.arange(1, len(names) + 1)
    write_table(path, ["name", "score", "rank"], zip(names, sv.scores, ranks.tolist()))


def _parse_flag(cell: str, row: int, column: str) -> int:
    """A 0/1 flag cell; anything else raises a ValidationError."""
    flag = parse_cell(cell, row, column, int)
    if flag not in (0, 1):
        raise ValidationError(f"flag not in {{0, 1}} in data row {row}, column {column!r}")
    return flag


def _read_scores(path) -> tuple[list[str], np.ndarray, list[int]]:
    """Names, scores and the ``selected`` flags (empty without that column)."""
    names, values, flags = [], [], []
    for i, rec in read_table(path, ("name", "score")):
        names.append(rec["name"])
        values.append(parse_cell(rec["score"], i, "score"))
        if "selected" in rec:
            flags.append(_parse_flag(rec["selected"], i, "selected"))
    return names, np.asarray(values), flags


def _read_truth(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    names, beta, influential = [], [], []
    for i, rec in read_table(path, ("name", "beta", "influential")):
        names.append(rec["name"])
        beta.append(parse_cell(rec["beta"], i, "beta"))
        influential.append(_parse_flag(rec["influential"], i, "influential"))
    return names, np.asarray(beta), np.asarray(influential, dtype=int)


def _cmd_score(args) -> None:
    sample = load_sample(args.input, args.time_col, args.status_col)
    if args.method == "cars":
        sv = cars_score(sample, nu=args.nu, lambda_override=args.lambda_override)
        diag = sv.diagnostics
        print(
            f"survscreen: shrinkage={fmt_float(diag['shrinkage'])} "
            f"min_eigenvalue={fmt_float(diag['min_eigenvalue'])} "
            f"floor_applied={diag['floor_applied']}",
            file=sys.stderr,
        )
    else:
        sv = cox_scores(sample)
    _write_scores(sv, sample.names(), args.output)


def _cmd_select(args) -> None:
    names, values, _ = _read_scores(args.scores)
    result = fdr_select(values, args.alpha)
    if args.diagnostics:
        curve = null_model_curve(values, result.eta0, result.null_scale)
        write_table(args.diagnostics, list(curve), zip(*curve.values()))
    chosen = set(result.selected.tolist())
    write_table(
        args.output,
        ["name", "score", "q_value", "local_fdr", "selected"],
        (
            [name, values[j], result.q_values[j], result.local_fdr[j], int(j in chosen)]
            for j, name in enumerate(names)
        ),
    )
    print(
        f"survscreen: eta0={fmt_float(result.eta0)} "
        f"null_scale={fmt_float(result.null_scale)} "
        f"selected={result.selected.size} "
        f"threshold={fmt_float(result.threshold_phi)}",
        file=sys.stderr,
    )


def _cmd_simulate(args) -> None:
    config = load_scenario_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    os.makedirs(args.output_dir, exist_ok=True)
    scenario = Scenario.build(config)
    truth = scenario.truth
    influential = set(truth.influential_set.tolist())
    for rep in range(args.replicates):
        sample = scenario.draw(replicate_rng(config.seed, rep))
        save_sample(sample, os.path.join(args.output_dir, f"data_{rep}.csv"))
        write_table(
            os.path.join(args.output_dir, f"truth_{rep}.csv"),
            ["name", "beta", "influential"],
            ([name, truth.beta[j], int(j in influential)] for j, name in enumerate(sample.names())),
        )


def _cmd_evaluate(args) -> None:
    names, values, flags = _read_scores(args.scores)
    truth_names, beta, influential = _read_truth(args.truth)
    if names != truth_names:
        raise ValidationError("scores and truth files disagree on covariate names")
    if len(names) < 2:
        raise TooFewScores(f"need at least 2 scores, got {len(names)}")
    curve = pr_auc(np.abs(values), influential)
    rho = rank_correlation(beta, values)
    rows = [("pr_auc", curve.auc), ("rank_correlation", rho)]
    if flags:
        tp, fp, fn, tn = selection_confusion(
            np.flatnonzero(flags), np.flatnonzero(influential), len(names)
        )
        rows += [("tp", tp), ("fp", fp), ("fn", fn), ("tn", tn)]
    write_table(args.output, ["metric", "value"], rows)


def _cmd_bench(args) -> None:
    with open(args.config) as fh:
        scenarios, seed = bench_mod.parse_grid(fh)
    if args.seed is not None:
        seed = args.seed
    report = bench_mod.run_bench(
        scenarios, seed, args.replicates, parallelism=args.threads, nu=args.nu
    )
    bench_mod.write_report(report, args.output)
    if args.summary:
        bench_mod.write_summary(report, args.summary)
    if args.timings:
        bench_mod.write_timings(report, args.timings)


def _cmd_plotdata(args) -> None:
    report = bench_mod.read_report(args.report)
    group_by = [f.strip() for f in args.group_by.split(",") if f.strip()]
    rows = bench_mod.emit_plotdata(report, group_by)
    bench_mod.write_plotdata(rows, group_by, args.output)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="survscreen",
        description="Variable screening for right-censored survival data",
    )
    parser.add_argument("--seed", type=int, default=None, help="master RNG seed")
    parser.add_argument("--threads", type=int, default=1, help="worker pool size")
    parser.add_argument("--nu", type=float, default=DEFAULT_NU,
                        help="positivity floor for IPC weights")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="compute screening scores from a CSV sample")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=("cars", "cox"), default="cars")
    p.add_argument("--output", required=True)
    p.add_argument("--time-col", default="time")
    p.add_argument("--status-col", default="status")
    p.add_argument("--lambda-override", type=float, default=None)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("select", help="FDR-based selection from a scores CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--diagnostics", default=None,
                   help="CSV of the fitted null/mixture curves")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("simulate", help="generate scenario datasets")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--replicates", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("evaluate", help="score a selection against ground truth")
    p.add_argument("--scores", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("bench", help="run a scenario grid benchmark")
    p.add_argument("--config", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--summary", default=None, help="aggregate quartiles CSV")
    p.add_argument("--timings", default=None, help="wall-time CSV")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("plotdata", help="group a bench report for plotting")
    p.add_argument("--report", required=True)
    p.add_argument("--group-by", required=True, help="comma-separated scenario fields")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_plotdata)

    return parser


def _check_counts(args) -> None:
    """``--threads`` and, where a subcommand takes it, ``--replicates`` are at least 1."""
    for flag in ("threads", "replicates"):
        value = getattr(args, flag, 1)
        if value < 1:
            raise BadValue(f"--{flag} must be >= 1, got {value}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_counts(args)
        args.func(args)
    # a file that is not text fails to decode; any other ValueError is a bug
    except (ValidationError, OSError, UnicodeDecodeError) as exc:
        print(f"survscreen: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except SurvScreenError as exc:  # NumericalError, and any other kind
        print(f"survscreen: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
