"""survscreen benchmark: closed-loop workloads driven through ``survscreen.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload bench_accept --seed 1 --seconds 20 --trace 0

Each workload has one caller that issues its next operation only after the
previous one returns.  ``--trace 0`` measures the end-to-end metrics with
no tracing; ``--trace 1`` runs the workload untraced for half the time and
then traced for the other half, replaying the same work through the
package's public functions with spans around them (see tracing.py), and
reports the per-layer metrics.  Both modes check the program's outputs; a
mismatch makes the run fail.  The last line of standard output is one JSON
object; the lines before it are the same figures for a human reader.
Scratch files go to ``.perfbench_work/`` under the repository root.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"

sys.path.insert(0, str(ROOT / "src"))
try:
    import survscreen
    from survscreen import bench as sbench
    from survscreen import cars, cli, cox, data, metrics, shrinkage, simulate
    from survscreen.errors import SurvScreenError
except ImportError:  # main() reports it; the benchmark needs the source tree
    survscreen = None

#: (name, unit, better) of the end-to-end metrics, printed with --trace 0
END_TO_END = (
    ("replicates_per_s", "1/s", "higher"),
    ("screen_s_p50", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of the per-layer metrics, printed with --trace 1
PER_LAYER = (
    ("simulate.generate_s", "s", "lower"),
    ("simulate.sample_covariates_s", "s", "lower"),
    ("simulate.population_scores_s", "s", "lower"),
    ("simulate.nearest_correlation_s", "s", "lower"),
    ("simulate.nearest_correlation_iters", "count", "lower"),
    ("cox.scores_s", "s", "lower"),
    ("cox.newton_iters", "count", "lower"),
    ("cox.us_per_newton_iter", "us", "lower"),
    ("cox.separation_count", "count", "lower"),
    ("cox.nonconverged_count", "count", "lower"),
    ("cars.score_s", "s", "lower"),
    ("shrinkage.lambda_s", "s", "lower"),
    ("shrinkage.whitener_s", "s", "lower"),
    ("shrinkage.lambda", "ratio", "lower"),
    ("shrinkage.kept_rank", "count", "higher"),
    ("shrinkage.min_eigenvalue", "1", "higher"),
    ("ipcw.censoring_km_s", "s", "lower"),
    ("ipcw.ipc_weights_s", "s", "lower"),
    ("ipcw.event_frac", "ratio", "higher"),
    ("ipcw.ess", "count", "higher"),
    ("ipcw.max_weight", "1", "lower"),
    ("ipcw.floor_hits", "count", "lower"),
    ("data.load_sample_s", "s", "lower"),
    ("data.load_sample_mb_per_s", "MB/s", "higher"),
    ("data.covariate_summary_s", "s", "lower"),
    ("fdr.select_s", "s", "lower"),
    ("fdr.null_model_curve_s", "s", "lower"),
    ("fdr.eta0", "ratio", "lower"),
    ("fdr.selected_count", "count", "higher"),
    ("metrics.pr_auc_s", "s", "lower"),
    ("metrics.rank_correlation_s", "s", "lower"),
    ("cli.score_cars_s", "s", "lower"),
    ("cli.score_cox_s", "s", "lower"),
    ("cli.select_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("bench.run_s", "s", "lower"),
    ("bench.cpu_util", "ratio", "higher"),
    ("bench.scaling_efficiency", "ratio", "higher"),
    ("bench.job_payload_mb", "MB", "lower"),
)

#: q-value threshold of every `select` call
ALPHA = "0.05"

#: fresh-process set-ups per run; setup_s is their median
SETUPS = 5

#: the thin-SVD whitener must match the dense one entry-wise within this
WHITENER_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload; ``replicates`` > 0 marks a `bench` workload."""

    name: str
    n: int
    d: int
    replicates: int = 0  # per `bench` call
    threads: int = 1

    @property
    def is_bench(self) -> bool:
        return self.replicates > 0


NPROC = len(os.sched_getaffinity(0))

# Reasons for each workload, with measured shares, are in NOTES.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("bench_accept", n=250, d=150, replicates=40),
        Workload("bench_wide", n=250, d=1500, replicates=4),
        # bench_accept's grid and seed through the process pool; the worker
        # count is the core count on purpose (see NOTES.md, defect 1)
        Workload("bench_pool", n=250, d=150, replicates=40, threads=NPROC),
        Workload("screen_large", n=500, d=6000),
    )
}


# --- inputs -------------------------------------------------------------------


def setup(wl: Workload, seed: int, work: Path):
    """Write the workload's input under ``work``; return the screening truth."""
    work.mkdir(parents=True, exist_ok=True)
    if wl.is_bench:
        (work / "grid.cfg").write_text(inputs.grid_config(wl.n, wl.d, seed))
        return None
    return inputs.write_screen_csv(work / "sample.csv", wl.n, wl.d, seed)


def measure_setup(wl: Workload, seed: int, count: int) -> list[float]:
    """Seconds from process start to ready-to-run, in ``count`` fresh processes."""
    values = []
    for i in range(count):
        work = WORK_ROOT / f"{wl.name}-setup{i}"
        spec = json.dumps(dataclasses.asdict(wl))
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only", spec,
             "--seed", str(seed), "--work", str(work)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        values.append(float(proc.stdout.split()[-1]) - start)
        shutil.rmtree(work)
    return values


# --- operations -----------------------------------------------------------------


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Op:
    """What one operation took and produced."""

    wall: float
    attempted: int
    failed: int
    completed: int  # replicates scored by both methods, or 1 for a clean screen
    screen_s: list[float]  # seconds to score one dataset with both methods
    cpu: float = 0.0
    digest: str = ""
    rows: list | None = None


def bench_op(wl: Workload, work: Path) -> Op:
    """One `survscreen bench` call on the workload's grid."""
    report, timings = work / "report.csv", work / "timings.csv"
    report.unlink(missing_ok=True)
    argv = ["--threads", str(wl.threads), "bench", "--config", str(work / "grid.cfg"),
            "--output", str(report), "--replicates", str(wl.replicates),
            "--timings", str(timings)]
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    with redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    wall = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu0
    if code != 0:
        rows = 2 * wl.replicates
        return Op(wall, rows, rows, 0, [], cpu)
    with open(report, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    failed_reps = {r[1] for r in rows if r[5]}
    per_rep: dict[str, float] = {}
    with open(timings, newline="") as fh:
        for rec in csv.DictReader(fh):
            if rec["replicate"] not in failed_reps:
                per_rep[rec["replicate"]] = per_rep.get(rec["replicate"], 0.0) + float(
                    rec["wall_time_seconds"])
    failed = sum(1 for r in rows if r[5])
    return Op(wall, len(rows), failed, wl.replicates - len(failed_reps),
              list(per_rep.values()), cpu, _digest(report), rows)


def screen_files(work: Path, method: str) -> tuple[Path, Path, Path]:
    return (work / f"scores_{method}.csv", work / f"select_{method}.csv",
            work / f"curve_{method}.csv")


def screen_op(work: Path, tracer: Tracer | None = None) -> Op:
    """`score --method cars`, `select`, `score --method cox`, `select`."""
    steps = []
    for method in ("cars", "cox"):
        scores, selection, curve = screen_files(work, method)
        for p in (scores, selection, curve):
            p.unlink(missing_ok=True)
        steps.append((f"cli.score_{method}", ["score", "--input", str(work / "sample.csv"),
                                                "--method", method, "--output", str(scores)]))
        steps.append(("cli.select", ["select", "--scores", str(scores), "--alpha", ALPHA,
                                     "--output", str(selection), "--diagnostics", str(curve)]))
    codes = []
    start = time.perf_counter()
    with redirect_stderr(io.StringIO()):
        for name, argv in steps:
            with tracer.span(name) if tracer else nullcontext():
                codes.append(cli.main(argv))
    wall = time.perf_counter() - start
    failed = sum(code != 0 for code in codes)
    digest = "" if failed else _digest(*screen_files(work, "cars"), *screen_files(work, "cox"))
    return Op(wall, len(codes), failed, int(failed == 0), [wall] if not failed else [],
              digest=digest)


def replay(grid: Path, replicates: int) -> list[list[str]]:
    """The `bench` report rows, recomputed through public functions only.

    Calls go through module attributes so that a traced run's wrappers see
    them.  The row schema and error handling follow the report's contract.
    """
    with open(grid) as fh:
        scenarios, seed = sbench.parse_grid(fh)
    fmt = data.fmt_float
    rows = []
    for idx, params in enumerate(scenarios):
        key = sbench.scenario_key(params)
        design = simulate.build_block_design(params["d"], params["block_magnitudes"])
        corr = simulate.nearest_correlation(design).matrix
        config = simulate.ScenarioConfig(**params, seed=seed)
        for rep in range(replicates):
            rng = simulate.replicate_rng(seed, idx, rep)
            try:
                sample, truth = simulate.generate_dataset(config, projected_corr=corr, rng=rng)
            except SurvScreenError as exc:
                rows += [[key, str(rep), m, "", "", type(exc).__name__] for m in ("cars", "cox")]
                continue
            labels = np.zeros(config.d, dtype=int)
            labels[truth.influential_set] = 1
            for method in ("cars", "cox"):
                try:
                    if method == "cars":
                        sv = cars.cars_score(sample, nu=cars.DEFAULT_NU)
                    else:
                        sv = cox.cox_scores(sample)
                    auc = metrics.pr_auc(np.abs(sv.scores), labels).auc
                    rho = metrics.rank_correlation(truth.beta, sv.scores)
                    rows.append([key, str(rep), method, fmt(auc), fmt(rho), ""])
                except SurvScreenError as exc:
                    rows.append([key, str(rep), method, "", "", type(exc).__name__])
    return rows


def closed_loop(seconds: float, op) -> list[Op]:
    """Issue operations back to back until ``seconds`` have passed (at least one)."""
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        ops.append(op())
    return ops


# --- correctness gates -----------------------------------------------------------


class Gates:
    """Named pass/fail checks; any failure fails the run."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)


def gate_same_digest(gates: Gates, ops: list[Op], what: str) -> None:
    digests = {op.digest for op in ops}
    gates.check(f"{what} identical across {len(ops)} operations", len(digests) == 1 and "" not in digests)


def gate_replay(gates: Gates, op: Op, rows: list[list[str]], what: str) -> None:
    same = op.rows == rows
    bad = next((i for i, (a, b) in enumerate(zip(op.rows or [], rows)) if a != b), None)
    gates.check(f"{what} reproduces all {len(rows)} report rows bit for bit", same,
                "" if same else f"first mismatch at row {bad}")


def gate_screen_outputs(gates: Gates, work: Path) -> None:
    """Score files equal the library scorers; q-values fall as |score| grows."""
    sample = data.load_sample(work / "sample.csv")
    for method, scorer in (("cars", cars.cars_score), ("cox", cox.cox_scores)):
        scores, selection, _ = screen_files(work, method)
        with open(scores, newline="") as fh:
            recs = list(csv.DictReader(fh))
        got = np.array([float(r["score"]) for r in recs])
        want = scorer(sample).scores
        gates.check(f"score --method {method} equals {scorer.__name__} on load_sample",
                    [r["name"] for r in recs] == sample.names() and np.array_equal(got, want))
        with open(selection, newline="") as fh:
            recs = list(csv.DictReader(fh))
        magnitude = np.abs([float(r["score"]) for r in recs])
        q = np.array([float(r["q_value"]) for r in recs])
        order = np.argsort(magnitude, kind="stable")
        gates.check(f"select q-values of {method} do not increase with |score|",
                    bool(np.all(np.diff(q[order]) <= 0)))


def gate_thin_svd(gates: Gates, seed: int) -> None:
    """At n=250 d=1500 the thin-SVD whitener equals the dense inverse square root."""
    _, _, x, _ = inputs.draw_screen_sample(250, 1500, seed)
    whitener, lam, _ = shrinkage.whitener_from_data(x)
    dense = shrinkage.inverse_sqrt(shrinkage.shrink(shrinkage.sample_correlations(x), lam))
    err = float(np.max(np.abs(whitener.to_matrix() - dense.matrix)))
    gates.check("thin-SVD whitener matches dense inverse_sqrt at d=1500",
                whitener.basis is not None and err <= WHITENER_TOL, f"max abs diff {err:.3e}")


# --- metrics ---------------------------------------------------------------------


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(p, value) for the highest listed percentile with >= 10 samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1 - p / 100) >= 10:
            return p, float(np.percentile(values, p))
    return None


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def end_to_end(ops: list[Op], setups: list[float], peak: float) -> tuple[dict, list[str]]:
    rates = [op.completed / op.wall for op in ops]
    screen = [s for op in ops for s in op.screen_s]
    values = {
        "replicates_per_s": statistics.median(rates),
        "screen_s_p50": statistics.median(screen),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
    }
    tail = tail_percentile(screen)
    tail_text = (f"screen_s_p{tail[0]:g} {tail[1]:.6g} s" if tail
                 else "no percentile above p50 has ten samples beyond it")
    notes = [
        f"replicates_per_s: median over {len(ops)} operations",
        f"screen_s_p50: {len(screen)} samples; {tail_text}",
        f"setup_s: median of {len(setups)} fresh-process set-ups: "
        + ", ".join(f"{s:.4f}" for s in setups),
    ]
    return values, notes


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if re.search(r"THREAD|^OMP_|^GOMP_|^KMP_|BLAS", k)},
    }


def per_layer(layers: list[Tracer], bench_ops: list[Op], replays: list[Op],
              bench_wl: Workload) -> dict:
    """Per-layer metrics; each span name is read from the first tracer that has it."""

    def source(name: str) -> Tracer:
        return next((t for t in layers if t.durations(name)), layers[0])

    def med(name: str) -> float:
        return source(name).median(name)

    def counter(name: str, key: str) -> float:
        return source(name).counter_median(name, key)

    cox_t, load_t, cli_t = source("cox.scores"), source("data.load_sample"), source("cli.select")
    iters = sum(c["newton_iters"] for c in cox_t.counters["cox.scores"])
    loaded = sum(c["bytes"] for c in load_t.counters["data.load_sample"])
    cli_self: dict[int, float] = {}
    for span, own in zip(cli_t.spans, cli_t.self_times()):
        if span[0].startswith("cli."):
            cli_self[span[4]] = cli_self.get(span[4], 0.0) + own
    bench_rate = statistics.median(op.completed / op.wall for op in bench_ops)
    replay_rate = statistics.median(op.completed / op.wall for op in replays)
    return {
        "simulate.generate_s": med("simulate.generate"),
        "simulate.sample_covariates_s": med("simulate.sample_covariates"),
        "simulate.population_scores_s": med("simulate.population_scores"),
        "simulate.nearest_correlation_s": med("simulate.nearest_correlation"),
        "simulate.nearest_correlation_iters": counter("simulate.nearest_correlation", "iters"),
        "cox.scores_s": med("cox.scores"),
        "cox.newton_iters": counter("cox.scores", "newton_iters"),
        "cox.us_per_newton_iter": 1e6 * sum(cox_t.durations("cox.scores")) / iters,
        "cox.separation_count": counter("cox.scores", "separation_count"),
        "cox.nonconverged_count": counter("cox.scores", "nonconverged_count"),
        "cars.score_s": med("cars.score"),
        "shrinkage.lambda_s": med("shrinkage.lambda"),
        "shrinkage.whitener_s": med("shrinkage.whitener"),
        "shrinkage.lambda": counter("shrinkage.whitener", "lambda"),
        "shrinkage.kept_rank": counter("shrinkage.whitener", "kept_rank"),
        "shrinkage.min_eigenvalue": counter("shrinkage.whitener", "min_eigenvalue"),
        "ipcw.censoring_km_s": med("ipcw.censoring_km"),
        "ipcw.ipc_weights_s": med("ipcw.ipc_weights"),
        "ipcw.event_frac": counter("ipcw.ipc_weights", "event_frac"),
        "ipcw.ess": counter("ipcw.ipc_weights", "ess"),
        "ipcw.max_weight": counter("ipcw.ipc_weights", "max_weight"),
        "ipcw.floor_hits": counter("ipcw.ipc_weights", "floor_hits"),
        "data.load_sample_s": med("data.load_sample"),
        "data.load_sample_mb_per_s": loaded / 1e6 / sum(load_t.durations("data.load_sample")),
        "data.covariate_summary_s": med("data.covariate_summary"),
        "fdr.select_s": med("fdr.select"),
        "fdr.null_model_curve_s": med("fdr.null_model_curve"),
        "fdr.eta0": counter("fdr.select", "eta0"),
        "fdr.selected_count": counter("fdr.select", "selected_count"),
        "metrics.pr_auc_s": med("metrics.pr_auc"),
        "metrics.rank_correlation_s": med("metrics.rank_correlation"),
        "cli.score_cars_s": med("cli.score_cars"),
        "cli.score_cox_s": med("cli.score_cox"),
        "cli.select_s": med("cli.select"),
        "cli.self_s": statistics.median(cli_self.values()),
        "bench.run_s": statistics.median(op.wall for op in bench_ops),
        "bench.cpu_util": sum(op.cpu for op in bench_ops)
        / sum(op.wall * bench_wl.threads for op in bench_ops),
        "bench.scaling_efficiency": bench_rate / (bench_wl.threads * replay_rate),
        "bench.job_payload_mb": bench_wl.d**2 * 8 * bench_wl.replicates / 1e6,
    }


# --- runs ------------------------------------------------------------------------


def run_untraced(wl: Workload, seed: int, seconds: float, work: Path, gates: Gates,
                 setups: int = SETUPS):
    """The timed closed loop, then the gates, then the set-up probes."""
    setup(wl, seed, work)
    if wl.is_bench:
        ops = closed_loop(seconds, lambda: bench_op(wl, work))
    else:
        ops = closed_loop(seconds, lambda: screen_op(work))
    peak = peak_rss_mb()

    if wl.is_bench:
        gate_same_digest(gates, ops, "bench report.csv")
        gate_replay(gates, ops[0], replay(work / "grid.cfg", wl.replicates), "replay")
        if wl.threads > 1:
            serial = bench_op(dataclasses.replace(wl, threads=1), work)
            gates.check(f"--threads {wl.threads} report.csv byte-identical to --threads 1",
                        ops[0].digest == serial.digest)
    else:
        gate_same_digest(gates, ops, "screen outputs")
        gate_screen_outputs(gates, work)
    gate_thin_svd(gates, seed)

    values, notes = end_to_end(ops, measure_setup(wl, seed, setups), peak)
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    notes.append(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted})")
    return values, notes, attempted, failed


def replay_op(tracer: Tracer, grid: Path, replicates: int) -> Op:
    """One traced replay of a `bench` call's replicates."""
    start = time.perf_counter()
    with tracer.operation("bench.replay"):
        rows = replay(grid, replicates)
    wall = time.perf_counter() - start
    failed_reps = {r[1] for r in rows if r[5]}
    return Op(wall, len(rows), sum(1 for r in rows if r[5]), replicates - len(failed_reps),
              [], rows=rows)


def traced_screen_op(tracer: Tracer, work: Path) -> Op:
    with tracer.operation("screen"):
        return screen_op(work, tracer)


def run_traced(wl: Workload, seed: int, seconds: float, work: Path, gates: Gates):
    """Untraced then traced halves of the workload, plus a coverage pass.

    The coverage pass, recorded by a tracer of its own, calls the layers this
    workload never reaches so that every per-layer metric is measured in
    every run: a bench workload also screens its replicate 0 through the
    CLI; the screening workload also evaluates its scores against the
    input's truth and runs one acceptance-grid replicate through `bench`
    and the replay.
    """
    truth = setup(wl, seed, work)
    tracer, coverage = Tracer(), Tracer()
    if wl.is_bench:
        grid = work / "grid.cfg"
        untraced = closed_loop(seconds / 2, lambda: bench_op(wl, work))
        with tracer.patched():
            traced = closed_loop(seconds / 2, lambda: replay_op(tracer, grid, wl.replicates))
        gates.check(f"traced replay reproduces all {len(untraced[0].rows)} report rows "
                    f"bit for bit, {len(traced)} times",
                    all(op.rows == untraced[0].rows for op in traced))
        bench_wl, bench_ops, replays = wl, untraced, traced

        params = sbench.parse_grid(grid.read_text().splitlines())[0][0]
        sample, _ = simulate.generate_dataset(simulate.ScenarioConfig(**params, seed=seed),
                                              rng=simulate.replicate_rng(seed, 0, 0))
        data.save_sample(sample, work / "sample.csv")
        with coverage.patched():
            traced_screen_op(coverage, work)
    else:
        untraced = closed_loop(seconds / 2, lambda: screen_op(work))
        with tracer.patched():
            traced = closed_loop(seconds / 2, lambda: traced_screen_op(tracer, work))
        gate_screen_outputs(gates, work)

        labels = np.zeros(wl.d, dtype=int)
        labels[truth.influential] = 1
        bench_wl = dataclasses.replace(WORKLOADS["bench_accept"], replicates=1)
        setup(bench_wl, seed, work / "coverage")
        bench_ops = [bench_op(bench_wl, work / "coverage")]
        with coverage.patched():
            with coverage.operation("metrics"):
                for method in ("cars", "cox"):
                    with open(screen_files(work, method)[0], newline="") as fh:
                        scores = np.array([float(r["score"]) for r in csv.DictReader(fh)])
                    metrics.pr_auc(np.abs(scores), labels)
                    metrics.rank_correlation(truth.beta, scores)
            replays = [replay_op(coverage, work / "coverage" / "grid.cfg", 1)]
        gate_replay(gates, bench_ops[0], replays[0].rows, "coverage replay")
    gate_thin_svd(gates, seed)
    tracer.dump(work / f"spans-seed{seed}.json")
    coverage.dump(work / f"coverage-spans-seed{seed}.json")

    values = per_layer([tracer, coverage], bench_ops, replays, bench_wl)
    untraced_wall = statistics.median(op.wall for op in untraced)
    traced_wall = statistics.median(op.wall for op in traced)
    tops = [i for i, s in enumerate(tracer.spans) if s[3] == -1]
    covered = [sum(c[2] - c[1] for c in tracer.spans if c[3] == i) for i in tops]
    notes = [
        f"untraced operation: median {untraced_wall:.6g} s over {len(untraced)}",
        f"traced operation: median {traced_wall:.6g} s over {len(traced)}",
        f"tracing overhead: {traced_wall - untraced_wall:+.6g} s per operation "
        f"({(traced_wall - untraced_wall) / untraced_wall:+.2%} of untraced)",
        f"span share: the spans under one traced operation cover "
        f"{statistics.median(covered) / untraced_wall:.2%} of the untraced operation's wall time",
        "self time by span (calls, total s, self s):",
    ]
    for name, row in sorted(tracer.self_table().items(), key=lambda kv: -kv[1]["self_s"]):
        notes.append(f"  {name:30s} {row['calls']:6d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    ops = untraced + traced
    return values, notes, sum(op.attempted for op in ops), sum(op.failed for op in ops)


def run(wl: Workload, seed: int, seconds: float, trace: bool, setups: int = SETUPS) -> dict:
    """Run one workload and return the result object printed as the last line."""
    work = WORK_ROOT / wl.name
    gates = Gates()
    if trace:
        values, notes, attempted, failed = run_traced(wl, seed, seconds, work, gates)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values, notes, attempted, failed = run_untraced(wl, seed, seconds, work, gates, setups)
        units = {name: unit for name, unit, _ in END_TO_END}
    return {
        "correct": gates.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
        "notes": notes,
        "gates": gates.results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="SPEC", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if survscreen is None or Path(survscreen.__file__).resolve().parent != ROOT / "src" / "survscreen":
        print(f"perfbench: survscreen not importable from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup(Workload(**json.loads(args.setup_only)), args.seed, Path(args.work))
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    wl = WORKLOADS[args.workload]
    env = environment()
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(env))
    result = run(wl, args.seed, args.seconds, bool(args.trace))
    notes = result.pop("notes")
    for line in notes:
        print(line)
    for name, ok, detail in result["gates"]:
        print(f"gate {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    gates = result.pop("gates")
    out = WORK_ROOT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"env": env, "gates": gates, "notes": notes, **result}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
