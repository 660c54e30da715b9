"""Scenario-grid benchmark runner comparing CARS and Cox screening.

A grid file is a flat key=value config whose values may be comma-separated
lists; the grid is the cartesian product of all listed values.  The runner
builds every scenario once; for every replicate it draws a dataset,
computes both score vectors and evaluates them against the ground truth.  Replicates draw from
independent counter-based substreams, so reports are byte-identical across
runs and across worker-pool sizes.

Wall times are recorded per scoring call but kept out of the report rows
proper (they go to a separate timings table) so the report itself stays
reproducible byte for byte.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cars import cars_score
from .cox import cox_scores
from .data import fmt_float, parse_cell, read_table, write_table
from .errors import BadValue, SurvScreenError, UnknownField
from .ipcw import check_nu
from .metrics import pr_auc, rank_correlation
from .simulate import (  # parse_grid is re-exported: grid files are read through this module
    SCENARIO_FIELDS,
    Scenario,
    ScenarioConfig,
    parse_grid,
    parse_value,
    replicate_rng,
)

METRICS = ("pr_auc", "rank_correlation")
REPORT_HEADER = ["scenario", "replicate", "method", "pr_auc", "rank_correlation", "error"]


@dataclass
class BenchRow:
    scenario: str
    replicate: int
    method: str
    pr_auc: float | None
    rank_correlation: float | None
    error: str
    wall_time: float


@dataclass
class BenchReport:
    rows: list[BenchRow]
    scenarios: dict[str, dict]


def _format_value(key: str, value) -> str:
    if key == "block_magnitudes":
        return ":".join(fmt_float(v) for v in value)
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def scenario_key(params: dict) -> str:
    return ";".join(f"{k}={_format_value(k, params[k])}" for k in SCENARIO_FIELDS)


def _replicate_rows(scenario: Scenario, key: str, scenario_idx: int, replicate: int,
                    seed: int, nu: float) -> list[BenchRow]:
    """The CARS and Cox rows of one replicate of a built scenario."""
    try:
        sample = scenario.draw(replicate_rng(seed, scenario_idx, replicate))
    except SurvScreenError as exc:
        return _error_rows(key, replicate, exc)

    truth = scenario.truth
    labels = np.zeros(scenario.config.d, dtype=int)
    labels[truth.influential_set] = 1
    rows = []
    for method, scorer in (("cars", lambda: cars_score(sample, nu=nu)),
                           ("cox", lambda: cox_scores(sample))):
        start = time.perf_counter()
        try:
            sv = scorer()
            elapsed = time.perf_counter() - start
            auc = pr_auc(np.abs(sv.scores), labels).auc
            rc = rank_correlation(truth.beta, sv.scores)
            rows.append(BenchRow(key, replicate, method, auc, rc, "", elapsed))
        except SurvScreenError as exc:
            elapsed = time.perf_counter() - start
            rows.append(
                BenchRow(key, replicate, method, None, None, type(exc).__name__, elapsed)
            )
    return rows


def _error_rows(key: str, replicate: int, exc: SurvScreenError) -> list[BenchRow]:
    return [
        BenchRow(key, replicate, method, None, None, type(exc).__name__, 0.0)
        for method in ("cars", "cox")
    ]


#: a pool worker's (scenarios, keys, seed, nu), sent once by the pool initializer
_WORKER: tuple | None = None


def _init_worker(scenarios: list[Scenario], keys: list[str], seed: int, nu: float) -> None:
    global _WORKER
    _WORKER = (scenarios, keys, seed, nu)


def _pooled_job(job: tuple[int, int]) -> list[BenchRow]:
    scenarios, keys, seed, nu = _WORKER
    idx, replicate = job
    return _replicate_rows(scenarios[idx], keys[idx], idx, replicate, seed, nu)


def run_bench(
    scenarios: list[dict],
    seed: int,
    replicates: int,
    parallelism: int = 1,
    nu: float = 1e-6,
) -> BenchReport:
    """Run the full scenario grid; per-replicate failures become error rows.

    ``nu`` and every grid point are checked before any job is issued, so a
    bad parameter raises instead of turning every row into an error row.
    Each grid point is built once (``Scenario.build``); one that cannot be
    built, for instance because its fraction rounds to no influential
    covariate, gives every replicate two error rows.  A job is a
    (scenario index, replicate) pair, and a pool gets the built scenarios
    once per worker.  ``parallelism`` caps the worker processes; no more
    start than there are jobs, and with one job or one worker no pool
    starts at all.
    """
    check_nu(nu)
    built, keys, jobs, rows = [], [], [], []
    scenario_map = {}
    for idx, params in enumerate(scenarios):
        config = ScenarioConfig(**params, seed=seed)
        key = scenario_key(params)
        scenario_map[key] = dict(params)
        keys.append(key)
        try:
            built.append(Scenario.build(config))
        except SurvScreenError as exc:
            built.append(None)
            rows += [row for rep in range(replicates) for row in _error_rows(key, rep, exc)]
            continue
        jobs += [(idx, rep) for rep in range(replicates)]

    workers = min(parallelism, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(built, keys, seed, nu)) as pool:
            results = list(pool.map(_pooled_job, jobs))
    else:
        results = [_replicate_rows(built[i], keys[i], i, rep, seed, nu) for i, rep in jobs]

    rows += [row for chunk in results for row in chunk]
    rows.sort(key=lambda r: (r.scenario, r.replicate, r.method))
    return BenchReport(rows, scenario_map)


def write_report(report: BenchReport, path) -> None:
    write_table(
        path,
        REPORT_HEADER,
        ([r.scenario, r.replicate, r.method, r.pr_auc, r.rank_correlation, r.error]
         for r in report.rows),
    )


def _quartiles(rows: list[BenchRow], key) -> list[tuple]:
    """Quartiles of each metric per (key(row), method), sorted by that pair.

    Returns (key, method, metric, q1, median, q3, count) tuples.  Errored
    rows enter no quartile; a group whose rows all errored is kept with
    count 0 and nan quartiles.
    """
    groups: dict[tuple, list[BenchRow]] = {}
    for r in rows:
        ok = groups.setdefault((key(r), r.method), [])
        if not r.error:
            ok.append(r)
    out = []
    for group, method in sorted(groups):
        for metric in METRICS:
            values = np.array([getattr(r, metric) for r in groups[group, method]], dtype=float)
            q = np.quantile(values, [0.25, 0.5, 0.75]) if values.size else [np.nan] * 3
            out.append((group, method, metric, *(float(v) for v in q), values.size))
    return out


def write_summary(report: BenchReport, path) -> None:
    """Quartiles per (scenario, method, metric)."""
    write_table(
        path,
        ["scenario", "method", "metric", "q1", "median", "q3", "count"],
        _quartiles(report.rows, lambda r: r.scenario),
    )


def write_timings(report: BenchReport, path) -> None:
    write_table(
        path,
        ["scenario", "replicate", "method", "wall_time_seconds"],
        ([r.scenario, r.replicate, r.method, r.wall_time] for r in report.rows),
    )


def read_report(path) -> BenchReport:
    """Load a report CSV back; scenario params are parsed from the key."""
    rows = []
    scenarios: dict[str, dict] = {}
    for i, rec in read_table(path, REPORT_HEADER):
        key = rec["scenario"] or ""
        if key not in scenarios:
            params = {
                k: parse_value(k, v) for k, _, v in (p.partition("=") for p in key.split(";"))
            }
            if list(params) != list(SCENARIO_FIELDS):
                raise UnknownField(f"row {i}: scenario key does not list {','.join(SCENARIO_FIELDS)}")
            scenarios[key] = params
        rows.append(
            BenchRow(
                key,
                parse_cell(rec["replicate"], i, "replicate", int),
                rec["method"],
                *(parse_cell(rec[m], i, m) if rec[m] else None for m in METRICS),
                rec["error"],
                0.0,
            )
        )
    return BenchReport(rows, scenarios)


def emit_plotdata(report: BenchReport, group_by: list[str]) -> list[dict]:
    """Long-format quartile summaries per (group fields, method, metric)."""
    for i, field in enumerate(group_by):
        if field not in SCENARIO_FIELDS:
            raise UnknownField(f"unknown group-by field {field!r}")
        if field in group_by[:i]:
            raise BadValue(f"group-by field {field!r} given twice")

    def key(r: BenchRow) -> tuple:
        params = report.scenarios[r.scenario]
        return tuple(_format_value(f, params[f]) for f in group_by)

    out = []
    for group, method, metric, q1, median, q3, count in _quartiles(report.rows, key):
        row = dict(zip(group_by, group))
        row.update(method=method, metric=metric, q1=q1, median=median, q3=q3, count=count)
        out.append(row)
    return out


def write_plotdata(rows: list[dict], group_by: list[str], path) -> None:
    header = list(group_by) + ["method", "metric", "q1", "median", "q3", "count"]
    write_table(path, header, ([row[f] for f in header] for row in rows))
