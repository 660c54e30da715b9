import csv
from operator import itemgetter

import numpy as np
import numpy.testing as npt
import pytest

from survscreen.bench import (
    SCENARIO_FIELDS,
    BenchReport,
    BenchRow,
    emit_plotdata,
    parse_grid,
    read_report,
    run_bench,
    scenario_key,
    write_report,
    write_plotdata,
    write_summary,
)
from survscreen.errors import BadValue, UnknownField

GRID = """
n = 60
d = 12
influential_fraction = 0.25
influential_block = 3
explained_variance = 0.75
censoring_rate = 0.25
cutoff_quantile = 0.9
seed = 3
"""

SWEPT_GRID = """
n = 50, 80
d = 12
influential_fraction = 0.25
influential_block = 1, 3
explained_variance = 0.5
censoring_rate = 0.25
seed = 5
"""


def test_parse_grid_cartesian_product():
    scenarios, seed = parse_grid(SWEPT_GRID.splitlines())
    assert seed == 5
    assert len(scenarios) == 4
    assert {(s["n"], s["influential_block"]) for s in scenarios} == {
        (50, 1),
        (50, 3),
        (80, 1),
        (80, 3),
    }
    # defaults filled in
    assert all(s["cutoff_quantile"] == 0.9 for s in scenarios)


def test_parse_grid_unknown_key():
    with pytest.raises(UnknownField):
        parse_grid(["bogus = 1"])


@pytest.mark.parametrize("line", ["n = 200", "seed = 4"])
def test_parse_grid_repeated_key(line):
    key = line.split()[0]
    with pytest.raises(BadValue, match=f"'{key}' given twice"):
        parse_grid((GRID + line + "\n").splitlines())


def test_run_bench_row_count_and_order():
    scenarios, seed = parse_grid(GRID.splitlines())
    report = run_bench(scenarios, seed, replicates=3)
    assert len(report.rows) == 6  # 2 methods x 3 replicates
    keys = [(r.scenario, r.replicate, r.method) for r in report.rows]
    assert keys == sorted(keys)
    assert all(not r.error for r in report.rows)
    assert all(0 <= r.pr_auc <= 1 for r in report.rows)


def test_run_bench_deterministic_across_parallelism(tmp_path):
    scenarios, seed = parse_grid(GRID.splitlines())
    serial = run_bench(scenarios, seed, replicates=3, parallelism=1)
    pooled = run_bench(scenarios, seed, replicates=3, parallelism=2)
    p1, p2 = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    write_report(serial, p1)
    write_report(pooled, p2)
    assert p1.read_bytes() == p2.read_bytes()
    s1, s2 = tmp_path / "sum1.csv", tmp_path / "sum2.csv"
    write_summary(serial, s1)
    write_summary(pooled, s2)
    assert s1.read_bytes() == s2.read_bytes()


@pytest.mark.parametrize("parallelism, replicates, workers", [(4, 3, 3), (2, 3, 2), (8, 1, None)])
def test_pool_has_at_most_one_worker_per_job(monkeypatch, parallelism, replicates, workers):
    import survscreen.bench as bench_module

    started = []
    real_pool = bench_module.ProcessPoolExecutor

    def recording_pool(max_workers, **kwargs):
        started.append(max_workers)
        return real_pool(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(bench_module, "ProcessPoolExecutor", recording_pool)
    scenarios, seed = parse_grid(GRID.splitlines())
    report = run_bench(scenarios, seed, replicates=replicates, parallelism=parallelism)
    assert started == ([] if workers is None else [workers])
    assert len(report.rows) == 2 * replicates and not any(r.error for r in report.rows)


def test_report_round_trip(tmp_path):
    scenarios, seed = parse_grid(GRID.splitlines())
    report = run_bench(scenarios, seed, replicates=2)
    path = tmp_path / "report.csv"
    write_report(report, path)
    loaded = read_report(path)
    assert len(loaded.rows) == len(report.rows)
    for a, b in zip(loaded.rows, report.rows):
        assert a.scenario == b.scenario
        assert a.method == b.method
        npt.assert_allclose(a.pr_auc, b.pr_auc)
    assert loaded.scenarios.keys() == report.scenarios.keys()


def test_plotdata_medians_match_recomputation():
    scenarios, seed = parse_grid(SWEPT_GRID.splitlines())
    report = run_bench(scenarios, seed, replicates=3)
    rows = emit_plotdata(report, ["n"])
    for row in rows:
        values = [
            r.pr_auc if row["metric"] == "pr_auc" else r.rank_correlation
            for r in report.rows
            if not r.error
            and r.method == row["method"]
            and report.scenarios[r.scenario]["n"] == int(row["n"])
        ]
        npt.assert_allclose(row["median"], np.median(values))
        assert row["count"] == len(values)


def test_plotdata_unknown_field():
    scenarios, seed = parse_grid(GRID.splitlines())
    report = run_bench(scenarios, seed, replicates=1)
    with pytest.raises(UnknownField):
        emit_plotdata(report, ["bogus"])


def test_plotdata_empty_report(tmp_path):
    rows = emit_plotdata(BenchReport([], {}), ["n"])
    assert rows == []
    out = tmp_path / "plot.csv"
    write_plotdata(rows, ["n"], out)
    assert out.read_text().strip() == "n,method,metric,q1,median,q3,count"


def test_scenario_key_stable():
    scenarios, _ = parse_grid(GRID.splitlines())
    key = scenario_key(scenarios[0])
    assert key.startswith("n=60;d=12;")
    assert "block_magnitudes=0.25:0.5:0.75" in key


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_plotdata_by_every_field_is_the_summary(tmp_path):
    scenarios, seed = parse_grid(SWEPT_GRID.splitlines())
    report = run_bench(scenarios, seed, replicates=3)
    write_summary(report, tmp_path / "summary.csv")
    write_plotdata(emit_plotdata(report, list(SCENARIO_FIELDS)), list(SCENARIO_FIELDS),
                   tmp_path / "plot.csv")
    summary = read_csv(tmp_path / "summary.csv")
    plot = [
        dict(scenario=";".join(f"{f}={row.pop(f)}" for f in SCENARIO_FIELDS), **row)
        for row in read_csv(tmp_path / "plot.csv")
    ]
    assert len(summary) == 16
    order = itemgetter("scenario", "method", "metric")
    assert sorted(plot, key=order) == sorted(summary, key=order)


def test_all_error_group_has_count_zero_in_both_outputs(tmp_path):
    scenarios, _ = parse_grid(GRID.splitlines())
    key = scenario_key(scenarios[0])
    report = BenchReport(
        [
            BenchRow(key, 0, "cars", None, None, "DegenerateOutcome", 0.0),
            BenchRow(key, 0, "cox", 0.5, 0.25, "", 0.0),
            BenchRow(key, 1, "cars", None, None, "SingularMatrix", 0.0),
            BenchRow(key, 1, "cox", 0.75, 0.5, "", 0.0),
        ],
        {key: scenarios[0]},
    )
    write_summary(report, tmp_path / "summary.csv")
    write_plotdata(emit_plotdata(report, ["n"]), ["n"], tmp_path / "plot.csv")
    for rows in (read_csv(tmp_path / "summary.csv"), read_csv(tmp_path / "plot.csv")):
        assert [(r["method"], r["count"]) for r in rows] == [
            ("cars", "0"), ("cars", "0"), ("cox", "2"), ("cox", "2")
        ]
        assert all(r[q] == "nan" for r in rows[:2] for q in ("q1", "median", "q3"))
        assert [r["median"] for r in rows[2:]] == ["0.625", "0.375"]


def test_bad_nu_raises_before_any_job():
    scenarios, seed = parse_grid(GRID.splitlines())
    with pytest.raises(BadValue):
        run_bench(scenarios, seed, replicates=1, nu=2.0)
    # BadValue is also a ValueError for callers that catch that
    with pytest.raises(ValueError):
        run_bench(scenarios, seed, replicates=1, nu=0.0)


BAD_FRACTION_GRID = """
n = 60
d = 150
influential_fraction = 0.001, 0.1
influential_block = 3
explained_variance = 0.75
censoring_rate = 0.25
seed = 3
"""


def test_scenario_build_errors_become_error_rows(tmp_path):
    # 0.001 * 150 rounds to no influential covariate: make_beta's BadFraction
    # turns each replicate of that grid point into two error rows
    scenarios, seed = parse_grid(BAD_FRACTION_GRID.splitlines())
    bad, good = (scenario_key(s) for s in scenarios)
    paths = []
    for parallelism in (1, 2):
        report = run_bench(scenarios, seed, replicates=2, parallelism=parallelism)
        assert [(r.scenario, r.replicate, r.method, r.pr_auc, r.rank_correlation, r.error,
                 r.wall_time) for r in report.rows if r.scenario == bad] == [
            (bad, rep, method, None, None, "BadFraction", 0.0)
            for rep in (0, 1) for method in ("cars", "cox")
        ]
        good_rows = [r for r in report.rows if r.scenario == good]
        assert len(good_rows) == 4 and not any(r.error for r in good_rows)
        paths.append(tmp_path / f"report{parallelism}.csv")
        write_report(report, paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
