import csv
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from survscreen import bench
from survscreen.cli import main

SCENARIO = """
n = 150
d = 30
influential_fraction = 0.2
influential_block = 3
explained_variance = 0.75
censoring_rate = 0.25
seed = 9
"""


@pytest.fixture
def sim_dir(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(SCENARIO)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--output-dir", str(out), "--replicates", "2"])
    assert code == 0
    return out


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_simulate_outputs(sim_dir):
    for rep in (0, 1):
        assert (sim_dir / f"data_{rep}.csv").exists()
        truth = read_rows(sim_dir / f"truth_{rep}.csv")
        assert len(truth) == 30
        assert sum(int(r["influential"]) for r in truth) == 6


def test_score_select_evaluate_compose(sim_dir, tmp_path):
    scores = tmp_path / "scores.csv"
    assert main(["score", "--input", str(sim_dir / "data_0.csv"),
                 "--method", "cars", "--output", str(scores)]) == 0
    rows = read_rows(scores)
    assert len(rows) == 30
    assert set(rows[0]) == {"name", "score", "rank"}
    ranks = sorted(int(r["rank"]) for r in rows)
    assert ranks == list(range(1, 31))

    selection = tmp_path / "selection.csv"
    assert main(["select", "--scores", str(scores), "--alpha", "0.1",
                 "--output", str(selection)]) == 0
    sel_rows = read_rows(selection)
    assert set(sel_rows[0]) == {"name", "score", "q_value", "local_fdr", "selected"}
    qs = [float(r["q_value"]) for r in sel_rows]
    assert all(0 <= q <= 1 for q in qs)

    metrics = tmp_path / "metrics.csv"
    assert main(["evaluate", "--scores", str(selection),
                 "--truth", str(sim_dir / "truth_0.csv"),
                 "--output", str(metrics)]) == 0
    got = {r["metric"]: float(r["value"]) for r in read_rows(metrics)}
    assert {"pr_auc", "rank_correlation", "tp", "fp", "fn", "tn"} <= set(got)
    assert got["tp"] + got["fp"] + got["fn"] + got["tn"] == 30


def test_evaluate_without_selection_column(sim_dir, tmp_path):
    scores = tmp_path / "scores.csv"
    main(["score", "--input", str(sim_dir / "data_0.csv"),
          "--method", "cox", "--output", str(scores)])
    metrics = tmp_path / "metrics.csv"
    assert main(["evaluate", "--scores", str(scores),
                 "--truth", str(sim_dir / "truth_0.csv"),
                 "--output", str(metrics)]) == 0
    got = {r["metric"] for r in read_rows(metrics)}
    assert got == {"pr_auc", "rank_correlation"}


def test_score_missing_column_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,status,x\n1,1,0\n2,0,1\n")
    code = main(["score", "--input", str(bad), "--output", str(tmp_path / "o.csv")])
    assert code == 2
    assert "MissingColumn" in capsys.readouterr().err


def test_score_degenerate_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,status,x\n1,0,0.1\n2,0,0.7\n3,0,0.3\n")
    code = main(["score", "--input", str(bad), "--output", str(tmp_path / "o.csv")])
    assert code == 3
    assert "DegenerateOutcome" in capsys.readouterr().err


def test_select_too_few_scores_exit_2(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("name,score\n" + "".join(f"x{i},{i / 10}\n" for i in range(5)))
    code = main(["select", "--scores", str(scores), "--alpha", "0.05",
                 "--output", str(tmp_path / "o.csv")])
    assert code == 2
    assert "TooFewScores" in capsys.readouterr().err


def test_bench_and_plotdata(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "n = 60\nd = 12\ninfluential_fraction = 0.25\ninfluential_block = 3\n"
        "explained_variance = 0.75\ncensoring_rate = 0.25\nseed = 4\n"
    )
    report = tmp_path / "report.csv"
    summary = tmp_path / "summary.csv"
    timings = tmp_path / "timings.csv"
    assert main(["bench", "--config", str(cfg), "--output", str(report),
                 "--replicates", "2", "--summary", str(summary),
                 "--timings", str(timings)]) == 0
    rows = read_rows(report)
    assert len(rows) == 4
    assert all(r["error"] == "" for r in rows)
    assert len(read_rows(summary)) == 4  # 2 methods x 2 metrics
    assert len(read_rows(timings)) == 4

    plot = tmp_path / "plot.csv"
    assert main(["plotdata", "--report", str(report), "--group-by", "n,d",
                 "--output", str(plot)]) == 0
    prows = read_rows(plot)
    assert {r["method"] for r in prows} == {"cars", "cox"}
    assert set(prows[0]) == {"n", "d", "method", "metric", "q1", "median", "q3", "count"}


def child_env():
    """The environment of a child Python that finds this package's source by
    absolute path, whatever its working directory and however pytest found it."""
    path = [str(Path(bench.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "survscreen.cli", "--help"],
        env=child_env(),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "score" in result.stdout and "bench" in result.stdout


def test_cold_start_skips_scipy_stats_and_optimize():
    # the runtime needs numpy and the standard library only; scipy is a test
    # dependency, and loading it would more than double every call's start-up time
    code = (
        "import sys; import survscreen, survscreen.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


NO_SCIPY_RUN = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
from survscreen.cli import main

runs = [
    ["simulate", "--config", "scenario.cfg", "--output-dir", "sim", "--replicates", "1"],
    ["score", "--input", "sim/data_0.csv", "--output", "scores.csv"],
    ["select", "--scores", "scores.csv", "--alpha", "0.1", "--output", "selection.csv",
     "--diagnostics", "curve.csv"],
    ["evaluate", "--scores", "selection.csv", "--truth", "sim/truth_0.csv",
     "--output", "metrics.csv"],
    ["bench", "--config", "grid.cfg", "--output", "report.csv", "--replicates", "2"],
    ["plotdata", "--report", "report.csv", "--group-by", "n,d", "--output", "plot.csv"],
]
for argv in runs:
    assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_every_subcommand_runs_without_scipy(tmp_path):
    # at 0.3 the standard-library normal quantile and scipy's differ in the last bit
    scenario = SCENARIO.replace("censoring_rate = 0.25", "censoring_rate = 0.3")
    (tmp_path / "scenario.cfg").write_text(scenario)
    (tmp_path / "grid.cfg").write_text(
        "n = 60\nd = 12\ninfluential_fraction = 0.25\ninfluential_block = 3\n"
        "explained_variance = 0.75\ncensoring_rate = 0.25\nseed = 4\n"
    )
    result = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN], cwd=tmp_path, env=child_env(),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_seed_flag_overrides_config(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(SCENARIO)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    main(["simulate", "--config", str(cfg), "--output-dir", str(a)])
    main(["--seed", "123", "simulate", "--config", str(cfg), "--output-dir", str(b)])
    main(["--seed", "123", "simulate", "--config", str(cfg), "--output-dir", str(c)])
    assert (a / "data_0.csv").read_bytes() != (b / "data_0.csv").read_bytes()
    assert (b / "data_0.csv").read_bytes() == (c / "data_0.csv").read_bytes()


def test_simulate_files_match_per_replicate_generate_dataset(sim_dir, tmp_path):
    from survscreen.data import save_sample, fmt_float
    from survscreen.simulate import generate_dataset, load_scenario_config

    cfg = tmp_path / "scenario.cfg"
    config = load_scenario_config(cfg)
    for rep in (0, 1):
        sample, truth = generate_dataset(config, replicate_id=rep)
        save_sample(sample, tmp_path / "want.csv")
        assert (sim_dir / f"data_{rep}.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        influential = set(truth.influential_set.tolist())
        want = "name,beta,influential\r\n" + "".join(
            f"x{j + 1},{fmt_float(b)},{int(j in influential)}\r\n" for j, b in enumerate(truth.beta)
        )
        assert (sim_dir / f"truth_{rep}.csv").read_bytes() == want.encode()


def test_simulate_time_overflow_exit_3(tmp_path, capsys):
    # explained variance 1e-6 puts sd(log T) in the thousands
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(SCENARIO.replace("explained_variance = 0.75", "explained_variance = 0.000001"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--config", str(cfg), "--output-dir", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("survscreen: TimeOverflow: ") and "sd(log T)" in err


SCENARIO_KEYS = SCENARIO.replace("seed = 9\n", "")


@pytest.mark.parametrize(
    "text",
    [
        SCENARIO_KEYS.replace("n = 150\n", ""),  # missing key
        SCENARIO_KEYS.replace("n = 150", "n = 150, 300"),  # listed value
        SCENARIO_KEYS + "bogus = 1\n",  # unknown key
        SCENARIO_KEYS + "block_magnitudes = 0.2:0.4\n",  # two magnitudes
        SCENARIO_KEYS + "block_magnitudes = nan:0.5:0.75\n",  # a non-finite magnitude
        SCENARIO_KEYS + "n = 200\n",  # a key given twice
    ],
    ids=["missing", "listed", "unknown", "magnitudes", "nan-magnitude", "repeated"],
)
def test_simulate_bad_config_exit_2(tmp_path, capsys, text):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(text)
    code = main(["simulate", "--config", str(cfg), "--output-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("survscreen: ")


@pytest.mark.parametrize("method", ["cars", "cox"])
def test_score_without_covariates_exit_2(tmp_path, capsys, method):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,status\n1,1\n2,0\n3,1\n4,1\n")
    out = tmp_path / "o.csv"
    code = main(["score", "--input", str(bad), "--method", method, "--output", str(out)])
    assert code == 2
    assert "MissingColumn" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["cars", "cox"])
def test_score_covariate_whose_squares_overflow_exit_2(tmp_path, capsys, method):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 4))
    x[:, 2] *= 1e160
    data = tmp_path / "huge.csv"
    data.write_text("time,status,x1,x2,x3,x4\n" + "".join(
        f"{i + 1},{i % 2}," + ",".join(map(repr, row)) + "\n" for i, row in enumerate(x.tolist())
    ))
    out = tmp_path / "o.csv"
    code = main(["score", "--input", str(data), "--method", method, "--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("survscreen: BadValue: covariate 'x3' holds a value of magnitude")
    assert not out.exists()


REPORT_HEADER = ",".join(bench.REPORT_HEADER) + "\n"
FULL_KEY = (
    "n=60;d=12;influential_fraction=0.25;influential_block=3;explained_variance=0.75;"
    "censoring_rate=0.25;cutoff_quantile=0.9;block_magnitudes=0.25:0.5:0.75"
)
OVER_LIMIT = "a" * 140_000  # over csv's 131072-character field limit: csv cannot split its row
OVER_LIMIT_FILES = {
    "sample": "time,status,x\n1,1,0.5\n2,0,{}\n3,1,0.25\n",
    "scores": "name,score\nx1,0.5\nx2,{}\nx3,0.25\n",
    "truth": "name,beta,influential\nx1,0.5,1\nx2,{},0\nx3,0.0,0\n",
    "report": REPORT_HEADER + FULL_KEY + ",0,cars,0.5,0.5,\n" + FULL_KEY + ",1,cars,{},0.5,\n",
    "header": "time,status,{}\n1,1,0.5\n2,0,0.3\n3,1,0.25\n",
}
# case -> (argv, the file that holds the over-long cell)
OVER_LIMIT_CASES = {
    "cars": (["score", "--input", "{sample}", "--method", "cars"], "sample"),
    "cox": (["score", "--input", "{sample}", "--method", "cox"], "sample"),
    "select-scores": (["select", "--scores", "{scores}", "--alpha", "0.1"], "scores"),
    "evaluate-scores": (["evaluate", "--scores", "{scores}", "--truth", "{truth}"], "scores"),
    "evaluate-truth": (["evaluate", "--scores", "{scores}", "--truth", "{truth}"], "truth"),
    "plotdata-report": (["plotdata", "--report", "{report}", "--group-by", "d"], "report"),
    "sample-header": (["score", "--input", "{header}", "--method", "cox"], "header"),
}


@pytest.mark.parametrize("case", OVER_LIMIT_CASES)
def test_score_cell_over_csv_field_limit_exit_2(tmp_path, capsys, case):
    argv, bad = OVER_LIMIT_CASES[case]
    paths = {}
    for name, text in OVER_LIMIT_FILES.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text(text.format(OVER_LIMIT if name == bad else "0.75"))
    out = tmp_path / "o.csv"
    code = main([arg.format(**paths) for arg in argv] + ["--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    where = "the header row" if bad == "header" else "data row 2"
    assert err.startswith(f"survscreen: NonNumericCell: non-numeric cell in {where}")
    assert not out.exists()


@pytest.mark.parametrize("cell", ["high", "nan"])
def test_non_numeric_score_cell_exit_2(tmp_path, capsys, cell):
    scores = tmp_path / "scores.csv"
    scores.write_text("name,score\n" + "".join(f"x{i},{i / 10}\n" for i in range(25)) + f"x25,{cell}\n")
    code = main(["select", "--scores", str(scores), "--alpha", "0.1",
                 "--output", str(tmp_path / "o.csv")])
    assert code == 2
    assert "NonNumericCell" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["2", "-1", "0.5"])
@pytest.mark.parametrize("column", ["selected", "influential"])
def test_evaluate_flag_outside_0_1_exit_2(tmp_path, capsys, column, cell):
    flags = {"selected": ["1", "0", "0", "1"], "influential": ["1", "0", "1", "0"]}
    flags[column][2] = cell
    scores = tmp_path / "scores.csv"
    scores.write_text("name,score,selected\n" + "".join(
        f"x{i},{0.9 - i / 10},{flag}\n" for i, flag in enumerate(flags["selected"])))
    truth = tmp_path / "truth.csv"
    truth.write_text("name,beta,influential\n" + "".join(
        f"x{i},{i / 10},{flag}\n" for i, flag in enumerate(flags["influential"])))
    out = tmp_path / "metrics.csv"
    code = main(["evaluate", "--scores", str(scores), "--truth", str(truth), "--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert f"data row 3, column {column!r}" in err
    assert not out.exists()


def test_bench_bad_nu_exit_2_without_report(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(SCENARIO)
    report = tmp_path / "report.csv"
    code = main(["--nu", "2", "bench", "--config", str(cfg), "--output", str(report)])
    assert code == 2
    assert "nu must be in (0, 1)" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("magnitudes", ["nan:0.5:0.75", "0.25:0.5:0.75, 0.25:inf:0.75"])
def test_bench_non_finite_magnitude_exit_2_without_report(tmp_path, capsys, magnitudes):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(SCENARIO + f"block_magnitudes = {magnitudes}\n")
    report = tmp_path / "report.csv"
    code = main(["bench", "--config", str(cfg), "--output", str(report)])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("survscreen: BadValue: block_magnitudes must be finite")
    assert not report.exists()


OUT_OF_RANGE_MAGNITUDES = ["1e308:0.5:0.75", "2:0.5:0.75", "-5:0.5:0.75", "0.25:0.5:1"]


@pytest.mark.parametrize("magnitudes", OUT_OF_RANGE_MAGNITUDES)
def test_bench_magnitude_outside_unit_interval_exit_2_without_report(tmp_path, capsys, magnitudes):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(SCENARIO + f"block_magnitudes = {magnitudes}\n")
    report = tmp_path / "report.csv"
    code = main(["bench", "--config", str(cfg), "--output", str(report)])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("survscreen: BadValue: block_magnitudes must be finite and in [0, 1)")
    assert not report.exists()


@pytest.mark.parametrize("magnitudes", OUT_OF_RANGE_MAGNITUDES)
def test_simulate_magnitude_outside_unit_interval_exit_2(tmp_path, capsys, magnitudes):
    # 1e308 used to end in a LinAlgError traceback from the design projection,
    # 2 and -5 to be projected without a word
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(SCENARIO.replace("d = 30", "d = 12") + f"block_magnitudes = {magnitudes}\n")
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--output-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("survscreen: BadValue: block_magnitudes must be finite and in [0, 1)")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "config, argv",
    [
        (SCENARIO, ["--seed", "-1", "simulate", "--config", "{cfg}", "--output-dir", "{out}"]),
        (SCENARIO.replace("seed = 9", "seed = -5"),
         ["simulate", "--config", "{cfg}", "--output-dir", "{out}"]),
        (SCENARIO.replace("seed = 9", "seed = -3"),
         ["bench", "--config", "{cfg}", "--output", "{out}/report.csv"]),
    ],
    ids=["simulate-flag", "simulate-config", "bench-grid"],
)
def test_negative_seed_exit_2_without_output(tmp_path, capsys, config, argv):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    code = main([arg.format(cfg=cfg, out=out) for arg in argv])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("survscreen: BadValue: seed must be >= 0")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--config", "{cfg}", "--output", "{out}/report.csv", "--replicates", "-1"],
        ["bench", "--config", "{cfg}", "--output", "{out}/report.csv", "--replicates", "0"],
        ["simulate", "--config", "{cfg}", "--output-dir", "{out}", "--replicates", "-2"],
        ["--threads", "-3", "bench", "--config", "{cfg}", "--output", "{out}/report.csv"],
        ["--threads", "0", "simulate", "--config", "{cfg}", "--output-dir", "{out}"],
    ],
    ids=["bench-replicates", "bench-zero-replicates", "simulate-replicates", "bench-threads",
         "simulate-threads"],
)
def test_counts_below_one_exit_2_without_output(tmp_path, capsys, argv):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(SCENARIO)
    out = tmp_path / "out"
    code = main([arg.format(cfg=cfg, out=out) for arg in argv])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("survscreen: BadValue: --")
    assert not out.exists()


def test_score_bad_nu_exit_2_without_scores(tmp_path, capsys):
    # --nu is a global option only; the score subcommand does not take it
    data = Path(__file__).parent / "data" / "golden_data.csv"
    scores = tmp_path / "scores.csv"
    code = main(["--nu", "2", "score", "--input", str(data), "--output", str(scores)])
    assert code == 2
    assert "nu must be in (0, 1)" in capsys.readouterr().err
    assert not scores.exists()
    with pytest.raises(SystemExit) as exc:
        main(["score", "--input", str(data), "--output", str(scores), "--nu", "0.5"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "text, kind",
    [
        ("a,b\n1,2\n", "MissingColumn"),
        (REPORT_HEADER + FULL_KEY + ",x,cars,0.5,0.5,\n", "NonNumericCell"),
        (REPORT_HEADER + FULL_KEY + ",0,cars,0.5,nan,\n", "NonNumericCell"),
        (REPORT_HEADER + FULL_KEY.replace("n=60", "n=6x0") + ",0,cars,0.5,0.5,\n", "BadValue"),
        (REPORT_HEADER + "n=60,0,cars,0.5,0.5,\n", "UnknownField"),
    ],
    ids=["header", "replicate", "nan", "key-value", "key-fields"],
)
def test_plotdata_malformed_report_exit_2(tmp_path, capsys, text, kind):
    report = tmp_path / "report.csv"
    report.write_text(text)
    code = main(["plotdata", "--report", str(report), "--group-by", "d",
                 "--output", str(tmp_path / "plot.csv")])
    assert code == 2
    assert kind in capsys.readouterr().err


def test_plotdata_repeated_group_field_exit_2(tmp_path, capsys):
    report = tmp_path / "report.csv"
    report.write_text(REPORT_HEADER + FULL_KEY + ",0,cars,0.5,0.5,\n")
    plot = tmp_path / "plot.csv"
    code = main(["plotdata", "--report", str(report), "--group-by", "n,n", "--output", str(plot)])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("survscreen: BadValue: ") and "'n'" in err
    assert not plot.exists()


def write_sample(path, times, events, x):
    names = ",".join(f"x{j + 1}" for j in range(x.shape[1]))
    rows = [f"{float(t)!r},{e}," + ",".join(repr(float(v)) for v in r)
            for t, e, r in zip(times, events, x)]
    path.write_text(f"time,status,{names}\n" + "\n".join(rows) + "\n")


def edge_sample(case):
    rng = np.random.default_rng(83)
    if case == "d=1":
        x = rng.standard_normal((30, 1))
        events = (rng.uniform(size=30) > 0.3).astype(int)
        return np.exp(x[:, 0] + rng.standard_normal(30)), events, x
    if case == "n=3":
        return np.array([1.0, 2.0, 3.0]), np.array([1, 1, 1]), rng.standard_normal((3, 25))
    if case == "n=3-censored":
        return np.array([1.0, 2.0, 3.0]), np.array([1, 0, 1]), rng.standard_normal((3, 25))
    if case == "time=status":  # a status column of 1s is also a valid time column
        return rng.lognormal(size=30), np.ones(30, dtype=int), rng.standard_normal((30, 4))
    events = np.zeros(40, dtype=int)
    events[5] = 1
    return rng.lognormal(size=40), events, rng.standard_normal((40, 30))


# (case, method) -> (score exit code, select exit code or None when score fails)
EDGE_CASES = {
    ("d=1", "cars"): (0, 2),  # select: TooFewScores
    ("d=1", "cox"): (0, 2),
    ("n=3", "cars"): (0, 3),  # select: DegenerateScores, the null scale is not identified
    ("n=3", "cox"): (0, 3),
    ("n=3-censored", "cars"): (2, None),  # TooFewRows: 2 rows of positive weight
    ("n=3-censored", "cox"): (0, 0),
    ("one-event", "cars"): (3, None),  # DegenerateOutcome
    ("one-event", "cox"): (0, 0),
    ("time=status", "cars"): (2, None),  # BadValue: one column named for both
    ("time=status", "cox"): (2, None),
}

#: extra score arguments of a case
EDGE_ARGS = {"time=status": ["--time-col", "status", "--status-col", "status"]}


@pytest.mark.parametrize("case, method", EDGE_CASES, ids=lambda v: str(v))
def test_cli_edge_cases_exit_cleanly(tmp_path, capsys, case, method):
    sample, scores = tmp_path / "sample.csv", tmp_path / "scores.csv"
    write_sample(sample, *edge_sample(case))
    calls = [["score", "--input", str(sample), "--method", method, "--output", str(scores),
              *EDGE_ARGS.get(case, [])],
             ["select", "--scores", str(scores), "--alpha", "0.1",
              "--output", str(tmp_path / "s.csv")]]
    for argv, want in zip(calls, EDGE_CASES[case, method]):
        if want is None:
            break
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == want
        assert caught == []
        err = capsys.readouterr().err
        if want != 0:
            assert len(err.splitlines()) == 1 and err.startswith("survscreen: ")
