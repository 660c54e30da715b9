"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402

# The metric set the benchmark is specified with, in order.
SPECIFIED_END_TO_END = ["replicates_per_s", "screen_s_p50", "setup_s", "peak_rss_mb"]
SPECIFIED_PER_LAYER = [
    "simulate.generate_s", "simulate.sample_covariates_s", "simulate.population_scores_s",
    "simulate.nearest_correlation_s", "simulate.nearest_correlation_iters",
    "cox.scores_s", "cox.newton_iters", "cox.us_per_newton_iter", "cox.separation_count",
    "cox.nonconverged_count",
    "cars.score_s",
    "shrinkage.lambda_s", "shrinkage.whitener_s", "shrinkage.lambda", "shrinkage.kept_rank",
    "shrinkage.min_eigenvalue",
    "ipcw.censoring_km_s", "ipcw.ipc_weights_s", "ipcw.event_frac", "ipcw.ess",
    "ipcw.max_weight", "ipcw.floor_hits",
    "data.load_sample_s", "data.load_sample_mb_per_s", "data.covariate_summary_s",
    "fdr.select_s", "fdr.null_model_curve_s", "fdr.eta0", "fdr.selected_count",
    "metrics.pr_auc_s", "metrics.rank_correlation_s",
    "cli.score_cars_s", "cli.score_cox_s", "cli.select_s", "cli.self_s",
    "bench.run_s", "bench.cpu_util", "bench.scaling_efficiency", "bench.job_payload_mb",
]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Each workload's shape at a size that runs in about a second.
TINY = {
    "bench_accept": {"n": 60, "d": 30, "replicates": 2},
    "bench_wide": {"n": 30, "d": 60, "replicates": 1},
    "bench_pool": {"n": 60, "d": 30, "replicates": 2},
    "screen_large": {"n": 40, "d": 90},
}


def test_screen_csv_bytes_depend_only_on_the_seed(tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        inputs.write_screen_csv(tmp_path / f"{name}.csv", 30, 60, seed)
    a, b, c = ((tmp_path / f"{name}.csv").read_bytes() for name in "abc")
    assert a == b
    assert a != c


def test_screen_sample_follows_the_program_block_design():
    m = 4
    design = run.simulate.build_block_design(3 * m, inputs.BLOCK_MAGNITUDES)
    signs = inputs.block_signs(m)
    for b, xi in enumerate(inputs.BLOCK_MAGNITUDES):
        block = design[b * m:(b + 1) * m, b * m:(b + 1) * m]
        expected = xi * np.outer(signs, signs)
        np.fill_diagonal(expected, 1.0)
        np.testing.assert_array_equal(block, expected)
    _, status, x, _ = inputs.draw_screen_sample(20000, 3 * m, seed=1)
    np.testing.assert_allclose(np.corrcoef(x, rowvar=False), design, atol=0.03)
    assert abs(1 - status.mean() - 0.3) < 0.02


def test_metric_names_are_the_specified_ones():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == SPECIFIED_END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == SPECIFIED_PER_LAYER
    assert [name for name, _, _ in run.END_TO_END] == SPECIFIED_END_TO_END
    assert [name for name, _, _ in run.PER_LAYER] == SPECIFIED_PER_LAYER
    for name in SPECIFIED_END_TO_END + SPECIFIED_PER_LAYER:
        assert NAME.match(name), name
    for listed in spec["workloads"]:
        assert listed["name"] in run.WORKLOADS


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_smoke_run_has_no_failed_operations(name):
    wl = dataclasses.replace(run.WORKLOADS[name], **TINY[name])
    result = run.run(wl, seed=3, seconds=0.01, trace=False, setups=1)
    assert result["correct"], result["gates"]
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert list(result["metrics"]) == SPECIFIED_END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["bench_accept", "screen_large"])
def test_tiny_traced_run_reports_every_layer(name):
    wl = dataclasses.replace(run.WORKLOADS[name], **TINY[name])
    result = run.run(wl, seed=3, seconds=0.01, trace=True)
    assert result["correct"], result["gates"]
    assert result["failed"] == 0
    assert list(result["metrics"]) == SPECIFIED_PER_LAYER


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "bench_accept", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
