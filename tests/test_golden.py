"""Golden-file integration: score -> select -> evaluate on a frozen dataset.

Schemas and orderings must match the committed outputs exactly; float
values are compared at 1e-10 so the test is robust to BLAS build
differences in the last bits.
"""

import csv
from pathlib import Path

import pytest

from survscreen.cli import main

DATA = Path(__file__).parent / "data"


def rows_of(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def assert_csv_close(got_path, golden_path):
    got = rows_of(got_path)
    golden = rows_of(golden_path)
    assert got[0] == golden[0], "header mismatch"
    assert len(got) == len(golden)
    for got_row, golden_row in zip(got[1:], golden[1:]):
        assert len(got_row) == len(golden_row)
        for name, a, b in zip(got[0], got_row, golden_row):
            try:
                fa, fb = float(a), float(b)
            except ValueError:
                assert a == b, (name, a, b)
                continue
            assert fa == pytest.approx(fb, rel=1e-10, abs=1e-12), (name, a, b)


def test_pipeline_reproduces_golden_outputs(tmp_path):
    scores = tmp_path / "scores.csv"
    selection = tmp_path / "selection.csv"
    nullcurve = tmp_path / "nullcurve.csv"
    metrics = tmp_path / "metrics.csv"

    assert main(["score", "--input", str(DATA / "golden_data.csv"),
                 "--output", str(scores)]) == 0
    assert_csv_close(scores, DATA / "golden_scores.csv")

    assert main(["select", "--scores", str(scores), "--alpha", "0.1",
                 "--output", str(selection),
                 "--diagnostics", str(nullcurve)]) == 0
    assert_csv_close(selection, DATA / "golden_selection.csv")
    assert_csv_close(nullcurve, DATA / "golden_nullcurve.csv")

    assert main(["evaluate", "--scores", str(selection),
                 "--truth", str(DATA / "golden_truth.csv"),
                 "--output", str(metrics)]) == 0
    assert_csv_close(metrics, DATA / "golden_metrics.csv")

    # the frozen selection recovers all six influential covariates and
    # nothing else; the sixth, x33, carries its signal in the 20 rows
    # censored at the end of follow-up (mean -0.61 there, +0.13 elsewhere),
    # which the scores count by Efron's tail rule
    with open(DATA / "golden_metrics.csv", newline="") as fh:
        got = {r["metric"]: float(r["value"]) for r in csv.DictReader(fh)}
    assert got["tp"] == 6 and got["fp"] == 0 and got["fn"] == 0


WHITEN = DATA / "whiten"


@pytest.mark.parametrize("method", ["cars", "cox"])
@pytest.mark.parametrize("d", [60, 600])
def test_whitening_samples_reproduce_golden_outputs(tmp_path, capsys, d, method):
    """score and select on two n=120 block-design samples whose estimated
    shrinkage weight is below 1, so the CARS whitener is not the identity:
    d=60 takes the d <= m route and d=600 the d > m one, in two panels."""
    stem = f"d{d}_{method}"
    scores = tmp_path / "scores.csv"
    assert main(["score", "--input", str(WHITEN / f"d{d}.csv"), "--method", method,
                 "--output", str(scores)]) == 0
    assert_csv_close(scores, WHITEN / f"{stem}_scores.csv")
    if method == "cars":
        diag = dict(cell.split("=") for cell in capsys.readouterr().err.split()[1:])
        lam, min_eig = float(diag["shrinkage"]), float(diag["min_eigenvalue"])
        assert 0.0 < lam < 1.0
        assert (min_eig == lam) == (d == 600)  # d > m leaves a complement at lam

    selection = tmp_path / "selection.csv"
    nullcurve = tmp_path / "nullcurve.csv"
    assert main(["select", "--scores", str(scores), "--alpha", "0.1",
                 "--output", str(selection), "--diagnostics", str(nullcurve)]) == 0
    assert_csv_close(selection, WHITEN / f"{stem}_selection.csv")
    assert_csv_close(nullcurve, WHITEN / f"{stem}_nullcurve.csv")
