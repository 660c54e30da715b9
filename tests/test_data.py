import warnings

import numpy as np
import numpy.testing as npt
import pytest

from survscreen import SurvivalSample, load_sample
from survscreen import data
from survscreen.data import covariate_summary, save_sample
from survscreen.errors import (
    BadValue,
    MissingColumn,
    NonBinaryStatus,
    NonNumericCell,
    NonPositiveTime,
    SurvScreenError,
    TooFewRows,
)


def write_csv(path, text):
    path.write_text(text)
    return path


def test_load_log_transforms_times(tmp_path):
    p = write_csv(tmp_path / "d.csv", f"time,status,x\n1,1,0.5\n{np.e!r},0,-0.5\n")
    s = load_sample(p)
    npt.assert_allclose(s.log_times, [0.0, 1.0], atol=1e-15)
    npt.assert_array_equal(s.events, [1, 0])
    npt.assert_array_equal(s.covariates, [[0.5], [-0.5]])
    assert s.covariate_names == ["x"]


def test_nonpositive_time_reports_row(tmp_path):
    p = write_csv(tmp_path / "d.csv", "time,status,x\n1,1,0\n2,0,0\n0,1,0\n")
    with pytest.raises(NonPositiveTime) as err:
        load_sample(p)
    assert err.value.row == 3


def test_missing_column(tmp_path):
    p = write_csv(tmp_path / "d.csv", "time,stat,x\n1,1,0\n2,0,0\n")
    with pytest.raises(MissingColumn):
        load_sample(p)


def test_non_binary_status(tmp_path):
    p = write_csv(tmp_path / "d.csv", "time,status,x\n1,1,0\n2,2,0\n")
    with pytest.raises(NonBinaryStatus):
        load_sample(p)


@pytest.mark.parametrize("column", ["x", "time"])
@pytest.mark.parametrize("cell", ["abc", "", "nan", "inf"])
def test_non_numeric_cell_names_column(tmp_path, column, cell):
    row = {"time": "2", "status": "0", "x": "0", column: cell}
    text = "time,status,x\n1,1,0\n" + ",".join(row.values()) + "\n3,1,0\n"
    p = write_csv(tmp_path / "d.csv", text)
    with pytest.raises(NonNumericCell) as err:
        load_sample(p)
    assert err.value.column == column
    assert err.value.row == 2


@pytest.mark.parametrize(
    "body, kind, row",
    [
        ("1,1,nan\n2,0,abc\n", NonNumericCell, 2),  # a cell that does not parse comes first
        ("1,2,0\n-1,0,inf\n", NonNumericCell, 2),  # then a non-finite cell
        ("1,2,0\n-1,0,0\n", NonPositiveTime, 2),  # then a bad time, then a bad status
    ],
)
def test_several_faults_report_in_precedence_order(tmp_path, body, kind, row):
    p = write_csv(tmp_path / "d.csv", "time,status,x\n" + body)
    with pytest.raises(kind) as err:
        load_sample(p)
    assert err.value.row == row


def test_missing_cell_rejected(tmp_path):
    p = write_csv(tmp_path / "d.csv", "time,status,x\n1,1,0\n2,0,\n")
    with pytest.raises(NonNumericCell):
        load_sample(p)


def test_too_few_rows(tmp_path):
    p = write_csv(tmp_path / "d.csv", "time,status,x\n1,1,0\n")
    with pytest.raises(TooFewRows):
        load_sample(p)


HEAD = "time,status,x,y"
ROWS = ["1.5,1,0.25,-1e-3", "2,0,3.5,7", "0.5,1,-2,1e150"]


def lines(*rows, end="\n"):
    return end.join((HEAD,) + rows) + end


# each file is read once as it is and once by the csv loop alone
LOADER_FILES = {
    "lf": lines(*ROWS),
    "lone-cr": lines(*ROWS, end="\r"),
    "crlf": lines(*ROWS, end="\r\n"),
    "mixed-endings": HEAD + "\r\n" + ROWS[0] + "\r" + ROWS[1] + "\n" + ROWS[2] + "\r\n",
    "no-final-newline": lines(*ROWS)[:-1],
    "quoted-cell": lines(ROWS[0], '2,0,"3.5",7', ROWS[2]),
    "quoted-header-newline": '"time",status,"x\ny",y\n' + "\n".join(ROWS) + "\n",
    "underscore": lines(ROWS[0], "2,0,0_1,7", ROWS[2]),
    "space-padded": lines(ROWS[0], "2 ,0, 3.5 ,7", ROWS[2]),
    "tab-padded": lines(ROWS[0], "2,0,\t3.5,7\t", ROWS[2]),
    "empty-cell": lines(ROWS[0], "2,0,,7", ROWS[2]),
    "nan": lines(ROWS[0], "2,0,nan,7", ROWS[2]),
    "ragged": lines(ROWS[0], "2,0,3.5,7,8", ROWS[2]),
    "short-row": lines(ROWS[0], "2,0,3.5", ROWS[2]),
    "blank-mid": lines(ROWS[0], "", *ROWS[1:]),
    "blank-end": lines(*ROWS) + "\n",
    "blank-everywhere": lines("", ROWS[0], "", "", *ROWS[1:], "", end="\r\n"),
    "blank-then-nan": lines(ROWS[0], "", "2,0,nan,7", ROWS[2]),
    "whitespace-line": lines(ROWS[0], " \t", *ROWS[1:]),
    "header-only": lines(),
    "one-row": lines(ROWS[0]),
    "hash": lines(ROWS[0], "2,0,#0.1,7", ROWS[2]),
    "arabic-digit": lines(ROWS[0], "2,0,\u0661,7", ROWS[2]),
    "fortran-exponent": lines(ROWS[0], "2,0,1d0,7", ROWS[2]),
    "hex-float": lines(ROWS[0], "2,0,0x1p-3,7", ROWS[2]),
    "status-2": lines(ROWS[0], "2,2,3.5,7", ROWS[2]),
    "negative-time": lines(ROWS[0], "-2,0,3.5,7", ROWS[2]),
}


def load_outcome(path):
    """The sample's arrays as bytes, or the error's kind, row and column."""
    try:
        s = load_sample(path)
    except SurvScreenError as exc:
        return type(exc).__name__, getattr(exc, "row", None), getattr(exc, "column", None)
    arrays = (s.times, s.log_times, s.events, s.covariates)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays], s.covariate_names


#: the files the bulk parse takes; every other one goes to the csv loop
BULK = {
    "lf", "lone-cr", "crlf", "mixed-endings", "no-final-newline", "quoted-header-newline",
    "space-padded", "tab-padded", "nan", "one-row", "status-2", "negative-time",
    "blank-mid", "blank-end", "blank-everywhere", "blank-then-nan",
}


#: the files that load; every other one ends in an error
PARSED = {
    "lf", "lone-cr", "crlf", "mixed-endings", "no-final-newline", "quoted-cell",
    "quoted-header-newline", "underscore", "space-padded", "tab-padded", "blank-mid",
    "blank-end", "blank-everywhere", "arabic-digit",
}


@pytest.mark.parametrize("name", LOADER_FILES)
def test_loader_matches_the_csv_loop(tmp_path, monkeypatch, capfd, name):
    path = tmp_path / "d.csv"
    path.write_bytes(LOADER_FILES[name].encode())
    bulk = data._parsed_table
    taken = []

    def spy(*args):
        table = bulk(*args)
        taken.append(table is not None)
        return table

    monkeypatch.setattr(data, "_parsed_table", spy)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = load_outcome(path)
    assert caught == []
    assert capfd.readouterr().err == ""
    assert taken == [name in BULK]
    assert isinstance(got[0], list) == (name in PARSED)
    monkeypatch.setattr(data, "_parsed_table", lambda *args: None)
    assert got == load_outcome(path)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_blank_lines_stay_on_the_bulk_parse(tmp_path, end):
    plain = write_csv(tmp_path / "plain.csv", lines(*ROWS, end=end))
    blanks = write_csv(tmp_path / "blanks.csv", lines("", ROWS[0], "", *ROWS[1:], "", end=end))
    for path in (plain, blanks):
        assert data._parsed_table(path, 1, 4) is not None
    assert isinstance(load_outcome(plain)[0], list)
    assert load_outcome(blanks) == load_outcome(plain)


def test_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(7)
    times = rng.lognormal(size=4)
    events = np.array([1, 0, 1, 1])
    cov = rng.standard_normal((4, 3))
    sample = SurvivalSample.from_times(times, events, cov, ["a", "b", "c"])
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    save_sample(sample, p1)
    first = load_sample(p1)
    save_sample(first, p2)
    second = load_sample(p2)
    npt.assert_array_equal(first.log_times, second.log_times)
    npt.assert_array_equal(first.times, second.times)
    npt.assert_array_equal(first.events, second.events)
    npt.assert_array_equal(first.covariates, second.covariates)
    assert first.covariate_names == second.covariate_names


def naive_summary(x):
    # independent two-pass oracle
    n, d = x.shape
    means = np.array([sum(x[:, j]) / n for j in range(d)])
    variances = np.array(
        [sum((x[i, j] - means[j]) ** 2 for i in range(n)) / (n - 1) for j in range(d)]
    )
    return means, variances


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_non_finite_covariate_rejected(value):
    x = np.arange(12.0).reshape(4, 3)
    x[2, 1] = value
    with pytest.raises(BadValue, match="covariate 'b' holds a non-finite value"):
        SurvivalSample.from_times([1, 2, 3, 4], [1, 0, 1, 1], x, ["a", "b", "c"])


def test_covariate_whose_squares_overflow_rejected():
    x = np.ones((4, 2))
    x[:, 1] = [1.0, -1e154, 0.0, 1e153]  # 4 (2e154)^2 overflows; 4 (2e153)^2 does not
    with pytest.raises(BadValue, match="covariate 'x2' holds a value of magnitude 1e[+]154"):
        SurvivalSample.from_times([1, 2, 3, 4], [1, 0, 1, 1], x)
    x[1, 1] = -1e153
    assert SurvivalSample.from_times([1, 2, 3, 4], [1, 0, 1, 1], x).d == 2


def test_summary_constant_column_flagged():
    s = SurvivalSample.from_times(
        [1, 2, 3], [1, 1, 1], np.array([[1.0, 0.0], [1.0, 2.0], [1.0, 4.0]])
    )
    summ = covariate_summary(s.covariates)
    npt.assert_allclose(summ.means, [1.0, 2.0])
    npt.assert_allclose(summ.variances, [0.0, 4.0])
    npt.assert_array_equal(summ.degenerate, [True, False])


def test_summary_two_point_column():
    s = SurvivalSample.from_times([1, 2], [1, 1], np.array([[0.0], [2.0]]))
    summ = covariate_summary(s.covariates)
    assert summ.means[0] == 1.0
    assert summ.variances[0] == 2.0


def test_summary_matches_two_pass_oracle():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((50, 5)) * rng.uniform(0.5, 3.0, size=5)
    s = SurvivalSample.from_times(rng.lognormal(size=50), np.ones(50, dtype=int), x)
    summ = covariate_summary(s.covariates)
    means, variances = naive_summary(x)
    npt.assert_allclose(summ.means, means, rtol=1e-12)
    npt.assert_allclose(summ.variances, variances, rtol=1e-12)


def test_summary_permutation_invariant():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 4))
    t = rng.lognormal(size=40)
    ev = rng.integers(0, 2, size=40)
    ev[0] = 1
    perm = rng.permutation(40)
    a = covariate_summary(SurvivalSample.from_times(t, ev, x).covariates)
    b = covariate_summary(SurvivalSample.from_times(t[perm], ev[perm], x[perm]).covariates)
    npt.assert_allclose(a.means, b.means, rtol=1e-12)
    npt.assert_allclose(a.variances, b.variances, rtol=1e-12)


def test_summary_shift_property():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((30, 2))
    t = rng.lognormal(size=30)
    shifted = x.copy()
    shifted[:, 0] += 7.5
    a = covariate_summary(SurvivalSample.from_times(t, np.ones(30, dtype=int), x).covariates)
    b = covariate_summary(SurvivalSample.from_times(t, np.ones(30, dtype=int), shifted).covariates)
    npt.assert_allclose(b.means[0], a.means[0] + 7.5, rtol=1e-10)
    npt.assert_allclose(b.variances, a.variances, rtol=1e-10)


def test_weighted_summary_matches_frequency_weight_oracle():
    # integer weights are row repeats: the weighted moments equal the plain
    # moments of the expanded sample, and weight-0 rows do not count
    rng = np.random.default_rng(13)
    x = rng.standard_normal((12, 3))
    w = np.array([0, 1, 2, 3, 0, 1, 1, 2, 4, 0, 1, 2], dtype=float)
    s = SurvivalSample.from_times(rng.lognormal(size=12), np.ones(12, dtype=int), x)
    summ = covariate_summary(s.covariates, w)
    means, variances = naive_summary(np.repeat(x, w.astype(int), axis=0))
    npt.assert_allclose(summ.means, means, rtol=1e-12)
    npt.assert_allclose(summ.variances, variances, rtol=1e-12)


def test_weighted_summary_unit_weights_bitwise():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((25, 4))
    s = SurvivalSample.from_times(rng.lognormal(size=25), np.ones(25, dtype=int), x)
    a = covariate_summary(s.covariates)
    b = covariate_summary(s.covariates, np.ones(25))
    npt.assert_array_equal(a.means, b.means)
    npt.assert_array_equal(a.variances, b.variances)


def test_weighted_summary_constant_on_weighted_rows_is_degenerate():
    x = np.array([[1.0, 0.0], [1.0, 2.0], [5.0, 4.0], [1.0, 1.0]])
    s = SurvivalSample.from_times([1, 2, 3, 4], [1, 1, 1, 1], x)
    summ = covariate_summary(s.covariates, np.array([2.0, 1.0, 0.0, 1.0]))
    npt.assert_array_equal(summ.degenerate, [True, False])
    assert summ.means[0] == 1.0


def test_weighted_summary_needs_weights_summing_above_one():
    # the variances divide by sum(w) - 1; shares summing to 1 have no such
    # divisor and are refused, by the summary and by the rows standardized
    # from it, rather than turned into infinities and NaNs
    from survscreen.shrinkage import whitener_from_data

    x = np.random.default_rng(19).standard_normal((10, 3))
    shares = np.full(10, 0.1)
    with pytest.raises(BadValue):
        covariate_summary(x, shares)
    with pytest.raises(BadValue):
        whitener_from_data(x, None, shares)
