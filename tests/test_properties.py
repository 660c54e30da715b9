"""Property tests of CARS (and Cox) scoring over censored and uncensored
draws, of FDR selection over score vectors, and of the CLI over mutated
CSV files.

Each example is drawn from a seed, so the data behind a failing example
can be rebuilt with numpy alone.  Shapes cover both whitener routes: the
dense one when d is at most the number m of rows of positive weight, and
the thin one when d > m.
"""

import io
import tempfile
import warnings
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from survscreen import SurvivalSample, cars_score, cox_scores, select
from survscreen.cars import scoring_weights
from survscreen.cli import main
from survscreen.errors import DegenerateScores
from survscreen.fdr import MIN_SCORES

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)


@st.composite
def cases(draw, censored=st.booleans()):
    """(sample, rng) with d <= m or d > m, censored or not, maybe with tied times."""
    seed = draw(st.integers(0, 2**32 - 1))
    is_censored = draw(censored)
    wide = draw(st.booleans())
    tied = draw(st.booleans())
    n = draw(st.integers(12, 40))
    d = draw(st.integers(n + 1, 2 * n)) if wide else draw(st.integers(2, n // 3))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) @ rng.standard_normal((d, d)) / np.sqrt(d)
    log_t = x[:, :2].sum(axis=1) + rng.standard_normal(n)
    if is_censored:
        log_c = 0.7 + rng.standard_normal(n)
        events = (log_t <= log_c).astype(int)
        log_t = np.minimum(log_t, log_c)
    else:
        events = np.ones(n, dtype=int)
    times = np.exp(log_t)
    if tied:
        times = np.maximum(np.round(times, 1), 0.1)
    sample = SurvivalSample.from_times(times, events, x)
    assume(np.unique(sample.log_times[events == 1]).size >= 2)
    m = np.count_nonzero(scoring_weights(sample).weights)
    assume(d > m if wide else d <= m)
    event(f"{'censored' if is_censored else 'uncensored'}, {'d > m' if wide else 'd <= m'}")
    return sample, rng


def reorder(sample, rows=slice(None), cols=slice(None)):
    return SurvivalSample.from_times(
        sample.times[rows], sample.events[rows], sample.covariates[rows][:, cols]
    )


@PROPERTY
@given(cases())
def test_cars_row_permutation_invariance(case):
    sample, rng = case
    perm = rng.permutation(sample.n)
    got = cars_score(reorder(sample, rows=perm))
    want = cars_score(sample)
    npt.assert_allclose(got.scores, want.scores, rtol=1e-9, atol=1e-12)
    npt.assert_allclose(got.diagnostics["shrinkage"], want.diagnostics["shrinkage"], rtol=1e-9)


@pytest.mark.parametrize("scorer", [cars_score, cox_scores], ids=lambda f: f.__name__)
@PROPERTY
@given(case=cases())
def test_column_permutation_equivariance(scorer, case):
    sample, rng = case
    perm = rng.permutation(sample.d)
    got = scorer(reorder(sample, cols=perm))
    want = scorer(sample)
    npt.assert_allclose(got.scores, want.scores[perm], rtol=1e-9, atol=1e-12)


@PROPERTY
@given(cases(censored=st.just(False)), st.floats(0.05, 0.95))
def test_uncensored_cars_matches_corrcoef_oracle(case, lam):
    # theta = sqrt((n-1)/n) (lam I + (1 - lam) C)^-1/2 r with C and r the
    # Pearson correlations of np.corrcoef; the sqrt((n-1)/n) comes from the
    # outcome variance taken with divisor n and the covariate ones with n-1
    sample, _ = case
    n, d = sample.n, sample.d
    full = np.corrcoef(np.column_stack([sample.covariates, sample.log_times]), rowvar=False)
    corr, r = full[:d, :d], full[:d, d]
    w, v = np.linalg.eigh(lam * np.eye(d) + (1 - lam) * corr)
    oracle = np.sqrt((n - 1) / n) * (v * w**-0.5) @ v.T @ r
    npt.assert_allclose(cars_score(sample, lambda_override=lam).scores, oracle, rtol=1e-10, atol=1e-10)


@st.composite
def score_vectors(draw):
    """Half-normal null scores plus a few signals of either sign."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(MIN_SCORES, 400))
    scores = rng.normal(0.0, draw(st.floats(0.01, 10.0)), size=d)
    signals = rng.uniform(size=d) < draw(st.floats(0.0, 0.3))
    k = signals.sum()
    scores[signals] += rng.choice([-1.0, 1.0], size=k) * rng.uniform(2, 6, k) * scores.std()
    return scores


def select_or_none(scores, alpha):
    """``select``, or None when the null scale is not identified."""
    try:
        return select(scores, alpha)
    except DegenerateScores:
        return None


@PROPERTY
@given(score_vectors(), st.floats(1e-3, 1e3), st.floats(0.01, 0.5))
def test_selection_is_equivariant_in_the_score_scale(scores, c, alpha):
    a, b = select_or_none(scores, alpha), select_or_none(c * scores, alpha)
    # an unidentified null scale is unidentified at every scale
    assert (a is None) == (b is None)
    assume(a is not None)
    # a q-value within round-off of alpha may fall either side of it
    assume(np.abs(a.q_values - alpha).min() > 1e-9)
    npt.assert_allclose(b.q_values, a.q_values, rtol=1e-9, atol=1e-12)
    npt.assert_allclose(b.eta0, a.eta0, rtol=1e-9)
    npt.assert_allclose(b.null_scale, c * a.null_scale, rtol=1e-9)
    npt.assert_array_equal(b.selected, a.selected)


@PROPERTY
@given(score_vectors(), st.lists(st.floats(0.001, 0.999), min_size=2, max_size=5))
def test_selections_are_nested_in_alpha(scores, alphas):
    results = [select_or_none(scores, alpha) for alpha in sorted(alphas)]
    # the null fit does not depend on alpha: it raises at every alpha or at none
    assume(results[0] is not None)
    selected = [set(r.selected.tolist()) for r in results]
    assert all(low <= high for low, high in zip(selected, selected[1:]))


#: replacement cells: blanks, non-finite and odd numerals, quotes, other
#: scripts, and cells over csv's 131072-character field limit
MUTANT_CELLS = st.one_of(
    st.sampled_from(["", " ", "nan", "-inf", "1e400", "0x10", "1_0", "\u0661", '"', '"1,2"',
                     '"a""b"', "a" * 140_000, "9" * 140_000]),
    st.text(max_size=6),
)


def mutated_csv(data, rows) -> bytes:
    """``rows`` (header first) as CSV bytes after up to three drawn edits of
    a cell, its quoting, a row's width, a blank line or the file's length,
    in one drawn line ending and encoding."""
    rows = [list(r) for r in rows]
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(["cell", "quote", "drop", "extra", "blank", "truncate"]))
        i = data.draw(st.integers(0, max(len(rows) - 1, 0)))
        if not rows or kind == "truncate":
            del rows[i:]
        elif kind == "blank":
            rows.insert(i, [])
        else:
            j = data.draw(st.integers(0, max(len(rows[i]) - 1, 0)))
            if kind == "extra" or not rows[i]:
                rows[i].insert(j, data.draw(MUTANT_CELLS))
            elif kind == "drop":
                del rows[i][j]
            elif kind == "quote":
                rows[i][j] = f'"{rows[i][j]}"'
            else:
                rows[i][j] = data.draw(MUTANT_CELLS)
    newline = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    encoding = data.draw(st.sampled_from(["utf-8", "utf-8-sig", "latin-1", "utf-16"]))
    return "".join(",".join(r) + newline for r in rows).encode(encoding, errors="replace")


@settings(PROPERTY, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.data())
def test_cli_survives_mutated_csvs(seed, data):
    # bad input ends in exit 2 or 3 with one line: no traceback, no warning
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(3, 13)), int(rng.integers(1, 26))
    times, x = rng.lognormal(size=n), rng.standard_normal((n, d))
    events = (rng.uniform(size=n) < 0.7).astype(int)
    names = [f"x{j + 1}" for j in range(d)]
    sample = [["time", "status", *names]] + [
        [repr(float(t)), str(e), *map(repr, row.tolist())] for t, e, row in zip(times, events, x)
    ]
    scores = [["name", "score"]] + [
        [f"x{j + 1}", repr(v)] for j, v in enumerate(rng.standard_normal(rng.integers(20, 31)).tolist())
    ]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "sample.csv").write_bytes(mutated_csv(data, sample))
        (tmp / "scores.csv").write_bytes(mutated_csv(data, scores))
        calls = [["score", "--input", str(tmp / "sample.csv"), "--method", method,
                  "--output", str(tmp / f"{method}.csv")] for method in ("cars", "cox")]
        calls.append(["select", "--scores", str(tmp / "scores.csv"), "--alpha", "0.1",
                      "--output", str(tmp / "selection.csv")])
        for argv in calls:
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(argv)
            event(f"{argv[0]} exit {code}")
            assert code in (0, 2, 3)
            assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
            assert caught == []
