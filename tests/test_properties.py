"""Property tests of CARS (and Cox) scoring over censored and uncensored draws.

Each example is drawn from a seed, so the data behind a failing example
can be rebuilt with numpy alone.  Shapes cover both whitener routes: the
dense one when d is at most the number m of rows of positive weight, and
the thin SVD when d > m.
"""

import numpy as np
import numpy.testing as npt
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from survscreen import SurvivalSample, cars_score, cox_scores
from survscreen.cars import scoring_weights

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
