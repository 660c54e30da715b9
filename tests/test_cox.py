import numpy as np
import numpy.testing as npt
import pytest

from survscreen import SurvivalSample, cox, cox_scores
from survscreen.errors import DegenerateOutcome

from helpers import cox_univariate


def breslow_loglik(beta, times, events, x):
    """Explicitly summed Cox partial log-likelihood (Breslow ties)."""
    out = 0.0
    for i in range(len(times)):
        if events[i] == 1:
            risk = times >= times[i]
            out += beta * x[i] - np.log(np.exp(beta * x[risk]).sum())
    return out


def golden_section_argmax(f, lo, hi, tol=1e-10):
    invphi = (np.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2


def test_constant_covariate_degenerate():
    fit = cox_univariate([1, 2, 3, 4], [1, 1, 1, 1], [2.0, 2.0, 2.0, 2.0])
    assert fit.z_score == 0.0
    assert fit.flag == "degenerate"


@pytest.mark.parametrize("value", [1 / 3, 7.7, 123.456])
def test_constant_covariate_with_inexact_mean_is_degenerate(value):
    # these means round, leaving a sample sd of about 1e-16 rather than 0
    rng = np.random.default_rng(3)
    times = rng.exponential(size=250)
    events = (rng.random(250) < 0.8).astype(int)
    x = np.full(250, value)
    assert x.std(ddof=1) != 0
    fit = cox_univariate(times, events, x)
    assert (fit.flag, fit.z_score, fit.beta_hat, fit.converged) == ("degenerate", 0.0, 0.0, True)


def test_four_point_example_matches_score_equation_root():
    # the score equation is 1 - 2u/(1+u) - 2u/(1+2u) = 0 with u = e^beta,
    # i.e. 4u^2 + u - 1 = 0, so u = (sqrt(17) - 1)/8
    fit = cox_univariate([1, 2, 3, 4], [1, 1, 1, 1], [0.0, 1.0, 0.0, 1.0])
    expected = np.log((np.sqrt(17) - 1) / 8)
    npt.assert_allclose(fit.beta_hat, expected, rtol=1e-8)
    assert fit.converged


def test_four_point_example_matches_golden_section_oracle():
    times = np.array([1.0, 2.0, 3.0, 4.0])
    events = np.array([1, 1, 1, 1])
    x = np.array([0.0, 1.0, 0.0, 1.0])
    fit = cox_univariate(times, events, x)
    oracle = golden_section_argmax(lambda b: breslow_loglik(b, times, events, x), -5, 5)
    npt.assert_allclose(fit.beta_hat, oracle, atol=1e-6)


def test_monotone_likelihood_capped():
    fit = cox_univariate([1.0, 2.0], [1, 1], [1.0, 0.0])
    assert fit.flag == "separation"
    assert not fit.converged
    npt.assert_allclose(fit.beta_hat, 15.0, rtol=1e-12)
    assert np.isfinite(fit.z_score)


def test_no_events_raises():
    with pytest.raises(DegenerateOutcome):
        cox_univariate([1, 2, 3], [0, 0, 0], [1.0, 2.0, 3.0])


def test_affine_covariate_invariance_of_z():
    rng = np.random.default_rng(0)
    n = 80
    x = rng.standard_normal(n)
    times = rng.lognormal(mean=-0.5 * x, size=n)
    events = rng.integers(0, 2, size=n)
    events[:4] = 1
    base = cox_univariate(times, events, x)
    moved = cox_univariate(times, events, 3.7 * x + 11.0)
    npt.assert_allclose(moved.z_score, base.z_score, atol=1e-6)
    npt.assert_allclose(moved.beta_hat, base.beta_hat / 3.7, rtol=1e-6)


def test_rank_invariance_under_monotone_time_transform():
    rng = np.random.default_rng(1)
    n = 60
    x = rng.standard_normal(n)
    times = rng.lognormal(mean=0.4 * x, size=n)
    events = rng.integers(0, 2, size=n)
    events[:4] = 1
    raw = cox_univariate(times, events, x)
    logged = cox_univariate(np.log(times), events, x)
    npt.assert_allclose(raw.beta_hat, logged.beta_hat, atol=1e-9)


def test_matches_golden_section_oracle_on_random_instances():
    for rep in range(20):
        rng = np.random.default_rng(3000 + rep)
        n = 30
        x = rng.standard_normal(n)
        beta_true = rng.uniform(-1, 1)
        times = rng.lognormal(mean=beta_true * x, sigma=0.8, size=n)
        events = rng.integers(0, 2, size=n)
        events[:3] = 1
        fit = cox_univariate(times, events, x)
        if fit.flag == "separation":
            continue
        oracle = golden_section_argmax(
            lambda b: breslow_loglik(b, times, events, x), -20, 20
        )
        npt.assert_allclose(fit.beta_hat, oracle, atol=1e-6)


def test_breslow_ties_against_oracle():
    rng = np.random.default_rng(7)
    times = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 5.0])
    events = np.array([1, 1, 0, 1, 1, 1, 0, 1])
    x = rng.standard_normal(8)
    fit = cox_univariate(times, events, x)
    oracle = golden_section_argmax(lambda b: breslow_loglik(b, times, events, x), -20, 20)
    npt.assert_allclose(fit.beta_hat, oracle, atol=1e-6)


def test_null_z_scores_are_standard_normal():
    rng = np.random.default_rng(11)
    n, d = 2000, 400
    x = rng.standard_normal((n, d))
    times = rng.lognormal(size=n)
    events = rng.integers(0, 2, size=n)
    events[:10] = 1
    s = SurvivalSample.from_times(times, events, x)
    sv = cox_scores(s)
    frac = np.mean(np.abs(sv.scores) > 1.96)
    band = 3 * np.sqrt(0.05 * 0.95 / d)
    assert abs(frac - 0.05) <= band


def test_strong_signal_large_positive_z():
    rng = np.random.default_rng(13)
    n = 200
    times = rng.lognormal(size=n)
    x = -np.log(times)
    s = SurvivalSample.from_times(times, np.ones(n, dtype=int), x[:, None])
    sv = cox_scores(s)
    assert sv.scores[0] > 5


def test_matches_statsmodels_phreg_when_available():
    sm = pytest.importorskip("statsmodels.duration.hazard_regression")
    rng = np.random.default_rng(2024)
    checked = 0
    for rep in range(25):
        n = 60
        x = rng.standard_normal(n)
        times = rng.lognormal(mean=rng.uniform(-0.8, 0.8) * x, sigma=0.7, size=n)
        events = rng.integers(0, 2, size=n)
        events[:3] = 1
        fit = cox_univariate(times, events, x)
        if fit.flag:
            continue
        ref = sm.PHReg(times, x[:, None], status=events, ties="breslow").fit()
        npt.assert_allclose(fit.beta_hat, ref.params[0], atol=1e-8)
        npt.assert_allclose(fit.standard_error, ref.bse[0], atol=1e-8)
        checked += 1
    assert checked >= 15


def breslow_information(beta, times, events, x):
    """Observed information of the Breslow partial likelihood at beta: the
    risk-set-weighted variance of x, summed over the events."""
    out = 0.0
    for i in range(len(times)):
        if events[i] == 1:
            risk = times >= times[i]
            w = np.exp(beta * x[risk])
            mean = (w * x[risk]).sum() / w.sum()
            out += (w * (x[risk] - mean) ** 2).sum() / w.sum()
    return out


def test_standard_error_is_inverse_root_of_breslow_information():
    # the 25 data sets of test_matches_statsmodels_phreg_when_available
    rng = np.random.default_rng(2024)
    checked = 0
    for rep in range(25):
        n = 60
        x = rng.standard_normal(n)
        times = rng.lognormal(mean=rng.uniform(-0.8, 0.8) * x, sigma=0.7, size=n)
        events = rng.integers(0, 2, size=n)
        events[:3] = 1
        fit = cox_univariate(times, events, x)
        if fit.flag:
            continue
        info = breslow_information(fit.beta_hat, times, events, x)
        npt.assert_allclose(fit.standard_error, 1.0 / np.sqrt(info), rtol=1e-10)
        checked += 1
    assert checked >= 15


def test_cox_scores_single_column_composition(monkeypatch):
    # every column of the batched fit equals the lone fit of that column,
    # bit for bit, across blocks: constant, separated and tied-time columns
    rng = np.random.default_rng(17)
    n = 50
    times = np.maximum(np.round(rng.lognormal(size=n), 1), 0.1)
    events = rng.integers(0, 2, size=n)
    events[:3] = 1
    x = rng.standard_normal((n, 7))
    x[:, 0] += 0.3 * np.log(times)
    x[:, 2] = 4.0
    x[:, 4] = -np.log(times)
    monkeypatch.setattr(cox, "BLOCK_CELLS", 3 * n)
    s = SurvivalSample.from_times(times, events, x)
    sv = cox_scores(s)
    flags = sv.diagnostics["flags"]
    assert flags[2] == "degenerate" and flags[4] == "separation"
    for j in range(x.shape[1]):
        fit = cox_univariate(s.log_times, s.events, x[:, j])
        assert sv.scores[j] == fit.z_score
        assert flags[j] == fit.flag
        assert sv.diagnostics["iterations"][j] == fit.iterations
        assert sv.diagnostics["converged"][j] == fit.converged
