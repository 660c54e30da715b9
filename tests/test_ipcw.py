import numpy as np
import numpy.testing as npt
import pytest

from survscreen import SurvivalSample
from survscreen.data import covariate_summary
from survscreen.ipcw import (
    censoring_km,
    correlation_vector,
    ipc_weights,
    weighted_covariances,
    weighted_mean,
    weighted_variance,
)
from survscreen.errors import DegenerateOutcome


def make_sample(times, events, cov=None):
    times = np.asarray(times, dtype=float)
    if cov is None:
        cov = np.zeros((len(times), 1))
        cov[:, 0] = np.arange(len(times))
    return SurvivalSample.from_times(times, events, cov)


def km_censoring_oracle(log_times, events, y):
    """Product-limit value at y by explicit risk-set enumeration."""
    value = 1.0
    for t in sorted(set(log_times[events == 0])):
        if t <= y:
            at_risk = np.sum(log_times >= t)
            d = np.sum((log_times == t) & (events == 0))
            value *= 1.0 - d / at_risk
    return value


def test_km_no_censoring_is_one():
    s = make_sample([1, 2, 3], [1, 1, 1])
    curve = censoring_km(s)
    assert curve.jump_times.size == 0
    assert curve.evaluate(np.log(2)) == 1.0


def test_km_four_observation_example():
    # censoring jumps at log 2 (risk set 3) and log 4 (risk set 1)
    s = make_sample([1, 2, 3, 4], [1, 0, 1, 0])
    curve = censoring_km(s)
    npt.assert_allclose(curve.jump_times, [np.log(2), np.log(4)])
    npt.assert_allclose(curve.values, [2 / 3, 0.0])
    npt.assert_allclose(curve.evaluate(np.log(3)), 2 / 3)


def test_km_matches_risk_set_enumeration_oracle():
    rng = np.random.default_rng(23)
    times = rng.lognormal(size=30)
    events = rng.integers(0, 2, size=30)
    events[:2] = [1, 0]
    s = make_sample(times, events)
    curve = censoring_km(s)
    for y in np.sort(s.log_times):
        oracle = km_censoring_oracle(s.log_times, s.events, y)
        assert abs(curve.evaluate(y) - oracle) <= 1e-12


def test_km_permutation_invariant():
    rng = np.random.default_rng(29)
    times = rng.lognormal(size=25)
    events = rng.integers(0, 2, size=25)
    events[0] = 0
    perm = rng.permutation(25)
    a = censoring_km(make_sample(times, events))
    b = censoring_km(make_sample(times[perm], events[perm]))
    npt.assert_array_equal(a.jump_times, b.jump_times)
    npt.assert_array_equal(a.values, b.values)


def test_weights_no_censoring_all_one():
    s = make_sample([1, 2, 3], [1, 1, 1])
    ws = ipc_weights(s, censoring_km(s), 1e-6)
    npt.assert_array_equal(ws.weights, [1.0, 1.0, 1.0])
    assert not ws.floor_applied


def test_weights_four_observation_example():
    s = make_sample([1, 2, 3, 4], [1, 0, 1, 0])
    ws = ipc_weights(s, censoring_km(s), 1e-6)
    npt.assert_allclose(ws.weights, [1.0, 0.0, 1.5, 0.0])


def test_weights_floor_kicks_in():
    # tiny survivor value must be floored at nu
    s = make_sample([1, 2, 3, 4], [1, 0, 1, 0])
    curve = censoring_km(s)
    curve.values = curve.values.copy()
    curve.values[0] = 1e-9
    ws = ipc_weights(s, curve, 1e-6)
    assert ws.weights[2] == 1e6
    assert ws.floor_applied


def test_weights_event_first_at_tied_time():
    # event and censoring share the largest time; the event weight must use
    # the curve value just before the tied jump and stay finite
    s = make_sample([1, 2, 3, 3], [1, 0, 1, 0], np.zeros((4, 1)))
    ws = ipc_weights(s, censoring_km(s), 1e-6)
    npt.assert_allclose(ws.weights[2], 1.5, rtol=1e-15)  # jump at 3 excluded
    assert not ws.floor_applied


def test_weighted_mean_plain_average_when_unweighted():
    s = make_sample([1, 2, 5], [1, 1, 1])
    assert weighted_mean(s, np.ones(3)) == np.sum(s.log_times) / 3


def test_weighted_mean_example():
    s = make_sample([1, 2, 3, 4], [1, 0, 1, 0])
    m = weighted_mean(s, np.array([1.0, 0.0, 1.5, 0.0]))
    npt.assert_allclose(m, 1.5 * np.log(3) / 4, rtol=1e-15)
    npt.assert_allclose(m, 0.41198, atol=5e-6)


def test_weighted_variance_unweighted_is_population_style():
    s = make_sample([1, 2, 5], [1, 1, 1])
    m = weighted_mean(s, np.ones(3))
    v = weighted_variance(s, np.ones(3), m)
    npt.assert_allclose(v, np.sum((s.log_times - m) ** 2) / 3, rtol=1e-15)


def test_weighted_variance_degenerate_on_tied_events():
    # all events at one time and no censoring: zero spread exactly.  With
    # censored rows the raw IPC weights can sum below n, the n-divisor mean
    # then misses the event time and this numeric check cannot fire;
    # cars_score rescales its weights to sum to n and rejects a single
    # event time before any moment is taken.
    s = make_sample([2, 2, 2], [1, 1, 1])
    ws = ipc_weights(s, censoring_km(s), 1e-6)
    m = weighted_mean(s, ws.weights)
    with pytest.raises(DegenerateOutcome):
        weighted_variance(s, ws.weights, m)


def weighted_cov_oracle(x, w, y, xbar, ybar):
    return sum(w[i] * (x[i] - xbar) * (y[i] - ybar) for i in range(len(w))) / len(w)


def test_weighted_covariance_matches_direct_sum():
    rng = np.random.default_rng(31)
    times = rng.lognormal(size=10)
    events = np.array([1, 1, 0, 1, 1, 0, 1, 1, 1, 0])
    cov = rng.standard_normal((10, 3))
    s = SurvivalSample.from_times(times, events, cov)
    ws = ipc_weights(s, censoring_km(s), 1e-6)
    summ = covariate_summary(s)
    m = weighted_mean(s, ws.weights)
    got = weighted_covariances(s, ws.weights, m, summ)
    for j in range(3):
        oracle = weighted_cov_oracle(cov[:, j], ws.weights, s.log_times, summ.means[j], m)
        assert abs(got[j] - oracle) <= 1e-12


def test_weighted_covariance_partition_independent():
    # computing columns one at a time must reproduce the full-matrix result
    # bit for bit (fixed summation order per column)
    rng = np.random.default_rng(59)
    times = rng.lognormal(size=40)
    events = rng.integers(0, 2, size=40)
    events[:2] = [1, 0]
    cov = rng.standard_normal((40, 6))
    s = SurvivalSample.from_times(times, events, cov)
    ws = ipc_weights(s, censoring_km(s), 1e-6)
    summ = covariate_summary(s)
    m = weighted_mean(s, ws.weights)
    full = weighted_covariances(s, ws.weights, m, summ)
    for j in range(6):
        single = SurvivalSample.from_times(times, events, cov[:, [j]])
        summ_j = covariate_summary(single)
        one = weighted_covariances(single, ws.weights, m, summ_j)
        assert one[0] == full[j]


def test_weighted_covariance_of_outcome_with_itself():
    rng = np.random.default_rng(37)
    times = rng.lognormal(size=20)
    s = SurvivalSample.from_times(times, np.ones(20, dtype=int), np.log(times)[:, None])
    ws = ipc_weights(s, censoring_km(s), 1e-6)
    summ = covariate_summary(s)
    m = weighted_mean(s, ws.weights)
    v = weighted_variance(s, ws.weights, m)
    covs = weighted_covariances(s, ws.weights, m, summ)
    npt.assert_allclose(covs[0], v, rtol=1e-12)


def test_correlation_vector_mixed_divisors_below_one():
    # x identical to log-times without censoring: the n vs n-1 divisor mix
    # gives exactly sqrt((n-1)/n), slightly below 1, and must not be clamped
    n = 8
    rng = np.random.default_rng(41)
    times = rng.lognormal(size=n)
    s = SurvivalSample.from_times(times, np.ones(n, dtype=int), np.log(times)[:, None])
    ws = ipc_weights(s, censoring_km(s), 1e-6)
    summ = covariate_summary(s)
    m = weighted_mean(s, ws.weights)
    v = weighted_variance(s, ws.weights, m)
    covs = weighted_covariances(s, ws.weights, m, summ)
    r = correlation_vector(covs, summ, v)
    npt.assert_allclose(r[0], np.sqrt((n - 1) / n), rtol=1e-12)


def test_correlation_vector_zero_variance_maps_to_zero():
    s = make_sample([1, 2, 3], [1, 1, 1], np.ones((3, 1)))
    summ = covariate_summary(s)
    m = weighted_mean(s, np.ones(3))
    v = weighted_variance(s, np.ones(3), m)
    covs = weighted_covariances(s, np.ones(3), m, summ)
    r = correlation_vector(covs, summ, v)
    assert r[0] == 0.0


def test_correlation_vector_null_covariate_small():
    rng = np.random.default_rng(43)
    n = 20000
    times = rng.lognormal(size=n)
    x = rng.standard_normal((n, 1))
    s = SurvivalSample.from_times(times, np.ones(n, dtype=int), x)
    summ = covariate_summary(s)
    m = weighted_mean(s, np.ones(n))
    v = weighted_variance(s, np.ones(n), m)
    covs = weighted_covariances(s, np.ones(n), m, summ)
    r = correlation_vector(covs, summ, v)
    assert abs(r[0]) <= 0.03


def lognormal_censored_sample(rng, n, target_censoring, mu=0.4, sigma=0.8):
    """log T ~ N(mu, sigma^2), independent log C hitting the target rate."""
    from scipy.stats import norm

    log_t = mu + sigma * rng.standard_normal(n)
    mu_c = mu - norm.ppf(target_censoring) * sigma * np.sqrt(2)
    log_c = mu_c + sigma * rng.standard_normal(n)
    times = np.exp(np.minimum(log_t, log_c))
    events = (log_t <= log_c).astype(int)
    return times, events, mu, sigma**2


def test_monte_carlo_unbiasedness_mean_variance_covariance():
    rng = np.random.default_rng(47)
    n = 20000
    times, events, mu, sigma2 = lognormal_censored_sample(rng, n, 0.30)
    x = np.column_stack([rng.standard_normal(n)])  # independent of outcome
    s = SurvivalSample.from_times(times, events, x)
    ws = ipc_weights(s, censoring_km(s), 1e-6)
    summ = covariate_summary(s)

    m = weighted_mean(s, ws.weights)
    se_mean = np.std(ws.weights * s.log_times, ddof=1) / np.sqrt(n)
    assert abs(m - mu) <= 3 * se_mean

    v = weighted_variance(s, ws.weights, m)
    assert abs(v - sigma2) / sigma2 <= 0.05

    covs = weighted_covariances(s, ws.weights, m, summ)
    terms = ws.weights * (x[:, 0] - summ.means[0]) * (s.log_times - m)
    se_cov = np.std(terms, ddof=1) / np.sqrt(n)
    assert abs(covs[0]) <= 3 * se_cov


def test_weight_expectation_is_one():
    rng = np.random.default_rng(53)
    n = 20000
    times, events, _, _ = lognormal_censored_sample(rng, n, 0.30)
    s = SurvivalSample.from_times(times, events, np.zeros((n, 1)))
    ws = ipc_weights(s, censoring_km(s), 1e-6)
    se = np.std(ws.weights, ddof=1) / np.sqrt(n)
    assert 1 - 3 * se <= ws.weights.mean() <= 1 + 3 * se


def test_estimator_consistency_in_n():
    # median worst-case error over the three moment estimators shrinks with n
    from scipy.stats import norm

    mu, sigma = 0.2, 0.7
    rho = 0.5
    true_cov = rho * sigma  # Cov(x, log T) for the construction below
    medians = []
    for size in (200, 800, 3200):
        errs = []
        for rep in range(100):
            rng = np.random.default_rng(1000 + 17 * rep + size)
            z = rng.standard_normal(size)
            log_t = mu + sigma * (rho * z + np.sqrt(1 - rho**2) * rng.standard_normal(size))
            mu_c = mu - norm.ppf(0.25) * sigma * np.sqrt(2)
            log_c = mu_c + sigma * rng.standard_normal(size)
            times = np.exp(np.minimum(log_t, log_c))
            events = (log_t <= log_c).astype(int)
            s = SurvivalSample.from_times(times, events, z[:, None])
            ws = ipc_weights(s, censoring_km(s), 1e-6)
            summ = covariate_summary(s)
            m = weighted_mean(s, ws.weights)
            v = weighted_variance(s, ws.weights, m)
            covs = weighted_covariances(s, ws.weights, m, summ)
            errs.append(
                max(abs(m - mu), abs(v - sigma**2), abs(covs[0] - true_cov))
            )
        medians.append(np.median(errs))
    assert medians[0] > medians[1] > medians[2]


def test_km_matches_statsmodels_when_available():
    sf = pytest.importorskip("statsmodels.duration.survfunc")
    rng = np.random.default_rng(77)
    for rep in range(10):
        n = 50
        times = rng.lognormal(size=n)
        events = rng.integers(0, 2, size=n)
        events[:2] = [1, 0]
        s = make_sample(times, events, np.zeros((n, 1)))
        curve = censoring_km(s)
        ref = sf.SurvfuncRight(s.log_times, 1 - s.events)
        for t, v in zip(curve.jump_times, curve.values):
            idx = np.searchsorted(ref.surv_times, t, side="right") - 1
            ref_v = ref.surv_prob[idx] if idx >= 0 else 1.0
            assert abs(v - ref_v) <= 1e-12

