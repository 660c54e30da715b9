import numpy as np
import numpy.testing as npt
import pytest

from survscreen import SurvivalSample, cars_score, rank_by_magnitude
from survscreen.cars import scoring_weights, weighted_cars_score
from survscreen.data import covariate_summary
from survscreen.errors import DegenerateOutcome, TooFewRows
from survscreen.ipcw import censoring_km, ipc_weights
from survscreen.shrinkage import whitener_from_data

from helpers import (
    correlation_vector,
    oracle_correlations,
    weighted_covariances,
    weighted_mean,
    weighted_variance,
)
from test_blockwise import block_sample, weighted_rows_oneshot
from test_ipcw import km_censoring_oracle


def uncensored_sample(rng, n, d, beta=None, sigma=1.0):
    x = rng.standard_normal((n, d))
    beta = np.zeros(d) if beta is None else np.asarray(beta)
    log_t = x @ beta + sigma * rng.standard_normal(n)
    return SurvivalSample.from_times(np.exp(log_t), np.ones(n, dtype=int), x)


def censored_sample(rng, n, d, beta, sigma, censoring=0.25):
    from scipy.stats import norm

    x = rng.standard_normal((n, d))
    log_t = x @ beta + sigma * rng.standard_normal(n)
    s = np.sqrt(beta @ beta + sigma**2)
    mu_c = -norm.ppf(censoring) * s * np.sqrt(2)
    log_c = mu_c + s * rng.standard_normal(n)
    times = np.exp(np.minimum(log_t, log_c))
    events = (log_t <= log_c).astype(int)
    return SurvivalSample.from_times(times, events, x)


def all_ones_pipeline(sample, lambda_override=None):
    """Reference CAR pipeline with unit weights, bypassing the censoring KM."""
    return weighted_cars_score(sample, np.ones(sample.n), lambda_override).scores


def assert_near_moment_oracle(scores, sample, weights, lambda_override=None):
    """The scores against r of the moment estimators, whitened by the same
    whitener, within 1e-12 of the largest |r|."""
    r = oracle_correlations(sample, weights)
    w, _, _ = whitener_from_data(sample.covariates, lambda_override, weights)
    npt.assert_allclose(scores, w.to_matrix() @ r, rtol=0, atol=1e-12 * np.abs(r).max())


def test_single_covariate_is_scaled_pearson():
    rng = np.random.default_rng(0)
    n = 40
    s = uncensored_sample(rng, n, 1, beta=[0.8])
    sv = cars_score(s)
    pearson = np.corrcoef(s.covariates[:, 0], s.log_times)[0, 1]
    npt.assert_allclose(sv.scores[0], pearson * np.sqrt((n - 1) / n), rtol=1e-12)


@pytest.mark.parametrize("lambda_override, lam_used", [(None, 0.0), (0.3, 0.3), (1.0, 1.0)])
def test_single_covariate_score_is_its_marginal_correlation_bitwise(lambda_override, lam_used):
    # one covariate whitens by the exact identity at every shrinkage weight
    rng = np.random.default_rng(3)
    s = censored_sample(rng, 50, 1, np.array([0.7]), 1.0)
    sv = cars_score(s, lambda_override=lambda_override)
    w = scoring_weights(s).weights
    npt.assert_array_equal(sv.scores, weighted_cars_score(s, w, 1.0).scores)
    assert_near_moment_oracle(sv.scores, s, w, 1.0)
    assert sv.diagnostics["shrinkage"] == lam_used and sv.diagnostics["min_eigenvalue"] == 1.0


def test_identity_whitening_gives_marginal_correlations():
    rng = np.random.default_rng(1)
    s = uncensored_sample(rng, 60, 4, beta=[1.0, 0.0, -0.5, 0.0])
    sv = cars_score(s, lambda_override=1.0)
    npt.assert_array_equal(sv.scores, all_ones_pipeline(s, 1.0))
    assert_near_moment_oracle(sv.scores, s, np.ones(s.n), 1.0)
    assert sv.diagnostics["shrinkage"] == 1.0


def test_no_censoring_equals_unit_weight_pipeline_bitwise():
    for rep in range(5):
        rng = np.random.default_rng(50 + rep)
        s = uncensored_sample(rng, 35, 3, beta=[0.5, 0.0, -0.2])
        sv = cars_score(s)
        reference = all_ones_pipeline(s)
        npt.assert_array_equal(sv.scores, reference)
        assert_near_moment_oracle(sv.scores, s, np.ones(s.n))


def test_degenerate_columns_score_exactly_zero():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((30, 3))
    x[:, 1] = 4.2
    log_t = x[:, 0] + rng.standard_normal(30)
    s = SurvivalSample.from_times(np.exp(log_t), np.ones(30, dtype=int), x)
    sv = cars_score(s)
    assert sv.scores[1] == 0.0
    assert sv.diagnostics["degenerate"][1]


def test_two_weighted_rows_need_no_lambda_or_whitener():
    # events at the smallest and the largest of five times: two rows carry
    # weight, too few for a shrinkage weight or a whitener, yet enough for
    # the marginal correlations, each +-sqrt((n-1)/n) or 0 (constant there)
    times = np.arange(1.0, 6.0)
    events = np.array([1, 0, 0, 0, 1])
    x = np.array([[1.0, 2, 3, 4, 0], [0.0, 5, 5, 5, 1], [2.0, 9, 9, 9, 2]]).T
    edge = np.sqrt(4 / 5)
    one = SurvivalSample.from_times(times, events, x[:, :1])
    npt.assert_allclose(cars_score(one).scores, [-edge], rtol=1e-15)
    wide = SurvivalSample.from_times(times, events, x)
    npt.assert_allclose(cars_score(wide, lambda_override=1.0).scores, [-edge, edge, 0.0], rtol=1e-15)
    with pytest.raises(TooFewRows):
        cars_score(wide)


def test_no_events_raises():
    s = SurvivalSample.from_times([1, 2, 3], [0, 0, 0], np.zeros((3, 1)))
    with pytest.raises(DegenerateOutcome):
        cars_score(s)


def test_single_event_time_raises():
    s = SurvivalSample.from_times([2, 2, 5, 7], [1, 1, 0, 0], np.eye(4))
    with pytest.raises(DegenerateOutcome):
        cars_score(s)


def test_time_scaling_invariance_without_censoring():
    # with unit weights the centering removes the log-scale shift exactly
    rng = np.random.default_rng(3)
    s = uncensored_sample(rng, 40, 3, beta=[0.7, 0.0, 0.3])
    scaled = SurvivalSample.from_times(
        s.times * 17.5, s.events, s.covariates
    )
    a = cars_score(s)
    b = cars_score(scaled)
    npt.assert_allclose(a.scores, b.scores, rtol=1e-9, atol=1e-12)


def test_time_unit_invariance_under_censoring():
    # the weights sum to n, so the weighted mean moves with the log-scale
    # shift and centering removes it; the largest time is censored (an
    # administrative end of follow-up), where raw IPC weights sum below n
    rng = np.random.default_rng(8)
    s = censored_sample(rng, 120, 5, np.array([1.0, 0.5, 0.0, 0.0, -0.4]), 1.1)
    end = np.quantile(s.times, 0.9)
    times = np.minimum(s.times, end)
    events = np.where(s.times > end, 0, s.events)
    base = cars_score(SurvivalSample.from_times(times, events, s.covariates))
    for factor in (365.0, 1e-3):
        scaled = SurvivalSample.from_times(times * factor, events, s.covariates)
        npt.assert_allclose(cars_score(scaled).scores, base.scores, rtol=0, atol=1e-12)


def test_scoring_weights_count_rows_censored_at_largest_time():
    # the censored row at the largest time takes 1 / G(4-) = 1.5, the
    # weights then sum to n and the rescaling leaves them as they are
    s = SurvivalSample.from_times([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 0], np.zeros((4, 1)))
    ws = scoring_weights(s)
    npt.assert_allclose(ws.weights, [1.0, 0.0, 1.5, 1.5], rtol=1e-15)
    npt.assert_allclose(ipc_weights(s, censoring_km(s), 1e-6).weights, [1.0, 0.0, 1.5, 0.0], rtol=1e-15)


def test_scoring_weights_trace_kaplan_meier_at_administrative_cutoff():
    # rows past an end of follow-up are censored there and G drops to 0;
    # the event weights alone carry n * F(end-), and rescaling them would
    # give the distribution of T given T < end.  The scoring weights are n
    # times the Kaplan-Meier jumps, with the mass left beyond the last
    # event placed at the end
    rng = np.random.default_rng(61)
    times = rng.lognormal(size=60)
    events = rng.integers(0, 2, size=60)
    end = np.quantile(times, 0.8)
    events[times > end] = 0
    s = SurvivalSample.from_times(np.minimum(times, end), events, rng.standard_normal((60, 2)))
    assert censoring_km(s).values[-1] == 0.0
    w = scoring_weights(s).weights
    t = s.log_times
    tau = t.max()

    def km_survival(y):
        return km_censoring_oracle(t, 1 - s.events, y)  # roles swapped: KM of T

    for y in np.unique(t[t < tau]):
        npt.assert_allclose(w[t <= y].sum() / s.n, 1.0 - km_survival(y), rtol=1e-12, atol=1e-14)
    npt.assert_allclose(w[t == tau].sum() / s.n, km_survival(tau), rtol=1e-12)
    npt.assert_allclose(w.sum(), s.n, rtol=1e-15)
    event_only = ipc_weights(s, censoring_km(s), 1e-6).weights
    npt.assert_allclose(event_only.sum() / s.n, 1.0 - km_survival(tau), rtol=1e-12)
    npt.assert_allclose(w[t < tau], event_only[t < tau], rtol=1e-12)


def km_jump_weights_oracle(log_times, events):
    """n times the Kaplan-Meier jumps of T over enumerated risk sets: an event
    at t gets n S(t-) / Y(t), and the rows at the largest time tau share
    the mass n S(tau-) left there."""
    n, tau = len(log_times), log_times.max()
    w = np.zeros(n)
    surv = 1.0
    for t in sorted(set(log_times.tolist())):
        here = log_times == t
        if t == tau:
            w[here] = n * surv / here.sum()
            break
        at_risk = np.sum(log_times >= t)
        deaths = here & (events == 1)
        w[deaths] = n * surv / at_risk
        surv *= 1.0 - deaths.sum() / at_risk
    return w


def test_scoring_weights_are_kaplan_meier_jumps_with_tied_censorings():
    # an event tied with a censoring precedes it, so it leaves the censoring
    # risk set at that time and the weights stay n times the KM jumps of T
    s = SurvivalSample.from_times([1.0, 1.0, 2.0], [1, 0, 1], np.zeros((3, 1)))
    npt.assert_allclose(scoring_weights(s).weights, [1.0, 0.0, 2.0], rtol=1e-15)
    rng = np.random.default_rng(47)
    times = np.ceil(rng.lognormal(size=300) * 10) / 10
    events = rng.integers(0, 2, size=300)
    s = SurvivalSample.from_times(times, events, rng.standard_normal((300, 2)))
    tied = set(s.log_times[events == 1].tolist()) & set(s.log_times[events == 0].tolist())
    assert len(tied) >= 20
    npt.assert_allclose(scoring_weights(s).weights, km_jump_weights_oracle(s.log_times, s.events),
                        rtol=1e-12)


def efron_ipc_weights_oracle(log_times, events):
    """1 / G(t-) for events and for the rows at the largest time, else 0."""
    counted = (events == 1) | (log_times == log_times.max())
    return np.array([
        1.0 / km_censoring_oracle(log_times, events, np.nextafter(t, -np.inf))
        if c else 0.0
        for t, c in zip(log_times, counted)
    ])


def weighted_r_squared(x, y, w):
    """R^2 of the weighted least-squares fit of y on x with an intercept."""
    design = np.column_stack([np.ones(len(y)), x]) * np.sqrt(w)[:, None]
    target = y * np.sqrt(w)
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ coef
    centered = (y - np.sum(w * y) / np.sum(w)) * np.sqrt(w)
    return 1.0 - resid @ resid / (centered @ centered)


def test_unshrunk_score_norm_is_weighted_r_squared():
    # with lam = 0 and one weighted distribution for every moment,
    # theta' theta = (n-1)/n * R^2 of the IPC-weighted regression of
    # log T on x, so it can never exceed 1
    n, d = 40, 8
    beta = np.array([1.0, -0.8, 0.6, 0.0, 0.0, 0.4, 0.0, 0.0])
    checked = 0
    for rep in range(60):
        rng = np.random.default_rng(1100 + rep)
        s = censored_sample(rng, n, d, beta, 1.0, censoring=0.5)
        w = efron_ipc_weights_oracle(s.log_times, s.events)
        if np.count_nonzero(w) < d + 2:
            continue  # too few weighted rows for a nonsingular correlation
        theta = cars_score(s, lambda_override=0.0).scores
        r2 = weighted_r_squared(s.covariates, s.log_times, w)
        npt.assert_allclose(theta @ theta, (n - 1) / n * r2, rtol=1e-9)
        assert theta @ theta <= 1.0
        checked += 1
    assert checked >= 50


def test_consistency_toward_population_scores():
    # d=5 uncorrelated design: theta_j = beta_j / sqrt(beta'beta + sigma^2)
    beta = np.array([1.0, 0.5, 0.0, 0.0, 0.0])
    sigma = np.sqrt(beta @ beta)  # 50% explained variance
    theta = beta / np.sqrt(beta @ beta + sigma**2)
    errs = []
    for rep in range(30):
        rng = np.random.default_rng(700 + rep)
        s = censored_sample(rng, 3200, 5, beta, sigma)
        sv = cars_score(s)
        errs.append(np.abs(sv.scores - theta))
    med = np.median(np.array(errs), axis=0)
    assert med.max() <= 0.05


def test_score_norm_tracks_explained_variance():
    # theta' theta approximates the explained-variance ratio on large
    # uncorrelated designs
    beta = np.array([1.0, 0.5, 0.0, 0.0, 0.0])
    sigma = np.sqrt(beta @ beta)
    norms = []
    for rep in range(20):
        rng = np.random.default_rng(900 + rep)
        s = censored_sample(rng, 3200, 5, beta, sigma)
        sv = cars_score(s)
        norms.append(sv.scores @ sv.scores)
    assert 0.4 <= np.median(norms) <= 0.6


def test_high_dimensional_path_matches_dense_pipeline():
    # d > n routes the whitening through the n x n Gram matrix of the rows;
    # same scores as the dense correlation-matrix route at a fixed shrinkage
    # weight
    rng = np.random.default_rng(6)
    n, d = 40, 60
    beta = np.zeros(d)
    beta[:3] = [1.0, -0.6, 0.4]
    s = censored_sample(rng, n, d, beta, 1.0)
    sv = cars_score(s, lambda_override=0.3)

    w = efron_ipc_weights_oracle(s.log_times, s.events)
    w *= s.n / w.sum()
    summ = covariate_summary(s.covariates, w)
    m = weighted_mean(s, w)
    v = weighted_variance(s, w, m)
    covs = weighted_covariances(s, w, m, summ)
    r = correlation_vector(covs, summ, v)
    from survscreen.shrinkage import inverse_sqrt, shrink

    cov = np.cov(s.covariates, rowvar=False, aweights=w)
    sd = np.sqrt(np.diag(cov))
    dense = inverse_sqrt(shrink(cov / np.outer(sd, sd), 0.3))
    npt.assert_allclose(sv.scores, dense.to_matrix() @ r, atol=1e-9)


@pytest.mark.parametrize("lambda_override", [None, 0.3, 1.0])
@pytest.mark.parametrize("n, d", [(60, 23), (40, 131)], ids=["d<=m", "d>m"])
def test_whitened_scores_match_dense_eigh_oracle(n, d, lambda_override):
    """On both routes the scores are W r for W = (lam I + (1 - lam) R)^-1/2
    from ``np.linalg.eigh`` of the one-shot weighted correlation R, with the
    lam the scores report and r the moment estimators' correlation vector;
    the constant column 1 scores 0."""
    sample = block_sample(n, d, seed=n + d)
    weights = scoring_weights(sample).weights
    sv = cars_score(sample, lambda_override=lambda_override)
    lam = sv.diagnostics["shrinkage"]
    a, _ = weighted_rows_oneshot(sample.covariates, weights)
    assert (d > a.shape[0]) == (d == 131)
    assert (lam < 1.0) == (lambda_override != 1.0)
    corr = a.T @ a
    np.fill_diagonal(corr, 1.0)
    mu, u = np.linalg.eigh(lam * np.eye(d) + (1.0 - lam) * corr)
    want = (u * mu**-0.5) @ u.T @ oracle_correlations(sample, weights)
    assert sv.scores[1] == 0.0
    npt.assert_allclose(sv.scores, want, rtol=0, atol=1e-9)


def test_rank_by_magnitude_example():
    order = rank_by_magnitude(np.array([0.1, -0.5, 0.3]))
    npt.assert_array_equal(order, [1, 2, 0])


def test_rank_by_magnitude_tie_rule():
    order = rank_by_magnitude(np.array([0.5, 0.5, 0.5, 0.5]))
    npt.assert_array_equal(order, [0, 1, 2, 3])


def test_rank_by_magnitude_matches_sort_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        scores = np.round(rng.standard_normal(12), 1)  # provoke ties
        order = rank_by_magnitude(scores)
        oracle = sorted(range(12), key=lambda j: (-abs(scores[j]), j))
        npt.assert_array_equal(order, oracle)
