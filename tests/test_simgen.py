import math
import statistics

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import ndtri

from survscreen import ScenarioConfig, SurvivalSample, generate_dataset
from survscreen.simulate import (
    GroundTruth,
    Scenario,
    build_block_design,
    calibrate_censoring,
    calibrate_noise,
    make_beta,
    nearest_correlation,
    population_scores,
    load_scenario_config,
    parse_grid,
    replicate_rng,
    sample_covariates,
)
from survscreen.errors import BadDimension, BadFraction, NumericalError, TimeOverflow, ZeroSignal


def dykstra_oracle(a, iters=10_000, tol=1e-12):
    """Independent long-run alternating projections with Dykstra correction."""
    y = a.copy()
    ds = np.zeros_like(a)
    for _ in range(iters):
        r = y - ds
        w, v = np.linalg.eigh(r)
        x = (v * np.maximum(w, 0)) @ v.T
        x = (x + x.T) / 2
        ds = x - r
        y_new = x.copy()
        np.fill_diagonal(y_new, 1.0)
        if np.linalg.norm(y_new - y) <= tol:
            return y_new
        y = y_new
    return y


def test_block_design_first_block_matches_reference_pattern():
    a = build_block_design(12, (0.25, 0.5, 0.75))
    block = a[:4, :4]
    expected = np.full((4, 4), 0.25)
    expected[:, 3] = expected[3, :] = -0.25
    np.fill_diagonal(expected, 1.0)
    npt.assert_array_equal(block, expected)


def test_block_design_structure():
    a = build_block_design(12)
    npt.assert_array_equal(a, a.T)
    npt.assert_array_equal(np.diag(a), np.ones(12))
    # cross-block entries vanish
    assert np.all(a[:4, 4:] == 0)
    assert np.all(a[4:8, 8:] == 0)
    # second and third block magnitudes
    assert set(np.abs(a[4:8, 4:8][~np.eye(4, dtype=bool)])) == {0.5}
    assert set(np.abs(a[8:, 8:][~np.eye(4, dtype=bool)])) == {0.75}


def test_block_design_sign_balance_d12():
    a = build_block_design(12)
    for b in range(3):
        block = a[4 * b : 4 * b + 4, 4 * b : 4 * b + 4]
        upper = block[np.triu_indices(4, k=1)]
        assert np.sum(upper > 0) == 3
        assert np.sum(upper < 0) == 3


def test_block_design_bad_dimension():
    with pytest.raises(BadDimension):
        build_block_design(10)
    with pytest.raises(BadDimension):
        build_block_design(3)


def test_nearest_correlation_fixed_points():
    res = nearest_correlation(np.eye(5))
    npt.assert_allclose(res.matrix, np.eye(5), atol=1e-12)
    assert res.converged
    already_pd = np.array([[1.0, 0.5], [0.5, 1.0]])
    npt.assert_allclose(nearest_correlation(already_pd).matrix, already_pd, atol=1e-12)


def test_nearest_correlation_indefinite_input_against_oracle():
    a = np.array(
        [
            [1.0, 0.95, -0.95],
            [0.95, 1.0, 0.95],
            [-0.95, 0.95, 1.0],
        ]
    )
    assert np.linalg.eigvalsh(a).min() < 0
    res = nearest_correlation(a)
    oracle = dykstra_oracle(a)
    assert np.linalg.norm(res.matrix - oracle) <= 1e-6
    assert np.linalg.eigvalsh(res.matrix).min() >= -1e-10
    npt.assert_allclose(np.diag(res.matrix), np.ones(3), atol=1e-12)


def test_nearest_correlation_block_design_is_fixed_point():
    # the +-xi sign pattern is (1 - xi) I + xi s s', already positive definite
    a = build_block_design(12)
    res = nearest_correlation(a)
    npt.assert_allclose(res.matrix, a, atol=1e-10)
    assert np.linalg.eigvalsh(res.matrix).min() >= -1e-10


def test_block_entry_concentration_d999():
    a = build_block_design(999)
    b = nearest_correlation(a).matrix
    m = 333
    block1 = b[:m, :m][np.triu_indices(m, k=1)]
    frac = np.mean((np.abs(block1) >= 0.15) & (np.abs(block1) <= 0.3))
    assert frac >= 0.9


def test_make_beta_grids():
    beta2, _ = make_beta(6, 2 / 6, 1)
    assert set(beta2[beta2 != 0]) == {-0.9, 1.0}
    beta3, idx3 = make_beta(9, 3 / 9, 1)
    npt.assert_allclose(np.sort(beta3[idx3]), [-0.9, 0.05, 1.0], atol=1e-15)
    beta20, idx20 = make_beta(60, 1 / 3, 2)
    values = np.sort(beta20[idx20])
    assert values.min() == -0.9 and values.max() == 1.0
    npt.assert_allclose(np.diff(values), 0.1, atol=1e-12)


def test_make_beta_placement_and_errors():
    beta, idx = make_beta(30, 0.1, 3)
    assert np.all(idx >= 20) and np.all(idx < 30)
    assert np.all(beta[:20] == 0)
    with pytest.raises(BadFraction):
        make_beta(30, 0.001, 1)  # rounds to zero coefficients
    with pytest.raises(BadFraction):
        make_beta(30, 0.9, 1)  # more coefficients than one block holds


def test_make_beta_single_coefficient():
    beta, idx = make_beta(12, 1 / 12, 1)
    assert beta[idx[0]] == 1.0
    assert np.count_nonzero(beta) == 1


def test_calibrate_noise_exact():
    corr = np.eye(2)
    beta = np.array([1.0, 0.0])
    sigma = calibrate_noise(float(beta @ corr @ beta), 0.5)
    assert sigma**2 == pytest.approx(1.0, rel=1e-15)
    signal = 3.0
    beta3 = np.array([np.sqrt(signal)])
    sigma3 = calibrate_noise(float(beta3 @ np.eye(1) @ beta3), 0.75)
    assert sigma3**2 == pytest.approx(1.0, rel=1e-12)
    ev = signal / (signal + sigma3**2)
    assert ev == pytest.approx(0.75, rel=1e-15)


def test_calibrate_noise_zero_signal():
    with pytest.raises(ZeroSignal):
        calibrate_noise(0.0, 0.5)


def test_calibrate_noise_empirical_r2():
    rng = np.random.default_rng(0)
    n = 50_000
    corr = np.eye(4)
    beta = np.array([0.8, -0.4, 0.2, 0.0])
    sigma = calibrate_noise(float(beta @ corr @ beta), 0.5)
    x = rng.standard_normal((n, 4))
    y = x @ beta + sigma * rng.standard_normal(n)
    pred = x @ beta
    r2 = 1 - np.sum((y - pred) ** 2) / np.sum((y - y.mean()) ** 2)
    assert abs(r2 - 0.5) <= 0.02


def test_calibrate_censoring_values():
    assert calibrate_censoring(0.5, np.sqrt(0.5), 0.5) == pytest.approx(0.0, abs=1e-12)
    mu_c = calibrate_censoring(0.5, np.sqrt(0.5), 0.25)  # s^2 = 1
    assert mu_c == pytest.approx(0.9539, abs=1e-4)


def test_normal_inv_cdf_matches_scipy_ndtri():
    # calibrate_censoring takes the normal quantile from the standard library
    tail = np.geomspace(1e-15, 0.5, 20_001)
    p = np.concatenate((np.linspace(1e-15, 1 - 1e-15, 100_001), tail, 1 - tail))
    inv_cdf = statistics.NormalDist().inv_cdf
    ours = np.array([inv_cdf(q) for q in p.tolist()])
    npt.assert_allclose(ours, ndtri(p), rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("rate", [0.25, 0.5])
@pytest.mark.parametrize("signal, sigma", [(0.5, math.sqrt(0.5)), (0.6, 0.9), (3.7, 0.05), (1e-3, 12.0)])
def test_calibrate_censoring_keeps_the_ndtri_bits(signal, sigma, rate):
    want = float(-ndtri(rate) * math.sqrt(2.0 * (signal + sigma**2)))
    assert calibrate_censoring(signal, sigma, rate).hex() == want.hex()


def test_calibrate_censoring_empirical_rate():
    rng = np.random.default_rng(1)
    n = 50_000
    signal, sigma = 0.6, 0.9
    s2 = signal + sigma**2
    mu_c = calibrate_censoring(signal, sigma, 0.25)
    log_t = np.sqrt(s2) * rng.standard_normal(n)
    log_c = mu_c + np.sqrt(s2) * rng.standard_normal(n)
    rate = np.mean(log_c < log_t)
    assert abs(rate - 0.25) <= 0.01


def test_sample_covariates_moments():
    rng = replicate_rng(42, 0)
    corr = np.eye(3)
    corr[0, 1] = corr[1, 0] = 0.75
    x = sample_covariates(np.linalg.cholesky(corr), 50_000, rng)
    assert np.all(np.abs(x.mean(axis=0)) <= 0.02)
    emp = np.corrcoef(x.T)
    assert abs(emp[0, 1] - 0.75) <= 0.02
    assert abs(emp[0, 2]) <= 0.02


def test_sample_covariates_deterministic():
    corr = np.eye(4)
    a = sample_covariates(np.linalg.cholesky(corr), 100, replicate_rng(7, 3))
    b = sample_covariates(np.linalg.cholesky(corr), 100, replicate_rng(7, 3))
    npt.assert_array_equal(a, b)


def scenario(**overrides):
    base = dict(
        n=120,
        d=30,
        influential_fraction=0.1,
        influential_block=3,
        explained_variance=0.5,
        censoring_rate=0.25,
        seed=11,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_generate_dataset_deterministic():
    config = scenario()
    s1, t1 = generate_dataset(config, replicate_id=2)
    s2, t2 = generate_dataset(config, replicate_id=2)
    npt.assert_array_equal(s1.times, s2.times)
    npt.assert_array_equal(s1.events, s2.events)
    npt.assert_array_equal(s1.covariates, s2.covariates)
    npt.assert_array_equal(t1.beta, t2.beta)
    s3, _ = generate_dataset(config, replicate_id=3)
    assert not np.array_equal(s1.times, s3.times)


def test_generate_dataset_influential_in_third_block():
    _, truth = generate_dataset(scenario())
    assert np.all(truth.influential_set >= 20)
    assert np.all(truth.beta[:20] == 0)


def test_cutoff_only_adds_censoring():
    config_cut = scenario(cutoff_quantile=0.9)
    config_raw = scenario(cutoff_quantile=1.0)
    s_cut, _ = generate_dataset(config_cut)
    s_raw, _ = generate_dataset(config_raw)
    # same stream, cutoff applied post hoc: censored count can only grow
    assert (s_cut.events == 0).sum() >= (s_raw.events == 0).sum()
    assert (s_cut.events == 0).mean() >= 0.10
    assert s_cut.times.max() <= s_raw.times.max()


def test_population_scores_uncorrelated_closed_form():
    beta = np.array([1.0, 0.5, 0.0])
    sigma = 1.2
    theta = population_scores(beta, np.eye(3), math.sqrt(beta @ beta + sigma**2))
    npt.assert_allclose(theta, beta / np.sqrt(beta @ beta + sigma**2), rtol=1e-12)


def test_generator_truth_matches_large_sample_scores():
    # end-to-end: scores estimated on large simulated samples concentrate on
    # the generator's analytic population scores
    from survscreen import cars_score

    config = scenario(n=3200, d=30, cutoff_quantile=1.0, seed=5150)
    errs = []
    for rep in range(20):
        sample, truth = generate_dataset(config, replicate_id=rep)
        sv = cars_score(sample)
        errs.append(np.abs(sv.scores - truth.population_theta))
    med = np.median(np.array(errs), axis=0)
    assert med.max() <= 0.05


def test_config_file_round_trip(tmp_path):
    text = (
        "n = 120\n"
        "d = 30\n"
        "influential_fraction = 0.1\n"
        "influential_block = 3  # high-correlation block\n"
        "explained_variance = 0.5\n"
        "censoring_rate = 0.25\n"
        "block_magnitudes = 0.2:0.4:0.6\n"
        "cutoff_quantile = 0.9\n"
        "seed = 77\n"
    )
    p = tmp_path / "scenario.cfg"
    p.write_text(text)
    config = load_scenario_config(p)
    assert config.n == 120 and config.d == 30
    assert config.block_magnitudes == (0.2, 0.4, 0.6)
    assert config.seed == 77


def test_scenario_config_is_a_one_point_grid(tmp_path):
    text = (
        "n = 90\n"
        "d = 12\n"
        "influential_fraction = 0.25  # 3 of 12\n"
        "influential_block = 2\n"
        "explained_variance = 0.6\n"
        "censoring_rate = 0.3\n"
        "seed = 8\n"
    )
    p = tmp_path / "scenario.cfg"
    p.write_text(text)
    (params,), seed = parse_grid(text.splitlines())
    assert load_scenario_config(p) == ScenarioConfig(**params, seed=seed)
    assert load_scenario_config(p).cutoff_quantile == ScenarioConfig.cutoff_quantile


def per_replicate_oracle(config, corr, rng):
    """The sampling path written out for one replicate, with nothing shared:
    a fresh eigen-factor and a fresh calibration for every draw."""
    w, v = np.linalg.eigh(corr)
    factor = v * np.sqrt(np.maximum(w, 0.0))
    x = rng.standard_normal((config.n, corr.shape[0])) @ factor.T
    beta, influential = make_beta(config.d, config.influential_fraction, config.influential_block)
    signal = float(beta @ corr @ beta)
    sigma = calibrate_noise(signal, config.explained_variance)
    mu_c = calibrate_censoring(signal, sigma, config.censoring_rate)
    sigma_c = math.sqrt(signal + sigma**2)
    log_t = x @ beta + sigma * rng.standard_normal(config.n)
    log_c = mu_c + sigma_c * rng.standard_normal(config.n)
    observed = np.exp(np.minimum(log_t, log_c))
    delta = (log_t <= log_c).astype(np.int64)
    if config.cutoff_quantile < 1.0:
        cutoff = float(np.quantile(observed, config.cutoff_quantile))
        over = observed > cutoff
        observed[over] = cutoff
        delta[over] = 0
    w, v = np.linalg.eigh(corr)
    theta = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T @ beta / sigma_c
    return SurvivalSample.from_times(observed, delta, x), beta, influential, theta, sigma


@pytest.mark.parametrize("cutoff_quantile", [0.9, 1.0])
@pytest.mark.parametrize("seed", [0, 11, 2**31 + 5])
def test_scenario_draws_match_per_replicate_oracle_bitwise(seed, cutoff_quantile):
    config = scenario(seed=seed, cutoff_quantile=cutoff_quantile, influential_fraction=0.2)
    corr = nearest_correlation(build_block_design(config.d, config.block_magnitudes)).matrix
    built = Scenario.build(config, corr)
    for scenario_idx, rep in [(0, 0), (0, 1), (2, 7), (5, 1000)]:
        sample = built.draw(replicate_rng(seed, scenario_idx, rep))
        want, beta, influential, theta, sigma = per_replicate_oracle(
            config, corr, replicate_rng(seed, scenario_idx, rep))
        for field in ("times", "log_times", "events", "covariates"):
            npt.assert_array_equal(getattr(sample, field), getattr(want, field))
        assert sample.events.dtype == want.events.dtype
    npt.assert_array_equal(built.truth.beta, beta)
    npt.assert_array_equal(built.truth.influential_set, influential)
    npt.assert_array_equal(built.truth.population_theta, theta)
    assert built.truth.sigma_log == sigma
    # generate_dataset projects the design itself and draws from (seed, replicate_id)
    sample, truth = generate_dataset(config, replicate_id=3)
    want = per_replicate_oracle(config, corr, replicate_rng(seed, 3))[0]
    for field in ("times", "events", "covariates"):
        npt.assert_array_equal(getattr(sample, field), getattr(want, field))
    npt.assert_array_equal(truth.population_theta, theta)


def test_scenario_build_takes_one_eigendecomposition(monkeypatch):
    # the factor of the draws and the root of the population scores share it
    config = scenario()
    corr = nearest_correlation(build_block_design(config.d, config.block_magnitudes)).matrix
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    Scenario.build(config, corr)
    assert calls == [corr.shape]


def test_raw_time_overflow_is_a_numerical_error():
    # sd(log T) = 300: exp(min(log T, log C)) underflows to 0 or overflows
    config = scenario(n=200, d=6)
    beta = np.zeros(6)
    beta[5] = 1.0
    truth = GroundTruth(beta, np.array([5]), beta.copy(), 300.0)
    huge = Scenario(config, np.eye(6), truth, mu_c=0.0, sigma_c=300.0)
    with pytest.raises(TimeOverflow, match=r"sd\(log T\) = 300") as err:
        huge.draw(replicate_rng(1, 0))
    assert isinstance(err.value, NumericalError)
    assert "\n" not in str(err.value)
