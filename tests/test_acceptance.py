"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools

import numpy as np
import pytest
from scipy.stats import norm

from survscreen import SurvivalSample, cars_score, pr_auc, select
from survscreen.bench import parse_grid, run_bench, write_report, write_summary
from survscreen.cars import weighted_cars_score
from survscreen.data import covariate_summary
from survscreen.ipcw import censoring_km, ipc_weights
from survscreen.shrinkage import shrinkage_lambda, whitener_from_data
from survscreen.simulate import calibrate_censoring, calibrate_noise, nearest_correlation

from helpers import (
    cox_univariate,
    oracle_correlations,
    weighted_covariances,
    weighted_mean,
    weighted_variance,
)
from test_cox import breslow_loglik, golden_section_argmax
from test_ipcw import km_censoring_oracle
from test_metrics import pr_auc_oracle
from test_simgen import dykstra_oracle


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def censored_gaussian_sample(rng, n, beta, sigma, censoring):
    d = len(beta)
    x = rng.standard_normal((n, d))
    log_t = x @ beta + sigma * rng.standard_normal(n)
    s = np.sqrt(beta @ beta + sigma**2)
    mu_c = -norm.ppf(censoring) * s * np.sqrt(2)
    log_c = mu_c + s * rng.standard_normal(n)
    times = np.exp(np.minimum(log_t, log_c))
    events = (log_t <= log_c).astype(int)
    return SurvivalSample.from_times(times, events, x)


def test_criterion_1_consistency_suite():
    # d=5 uncorrelated design, beta=(1,.5,0,0,0), 50% explained variance,
    # 25% censoring: the analytic population score is beta / sqrt(b'b + s^2)
    beta = np.array([1.0, 0.5, 0.0, 0.0, 0.0])
    sigma = np.sqrt(beta @ beta)
    theta = beta / np.sqrt(beta @ beta + sigma**2)
    worst_medians = []
    for n in (200, 800, 3200):
        errs = []
        for rep in range(100):
            rng = np.random.default_rng(10_000 + 13 * rep + n)
            sample = censored_gaussian_sample(rng, n, beta, sigma, 0.25)
            sv = cars_score(sample)
            errs.append(np.abs(sv.scores - theta))
        worst_medians.append(np.median(np.array(errs), axis=0).max())
    decreasing = worst_medians[0] > worst_medians[1] > worst_medians[2]
    small = worst_medians[2] <= 0.05
    report(
        1,
        decreasing and small,
        "median |theta_hat - theta| over n in (200, 800, 3200): "
        + ", ".join(f"{m:.4f}" for m in worst_medians),
    )


def test_criterion_2_ipc_unbiasedness():
    rng = np.random.default_rng(20_000)
    n = 20_000
    mu, sigma = 0.3, 0.9
    log_t = mu + sigma * rng.standard_normal(n)
    mu_c = mu - norm.ppf(0.30) * sigma * np.sqrt(2)
    log_c = mu_c + sigma * rng.standard_normal(n)
    times = np.exp(np.minimum(log_t, log_c))
    events = (log_t <= log_c).astype(int)
    x = rng.standard_normal((n, 1))
    sample = SurvivalSample.from_times(times, events, x)

    ws = ipc_weights(sample, censoring_km(sample), 1e-6)
    summ = covariate_summary(sample.covariates)
    m = weighted_mean(sample, ws.weights)
    se_mean = np.std(ws.weights * sample.log_times, ddof=1) / np.sqrt(n)
    mean_ok = abs(m - mu) <= 3 * se_mean

    v = weighted_variance(sample, ws.weights, m)
    var_ok = abs(v - sigma**2) / sigma**2 <= 0.05

    covs = weighted_covariances(sample, ws.weights, m, summ)
    terms = ws.weights * (x[:, 0] - summ.means[0]) * (sample.log_times - m)
    se_cov = np.std(terms, ddof=1) / np.sqrt(n)
    cov_ok = abs(covs[0]) <= 3 * se_cov

    report(
        2,
        mean_ok and var_ok and cov_ok,
        f"mean err {abs(m - mu):.4f} (3se {3 * se_mean:.4f}), "
        f"var rel err {abs(v - sigma**2) / sigma**2:.4f}, "
        f"cov err {abs(covs[0]):.4f} (3se {3 * se_cov:.4f})",
    )


def test_criterion_3_no_censoring_degeneration():
    exact = 0
    worst = 0.0
    for rep in range(20):
        rng = np.random.default_rng(30_000 + rep)
        n, d = 50, 4
        x = rng.standard_normal((n, d))
        log_t = x @ np.array([0.8, 0.0, -0.4, 0.0]) + rng.standard_normal(n)
        sample = SurvivalSample.from_times(np.exp(log_t), np.ones(n, dtype=int), x)
        sv = cars_score(sample)
        exact += np.array_equal(sv.scores, weighted_cars_score(sample, np.ones(n)).scores)

        # r of the unit-weight moment estimators, whitened by the same whitener
        r = oracle_correlations(sample, np.ones(n))
        w, _, _ = whitener_from_data(sample.covariates)
        worst = max(worst, float(np.abs(sv.scores - w.apply(r)).max() / np.abs(r).max()))
    report(
        3,
        exact == 20 and worst <= 1e-12,
        f"bit-exact on {exact}/20 uncensored instances; "
        f"{worst:.1e} of the largest |r| from the moment estimators",
    )


def test_criterion_4_shrinkage_limit():
    corr = np.full((5, 5), 0.5)
    np.fill_diagonal(corr, 1.0)
    chol = np.linalg.cholesky(corr)
    medians = []
    for n in (100, 1000, 10_000):
        lams = []
        for rep in range(50):
            rng = np.random.default_rng(40_000 + rep)
            lams.append(shrinkage_lambda(rng.standard_normal((n, 5)) @ chol.T))
        medians.append(np.median(lams))
    ok = medians[0] > medians[1] > medians[2] and medians[2] <= 0.05
    report(
        4,
        ok,
        "median lambda over n in (100, 1000, 10000): "
        + ", ".join(f"{m:.4f}" for m in medians),
    )


DESK_GRID = """
n = 250
d = 150
influential_fraction = 0.1
influential_block = 3
explained_variance = 0.75
censoring_rate = 0.25
cutoff_quantile = 0.9
block_magnitudes = 0.25:0.5:0.75
seed = 424242
"""


@pytest.fixture(scope="module")
def desk_scale_report():
    scenarios, seed = parse_grid(DESK_GRID.splitlines())
    return run_bench(scenarios, seed, replicates=50)


def _method_median(report_obj, method, metric):
    values = [
        getattr(r, metric)
        for r in report_obj.rows
        if r.method == method and not r.error
    ]
    return float(np.median(values))


COMPARISON_NOTE = (
    "measured on fresh replicates of this design: without censoring CARS "
    "leads Cox by +0.074 PR-AUC and +0.014 rank correlation; at 25% "
    "censoring with the cutoff it leads by +0.024 PR-AUC and ties or "
    "trails slightly in rank correlation (-0.001 +/- 0.002, -0.003 +/- "
    "0.001 over 300 replicates), because IPC weighting uses only the events "
    "and the rows at the end of follow-up while the partial likelihood "
    "keeps every censored row in its risk sets (README per-layer table)"
)


def test_criterion_5_pr_auc_direction(desk_scale_report):
    cars = _method_median(desk_scale_report, "cars", "pr_auc")
    cox = _method_median(desk_scale_report, "cox", "pr_auc")
    report(
        5,
        cars > cox,
        f"median PR-AUC cars {cars:.4f} vs cox {cox:.4f}; {COMPARISON_NOTE}",
    )


def test_criterion_6_rank_correlation_direction(desk_scale_report):
    cars = _method_median(desk_scale_report, "cars", "rank_correlation")
    cox = _method_median(desk_scale_report, "cox", "rank_correlation")
    report(
        6,
        cars > cox,
        f"median rank corr cars {cars:.4f} vs cox {cox:.4f}; {COMPARISON_NOTE}",
    )


def test_criterion_7_oracle_equivalences():
    # censoring KM vs risk-set enumeration
    rng = np.random.default_rng(70_000)
    times = rng.lognormal(size=40)
    events = rng.integers(0, 2, size=40)
    events[:2] = [1, 0]
    sample = SurvivalSample.from_times(times, events, np.zeros((40, 1)))
    curve = censoring_km(sample)
    km_err = max(
        abs(curve.evaluate(y) - km_censoring_oracle(sample.log_times, sample.events, y))
        for y in sample.log_times
    )
    km_ok = km_err <= 1e-12

    # PR-AUC vs exhaustive threshold integration, all configurations <= 8 items
    pr_ok = True
    for n in range(1, 5):
        for scores in itertools.product((0.0, 1.0, 2.0), repeat=n):
            for labels in itertools.product((0, 1), repeat=n):
                if sum(labels) == 0:
                    continue
                got = pr_auc(np.array(scores), np.array(labels)).auc
                if abs(got - pr_auc_oracle(np.array(scores), np.array(labels))) > 1e-15:
                    pr_ok = False
    for n in (5, 6, 7, 8):
        for _ in range(300):
            scores = rng.choice([0.2, 0.5, 0.8], size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[0] = 1
            got = pr_auc(scores, labels).auc
            if abs(got - pr_auc_oracle(scores, labels)) > 1e-15:
                pr_ok = False

    # Cox beta vs golden-section maximization, 20 random instances
    cox_err = 0.0
    checked = 0
    rep = 0
    while checked < 20:
        gen = np.random.default_rng(71_000 + rep)
        rep += 1
        n = 30
        x = gen.standard_normal(n)
        times = gen.lognormal(mean=gen.uniform(-1, 1) * x, sigma=0.8, size=n)
        events = gen.integers(0, 2, size=n)
        events[:3] = 1
        fit = cox_univariate(times, events, x)
        if fit.flag == "separation":
            continue
        oracle = golden_section_argmax(
            lambda b: breslow_loglik(b, times, events, x), -20, 20
        )
        cox_err = max(cox_err, abs(fit.beta_hat - oracle))
        checked += 1
    cox_ok = cox_err <= 1e-6

    # nearest correlation vs tight-tolerance alternating-projections oracle
    a = np.array([[1.0, 0.95, -0.95], [0.95, 1.0, 0.95], [-0.95, 0.95, 1.0]])
    res = nearest_correlation(a)
    near_err = float(np.linalg.norm(res.matrix - dykstra_oracle(a)))
    near_ok = near_err <= 1e-6 and np.linalg.eigvalsh(res.matrix).min() >= -1e-10

    report(
        7,
        km_ok and pr_ok and cox_ok and near_ok,
        f"km max err {km_err:.2e}, pr exact {pr_ok}, "
        f"cox max err {cox_err:.2e}, nearcorr frobenius {near_err:.2e}",
    )


def test_criterion_8_calibration_exactness():
    corr = np.eye(4)
    beta = np.array([0.8, -0.4, 0.2, 0.0])
    sigma = calibrate_noise(beta, corr, 0.5)
    signal = float(beta @ corr @ beta)
    analytic_ok = abs(signal / (signal + sigma**2) - 0.5) <= 1e-14

    rng = np.random.default_rng(80_000)
    n = 50_000
    x = rng.standard_normal((n, 4))
    y = x @ beta + sigma * rng.standard_normal(n)
    pred = x @ beta
    r2 = 1 - np.sum((y - pred) ** 2) / np.sum((y - y.mean()) ** 2)
    r2_ok = abs(r2 - 0.5) <= 0.02

    mu_c = calibrate_censoring(signal, sigma, 0.25)
    s2 = signal + sigma**2
    log_t = np.sqrt(s2) * rng.standard_normal(n)
    log_c = mu_c + np.sqrt(s2) * rng.standard_normal(n)
    rate = float(np.mean(log_c < log_t))
    rate_ok = abs(rate - 0.25) <= 0.01

    report(
        8,
        analytic_ok and r2_ok and rate_ok,
        f"analytic ev exact, empirical R2 {r2:.4f}, censoring rate {rate:.4f}",
    )


def test_criterion_9_fdr_null_control():
    counts = []
    nested = True
    for rep in range(50):
        rng = np.random.default_rng(90_000 + rep)
        scores = rng.normal(0.0, 0.1, size=1000)
        res = select(scores, 0.01)
        counts.append(res.selected.size)
        sets = [set(select(scores, a).selected.tolist()) for a in (0.01, 0.05, 0.1)]
        nested &= sets[0] <= sets[1] <= sets[2]
    mean_count = float(np.mean(counts))
    report(
        9,
        mean_count <= 10 and nested,
        f"mean null selections {mean_count:.2f} at alpha=0.01, nested={nested}",
    )


def test_criterion_10_bench_determinism(tmp_path):
    grid = (
        "n = 60, 90\nd = 12\ninfluential_fraction = 0.25\ninfluential_block = 3\n"
        "explained_variance = 0.75\ncensoring_rate = 0.25\nseed = 31\n"
    )
    scenarios, seed = parse_grid(grid.splitlines())
    outputs = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 2)):
        rep = run_bench(scenarios, seed, replicates=3, parallelism=workers)
        report_path = tmp_path / f"report_{tag}.csv"
        summary_path = tmp_path / f"summary_{tag}.csv"
        write_report(rep, report_path)
        write_summary(rep, summary_path)
        outputs.append(report_path.read_bytes() + summary_path.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(10, ok, "byte-identical reports across reruns and worker pools")
