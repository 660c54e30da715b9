"""Test-only wrappers around package internals, and independent oracles."""

import numpy as np

from survscreen.cars import VARIANCE_FLOOR
from survscreen.cox import CoxFits, _fit_columns
from survscreen.data import CovariateSummary, SurvivalSample, column_blocks, covariate_summary
from survscreen.errors import DegenerateOutcome


def cox_univariate(times, events, x) -> CoxFits:
    """The univariate Cox fit of one covariate vector x, each field a scalar:
    the fit that ``cox_scores`` makes of each column (see ``cox._fit_columns``)."""
    fits = _fit_columns(times, events, np.asarray(x, dtype=float)[:, None])
    return fits._make(f[0] for f in fits)


# The IPC-weighted moment estimators that CARS scoring took its correlation
# vector from before it formed r from the weighted rows; kept as its oracle.


def weighted_mean(sample: SurvivalSample, weights: np.ndarray) -> float:
    """(1/n) sum of w_i * log t_i; the divisor is n, not sum(w)."""
    return float(np.sum(weights * sample.log_times) / sample.n)


def weighted_variance(sample: SurvivalSample, weights: np.ndarray, mean_w: float) -> float:
    """(1/n) sum of w_i (log t_i - mean_w)^2.

    Raises DegenerateOutcome when the spread of observed events is
    numerically zero (all events at a single time).
    """
    value = float(np.sum(weights * (sample.log_times - mean_w) ** 2) / sample.n)
    if value <= VARIANCE_FLOOR:
        raise DegenerateOutcome(
            f"weighted outcome variance {value:.3e} is not positive"
        )
    return value


def weighted_covariances(
    sample: SurvivalSample,
    weights: np.ndarray,
    mean_w: float,
    summary: CovariateSummary,
) -> np.ndarray:
    """IPC-weighted covariance of each covariate with the log outcome.

    Covariates are centered at ``summary.means`` (the weighted means when
    the summary was taken with the same weights).  Each column is
    reduced along contiguous memory with a fixed summation order, in
    ``column_blocks``, so partitioning work across columns cannot change a
    single bit.
    """
    wy = weights * (sample.log_times - mean_w)
    out = np.empty(sample.d)
    for cols, xt in column_blocks(sample.covariates):
        xt -= summary.means[cols, None]
        out[cols] = (xt * wy).sum(axis=1)
    return out / sample.n


def correlation_vector(
    covariances: np.ndarray, summary: CovariateSummary, var_w: float
) -> np.ndarray:
    """Per-covariate correlation with the log outcome.

    Zero-variance covariates map to 0.  Nothing is clamped: with the
    summary and the outcome moments taken from one set of weights summing
    to n, every value is at most sqrt((n-1)/n) in absolute value.
    """
    if var_w <= 0:
        raise DegenerateOutcome("weighted outcome variance must be positive")
    out = np.zeros_like(covariances, dtype=float)
    ok = summary.variances > 0
    out[ok] = covariances[ok] / (np.sqrt(summary.variances[ok]) * np.sqrt(var_w))
    return out


def oracle_correlations(sample: SurvivalSample, weights: np.ndarray) -> np.ndarray:
    """The correlation vector of the moment estimators above, every moment
    taken with the same weights (which should sum to n)."""
    summary = covariate_summary(sample.covariates, weights)
    m = weighted_mean(sample, weights)
    covs = weighted_covariances(sample, weights, m, summary)
    return correlation_vector(covs, summary, weighted_variance(sample, weights, m))
