"""Correlation-adjusted survival (CARS) scores.

The score vector is the correlation between the de-correlated covariates
and the log survival time under one IPC-weighted distribution: the inverse
square root of the shrunk weighted covariate correlation matrix applied to
the weighted covariate/outcome correlation vector.

Every moment comes from the same weights (``scoring_weights``): the IPC
weights 1/G(y-) of the observed events and, by Efron's tail rule, of the
rows censored at the largest observed time tau, rescaled to sum to n.
These weights are n times the jumps of the Kaplan-Meier estimate of the
time distribution, completed at tau.  The outcome is therefore
log min(T, tau), which is log T itself unless the largest observed time
is censored; under an administrative end of follow-up G drops to 0 at tau,
and without the tail rule the rows beyond it would be dropped, leaving
the distribution of T given T < tau and selecting the covariates on the
outcome.  The scores do not depend on the unit of time, and without
shrinkage their squared norm is (n-1)/n times the R^2 of the weighted
least-squares regression of log time on the covariates, which keeps it
below 1.  Without censoring every weight is 1 and the estimate is the
unweighted one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import SurvivalSample, covariate_summary
from .errors import BadValue, DegenerateOutcome
from .ipcw import (
    IpcWeightSet,
    censoring_km,
    correlation_vector,
    ipc_weights,
    weighted_covariances,
    weighted_mean,
    weighted_variance,
)
from .shrinkage import whitener_from_data

DEFAULT_NU = 1e-6


@dataclass
class ScoreVector:
    """Per-covariate screening scores with a method tag and diagnostics."""

    scores: np.ndarray
    method: str
    names: list[str] | None = None
    diagnostics: dict = field(default_factory=dict)


def scoring_weights(sample: SurvivalSample, nu: float = DEFAULT_NU) -> IpcWeightSet:
    """The weights of every CARS moment, summing to n.

    The IPC weights of ``ipc_weights``, except that the censored rows at the
    largest observed time also get 1 / max(G(y-), nu) there (Efron's tail
    rule).  Without the positivity floor these weights already sum to n,
    and their cumulative sums over the sorted times trace n times the
    Kaplan-Meier distribution function.
    """
    curve = censoring_km(sample)
    ws = ipc_weights(sample, curve, nu)
    t = sample.log_times
    g_end = curve.evaluate_left(t.max())
    weights = np.where(t == t.max(), 1.0 / max(g_end, nu), ws.weights)
    return IpcWeightSet(weights * (sample.n / weights.sum()), nu, ws.floor_applied or g_end < nu)


def cars_score(
    sample: SurvivalSample,
    nu: float = DEFAULT_NU,
    lambda_override: float | None = None,
) -> ScoreVector:
    """CARS scores for every covariate of the sample.

    Pipeline: censoring Kaplan-Meier -> ``scoring_weights`` -> weighted
    moments -> correlation vector -> shrinkage whitening with the
    weighted correlation matrix.  The shrinkage weight is estimated from
    the same weighted rows unless ``lambda_override`` is given
    (``lambda_override=1`` yields identity whitening, i.e. plain marginal
    correlations).

    Degenerate (constant) covariates score exactly 0.  Samples without
    any observed event, or with all events at one time, raise
    DegenerateOutcome.
    """
    is_event = sample.events == 1
    if not is_event.any():
        raise DegenerateOutcome("sample contains no observed events")
    if np.unique(sample.log_times[is_event]).size < 2:
        raise DegenerateOutcome("all observed events share a single time")
    if lambda_override is not None and not 0.0 <= lambda_override <= 1.0:
        raise BadValue("lambda_override must be in [0, 1]")

    ws = scoring_weights(sample, nu)
    summary = covariate_summary(sample, ws.weights)
    mean_w = weighted_mean(sample, ws.weights)
    var_w = weighted_variance(sample, ws.weights, mean_w)
    covs = weighted_covariances(sample, ws.weights, mean_w, summary)
    corr = correlation_vector(covs, summary, var_w)

    whitener, lam_used, min_eig = whitener_from_data(sample.covariates, lambda_override, ws.weights)
    theta = whitener.apply(corr)
    degenerate = summary.degenerate
    theta[degenerate] = 0.0

    return ScoreVector(
        theta,
        "cars",
        names=sample.covariate_names,
        diagnostics={
            "shrinkage": lam_used,
            "min_eigenvalue": min_eig,
            "nu": ws.nu,
            "floor_applied": ws.floor_applied,
            "degenerate": degenerate,
        },
    )


def rank_by_magnitude(scores: ScoreVector | np.ndarray) -> np.ndarray:
    """Covariate indices ordered by |score| descending, ties by index.

    Returns 0-based indices; the CLI reports 1-based ranks derived from
    this order.
    """
    values = scores.scores if isinstance(scores, ScoreVector) else np.asarray(scores)
    d = len(values)
    # lexsort uses the last key as primary; index ascent breaks ties
    return np.lexsort((np.arange(d), -np.abs(values)))
