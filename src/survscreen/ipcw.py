"""Kaplan-Meier censoring curve and IPC-weighted moment estimators.

The censoring survivor function G is estimated by the product-limit
formula applied with the event/censoring roles swapped.  Observed events
then receive weight 1/G at their own time and censored observations
weight 0, which corrects the moment estimators for censoring bias.

The weighted outcome moments divide by n (not by the sum of weights) and
covariate variances by n-1, so together they describe one weighted
distribution only when the weights sum to n.  Unit weights do; raw IPC
weights of a censored sample sum to less than n when the largest time is
censored or the positivity floor acts, and then the weighted mean is
pulled toward 0 and every moment depends on the unit of time.  CARS
scoring therefore also counts the rows censored at the largest time
(Efron's tail rule, see ``cars``), rescales the weights to sum to n and
takes the covariate means, variances and correlations from the same
weights, which bounds every correlation by sqrt((n-1)/n) in absolute
value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CovariateSummary, SurvivalSample, column_blocks
from .errors import BadValue, DegenerateOutcome

#: weighted variance at or below this is treated as a degenerate outcome
VARIANCE_FLOOR = 1e-14


@dataclass
class CensoringSurvivorCurve:
    """Product-limit estimate of the censoring survivor function.

    ``evaluate(y)`` multiplies the factors of all jumps with jump time <= y.
    Ties between an event and a censoring at the identical time are broken
    event-first: the event is taken to precede the censoring, so event
    weights at a tied time exclude that time's jump (see ``evaluate_left``).
    This keeps weights finite at the largest event time.
    """

    jump_times: np.ndarray
    values: np.ndarray

    def _eval(self, y, side: str):
        idx = np.searchsorted(self.jump_times, np.asarray(y, dtype=float), side=side)
        padded = np.concatenate(([1.0], self.values))
        out = padded[idx]
        if np.ndim(y) == 0:
            return float(out)
        return out

    def evaluate(self, y):
        """Survivor value including jumps at exactly y (<= convention)."""
        return self._eval(y, "right")

    def evaluate_left(self, y):
        """Survivor value just before y; used for event weights at ties."""
        return self._eval(y, "left")


@dataclass
class IpcWeightSet:
    """Per-observation IPC weights together with the positivity floor used."""

    weights: np.ndarray
    nu: float
    floor_applied: bool


def censoring_km(sample: SurvivalSample) -> CensoringSurvivorCurve:
    """Kaplan-Meier estimate of the censoring survivor function.

    Jumps occur at distinct censoring times; the risk set at a time y is
    every observation with log time >= y.  A sample without censored
    observations yields the constant curve 1.
    """
    t = sample.log_times
    censored = sample.events == 0
    if not censored.any():
        return CensoringSurvivorCurve(np.empty(0), np.empty(0))
    jump_times, n_cens = np.unique(t[censored], return_counts=True)
    all_sorted = np.sort(t)
    at_risk = sample.n - np.searchsorted(all_sorted, jump_times, side="left")
    factors = 1.0 - n_cens / at_risk
    return CensoringSurvivorCurve(jump_times, np.cumprod(factors))


def check_nu(nu: float) -> None:
    """Reject a positivity floor outside (0, 1)."""
    if not 0.0 < nu < 1.0:
        raise BadValue(f"nu must be in (0, 1), got {nu}")


def ipc_weights(sample: SurvivalSample, curve: CensoringSurvivorCurve, nu: float) -> IpcWeightSet:
    """Inverse-probability-of-censoring weights with positivity floor nu.

    Censored observations get weight exactly 0; an observed event at log
    time y gets 1 / max(G(y), nu) where G uses the event-first tie rule.
    """
    check_nu(nu)
    g = curve.evaluate_left(sample.log_times)
    is_event = sample.events == 1
    weights = np.where(is_event, 1.0 / np.maximum(g, nu), 0.0)
    floor_applied = bool(np.any(is_event & (g < nu)))
    return IpcWeightSet(weights, nu, floor_applied)


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
