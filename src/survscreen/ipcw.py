"""Kaplan-Meier censoring curve and inverse-probability-of-censoring weights.

The censoring survivor function G is estimated by the product-limit
formula applied with the event/censoring roles swapped.  Observed events
then receive weight 1/G at their own time and censored observations
weight 0, which corrects moment estimators for censoring bias.

Raw IPC weights of a censored sample sum to less than n when the largest
time is censored or the positivity floor acts.  CARS scoring therefore
also counts the rows censored at the largest time (Efron's tail rule),
rescales the weights to sum to n and takes every moment, of the outcome
and of the covariates, from that one weighted distribution (see
``cars``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SurvivalSample
from .errors import BadValue


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

    Jumps occur at distinct censoring times; the risk set at a time y holds
    the censorings at or after y and the events after y (events first at a
    tie).  A sample without censored observations yields the constant curve 1.
    """
    t = sample.log_times
    censored = sample.events == 0
    if not censored.any():
        return CensoringSurvivorCurve(np.empty(0), np.empty(0))
    jump_times, n_cens = np.unique(t[censored], return_counts=True)
    censored_from = np.cumsum(n_cens[::-1])[::-1]
    events = np.sort(t[~censored])
    at_risk = censored_from + events.size - np.searchsorted(events, jump_times, side="right")
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
