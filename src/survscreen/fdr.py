"""Two-component mixture modeling of score magnitudes and FDR-based
variable selection.

The null component is a half-normal on |score| whose scale is fitted by
truncated maximum likelihood on the central part of the distribution.
Tail-area q-values compare the fitted null tail with the empirical tail
and are monotonized so that selections are nested across thresholds.  The
local fdr divides the null density by a Grenander (decreasing) estimate of
the mixture density, obtained by pool-adjacent-violators on the empirical
CDF of the magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cars import ScoreVector
from .errors import BadValue, DegenerateScores, TooFewScores

MIN_SCORES = 20

#: fraction of |scores| used for the truncated null fit
NULL_FIT_QUANTILE = 0.75


@dataclass
class SelectionResult:
    """q-values, local fdr and the selected set at a threshold."""

    q_values: np.ndarray
    local_fdr: np.ndarray
    eta0: float
    null_scale: float
    selected: np.ndarray
    threshold_phi: float
    alpha: float | None = None


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """A root of f in [xa, xb], where f(xa) and f(xb) differ in sign.

    Brent's (1973) method, step for step as ``scipy.optimize.brentq``
    (its C core): the same iterates, so the same root to the last bit.
    Raises RuntimeError when ``maxiter`` steps do not converge.
    """
    xpre, xcur, xtol, rtol = float(xa), float(xb), float(xtol), float(rtol)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(xa) and f(xb) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                try:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                except ZeroDivisionError:  # C's inf or nan, which fails the test below
                    stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise RuntimeError(f"Brent's method did not converge in {maxiter} iterations")


#: widened second-stage truncation: the fitted null 95% magnitude quantile
_REFIT_Z = 1.959963984540054


def _truncated_mle(a: np.ndarray, c: float) -> float:
    """Half-normal scale MLE from the magnitudes at or below c.

    Parameterized as sigma = c * t so the solve is scale-free, which keeps
    the whole pipeline equivariant under rescaling of the scores.  The
    stationarity equation is root-solved on t in [1/50, 50] to near machine
    precision.  The truncated half-normal is an exponential family in
    -1/(2 sigma^2) and its log-likelihood is concave in that parameter, so
    it has at most one stationary point.  When the bracket holds none, the
    likelihood rises towards a bound and the scale is not identified: 0 at
    the lower bound (the magnitudes sit at 0) and inf at the upper one
    (they are no denser near 0 than near c; at t = 50 the density varies
    by 0.02% over [0, c]).
    """
    core = a[a <= c]
    m = core.shape[0]
    sq_over_c2 = float((core**2).sum()) / c**2

    def grad(t: float) -> float:
        u = 1.0 / (t * np.sqrt(2.0))
        trunc = m * np.sqrt(2.0 / np.pi) * np.exp(-(u**2)) / (t**2 * math.erf(u))
        return m / t - sq_over_c2 / t**3 - trunc

    lo, hi = 1.0 / 50.0, 50.0
    if grad(lo) >= 0:
        return 0.0
    if grad(hi) <= 0:
        return np.inf
    return c * _brentq(grad, lo, hi, xtol=1e-15, rtol=8.9e-16)


def fit_null(scores: np.ndarray) -> tuple[float, float]:
    """Estimate (eta0, null_scale) of the half-normal null component.

    Two truncated-MLE passes over the central portion of the magnitudes:
    first below their 75th percentile, then refined below the fitted null
    95% quantile (truncating at the 75th percentile alone throws away so
    much information that the scale cannot be pinned down on realistic d).
    Sparse alternatives sit above both cutoffs, so the refit stays clean.
    A first pass with no identified scale gives the refit cutoff its
    limit: every magnitude for an infinite scale, the same cutoff (and so
    the same fit) for a zero one.  A refit with no identified scale raises
    DegenerateScores.  eta0 is the fraction of
    scores inside the final cutoff divided by the fitted null mass there,
    clipped to (0, 1].
    """
    a = np.abs(np.asarray(scores, dtype=float))
    d = a.shape[0]
    if d < MIN_SCORES:
        raise TooFewScores(f"need at least {MIN_SCORES} scores, got {d}")
    if np.all(a == a[0]):
        raise DegenerateScores("all scores are identical")
    c1 = float(np.quantile(a, NULL_FIT_QUANTILE))
    if c1 <= 0:
        raise DegenerateScores("at least 75% of the scores are exactly zero")
    scale1 = _truncated_mle(a, c1)
    c2 = min(max(_REFIT_Z * scale1, c1), float(a.max()))
    null_scale = _truncated_mle(a, c2)
    m = int(np.sum(a <= c2))
    if not 0.0 < null_scale < np.inf:
        raise DegenerateScores(
            f"null scale not identified: the half-normal likelihood of the {m} magnitudes "
            f"<= {c2:.6g} rises to the bound of the scale bracket [{c2 / 50:.6g}, {c2 * 50:.6g}]"
        )
    null_mass_below = math.erf(c2 / (null_scale * np.sqrt(2.0)))
    eta0 = min(1.0, (m / d) / null_mass_below)
    return eta0, null_scale


def _pava_decreasing(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted least-squares fit of a non-increasing sequence."""
    values: list[float] = []
    weights: list[float] = []
    counts: list[int] = []
    for yi, wi in zip(y, w):
        values.append(float(yi))
        weights.append(float(wi))
        counts.append(1)
        # merge while the new block breaks monotonicity
        while len(values) > 1 and values[-2] < values[-1]:
            wt = weights[-1] + weights[-2]
            merged = (values[-1] * weights[-1] + values[-2] * weights[-2]) / wt
            values[-2:] = [merged]
            weights[-2:] = [wt]
            counts[-2:] = [counts[-2] + counts[-1]]
    return np.repeat(values, counts)


def _grenander_density(a: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Decreasing density estimate of the magnitudes a, evaluated at ``at``.

    Slopes of the least concave majorant of the empirical CDF on [0, max a],
    computed by pool-adjacent-violators on the raw CDF increments.  An atom
    at 0 is lumped into the first positive interval.  A point takes the
    slope of the interval (previous knot, knot] that holds it; points below
    the first knot take the first slope and points beyond max a the last.
    """
    d = a.shape[0]
    knots, counts = np.unique(a, return_counts=True)
    if knots[0] == 0.0 and knots.shape[0] > 1:
        counts = np.concatenate(([counts[0] + counts[1]], counts[2:]))
        knots = knots[1:]
    gaps = np.diff(np.concatenate(([0.0], knots)))
    slopes = _pava_decreasing((counts / d) / gaps, gaps)
    return slopes[np.minimum(np.searchsorted(knots, at, side="left"), knots.shape[0] - 1)]


def _fdr_curves(a: np.ndarray, at: np.ndarray, eta0: float, null_scale: float) -> dict:
    """Null and mixture densities, local fdr and q-value at ascending ``at``.

    The q-value at t is the smallest tail-area FDR estimate
    eta0 * (null tail beyond s) / (fraction of magnitudes at or beyond s)
    over the points s <= t of ``at``, which makes it non-increasing in t.
    """
    d = a.shape[0]
    null = eta0 * (np.sqrt(2.0 / np.pi) / null_scale * np.exp(-(at**2) / (2.0 * null_scale**2)))
    mixture = _grenander_density(a, at)
    with np.errstate(divide="ignore", invalid="ignore"):
        lfdr = np.where(mixture > 0, null / mixture, 1.0)
    count_ge = np.maximum(d - np.searchsorted(np.sort(a), at, side="left"), 1)
    tail = np.array([math.erfc(u) for u in (at / (null_scale * np.sqrt(2.0))).tolist()])
    fdr = np.minimum(1.0, eta0 * tail * d / count_ge)
    return {
        "magnitude": at,
        "null_density": null,
        "mixture_density": mixture,
        "local_fdr": np.clip(lfdr, 0.0, 1.0),
        "q_value": np.minimum.accumulate(fdr),
    }


def q_values(scores: np.ndarray, eta0: float, null_scale: float) -> SelectionResult:
    """Tail-area q-values and local fdr under a fitted half-normal null.

    The q-value of a magnitude s is the smallest realized FDR estimate
    eta0 * (null tail beyond t) / (empirical tail fraction beyond t) over
    thresholds t <= s, which makes q non-increasing in |score| and the
    induced selections nested in the threshold.
    """
    a = np.abs(np.asarray(scores, dtype=float))
    grid = np.unique(a)
    curve = _fdr_curves(a, grid, eta0, null_scale)
    idx = np.searchsorted(grid, a)
    return SelectionResult(
        q_values=curve["q_value"][idx],
        local_fdr=curve["local_fdr"][idx],
        eta0=eta0,
        null_scale=null_scale,
        selected=np.empty(0, dtype=int),
        threshold_phi=np.inf,
        alpha=None,
    )


def null_model_curve(
    scores: np.ndarray, eta0: float, null_scale: float, points: int = 200
) -> dict[str, np.ndarray]:
    """Fitted null and mixture curves on a uniform magnitude grid.

    Replaces diagnostic density plots: emits the half-normal null density,
    the Grenander mixture density, the local fdr and the tail-area q-value
    at ``points`` equally spaced magnitudes, so the fit can be inspected
    externally.
    """
    a = np.abs(np.asarray(scores, dtype=float))
    return _fdr_curves(a, np.linspace(0.0, float(a.max()), points), eta0, null_scale)


def select(scores: ScoreVector | np.ndarray, alpha: float) -> SelectionResult:
    """Fit the null, compute q-values and select covariates with q <= alpha."""
    if not 0.0 < alpha < 1.0:
        raise BadValue(f"alpha must be in (0, 1), got {alpha}")
    arr = scores.scores if isinstance(scores, ScoreVector) else np.asarray(scores)
    eta0, null_scale = fit_null(arr)
    result = q_values(arr, eta0, null_scale)
    selected = np.flatnonzero(result.q_values <= alpha)
    magnitudes = np.abs(arr)
    threshold = float(magnitudes[selected].min()) if selected.size else np.inf
    result.selected = selected
    result.threshold_phi = threshold
    result.alpha = alpha
    return result
