"""Univariate Cox proportional-hazards scores, the screening baseline.

Each covariate is fitted on its own by Newton-Raphson maximization of the
Cox partial log-likelihood with Breslow tie handling; the score is the
standardized coefficient (Z statistic).  The partial likelihood depends on
the time ordering only, so log-scale and raw-scale times give the same fit.
The times are sorted once per call and the covariates fitted together, one
per row of a block of at most ``BLOCK_CELLS`` cells, and every block
reuses one scratch array.  Every row is reduced over contiguous memory, so
each fit is bit-identical to its column's alone.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .cars import ScoreVector
from .data import SurvivalSample, column_blocks
from .errors import DegenerateOutcome

BETA_CAP = 15.0
SCORE_TOL = 1e-9
MAX_ITER = 25
BLOCK_CELLS = 1 << 14  # covariates x observations per block: 128 KB work arrays stay in cache


class CoxFits(NamedTuple):
    """Univariate Cox fits, one element of each array per covariate."""

    beta_hat: np.ndarray
    standard_error: np.ndarray
    z_score: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    flag: np.ndarray  # objects: None, "degenerate" or "separation"


def _breslow_parts(z, z2, z_ev, risk, beta, work):
    """Log-likelihood, score and information of each row of z at its beta.

    Rows of z are standardized covariates in time order, z2 their squares
    and z_ev their values at the events; ``risk[k]`` is the first sorted
    index of the risk set of event k (all observations with time >= its
    time).  ``work`` is a (3, >= rows, n) scratch array that holds the
    three summands and then, in place, their running sums from the end.  A
    per-row shift keeps the exponentials from overflowing; it cancels in
    all ratios.
    """
    w = work[:, : z.shape[0]]
    e, ze, z2e = w
    np.multiply(beta[:, None], z, out=e)
    shift = e.max(axis=1)
    np.exp(np.subtract(e, shift[:, None], out=e), out=e)
    np.multiply(z, e, out=ze)
    np.multiply(z2, e, out=z2e)
    tail = w[:, :, ::-1]
    np.cumsum(tail, axis=2, out=tail)
    # take() returns C-ordered rows, so each row sums as a lone column would;
    # the terms are then formed in those rows and one temporary
    s0, m1, var = w.take(risk, axis=2)
    m1 /= s0
    var /= s0
    np.log(s0, out=s0)
    s0 += shift[:, None]
    t = beta[:, None] * z_ev
    t -= s0
    loglik = t.sum(axis=1)
    var -= np.square(m1, out=t)
    info = var.sum(axis=1)
    score = np.subtract(z_ev, m1, out=m1).sum(axis=1)
    return loglik, score, info


def _fit_rows(xt, order, ev_pos, risk, work, fits: CoxFits) -> None:
    """Write the fit of each non-constant row of xt (covariates x
    observations in input order) into the same element of each array of
    ``fits``; ``order`` sorts by time, ``ev_pos`` picks the sorted events."""
    sd = xt.std(axis=1, ddof=1)
    # a constant row is degenerate even when mean round-off leaves sd ~ 1e-16
    live = np.flatnonzero((sd != 0) & ~(xt == xt[:, :1]).all(axis=1))
    sd, x = sd[live], (xt if live.size == len(xt) else xt[live])
    # fit on the standardized scale; the z score is invariant
    z = x - x.mean(axis=1)[:, None]
    z /= sd[:, None]
    z = z.take(order, axis=1)
    z2, z_ev = z**2, z.take(ev_pos, axis=1)
    cap = BETA_CAP * sd

    k = live.size
    beta = np.zeros(k)
    loglik, score, info = _breslow_parts(z, z2, z_ev, risk, beta, work)
    iterations = np.full(k, MAX_ITER)
    converged, separated = np.zeros((2, k), dtype=bool)
    rows = np.arange(k)  # still iterating; each row stops where a lone fit would
    for it in range(1, MAX_ITER + 1):
        bad = (info[rows] <= 0) | ~np.isfinite(info[rows])
        separated[rows[bad]], iterations[rows[bad]] = True, it
        rows = rows[~bad]
        done = np.abs(score[rows]) / info[rows] <= SCORE_TOL
        converged[rows[done]], iterations[rows[done]] = True, it - 1
        rows = rows[~done]
        if not rows.size:
            break
        base, floor = beta[rows], loglik[rows] - 1e-12
        step = score[rows] / info[rows]
        halving = np.arange(rows.size)
        for _ in range(30):
            r = rows[halving]
            beta[r] = base[halving] + step[halving]
            # while every row is active, r is arange(k): no row copies
            zr = (z, z2, z_ev) if r.size == k else (z[r], z2[r], z_ev[r])
            loglik[r], score[r], info[r] = _breslow_parts(*zr, risk, beta[r], work)
            halving = halving[~(loglik[r] >= floor[halving])]
            if not halving.size:
                break
            step[halving] /= 2
        capped = np.abs(beta[rows]) >= cap[rows]
        separated[rows[capped]], iterations[rows[capped]] = True, it
        rows = rows[~capped]

    sep = np.flatnonzero(separated)
    beta[sep] = np.sign(np.where(beta[sep] != 0, beta[sep], score[sep])) * cap[sep]
    info[sep] = _breslow_parts(z[sep], z2[sep], z_ev[sep], risk, beta[sep], work)[2]
    se_internal = np.full(k, np.inf)
    se_internal[info > 0] = 1.0 / np.sqrt(info[info > 0])
    z_score = np.divide(beta, se_internal, out=np.zeros(k), where=np.isfinite(se_internal))

    fields = (beta / sd, se_internal / sd, z_score, iterations, converged,
              np.where(separated, "separation", None))
    for out, values in zip(fits, fields):
        out[live] = values


def _fit_columns(times, events, x) -> CoxFits:
    """The univariate Cox fits of the columns of the n x d matrix x.

    A constant column carries no information and gets z = 0 with the
    "degenerate" flag.  A monotone partial likelihood (perfect separation)
    caps beta at +-BETA_CAP standard deviations, reports the z score of the
    capped fit and sets the "separation" flag with converged=False.
    """
    times = np.asarray(times, dtype=float)
    events = np.asarray(events)
    n = times.shape[0]
    if n < 2:
        raise DegenerateOutcome(f"need at least 2 observations, got {n}")
    if not (events == 1).any():
        raise DegenerateOutcome("no observed events")
    order = np.argsort(times, kind="stable")
    t_s = times[order]
    ev_pos = np.flatnonzero(events[order] == 1)
    risk = np.searchsorted(t_s, t_s[ev_pos], side="left")
    d = x.shape[1]
    fits = CoxFits(np.zeros(d), np.full(d, np.inf), np.zeros(d), np.zeros(d, dtype=int),
                   np.ones(d, dtype=bool), np.full(d, "degenerate", dtype=object))
    work = None
    for cols, xt in column_blocks(x, cells=BLOCK_CELLS):
        if work is None:
            work = np.empty((3, *xt.shape))  # every block's scratch: the first is the widest
        _fit_rows(xt, order, ev_pos, risk, work, CoxFits._make(f[cols] for f in fits))
    return fits


def cox_scores(sample: SurvivalSample) -> ScoreVector:
    """Z scores from per-covariate univariate Cox fits.

    Per-column failures are downgraded to flags: degenerate covariates get
    z = 0, separated fits report the capped-fit z.
    """
    fits = _fit_columns(sample.log_times, sample.events, sample.covariates)
    diagnostics = {
        "flags": fits.flag.tolist(),
        "iterations": fits.iterations,
        "converged": fits.converged,
    }
    return ScoreVector(fits.z_score, "cox", names=sample.covariate_names, diagnostics=diagnostics)
