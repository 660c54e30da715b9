"""Selection-quality metrics: precision-recall AUC, rank correlation of
effect orderings and confusion counts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRanksWarning, NoPositives


@dataclass
class PrCurve:
    """Step precision-recall curve with its area."""

    recall: np.ndarray
    precision: np.ndarray
    auc: float
    positives: int
    prevalence: float


def pr_auc(scores: np.ndarray, labels: np.ndarray) -> PrCurve:
    """Area under the precision-recall curve of a score ranking.

    ``scores`` are magnitudes ranked descending; tied scores form a single
    threshold block.  The area uses the step rule
    sum precision_k * delta-recall_k (average-precision form), so a curve
    with all scores tied collapses to a single point with area equal to
    the prevalence.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(int)
    positives = int(labels.sum())
    if positives == 0:
        raise NoPositives("no positive labels")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # last index of each tie block
    block_end = np.flatnonzero(
        np.concatenate((sorted_scores[1:] != sorted_scores[:-1], [True]))
    )
    tp = np.cumsum(sorted_labels)[block_end]
    predicted = block_end + 1
    precision = tp / predicted
    recall = tp / positives
    auc = float(np.sum(precision * np.diff(np.concatenate(([0.0], recall)))))
    return PrCurve(recall, precision, auc, positives, positives / labels.shape[0])


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks of v, each tie block sharing the mean of its ranks (all
    NaN if v holds a NaN), as ``scipy.stats.rankdata``: every rank is an
    integer or a half, so the two agree exactly."""
    order = np.argsort(v, kind="stable")
    s = v[order]
    start = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    count = np.diff(np.append(start, v.size))
    ranks = np.empty(v.size)
    ranks[order] = np.repeat(start + 1 + (count - 1) / 2, count)
    return ranks if not np.isnan(s[-1]) else np.full(v.size, np.nan)


def rank_correlation(true_effects: np.ndarray, scores: np.ndarray) -> float:
    """Spearman correlation of |true effects| vs |scores| with average ranks.

    Returns 0 (with a DegenerateRanksWarning) when either side is constant.
    """
    a = np.abs(np.asarray(true_effects, dtype=float))
    b = np.abs(np.asarray(scores, dtype=float))
    if a.shape != b.shape or a.shape[0] < 2:
        raise ValueError("inputs must be equal-length vectors with >= 2 entries")
    if np.all(a == a[0]) or np.all(b == b[0]):
        warnings.warn("constant ranks; correlation set to 0", DegenerateRanksWarning)
        return 0.0
    ra = _average_ranks(a)
    rb = _average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra @ rb) / np.sqrt((ra @ ra) * (rb @ rb)))


def selection_confusion(selected, influential, d: int) -> tuple[int, int, int, int]:
    """(TP, FP, FN, TN) of a selected set against the influential set."""
    sel = frozenset(int(i) for i in selected)
    inf = frozenset(int(i) for i in influential)
    if sel and not all(0 <= i < d for i in sel):
        raise ValueError("selected indices out of range")
    if inf and not all(0 <= i < d for i in inf):
        raise ValueError("influential indices out of range")
    tp = len(sel & inf)
    fp = len(sel - inf)
    fn = len(inf - sel)
    tn = d - tp - fp - fn
    return tp, fp, fn, tn
