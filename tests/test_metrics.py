import itertools

import numpy as np
import numpy.testing as npt
import pytest
from scipy.stats import rankdata

from survscreen import pr_auc
from survscreen.metrics import _average_ranks, rank_correlation, selection_confusion
from survscreen.errors import DegenerateRanksWarning, NoPositives


def pr_auc_oracle(scores, labels):
    """Enumerate every distinct threshold and integrate the step curve."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    positives = labels.sum()
    auc = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores.tolist()), reverse=True):
        sel = scores >= t
        tp = int(labels[sel].sum())
        precision = tp / int(sel.sum())
        recall = tp / positives
        auc += precision * (recall - prev_recall)
        prev_recall = recall
    return auc


def test_perfect_ranking_gives_one():
    curve = pr_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
    assert curve.auc == 1.0


def test_all_tied_gives_prevalence():
    curve = pr_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 0, 0])
    npt.assert_allclose(curve.auc, 0.25)
    assert curve.recall.shape == (1,)


def test_interleaved_instance_matches_oracle():
    scores = np.array([0.9, 0.8, 0.8, 0.7, 0.6, 0.5, 0.5, 0.4, 0.3, 0.1])
    labels = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 0])
    curve = pr_auc(scores, labels)
    npt.assert_allclose(curve.auc, pr_auc_oracle(scores, labels), atol=1e-15)


def test_exhaustive_small_configurations():
    # every label vector and every tie pattern from a 3-letter alphabet
    for n in (1, 2, 3, 4):
        for scores in itertools.product((0.0, 1.0, 2.0), repeat=n):
            arr = np.array(scores)
            for labels in itertools.product((0, 1), repeat=n):
                lab = np.array(labels)
                if lab.sum() == 0:
                    continue
                got = pr_auc(arr, lab).auc
                want = pr_auc_oracle(arr, lab)
                assert got == pytest.approx(want, abs=1e-15)


def test_random_configurations_match_oracle():
    rng = np.random.default_rng(0)
    for n in (5, 6, 7, 8):
        for _ in range(200):
            scores = rng.choice([0.1, 0.4, 0.7, 0.9], size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[0] = 1
            got = pr_auc(scores, labels).auc
            assert got == pytest.approx(pr_auc_oracle(scores, labels), abs=1e-15)


def test_invariant_under_increasing_transform():
    rng = np.random.default_rng(1)
    scores = rng.uniform(size=20)
    labels = rng.integers(0, 2, size=20)
    labels[0] = 1
    a = pr_auc(scores, labels).auc
    b = pr_auc(np.exp(3 * scores), labels).auc
    assert a == b


def test_no_positives_raises():
    with pytest.raises(NoPositives):
        pr_auc([0.1, 0.2], [0, 0])


def test_recall_non_decreasing_and_area_consistent():
    rng = np.random.default_rng(2)
    scores = rng.uniform(size=30)
    labels = rng.integers(0, 2, size=30)
    labels[:2] = 1
    curve = pr_auc(scores, labels)
    assert np.all(np.diff(curve.recall) >= 0)
    area = np.sum(curve.precision * np.diff(np.concatenate(([0.0], curve.recall))))
    npt.assert_allclose(curve.auc, area, rtol=1e-15)


def naive_spearman(a, b):
    def avg_ranks(v):
        order = np.argsort(v, kind="stable")
        ranks = np.empty(len(v))
        i = 0
        sorted_v = v[order]
        while i < len(v):
            j = i
            while j < len(v) and sorted_v[j] == sorted_v[i]:
                j += 1
            ranks[order[i:j]] = (i + j + 1) / 2  # average of 1-based positions
            i = j
        return ranks

    ra, rb = avg_ranks(np.abs(a)), avg_ranks(np.abs(b))
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra @ rb) / np.sqrt((ra @ ra) * (rb @ rb)))


def test_rank_correlation_identity_and_sign():
    v = np.array([0.5, -2.0, 1.0, 0.1])
    assert rank_correlation(v, v) == pytest.approx(1.0)
    assert rank_correlation(v, -v) == pytest.approx(1.0)


def test_rank_correlation_with_ties_matches_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.choice([0.0, 0.1, 0.5, 0.9], size=15)
        b = rng.choice([0.0, 0.2, 0.8], size=15)
        if np.all(np.abs(a) == np.abs(a)[0]) or np.all(np.abs(b) == np.abs(b)[0]):
            continue
        npt.assert_allclose(rank_correlation(a, b), naive_spearman(a, b), atol=1e-12)


def test_rank_correlation_closed_form_without_ties():
    rng = np.random.default_rng(4)
    a = rng.permutation(10) + 1.0
    b = rng.permutation(10) + 1.0
    diffs = np.argsort(np.argsort(a)) - np.argsort(np.argsort(b))
    closed = 1 - 6 * np.sum(diffs.astype(float) ** 2) / (10 * (100 - 1))
    npt.assert_allclose(rank_correlation(a, b), closed, atol=1e-12)


def test_average_ranks_match_scipy_rankdata_bitwise():
    rng = np.random.default_rng(8)
    for i in range(600):
        n = int(rng.integers(1, 60))
        v = rng.integers(0, 1 + i % 7, size=n).astype(float) if i % 2 else rng.standard_normal(n)
        if i % 11 == 0:
            v[rng.integers(0, n)] = -0.0
        got, want = _average_ranks(v), rankdata(v)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    nan = np.array([2.0, np.nan, 1.0])
    assert np.isnan(_average_ranks(nan)).all() and np.isnan(rankdata(nan)).all()


def test_rank_correlation_constant_side_warns_and_returns_zero():
    with pytest.warns(DegenerateRanksWarning):
        value = rank_correlation(np.ones(5), np.arange(5.0))
    assert value == 0.0


def test_confusion_basic_cases():
    assert selection_confusion({0, 1}, {0, 1}, 5) == (2, 0, 0, 3)
    assert selection_confusion(set(), {0, 1, 2}, 5) == (0, 0, 3, 2)


def test_confusion_matches_set_algebra():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = 30
        sel = set(rng.choice(d, size=rng.integers(0, d), replace=False).tolist())
        inf = set(rng.choice(d, size=rng.integers(1, d), replace=False).tolist())
        tp, fp, fn, tn = selection_confusion(sel, inf, d)
        assert tp == len(sel & inf)
        assert fp == len(sel - inf)
        assert fn == len(inf - sel)
        assert tp + fp + fn + tn == d
