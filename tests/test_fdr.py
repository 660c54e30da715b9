import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import brentq
from scipy.special import erf, erfc

from survscreen import fdr, select
from survscreen.errors import DegenerateScores, TooFewScores
from survscreen.fdr import _brentq, _grenander_density, _pava_decreasing, fit_null, q_values


def pava_minmax_oracle(y, w):
    """min-max characterization of decreasing isotonic regression, O(n^3)."""
    n = len(y)
    out = np.empty(n)
    for i in range(n):
        candidates = []
        for a in range(i + 1):
            best = -np.inf
            for b in range(i, n):
                seg = slice(a, b + 1)
                best = max(best, np.average(y[seg], weights=w[seg]))
            candidates.append(best)
        out[i] = min(candidates)
    return out


def test_pava_matches_minmax_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = rng.integers(2, 9)
        y = rng.standard_normal(n)
        w = rng.uniform(0.1, 2.0, size=n)
        npt.assert_allclose(_pava_decreasing(y, w), pava_minmax_oracle(y, w), atol=1e-10)


def test_grenander_density_integrates_to_one():
    rng = np.random.default_rng(1)
    a = np.abs(rng.standard_normal(200))
    f = _grenander_density(a, a)
    x = np.sort(np.unique(a))
    gaps = np.diff(np.concatenate(([0.0], x)))
    fitted = f[np.argsort(a)][np.searchsorted(np.sort(a), x)]
    npt.assert_allclose(np.sum(fitted * gaps), 1.0, rtol=1e-10)
    assert np.all(np.diff(fitted) <= 1e-12)  # non-increasing


def test_fit_null_requires_enough_scores():
    with pytest.raises(TooFewScores):
        fit_null(np.arange(10, dtype=float))


def test_fit_null_rejects_constant_scores():
    with pytest.raises(DegenerateScores):
        fit_null(np.full(50, 0.3))


@pytest.mark.parametrize("d", [25, 100])
def test_fit_null_rejects_unidentified_scale(d):
    # uniform magnitudes have no decreasing density near 0: the truncated
    # likelihood rises to the bound of the scale bracket
    with pytest.raises(DegenerateScores, match="not identified"):
        fit_null(np.random.default_rng(0).uniform(-1.0, 1.0, size=d))


def test_fit_null_pure_null_calibration():
    hits_scale = 0
    hits_eta = 0
    for rep in range(50):
        rng = np.random.default_rng(4000 + rep)
        eta0, scale = fit_null(rng.normal(0.0, 0.1, size=1000))
        hits_scale += 0.09 <= scale <= 0.11
        hits_eta += eta0 >= 0.95
    assert hits_scale >= 47
    assert hits_eta >= 47


def test_fit_null_mixture_eta0():
    rng = np.random.default_rng(6)
    scores = np.concatenate(
        [rng.normal(0.0, 0.1, size=900), np.abs(rng.normal(0.5, 0.1, size=100))]
    )
    eta0, scale = fit_null(scores)
    assert 0.82 <= eta0 <= 0.98
    assert 0.08 <= scale <= 0.13


def test_largest_score_gets_smallest_q():
    rng = np.random.default_rng(7)
    scores = np.concatenate(
        [rng.normal(0.0, 0.1, size=900), np.abs(rng.normal(0.5, 0.1, size=100))]
    )
    eta0, scale = fit_null(scores)
    res = q_values(scores, eta0, scale)
    top = np.argmax(np.abs(scores))
    assert res.q_values[top] == res.q_values.min()


def test_q_values_monotone_in_magnitude():
    rng = np.random.default_rng(8)
    scores = rng.normal(0.0, 1.0, size=400)
    eta0, scale = fit_null(scores)
    res = q_values(scores, eta0, scale)
    order = np.argsort(-np.abs(scores))
    q_sorted = res.q_values[order]
    assert np.all(np.diff(q_sorted) >= -1e-15)
    assert np.all((res.local_fdr >= 0) & (res.local_fdr <= 1))


def test_pure_null_selection_control():
    counts = []
    for rep in range(50):
        rng = np.random.default_rng(5000 + rep)
        res = select(rng.normal(0.0, 0.1, size=1000), 0.01)
        counts.append(res.selected.size)
    assert np.mean(counts) <= 10


def test_tiny_alpha_pure_null_mostly_empty():
    empty = 0
    for rep in range(40):
        rng = np.random.default_rng(6000 + rep)
        res = select(rng.normal(0.0, 1.0, size=1000), 1e-9)
        empty += res.selected.size == 0
    assert empty >= 38


def test_selection_nested_in_alpha():
    for rep in range(10):
        rng = np.random.default_rng(7000 + rep)
        scores = np.concatenate(
            [rng.normal(0.0, 0.1, size=900), np.abs(rng.normal(0.5, 0.1, size=100))]
        )
        sets = [set(select(scores, a).selected.tolist()) for a in (0.01, 0.05, 0.1)]
        assert sets[0] <= sets[1] <= sets[2]


def test_mixture_recovery_at_alpha_10():
    recovered = []
    for rep in range(50):
        rng = np.random.default_rng(8000 + rep)
        scores = np.concatenate(
            [rng.normal(0.0, 0.1, size=900), np.abs(rng.normal(0.5, 0.1, size=100))]
        )
        res = select(scores, 0.1)
        recovered.append(np.mean(res.selected >= 900) * res.selected.size / 100)
    assert np.median(recovered) >= 0.6


def test_threshold_phi_is_smallest_selected_magnitude():
    rng = np.random.default_rng(9)
    scores = np.concatenate(
        [rng.normal(0.0, 0.1, size=900), np.abs(rng.normal(0.6, 0.1, size=100))]
    )
    res = select(scores, 0.05)
    assert res.selected.size > 0
    npt.assert_allclose(res.threshold_phi, np.abs(scores)[res.selected].min())
    outside = np.setdiff1d(np.arange(1000), res.selected)
    assert np.all(res.q_values[outside] > 0.05)


def test_empty_selection_threshold_is_inf():
    rng = np.random.default_rng(10)
    res = select(rng.normal(0.0, 1.0, size=500), 1e-9)
    if res.selected.size == 0:
        assert res.threshold_phi == np.inf


def test_permutation_invariance():
    rng = np.random.default_rng(11)
    scores = rng.normal(0.0, 0.5, size=300)
    perm = rng.permutation(300)
    a = select(scores, 0.05)
    b = select(scores[perm], 0.05)
    npt.assert_array_equal(b.q_values, a.q_values[perm])
    npt.assert_array_equal(b.local_fdr, a.local_fdr[perm])
    npt.assert_array_equal(np.sort(perm[b.selected]), a.selected)


def test_null_model_curve_structure():
    from survscreen.fdr import null_model_curve

    rng = np.random.default_rng(13)
    scores = np.concatenate(
        [rng.normal(0.0, 0.2, size=450), np.abs(rng.normal(1.0, 0.2, size=50))]
    )
    eta0, scale = fit_null(scores)
    curve = null_model_curve(scores, eta0, scale, points=128)
    assert curve["magnitude"].shape == (128,)
    assert curve["magnitude"][0] == 0.0
    assert np.all(np.diff(curve["null_density"]) <= 0)
    assert np.all(np.diff(curve["mixture_density"]) <= 1e-12)
    assert np.all(np.diff(curve["q_value"]) <= 1e-15)
    assert np.all((curve["local_fdr"] >= 0) & (curve["local_fdr"] <= 1))
    # the fitted null is a sub-density of the mixture in the bulk
    bulk = curve["magnitude"] <= scale
    assert np.all(curve["null_density"][bulk] <= curve["mixture_density"][bulk] * 1.5)


def test_scale_equivariance():
    rng = np.random.default_rng(12)
    scores = np.concatenate(
        [rng.normal(0.0, 0.2, size=450), np.abs(rng.normal(1.0, 0.2, size=50))]
    )
    a = select(scores, 0.05)
    b = select(scores * 7.0, 0.05)
    npt.assert_allclose(b.null_scale, 7.0 * a.null_scale, rtol=1e-6)
    npt.assert_allclose(b.eta0, a.eta0, rtol=1e-8)
    npt.assert_allclose(b.q_values, a.q_values, atol=1e-8)
    npt.assert_array_equal(b.selected, a.selected)


def random_brackets(rng, count):
    """(f, a, b) with f(a) and f(b) of opposite signs: smooth, steep, flat
    and kinked functions, roots anywhere in the bracket or at its ends."""
    out = []
    while len(out) < count:
        a, b = np.sort(rng.uniform(-3.0, 3.0, size=2) * 10.0 ** rng.integers(-3, 3))
        root = a + (b - a) * float(rng.choice([rng.uniform(), 0.0, 1.0], p=[0.9, 0.05, 0.05]))
        kind = len(out) % 5
        c = rng.uniform(0.1, 5.0)
        if kind == 0:
            f = lambda x, r=root, c=c: c * (x - r) + (x - r) ** 3
        elif kind == 1:
            f = lambda x, r=root, c=c: math.tanh(c * (x - r) * 1e3)
        elif kind == 2:
            f = lambda x, r=root, c=c / (b - a): math.expm1(c * (x - r)) - 1e-3 * (x - r) ** 2
        elif kind == 3:
            f = lambda x, r=root, c=c: abs(x - r) ** 0.3 * math.copysign(1.0, x - r) * c
        else:
            f = lambda x, r=root, c=c: np.float64(x - r) * np.exp(-c * x * x)
        fa, fb = f(a), f(b)
        if a < b and (fa == 0 or fb == 0 or (fa < 0) != (fb < 0)):
            out.append((f, float(a), float(b)))
    return out


@pytest.mark.parametrize("tols", [(1e-15, 8.9e-16), (2e-12, 4 * np.finfo(float).eps), (1e-6, 1e-10)])
def test_brentq_matches_scipy_bitwise(tols):
    xtol, rtol = tols
    for f, a, b in random_brackets(np.random.default_rng(17), 1200):
        want = brentq(f, a, b, xtol=xtol, rtol=rtol)
        assert _brentq(f, a, b, xtol=xtol, rtol=rtol) == want


def test_brentq_matches_scipy_on_the_null_likelihood(monkeypatch):
    # fit_null with scipy's root finder in place of the port: every field equal
    rng = np.random.default_rng(23)
    vectors = [rng.normal(0.0, rng.uniform(0.01, 10.0), size=rng.integers(20, 400))
               for _ in range(150)]
    vectors += [np.concatenate([rng.normal(0.0, 0.1, 900), np.abs(rng.normal(0.5, 0.1, 100))])]

    def outcome(v):
        try:
            return fit_null(v)
        except DegenerateScores as exc:
            return str(exc)

    ported = [outcome(v) for v in vectors]
    monkeypatch.setattr(fdr, "_brentq", lambda *a, **k: float(brentq(*a, **k)))
    assert [outcome(v) for v in vectors] == ported


def test_brentq_raises_without_sign_change_or_convergence():
    with pytest.raises(ValueError):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-15, rtol=8.9e-16)
    with pytest.raises(RuntimeError):
        _brentq(lambda x: x**3 - 0.3, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16, maxiter=2)


# fdr takes erf and erfc from the standard library; scipy is the oracle
ERF_GRID = np.concatenate((np.linspace(0.0, 40.0, 200_001), np.geomspace(1e-12, 40.0, 50_001)))


def test_math_erf_matches_scipy():
    ours = np.array([math.erf(u) for u in ERF_GRID.tolist()])
    npt.assert_allclose(ours, erf(ERF_GRID), rtol=1e-15, atol=0)


def test_math_erfc_matches_scipy():
    want = erfc(ERF_GRID)
    keep = want >= 1e-300
    ours = np.array([math.erfc(u) for u in ERF_GRID[keep].tolist()])
    npt.assert_allclose(ours, want[keep], rtol=1e-12, atol=0)
